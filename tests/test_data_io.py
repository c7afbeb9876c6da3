import numpy as np
import pytest

from bonmf import DatasetSpec, load_dataset, save_dataset, train_test_split
from bonmf.classify import LabeledDataset
from bonmf.data_io import DatasetFormatError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_csv_with_header(tmp_path):
    path = write(tmp_path, "d.csv", "f1,f2,label\n1.0,2.0,7\n3.0,4.0,9\n5.0,6.0,7\n")
    ds = load_dataset(DatasetSpec(path=path, has_header=True))
    assert ds.data.shape == (2, 3)  # samples as columns
    assert ds.data[:, 1].tolist() == [3.0, 4.0]
    assert ds.labels.tolist() == [0, 1, 0]  # remapped to contiguous ids
    assert ds.class_count == 2


def test_csv_label_column_index(tmp_path):
    path = write(tmp_path, "d.csv", "5,1.0,2.0\n5,3.0,4.0\n")
    ds = load_dataset(DatasetSpec(path=path, label_column=0))
    assert ds.data[:, 0].tolist() == [1.0, 2.0]
    assert ds.class_count == 1


@pytest.mark.parametrize("label_column", [-1, "-1", "first", 1.0, True, ""])
def test_label_column_must_be_last_or_a_non_negative_index(tmp_path, label_column):
    # at -1, the label column would also be read as the last feature
    with pytest.raises(ValueError, match="label_column"):
        DatasetSpec(path=write(tmp_path, "d.csv", "1.0,2.0,0\n"), label_column=label_column)


def test_label_column_digits_are_an_index(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,2.0,5\n3.0,4.0,6\n")
    spec = DatasetSpec(path=path, label_column="2")
    assert spec == DatasetSpec(path=path, label_column=2)
    assert spec.label_column == 2
    assert load_dataset(spec).data.tolist() == [[1.0, 3.0], [2.0, 4.0]]


def test_label_column_past_the_row_end_carries_line_number(tmp_path):
    path = write(tmp_path, "d.csv", "1.0,2.0,0,9\n1.0,2.0,0\n")
    with pytest.raises(DatasetFormatError, match="d.csv:2"):
        load_dataset(DatasetSpec(path=path, label_column=3))


def test_csv_parse_error_carries_line_number(tmp_path):
    path = write(tmp_path, "bad.csv", "1.0,2.0,0\noops,2.0,1\n")
    with pytest.raises(DatasetFormatError, match="bad.csv:2"):
        load_dataset(DatasetSpec(path=path))


def test_csv_inconsistent_width(tmp_path):
    path = write(tmp_path, "bad.csv", "1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DatasetFormatError, match=":2"):
        load_dataset(DatasetSpec(path=path))


def test_libsvm_sparse_fill(tmp_path):
    path = write(tmp_path, "d.svm", "1 1:0.5 3:2\n0 2:1\n")
    ds = load_dataset(DatasetSpec(path=path, format="libsvm"))
    assert ds.data[:, 0].tolist() == [0.5, 0.0, 2.0]
    assert ds.data[:, 1].tolist() == [0.0, 1.0, 0.0]
    assert ds.labels.tolist() == [1, 0]


def test_libsvm_rejects_zero_based_indices(tmp_path):
    path = write(tmp_path, "d.svm", "1 0:0.5\n")
    with pytest.raises(DatasetFormatError, match=":1"):
        load_dataset(DatasetSpec(path=path, format="libsvm"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_features(tmp_path, bad):
    path = write(tmp_path, "d.csv", f"1.0,2.0,0\n3.0,{bad},1\n")
    with pytest.raises(ValueError, match=r"d\.csv: sample 1 .*NaN or infinite"):
        load_dataset(DatasetSpec(path=path, shift_nonneg=True))


def test_libsvm_rejects_non_finite_features(tmp_path):
    path = write(tmp_path, "d.svm", "1 1:0.5\n0 3:nan\n1 2:1\n")
    with pytest.raises(ValueError, match=r"d\.svm: sample 1 .*NaN or infinite"):
        load_dataset(DatasetSpec(path=path, format="libsvm"))


def test_negative_features_require_shift(tmp_path):
    path = write(tmp_path, "d.csv", "-1.0,2.0,0\n3.0,4.0,1\n")
    with pytest.raises(ValueError, match="negative"):
        load_dataset(DatasetSpec(path=path))
    ds = load_dataset(DatasetSpec(path=path, shift_nonneg=True))
    assert ds.data.min() == 0.0
    assert ds.data[0].tolist() == [0.0, 4.0]  # feature min -1 shifted to 0
    assert ds.data[1].tolist() == [2.0, 4.0]  # non-negative feature untouched


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = LabeledDataset(rng.random((4, 7)), np.array([0, 1, 2, 0, 1, 2, 0]), 3)
    path = tmp_path / "rt.csv"
    save_dataset(ds, path)
    back = load_dataset(DatasetSpec(path=str(path)))
    assert back.data.tobytes() == ds.data.tobytes()
    assert np.array_equal(back.labels, ds.labels)


def test_split_sizes_and_determinism():
    ds = LabeledDataset(np.random.default_rng(1).random((3, 10)), np.zeros(10, dtype=int), 1)
    tr, te = train_test_split(ds, 0.8, seed=5)
    assert (tr.n, te.n) == (8, 2)
    tr2, te2 = train_test_split(ds, 0.8, seed=5)
    assert np.array_equal(tr.data, tr2.data) and np.array_equal(te.data, te2.data)


def test_split_ceiling_rule():
    ds = LabeledDataset(np.ones((2, 5)), np.zeros(5, dtype=int), 1)
    tr, te = train_test_split(ds, 0.8, seed=0)
    assert (tr.n, te.n) == (4, 1)


def test_split_partitions_sample_set():
    rng = np.random.default_rng(2)
    data = np.arange(30, dtype=float).reshape(1, 30)  # distinct columns
    ds = LabeledDataset(data, rng.integers(0, 2, 30), 2)
    tr, te = train_test_split(ds, 0.7, seed=3)
    combined = sorted(np.concatenate([tr.data[0], te.data[0]]).tolist())
    assert combined == data[0].tolist()
    assert tr.class_count == te.class_count == 2


def test_split_rejects_degenerate():
    ds = LabeledDataset(np.ones((2, 3)), np.zeros(3, dtype=int), 1)
    with pytest.raises(ValueError):
        train_test_split(ds, 0.99, seed=0)  # ceil(2.97) = 3 -> empty test part
    with pytest.raises(ValueError):
        train_test_split(ds, 0.0, seed=0)

