"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 8 needs externally supplied dataset files and is
skipped when they are absent (see datasets/README note in the top-level
README)."""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bonmf import (
    FactorizeOptions,
    accuracy,
    build_label_map,
    classify_angle_nearest,
    classify_bonmf,
    factorize_bonmf,
    factorize_nmf,
    update_h_cosine,
    update_h_row,
)
from bonmf.bench import ExperimentConfig, emit_report, run_experiment, synth_dataset
from bonmf.classify import reset_similarity_counter, similarity_counter
from bonmf.data_io import DatasetSpec, load_dataset, train_test_split

from test_bonmf import brute_force_assignments
from test_semi_binary import brute_force_row

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"


def report(num, name, ok=True):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_one_hot_orthogonality_invariants():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    for _ in range(50):
        m = int(rng.integers(5, 31))
        n = int(rng.integers(10, 101))
        k = int(rng.integers(2, 7))
        X = rng.random((m, n))

        def check(it, W, assign):
            H = assign.to_dense()
            assert np.all(H.sum(axis=0) == 1.0), "column not one-hot"
            G = H @ H.T
            assert np.array_equal(G, np.diag(np.diag(G))), "H H^T not diagonal"

        factorize_bonmf(
            X, k, FactorizeOptions(max_iterations=10, tolerance=0, seed=int(rng.integers(1 << 31))),
            on_iteration=check,
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"invariant sweep took {elapsed:.1f}s"
    report(1, "one-hot/orthogonality invariants over 50 instances")


def test_criterion_02_cosine_update_oracle_equivalence():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(1, 50))
        k = int(rng.integers(1, 7))
        X = rng.random((m, n))
        W = rng.random((m, k))
        assert np.array_equal(
            update_h_cosine(X, W).labels, brute_force_assignments(X, W)
        )
    report(2, "cosine H update matches brute-force oracle on 100 instances")


def test_criterion_03_lee_seung_monotonicity():
    rng = np.random.default_rng(102)
    for i in range(20):
        X = rng.random((50, 40))
        model = factorize_nmf(
            X, 5, FactorizeOptions(max_iterations=200, tolerance=0, seed=i)
        )
        t = np.array(model.trace.objective_per_iteration)
        assert len(t) == 200
        violations = np.nonzero(t[1:] > t[:-1] * (1 + 1e-9))[0]
        assert violations.size == 0, f"objective rose at steps {violations[:5]}"
    report(3, "NMF objective non-increasing on 20 random 50x40 instances")


def test_criterion_04_spherical_assignment_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(50):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(5, 60))
        k = int(rng.integers(2, 6))
        X = rng.random((m, n)) + 1e-6
        W = rng.random((m, k)) + 1e-6
        X /= np.linalg.norm(X, axis=0)
        W /= np.linalg.norm(W, axis=0)
        cosine_labels = update_h_cosine(X, W).labels
        dists = np.linalg.norm(X[:, :, None] - W[:, None, :], axis=0)
        assert np.array_equal(cosine_labels, np.argmin(dists, axis=1))
    report(4, "cosine assignment equals nearest-centroid on unit sphere")


def _bonmf_accuracy(noise, seed):
    ds = synth_dataset("blocks", 20, 200, 4, noise, seed)
    train, test = train_test_split(ds, 0.8, seed)
    model = factorize_bonmf(train.data, 4, FactorizeOptions(seed=seed))
    model.cluster_labels = build_label_map(model.assignments, train.labels)
    preds = [classify_bonmf(test.data[:, j], model) for j in range(test.n)]
    return accuracy(preds, test.labels)


def test_criterion_05_separable_recovery():
    for seed in range(10):
        assert _bonmf_accuracy(0.0, seed) == 1.0, f"seed {seed} below 1.0 on clean blocks"
    noisy = [_bonmf_accuracy(0.1, seed) for seed in range(10)]
    assert np.mean(noisy) >= 0.95, f"noisy-block mean accuracy {np.mean(noisy):.3f}"
    report(5, "block recovery: clean accuracy 1.0, noisy mean >= 0.95")


def test_criterion_06_classification_cost():
    # exactly k similarity evaluations per classified sample
    rng = np.random.default_rng(104)
    ds_small = synth_dataset("blocks", 10, 50, 5, 0.1, seed=0)
    model = factorize_bonmf(ds_small.data, 5, FactorizeOptions(seed=0))
    model.cluster_labels = build_label_map(model.assignments, ds_small.labels)
    for _ in range(20):
        reset_similarity_counter()
        classify_bonmf(rng.random(10), model)
        assert similarity_counter() == 5

    # measured CT ordering against the coefficient-angle NMF scheme
    ds = synth_dataset("blocks", 20, 6000, 5, 0.1, seed=1)
    train, test = train_test_split(ds, 5000 / 6000, seed=1)
    opts = FactorizeOptions(max_iterations=30, seed=1)

    bm = factorize_bonmf(train.data, 5, opts)
    bm.cluster_labels = build_label_map(bm.assignments, train.labels)
    t0 = time.perf_counter()
    for j in range(test.n):
        classify_bonmf(test.data[:, j], bm)
    ct_bonmf = time.perf_counter() - t0

    nm = factorize_nmf(train.data, 5, opts)
    t0 = time.perf_counter()
    for j in range(test.n):
        classify_angle_nearest(test.data[:, j], nm, train, scheme="nmf")
    ct_nmf = time.perf_counter() - t0

    assert ct_bonmf < ct_nmf, f"CT(bonmf)={ct_bonmf:.3f}s not below CT(nmf)={ct_nmf:.3f}s"
    report(6, f"k-cosine classification cost (CT {ct_bonmf:.2f}s < {ct_nmf:.2f}s)")


def test_criterion_07_space_bound():
    rng = np.random.default_rng(105)
    m, n, k = 10, 20000, 6
    X = rng.random((m, n))
    W = rng.random((m, k))
    dense_bytes = 8 * k * n
    tracemalloc.start()
    assign = update_h_cosine(X, W)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # assignment vector itself is Theta(n); intermediates must stay far
    # below a dense k x n buffer
    assert assign.labels.shape == (n,)
    assert peak < 0.5 * dense_bytes, f"peak {peak}B vs dense H {dense_bytes}B"
    report(7, f"H path peak allocation {peak}B << dense {dense_bytes}B")


TABLE2_TARGETS = [
    # file stem, mean accuracy target (percent), tolerance (points)
    ("diabetes", 68.96, 5.0),
    ("monkey", 80.95, 7.0),
    ("orl", 89.99, 5.0),
]


@pytest.mark.parametrize("stem,target,tol", TABLE2_TARGETS)
def test_criterion_08_table2_soft_reproduction(stem, target, tol):
    path = DATASET_DIR / f"{stem}.csv"
    if not path.exists():
        pytest.skip(f"dataset file {path} not supplied")
    ds = load_dataset(DatasetSpec(path=str(path), has_header=True, shift_nonneg=True))
    accs = []
    for trial in range(30):
        train, test = train_test_split(ds, 0.8, seed=trial)
        model = factorize_bonmf(train.data, ds.class_count, FactorizeOptions(seed=trial))
        model.cluster_labels = build_label_map(model.assignments, train.labels)
        preds = [classify_bonmf(test.data[:, j], model) for j in range(test.n)]
        accs.append(accuracy(preds, test.labels))
    mean_pct = 100.0 * float(np.mean(accs))
    ok = abs(mean_pct - target) <= tol
    report(8, f"{stem} mean accuracy {mean_pct:.2f}% vs {target}% +/- {tol}", ok)
    assert ok


def test_criterion_09_zhang_sign_rule():
    rng = np.random.default_rng(106)
    for _ in range(100):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 10))
        k = int(rng.integers(1, 5))
        X = rng.random((m, n))
        W = rng.random((m, k))
        H = rng.integers(0, 2, (k, n)).astype(float)
        row = int(rng.integers(0, k))
        assert np.array_equal(update_h_row(X, W, H, row), brute_force_row(X, W, H, row))
    report(9, "sign-rule row update matches elementwise oracle on 100 instances")


def test_criterion_10_benchmark_determinism():
    ds = synth_dataset("blocks", 12, 80, 3, 0.1, seed=2)
    cfg = ExperimentConfig(
        dataset=DatasetSpec(path="<in-memory>"),
        methods=("bonmf", "nmf", "onmf", "onmf-cos", "zhang"),
        trials=2,
        max_iterations=25,
        base_seed=7,
    )

    def masked(rep):
        payload = json.loads(emit_report(rep, "json"))
        for rec in payload["records"]:
            rec["tt"] = rec["ct"] = None
        for agg in payload["aggregates"].values():
            for key in ("tt_mean", "tt_stddev", "ct_mean", "ct_stddev"):
                agg[key] = None
        return payload

    assert masked(run_experiment(cfg, ds=ds)) == masked(run_experiment(cfg, ds=ds))
    report(10, "two identical runs produce field-identical reports modulo timing")
