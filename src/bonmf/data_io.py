"""Dataset ingestion (CSV and libsvm-style sparse text) and the 80/20 split.

Loaded datasets follow the global samples-as-columns convention: features
are rows of the data matrix, one column per sample. Labels are re-encoded
to contiguous ids in [0, class_count), ordered by the original label's
sort order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .classify import LabeledDataset


@dataclass
class DatasetSpec:
    path: str
    format: str = "csv"
    label_column: int | str = "last"
    delimiter: str = ","
    has_header: bool = False
    shift_nonneg: bool = False

    def __post_init__(self):
        if self.format not in ("csv", "libsvm"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.label_column != "last":
            # digits only: no sign, no decimal point, no bool
            if not str(self.label_column).isdecimal():
                raise ValueError(
                    f"label_column must be 'last' or an integer >= 0, got {self.label_column!r}"
                )
            self.label_column = int(self.label_column)


class DatasetFormatError(ValueError):
    """Unparsable or inconsistent dataset file; carries the line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def _parse_csv(spec: DatasetSpec):
    rows, raw_labels = [], []
    with open(spec.path, newline="") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        for lineno, record in enumerate(reader, start=1):
            if lineno == 1 and spec.has_header:
                continue
            if not record:
                continue
            label_idx = len(record) - 1 if spec.label_column == "last" else spec.label_column
            try:
                label = record[label_idx]
                feats = [
                    float(v) for i, v in enumerate(record) if i != label_idx
                ]
            except (ValueError, IndexError) as exc:
                raise DatasetFormatError(spec.path, lineno, str(exc)) from exc
            if rows and len(feats) != len(rows[0]):
                raise DatasetFormatError(
                    spec.path, lineno, f"expected {len(rows[0])} features, got {len(feats)}"
                )
            rows.append(feats)
            raw_labels.append(label)
    if not rows:
        raise DatasetFormatError(spec.path, 0, "no data rows")
    return np.array(rows).T, raw_labels


def _parse_libsvm(spec: DatasetSpec):
    samples, raw_labels = [], []
    max_index = 0
    with open(spec.path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                raw_labels.append(parts[0])
                entries = {}
                for tok in parts[1:]:
                    idx, val = tok.split(":")
                    entries[int(idx)] = float(val)
            except (ValueError, IndexError) as exc:
                raise DatasetFormatError(spec.path, lineno, str(exc)) from exc
            if entries and min(entries) < 1:
                raise DatasetFormatError(spec.path, lineno, "feature indices are 1-based")
            if entries:
                max_index = max(max_index, max(entries))
            samples.append(entries)
    if not samples:
        raise DatasetFormatError(spec.path, 0, "no data rows")
    X = np.zeros((max_index, len(samples)))
    for j, entries in enumerate(samples):
        for idx, val in entries.items():
            X[idx - 1, j] = val
    return X, raw_labels


def _encode_labels(raw_labels):
    # numeric-looking labels sort numerically, everything else lexically
    try:
        keys = sorted({float(r) for r in raw_labels})
        mapping = {k: i for i, k in enumerate(keys)}
        ids = np.array([mapping[float(r)] for r in raw_labels], dtype=np.intp)
    except ValueError:
        keys = sorted(set(raw_labels))
        mapping = {k: i for i, k in enumerate(keys)}
        ids = np.array([mapping[r] for r in raw_labels], dtype=np.intp)
    return ids, len(keys)


def load_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Parse the file described by `spec` into a samples-as-columns dataset.

    A NaN or infinite feature aborts the load. Negative features either
    get shifted per-feature to zero minimum (spec.shift_nonneg) or abort
    the load: every factorizer here needs X >= 0.
    """
    if spec.format == "csv":
        X, raw_labels = _parse_csv(spec)
    else:
        X, raw_labels = _parse_libsvm(spec)

    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise ValueError(
            f"{spec.path}: sample {int(np.argmin(finite))} (counted from 0) "
            "has NaN or infinite features"
        )
    if np.any(X < 0):
        if not spec.shift_nonneg:
            raise ValueError(
                f"{spec.path}: negative feature values; set shift_nonneg to shift them"
            )
        mins = X.min(axis=1, keepdims=True)
        X = X - np.minimum(mins, 0.0)

    labels, class_count = _encode_labels(raw_labels)
    return LabeledDataset(data=X, labels=labels, class_count=class_count)


def save_dataset(ds: LabeledDataset, path):
    """CSV writer (features then label). Uses repr floats, so a load of the
    written file reproduces the matrix bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for j in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.data[:, j]] + [int(ds.labels[j])])


def train_test_split(ds: LabeledDataset, train_fraction: float, seed: int):
    """Seeded uniform shuffle; the first ceil(train_fraction * n) samples
    train, the rest test. Both parts keep the original class_count."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = ds.n
    n_train = math.ceil(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise ValueError(f"split of {n} samples at {train_fraction} leaves an empty part")
    perm = np.random.default_rng(seed).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    make = lambda idx: LabeledDataset(ds.data[:, idx], ds.labels[idx], ds.class_count)
    return make(tr), make(te)
