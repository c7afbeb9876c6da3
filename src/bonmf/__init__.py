"""Binary orthogonal non-negative matrix factorization with baselines
(plain NMF, orthogonal NMF, semi-binary NMF), classification schemes and
a benchmark harness."""

from .bonmf import BonmfModel, factorize_bonmf, init_h, update_h_cosine
from .classify import (
    LabeledDataset,
    accuracy,
    build_label_map,
    classify_angle_nearest,
    classify_bonmf,
    classify_coefficient_argmax,
)
from .data_io import DatasetSpec, load_dataset, save_dataset, train_test_split
from .init import init_w, least_squares_start
from .matrices import (
    BinaryAssignment,
    DegenerateModelError,
    frobenius_objective,
)
from .nmf import (
    FactorizationTrace,
    FactorizeOptions,
    NmfModel,
    factorize_nmf,
    update_h_dense,
    update_w,
)
from .onmf import OnmfModel, encode_sample, factorize_onmf
from .semi_binary import factorize_zhang, update_h_row

__all__ = [
    "BinaryAssignment",
    "BonmfModel",
    "DatasetSpec",
    "DegenerateModelError",
    "FactorizationTrace",
    "FactorizeOptions",
    "LabeledDataset",
    "NmfModel",
    "OnmfModel",
    "accuracy",
    "build_label_map",
    "classify_angle_nearest",
    "classify_bonmf",
    "classify_coefficient_argmax",
    "encode_sample",
    "factorize_bonmf",
    "factorize_nmf",
    "factorize_onmf",
    "factorize_zhang",
    "frobenius_objective",
    "init_h",
    "init_w",
    "least_squares_start",
    "load_dataset",
    "save_dataset",
    "train_test_split",
    "update_h_cosine",
    "update_h_dense",
    "update_h_row",
    "update_w",
]
