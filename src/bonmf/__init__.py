"""Binary orthogonal non-negative matrix factorization with baselines
(plain NMF, orthogonal NMF, semi-binary NMF), classification schemes and
a benchmark harness."""

from .bonmf import BonmfModel, binarize_columns, factorize_bonmf, init_h, update_h_cosine
from .classify import (
    LabeledDataset,
    accuracy,
    build_label_map,
    classify_angle_nearest,
    classify_bonmf,
    classify_coefficient_argmax,
)
from .data_io import DatasetSpec, load_dataset, save_dataset, train_test_split
from .init import init_w
from .matrices import (
    BinaryAssignment,
    DegenerateModelError,
    DegenerateVectorError,
    cosine_similarity,
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
from .semi_binary import SemiBinaryModel, factorize_zhang, update_h_row

__all__ = [
    "BinaryAssignment",
    "BonmfModel",
    "DatasetSpec",
    "DegenerateModelError",
    "DegenerateVectorError",
    "FactorizationTrace",
    "FactorizeOptions",
    "LabeledDataset",
    "NmfModel",
    "OnmfModel",
    "SemiBinaryModel",
    "accuracy",
    "binarize_columns",
    "build_label_map",
    "classify_angle_nearest",
    "classify_bonmf",
    "classify_coefficient_argmax",
    "cosine_similarity",
    "encode_sample",
    "factorize_bonmf",
    "factorize_nmf",
    "factorize_onmf",
    "factorize_zhang",
    "frobenius_objective",
    "init_h",
    "init_w",
    "load_dataset",
    "save_dataset",
    "train_test_split",
    "update_h_cosine",
    "update_h_dense",
    "update_h_row",
    "update_w",
]
