"""Distributed low-rank adaptive optimization, simulated at desk scale."""

__version__ = "0.4.0"

from .config import RunConfig, from_dict, load_file  # noqa: F401
from .distsim import Engine, sparsify_topk  # noqa: F401
from .linalg import clip_frobenius, frobenius_norm, svd  # noqa: F401
from .problems import MatrixRegression  # noqa: F401
from .projection import mssv, spectral_gap, stable_rank  # noqa: F401
