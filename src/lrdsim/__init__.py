"""Distributed low-rank adaptive optimization, simulated at desk scale."""

__version__ = "0.1.0"

from .config import RunConfig, from_dict, load_file  # noqa: F401
from .distsim import Engine, sparsify_topk  # noqa: F401
from .linalg import SvdResult, clip_frobenius, frobenius_norm, svd  # noqa: F401
from .problems import MatrixRegression  # noqa: F401
from .projection import mssv, sin_theta_distance, spectral_gap, stable_rank  # noqa: F401
