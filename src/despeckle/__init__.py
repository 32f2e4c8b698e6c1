"""Speckle denoising toolkit.

Core pieces: a robust non-local means filter whose weights discount
corrupted candidates, classic non-local means, the Lee/Frost/SRAD
baselines, a seeded synthetic-speckle lab, PGM I/O, and full-reference
quality metrics (PSNR, SSIM, edge preservation). A `despeckle` CLI
wraps the lot; see the README for usage.
"""

from .baselines import FrostParams, LeeParams, SradParams, frost_filter, lee_filter, srad
from .errors import DomainError, NumericError, ParameterError, PgmParseError
from .image import GrayImage, gaussian_axis_weights, gaussian_blur
from .metrics import CSV_HEADER, MetricReport, epi, evaluate, psnr, ssim
from .nlm import (
    NlmParams,
    RobustNlmParams,
    WeightField,
    compute_weight_field,
    make_patch_kernel,
    nlm_denoise,
    patch_distance,
    robust_nlm_denoise,
)
from .noise import (
    NoiseEstimate,
    SpeckleParams,
    add_gaussian_noise,
    add_multiplicative_speckle,
    estimate_noise_sigma,
    exp_expand,
    log_compress,
)
from .pgm import load_pgm, save_pgm

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "DomainError",
    "FrostParams",
    "GrayImage",
    "LeeParams",
    "MetricReport",
    "NlmParams",
    "NoiseEstimate",
    "NumericError",
    "ParameterError",
    "PgmParseError",
    "RobustNlmParams",
    "SpeckleParams",
    "SradParams",
    "WeightField",
    "add_gaussian_noise",
    "add_multiplicative_speckle",
    "compute_weight_field",
    "epi",
    "estimate_noise_sigma",
    "evaluate",
    "exp_expand",
    "frost_filter",
    "gaussian_axis_weights",
    "gaussian_blur",
    "lee_filter",
    "load_pgm",
    "log_compress",
    "make_patch_kernel",
    "nlm_denoise",
    "patch_distance",
    "psnr",
    "robust_nlm_denoise",
    "save_pgm",
    "srad",
    "ssim",
    "__version__",
]
