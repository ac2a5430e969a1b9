"""Generalization bounds for linear models and MLPs via input-gradient norms."""

from .bounds import (
    BoundEstimate,
    EstimatorConfig,
    draw_stats,
    estimate_loss_bound,
    expected_grad_norm_mc,
    gradnorm_bound_curve,
    gradnorm_integral_bound,
    herbst_identity_check,
    linear_gradnorm_bound,
    log_sobolev_check,
    mgf_decomposition_check,
    naive_complexity_curve,
)
from .datasets import LabeledDataset, load_idx, split, synth_gaussian
from .gaussians import GaussianFamily, kl_divergence, posterior_family, prior_family, sample
from .nets import (
    MlpArchitecture,
    ParamVector,
    forward,
    grad_input,
    grad_params,
    lipschitz_bound,
    loss,
)
from .subgamma import SubGammaFit, check, envelope, fit
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"
