"""Sharpness-aware minimizers with variance-suppressed adversaries.

Optimizers (one sharpness-aware step whose settings give SGD, SAM, VASSO,
eVASSO and SAM-db; stochastic Frank-Wolfe over the sphere), stochastic objectives (noisy quadratics, datasets, a numpy MLP),
diagnostics (adversary drift, EMA variance suppression, delta-stability,
SNR spread, Lanczos spectra, landscape slices), and a deterministic
experiment harness with a CLI front end.
"""

from .core import (Schedule, make_rng, norm2, normalize_to_sphere,
                   schedule_value)
from .errors import (ConfigError, DimensionMismatchError, InvalidParameterError,
                     NonFiniteError, VassoOptError)
from .objectives import (Dataset, Mlp, MlpObjective, NoisyQuadratic,
                         hvp_finite_difference, inject_label_noise,
                         load_dataset_csv, m_sharpness_example,
                         m_sharpness_objective, make_blobs_dataset,
                         mlp_objective)
from .optimizers import (AdversaryState, OptimizerConfig, StepReport,
                         base_update, sam_adversary, sam_step, sfw_solve,
                         sgd_step, vasso_step, vasso_update)
from .analysis import (SpectrumEstimate, SpreadStat, StabilityTrace,
                       delta_stability, ema_slope_sampler, ema_steady_state_mse,
                       landscape_slice, lanczos_spectrum, mse_suppression,
                       noise_scale_for_snr, noisy_grad_sampler,
                       snr_adversary_spread, track_drift)
from .harness import (ExperimentConfig, ExperimentResult, MetricsColumns,
                      MetricsRow, PairedCompareResult, TradeoffRow, load_config,
                      paired_compare, parse_config, parse_config_text,
                      run_arms, run_experiment, run_seed, run_seeds,
                      tradeoff_sweep)

__version__ = "0.1.0"
