"""Rectified-flow trajectory engine with transport-guided editing.

Closed-form oracle velocity fields stand in for a trained model, so both
editing procedures and the theoretical-bound verifiers run exactly and fast
at desk scale.
"""

from .config import (ConfigError, ExperimentConfig, derive_config, load_config,
                     load_config_text, serialize_config)
from .core import (LatentCodec, NumericalAbort, TimeGrid, Trajectory, denoise,
                   euler_step, forward_noising, integrate, make_time_grid, rf_invert)
from .editors import (EditResult, EditSummary, FlowEditConfig, InversionEditConfig,
                      RngSeed, baseline_flowedit, controller_guided_velocity,
                      transport_enhanced_flowedit, transport_guided_inversion_edit)
from .fields import (Condition, FieldRegistry, GuidanceScales, UnknownDatasetError,
                     cfg_blend, conditional_linear_velocity,
                     empirical_marginal_velocity, gaussian_marginal_velocity,
                     make_velocity)
from .metrics import (AssignmentPlan, BoundReport, VerifySetup, l2_distance,
                      reference_integrate, schedule_integral,
                      verify_convergence_bound, verify_discretization_bound,
                      verify_edit_control_bound, w2_dirac_to_gaussian,
                      w2_dirac_to_points, w2_empirical_exact, w2_gaussian)
from .presets import PRESETS, get_preset, preset_names
from .runner import (RunArtifacts, SweepOutcome, derive_seed, gen_data,
                     run_experiment, run_sweep, run_verify)
from .svgplot import render_metric_chart, render_point_cloud, render_trajectories
from .transport import (TransportConfig, adaptive_weight, clip_norm, cosine_schedule,
                        enhance_velocity, make_enhanced, transport_direction)

__version__ = "0.1.0"
