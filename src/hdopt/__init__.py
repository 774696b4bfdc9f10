"""Hybrid populations of first- and zeroth-order gradient agents:
pairwise-interaction simulator, metrics, and analytic-bound verification.

The common entry points are re-exported here; the rest lives in the
submodules objectives, estimators, protocol, metrics, theory and runner."""

__version__ = "0.1.0"

from .estimators import (
    FIRST_ORDER,
    ZO_CENTRAL,
    ZO_FORWARD,
    ZO_ONE_SIDED,
    EstimatorConfig,
    estimate_rows,
)
from .objectives import (
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from .protocol import (
    DivergedError,
    Population,
    PopulationConfig,
    Schedule,
    eta_at,
    init_population,
    interact,
    run,
    step_window,
)
from .runner import ConfigError, parse_config, run_experiment, run_theory_suite
