"""Euler-Maruyama schemes with decreasing step sizes for alpha-stable SDEs.

Two discretizations of dX = b(X) dt + A dZ with A = I (Z isotropic
alpha-stable, 1 < alpha < 2) and steps gamma_n -> 0, plus the measurement
apparatus to check their Wasserstein-1 convergence rates to the invariant
law: exact samplers, characteristic-function oracles, W1 estimators,
step-schedule diagnostics, and a reproducible parallel ensemble engine.
"""

__version__ = "0.6.0"

import os

# Before any submodule imports NumPy: an OpenBLAS thread pool spins on every
# core for about 0.13 s after the import, CPU time the process pays, while
# every BLAS call here is on arrays too small to gain from threads.  A value
# already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cf_oracle import (
    OracleW1,
    first_order_cf_coefficient,
    pareto_cf,
    pareto_em_chain_cf,
    stable_mean_abs,
    stable_ou_invariant_cf,
    w1_exact_ou_vs_invariant,
    w1_pareto_chain_vs_invariant,
    w1_stable_chain_vs_invariant,
)
from .config import ConfigError, ExperimentConfig, load_config
from .drift import (
    CertificationReport,
    DriftModel,
    builtin_ou,
    builtin_perturbed_ou,
    certify_assumptions,
    drift_by_name,
)
from .em import (
    EXACT_OU,
    PARETO_EM,
    STABLE_EM,
    EnsembleResult,
    EnsembleRun,
    empirical_moment,
    run_ensemble,
)
from .experiments import ExperimentReport, emit_outputs, run_experiment
from .metrics import (
    RateFit,
    ecf,
    rate_fit,
    w1_gap_stderr,
    w1_sorted_1d,
)
from .rng import GENERATOR_NAME, derive_stream
from .sampling import (
    NoiseConstants,
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
    sample_stable_vec,
)
from .schedule import (
    ScheduleDiagnostics,
    StepSchedule,
    decay_diagnostics,
    omega_of,
    rho_theory,
)

__all__ = [name for name in dir() if not name.startswith("_")]
