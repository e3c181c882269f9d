"""lu_flow: spectral Galerkin simulation and verification of 2D Navier-Stokes
under location-uncertainty transport noise on the periodic torus."""

__version__ = "0.1.0"  # before the imports: config reads it while the package loads

from .spectral import (
    TorusGrid,
    energy,
    h_norm,
    leray_project,
    load_snapshot,
    save_snapshot,
    v_norm,
)
from .noise import NoiseModel, WienerPath, build_noise_model, check_regularity
from .operators import (
    OperatorContext,
    apply_A,
    apply_B,
    apply_F,
    apply_G_column,
    noise_increment,
)
from .solver import (
    BlowUpError,
    SolverConfig,
    TrajectoryRecord,
    build_context,
    make_initial,
    run,
    run_scalar_transport,
)
from .diagnostics import (
    ContractionReport,
    ConvergenceReport,
    contraction_test,
    energy_budget_transport,
    energy_estimate_check,
    epsilon_convergence_study,
)
from .config import ConfigError, RunManifest, config_hash, parse_config
