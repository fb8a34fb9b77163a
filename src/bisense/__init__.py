"""Position-error bounds and transmit-beam optimization for a two-site
(separate transmitter and receiver) narrowband OFDM sensing link.

The core objects are Scenario (geometry, arrays, carrier plan, powers),
BeamCovariance (per-subcarrier 2x2 transmit covariance blocks in the
steering/derivative basis), the information matrix and bounds in fisher, and
optimize(), which minimizes the squared position error bound over the
feasible covariance set.
"""

from .array_manifold import ArrayModel, SteeringPair, build_uca, steering
from .beamform_opt import (
    OptOptions,
    OptResult,
    monopulse_candidate,
    optimize,
    project_feasible,
    rank_profile,
    speb_gradient,
)
from .config import (
    RunConfig,
    ScenarioConfig,
    build_grid,
    build_options,
    build_scenario,
    default_config,
    dump_config,
    load_config,
)
from .errors import (
    BisenseError,
    ConfigError,
    DegenerateGeometry,
    InfeasibleScenario,
    InvalidAlpha,
    InvalidArray,
    SingularEFIM,
)
from .fisher import (
    BeamCovariance,
    FisherBundle,
    Scenario,
    fim_entrywise,
    fim_from_derivatives,
    fim_xform,
    peb,
    precoder,
    speb,
    speb_known_gain,
    subcarrier_offsets_rad,
)
from .geometry import SPEED_OF_LIGHT, GeometryState, Position2D, derive_geometry
from .sweep import (
    GridSpec,
    RoleSweepResult,
    SweepResult,
    channel_gain,
    role_sweep,
    swap_roles,
    sweep,
    write_role_csv,
    write_sweep_csv,
)
from .validate import CheckResult, run_validation

__all__ = [
    "ArrayModel",
    "BeamCovariance",
    "BisenseError",
    "CheckResult",
    "ConfigError",
    "DegenerateGeometry",
    "FisherBundle",
    "GeometryState",
    "GridSpec",
    "InfeasibleScenario",
    "InvalidAlpha",
    "InvalidArray",
    "OptOptions",
    "OptResult",
    "Position2D",
    "RoleSweepResult",
    "RunConfig",
    "Scenario",
    "ScenarioConfig",
    "SingularEFIM",
    "SPEED_OF_LIGHT",
    "SteeringPair",
    "SweepResult",
    "build_grid",
    "build_options",
    "build_scenario",
    "build_uca",
    "channel_gain",
    "default_config",
    "derive_geometry",
    "dump_config",
    "fim_entrywise",
    "fim_from_derivatives",
    "fim_xform",
    "load_config",
    "monopulse_candidate",
    "optimize",
    "peb",
    "precoder",
    "project_feasible",
    "rank_profile",
    "role_sweep",
    "run_validation",
    "speb",
    "speb_gradient",
    "speb_known_gain",
    "steering",
    "subcarrier_offsets_rad",
    "swap_roles",
    "sweep",
    "write_role_csv",
    "write_sweep_csv",
]
