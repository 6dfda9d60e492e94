"""locpv: local N-th order phase velocities of 1+1D wave fields.

Computes local phase velocities of arbitrary order from field jets, tracks
labelled wave attributes through space-time, converts local velocities into
global transit velocities, and checks the relativistic and
inhomogeneous-media behaviour of the local definitions.
"""

from .errors import (
    CFLViolation,
    DegenerateDenominator,
    DegenerateInterval,
    DegenerateTrajectory,
    LocpvError,
    NoBracket,
    NonfiniteBlowup,
    NonpositiveLogArgument,
    NotOscillatory,
    OrderTooHigh,
    OutOfDomain,
    PoleOnPath,
    QuadratureLimit,
    SeedOffAttribute,
    SingularSeed,
    StencilClipped,
)
from .field import (
    AnalyticField,
    CustomField,
    DampedTranslational,
    Grid1x1,
    Harmonic,
    InhomogeneousMode,
    KinkDamped,
    SampledField,
    Translational,
    load_grid_csv,
    sample,
    save_grid_csv,
)
from .media import (
    ConstantIndex,
    LinearIndex,
    MediumProfile,
    ModeSpec,
    TabulatedIndex,
    TanhRampIndex,
    dynamic_separation,
    sign_audit,
    transit_time,
    v0_global,
    v0_local,
    vI_global,
    vI_global_rederived,
    vI_local,
    vI_local_rederived,
)
from .phasevel import (
    ClassicalDiagnostics,
    PhaseVelocityField,
    classical_diagnostics,
    damped_spectrum,
    kink_spectrum,
    pv_field,
    pv_point,
)
from .relativity import (
    AuditReport,
    BoostFrame,
    add_v0,
    add_vI_freewave,
    boost_event,
    boost_field,
    boost_vI_general,
    subluminality_audit,
)
from .simulate import SimSpec, discrete_energy, run, run_from_levels
from .tracker import (
    Attribute,
    Termination,
    TrackedTrajectory,
    find_seed,
    global_velocity,
    track,
)

__version__ = "0.1.0"
