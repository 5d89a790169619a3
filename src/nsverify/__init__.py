"""Pseudospectral incompressible Navier-Stokes solver with a rescaled-variable
energy-identity verification harness."""

from .cutoffs import (
    CutoffProfile,
    Decomposition,
    apply_profile,
    bernstein_constant,
    chi_eval,
    decompose,
    dilation_flux,
    make_profile,
    phi_eval,
)
from .dynamics import (
    SimState,
    Snapshot,
    TrajectoryConfig,
    convective_term,
    nse_rhs,
    pressure_recover,
    rescale_data,
    simulate,
    simulate_collect,
    step,
    weak_residual,
)
from .fields import FieldSpec, generate, oracle_energy
from .ledger import (
    EnergyRecord,
    InequalityReport,
    LedgerContext,
    RecordSeries,
    check_inequality,
    decay_rate,
)
from .ode_compare import (
    ComparisonParams,
    h_minus,
    run_trapping_draws,
)
from .similarity import (
    SimilarityFrame,
    blowup_rate_ratio,
    frame,
    similarity_filter,
    similarity_filtered_energy,
    similarity_norm,
    t_of_tau,
)
from .spectral import (
    Grid,
    RealVectorField,
    SpectralVectorField,
    build_grid,
    l2_inner,
    l2_norm,
    l2_norm_sq,
    leray_project,
    spectral_derivative,
    transform_forward,
    transform_inverse,
)

__version__ = "0.1.0"
