"""Windowed Lebesgue norms, dyadic multiplier decompositions, and the
analytic families used to interpolate between smoothness spaces, on
periodic grids, together with their verification suites."""

from .errors import (
    BandCoverageError,
    BaselineError,
    GridMismatchError,
    ParameterError,
    QuadratureError,
)
from .grid import (
    GridFunction,
    GridSpec,
    lp_norm,
    random_bandlimited,
    read_binary,
    read_csv,
    refine,
    write_binary,
    write_csv,
)
from .interp import (
    AnalyticFamily,
    InterpSetup,
    boundary_lipschitz_check,
    build_analytic_family,
    family_F,
    family_G,
    global_growth_check,
    holder_interpolation_check,
    make_setup,
    rho,
    sum_space_proxy,
)
from .lpaley import (
    LPFamily,
    build_family,
    partition_residual,
    project,
    project_all,
    reconstruct,
    smooth_step,
)
from .maximal import (
    hl_maximal,
    multiplier_maximal_ratio,
    projection_stability_check,
    vector_maximal_check,
)
from .morrey import (
    LebesguePair,
    WindowSampler,
    morrey_norm,
)
from .report import BaselineStore, VerificationReport, report_payload, write_json
from .scalars import (
    PhiPsiParams,
    exp_log_bound_check,
    log_damping_complex_check,
    phi_kappa,
    psi_kappa,
    psi_tail_bound_check,
)
from .spaces import (
    SpaceParams,
    diamond_criterion,
    diamond_tail,
    persistent_block_function,
    square_function,
    tlm_norm,
    truncated_square_function,
)
from .suites import (
    HOLDER_SETUPS,
    SuiteConfig,
    calibrate_constants,
    run_diamond_suite,
    run_holder_suite,
    run_interp_suite,
    run_maximal_suite,
    run_morrey_suite,
    run_partition_suite,
    run_scalar_empirical_suite,
    run_scalar_exact_suite,
    summation_ratio,
    verify_all,
)

__version__ = "0.1.0"
