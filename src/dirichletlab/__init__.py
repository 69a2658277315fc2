"""Numerics for weighted Hilbert spaces of Dirichlet series.

The package is organized around a catalog of arithmetic weight sequences
(`weights`), the Dirichlet-series spaces they generate (`hspace`), special
functions and kernels (`zeta`), local embeddings into half-plane smoothness
scales (`embedding`), atomic sampling measures (`sampling`), and
partial-sum asymptotics recovered from Mellin profiles (`tauberian`).
"""

from .errors import (
    BudgetError,
    DirichletLabError,
    DomainError,
    FitError,
    HorizonError,
    MembershipError,
    RangeError,
    TruncationError,
)
from .arithmetic import SieveTable, build_sieve, factorize
from .weights import (
    CATALOG_NAMES,
    AsymptoticFit,
    WeightSequence,
    catalog,
    chebyshev_ratios,
    fit_alpha,
    kadec_indices,
    partial_sums,
    sum_upto,
)
from .zeta import (
    KernelSpec,
    dirichlet_inverse,
    kernel_eval,
    prime_zeta,
    prime_zeta_unit_abscissa,
    solve_abscissa,
    zeta_equals_two_abscissa,
)
from .hspace import (
    DirichletPolynomial,
    derivative,
    evaluate,
    hw_inner,
    hw_kernel,
    hw_norm,
    monomial,
    poly_from_coeffs,
)
from .embedding import (
    LocalWindow,
    TestBump,
    block_family,
    block_test_function,
    dalpha_local_norm,
    duality_sum,
    embedding_constant,
    local_sup_l2,
    make_bump,
    random_family,
)
from .sampling import (
    AtomicMeasure,
    beurling_lower_density,
    carleson_check,
    continuity_at_infinity,
    kadec_atoms,
    lambda_set,
    measure_from_weights,
)
from .tauberian import (
    MellinPoint,
    SingularityFit,
    detect_abscissa,
    fit_singularity,
    mellin_profile,
    predict_and_compare,
    weighted_zeta,
)

__version__ = "0.1.0"
