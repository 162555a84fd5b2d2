"""Exact arithmetic for p-Bell and poly-Bell numbers and polynomials.

The package computes every number by several independent routes (explicit
Stirling sums, a derivative recurrence, a triangle sweep, and a generalized
Bernoulli closed form), verifies the family's generating-function and
pointwise identities at truncated order over exact rationals, and
cross-checks the analytic representations (Dobinski-type series, contour
integrals, Monte Carlo moments of a beta-mixed Poisson law) in floating
point.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .exact_core import (
    EgfSeries,
    Polynomial,
    RationalLike,
    egf_compose_em1,
    egf_constant,
    egf_derivative,
    egf_div,
    egf_em1,
    egf_exp,
    egf_exp_rz,
    egf_mul,
    format_rational,
    parse_rational,
    poly_eval,
    rational,
)
from .pbell import (
    ROUTES,
    BackendMismatch,
    pbell_column,
    pbell_columns,
    pbell_egf,
    pbell_explicit,
    pbell_gen_bernoulli,
    pbell_number,
    pbell_poly,
    pbell_poly_weighted,
    pbell_ramanujan_p1,
    pbell_recurrence,
    pbell_z_triangle,
)
from .polybell import (
    duality_counterexample,
    iterated_integral_pbell,
    polybell_neg,
    polybell_neg_columns,
    polybell_neg_derivative,
)
from .special_numbers import (
    CACHE,
    bell_number,
    bell_poly,
    bernoulli,
    gen_bernoulli,
    r_stirling2,
    reset_cache,
    stirling1,
    stirling2,
    weighted_stirling_poly,
)

__version__ = "0.1.0"

# The identity suite and the float bridge load on first use (PEP 562), so
# that `value` and `table` never compile them.
_LAZY = dict.fromkeys("CheckReport IDENTITY_IDS run_all thread_count".split(), "identity_verifier")
_LAZY.update(dict.fromkeys("NumericCheck RngStream beta_poisson_batch cesaro_pbell dobinski_pbell dobinski_pbell_poly "
                           "hyp1f1 lower_inc_gamma mc_moment_check mgf_check pmf_check".split(), "numeric_bridge"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_LAZY[name]}", __name__), name)


# Every public name, submodules excluded.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_LAZY)
