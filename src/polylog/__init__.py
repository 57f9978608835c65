"""Exact shuffle/stuffle calculus for polylogarithms and harmonic sums.

The package computes, with exact rational arithmetic throughout:

* shuffle and stuffle products of noncommutative polynomials, their powers,
  and the truncated stuffle exponential (:mod:`polylog.products`);
* polynomials, words and the word coding of multi-indices, the X/Y letter
  codings and the dense kernel (:mod:`polylog.nc_core`, :mod:`polylog.words`,
  :mod:`polylog.coding`, :mod:`polylog.dense`);
* star fragments - powers of x1*, letter stars, Kleene stars of the plane
  with their stuffle group law (:mod:`polylog.stars`);
* non-positive-index polylogarithms as star combinations (integer
  polynomials in t = 1/(1-z)) and as rational functions, and the trailing-x0
  shuffle regularization (:mod:`polylog.negindex`);
* exact harmonic sums and closed-form polynomials in N
  (:mod:`polylog.harmonic`);
* truncated Taylor calculus, Hadamard/Cauchy products, Stirling-number
  combinatorics, and certified numeric evaluation on the disk
  (:mod:`polylog.polylog_num`);
* the identity predicates (the stuffle character, the Hadamard, shuffle
  morphism and derivative identities of Taylor vectors, the radius
  diagnostic) and the registry of checks that ``polylog verify`` and the
  acceptance tests run (:mod:`polylog.checks`), and an expression parser
  and CLI (:mod:`polylog.cli`).

``import polylog`` loads none of these modules.  Each name below is resolved
from its module on first use (PEP 562) and then kept as a module attribute, so
``polylog.shuffle`` loads :mod:`polylog.products` and what it imports, and
nothing else; ``from polylog import *`` binds every name in ``__all__``.
"""

import importlib

# each exported name, by the submodule that defines it
_EXPORTS = {
    "nc_core": ("AlphabetError", "InvalidIndexError", "NCPoly", "NotInImageError", "PolylogError", "as_rat"),
    "words": ("Word", "index_from_word", "word_from_index", "word_from_text", "x_word", "y_word"),
    "dense": ("NPoly", "TaylorTrunc"),
    "products": ("conc", "exp_stuffle", "shuffle", "shuffle_pow", "stuffle", "stuffle_pow"),
    "coding": (
        "PlaneStarBase", "QSeriesTrunc", "in_image", "pi_x", "pi_x_word", "pi_y", "pi_y_word",
        "plane_to_umbra", "umbra_to_plane",
    ),
    "stars": (
        "LetterStarForm", "PlaneStar", "X1StarPoly", "check_kstar_shuffle_power",
        "letter_star_li", "one_param_group", "plane_star_expand", "plane_star_inverse",
        "plane_star_stuffle", "x1star_expand", "ykstar_exp_identity",
    ),
    "negindex": (
        "NotRepresentableError", "RatFuncAtOne", "li_nonpositive", "li_nonpositive_stars",
        "ratfunc_to_x1star", "regularize_trailing_x0", "theta_derivative", "x1star_to_ratfunc",
    ),
    "harmonic": (
        "h_negindex_closed_form", "h_poly_eval", "h_signed_eval", "h_word_eval", "h_x1star_closed_form",
    ),
    "polylog_num": (
        "PrecisionError", "check_surjection_lemma", "div_one_minus_z", "hadamard", "li_eval",
        "li_taylor_coeffs", "stirling2",
    ),
    "checks": (
        "DomRadiusReport", "check_derivative_recursion", "check_hadamard_identity",
        "check_shuffle_morphism", "dom_radius_demo", "h_stuffle_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
