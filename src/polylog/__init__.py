"""Exact shuffle/stuffle calculus for polylogarithms and harmonic sums.

The package computes, with exact rational arithmetic throughout:

* shuffle and stuffle products of noncommutative polynomials, their powers,
  and the truncated stuffle exponential (:mod:`polylog.products`);
* the word coding of multi-indices and the X/Y letter codings
  (:mod:`polylog.nc_core`, :mod:`polylog.coding`);
* star fragments - powers of x1*, letter stars, Kleene stars of the plane
  with their stuffle group law (:mod:`polylog.stars`);
* non-positive-index polylogarithms as star combinations (integer
  polynomials in t = 1/(1-z)) and as rational functions, and the trailing-x0
  shuffle regularization (:mod:`polylog.negindex`);
* exact harmonic sums, closed-form polynomials in N, and the stuffle
  character checks (:mod:`polylog.harmonic`);
* truncated Taylor calculus, Hadamard/Cauchy identities, Stirling-number
  combinatorics, and certified numeric evaluation on the disk
  (:mod:`polylog.polylog_num`);
* the registry of identity checks that ``polylog verify`` and the
  acceptance tests run (:mod:`polylog.checks`), and an expression parser
  and CLI (:mod:`polylog.cli`).
"""

from .nc_core import (
    AlphabetError,
    InvalidIndexError,
    NCPoly,
    NPoly,
    NotInImageError,
    PolylogError,
    Word,
    as_rat,
    index_from_word,
    word_from_index,
    word_from_text,
    x_word,
    y_word,
)
from .products import conc, exp_stuffle, shuffle, shuffle_pow, stuffle, stuffle_pow
from .coding import (
    PlaneStarBase,
    QSeriesTrunc,
    in_image,
    pi_x,
    pi_x_word,
    pi_y,
    pi_y_word,
    plane_to_umbra,
    umbra_to_plane,
)
from .stars import (
    LetterStarForm,
    PlaneStar,
    X1StarPoly,
    check_kstar_shuffle_power,
    letter_star_li,
    one_param_group,
    plane_star_expand,
    plane_star_inverse,
    plane_star_stuffle,
    x1star_expand,
    ykstar_exp_identity,
)
from .negindex import (
    NotRepresentableError,
    RatFuncAtOne,
    li_nonpositive,
    li_nonpositive_stars,
    ratfunc_to_x1star,
    regularize_trailing_x0,
    theta_derivative,
    x1star_to_ratfunc,
)
from .harmonic import (
    h_negindex_closed_form,
    h_poly_eval,
    h_signed_eval,
    h_stuffle_check,
    h_word_eval,
    h_x1star_closed_form,
)
from .polylog_num import (
    DomRadiusReport,
    PrecisionError,
    TaylorTrunc,
    check_derivative_recursion,
    check_hadamard_identity,
    check_shuffle_morphism,
    check_surjection_lemma,
    div_one_minus_z,
    dom_radius_demo,
    hadamard,
    li_eval,
    li_taylor_coeffs,
    stirling2,
)

__version__ = "0.1.0"
