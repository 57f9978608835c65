"""The registry of identity checks that ``polylog verify`` and the acceptance tests run.

A suite (see :data:`SUITES`) is a list of :class:`Check`: a name, the inputs
the identity is checked on, and a test of one input.  Building a suite for
(ncap, seed) draws every seeded input up front, in a fixed order, and runs
nothing, so a failing check cannot shift the inputs of the checks after it.
:meth:`Check.run` tests the inputs in order, stops at the first failure and
returns a :class:`CheckResult` with the detail and the elapsed time.  The
identity data lives here only: the non-positive table and the mixed-index
identities with their term evaluator, which no request outside ``verify`` loads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from . import harmonic, negindex, polylog_num, products, stars
from .coding import QSeriesTrunc, pi_x_word
from .nc_core import NCPoly, NPoly, Word, X, Y, y_word
from .stars import PlaneStar, X1StarPoly

DEFAULT_SEED = 20240


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    elapsed_s: float = 0.0


@dataclass(frozen=True, slots=True)
class Check:
    """An identity, the inputs it is checked on, and its test.

    ``test(*item)`` returns True when the identity holds on an input.  Any
    other value fails: a string is the failure detail, and otherwise the
    detail names the input.  A check with no drawn inputs runs once.
    """

    name: str
    test: Callable[..., bool | str]
    inputs: tuple = ((),)

    def run(self) -> CheckResult:
        started = time.perf_counter()
        detail = None
        for item in self.inputs:
            got = self.test(*item)
            if got is not True:
                named = "fails on " + ", ".join(map(str, item)) if item else ""
                detail = got if isinstance(got, str) else named
                break
        return CheckResult(self.name, detail is None, detail or "", time.perf_counter() - started)


def _equals(func) -> Callable[..., bool | str]:
    """The test ``func(arg) == expected`` on (arg, expected) inputs, showing the value got."""
    return lambda arg, expected: (got := func(arg)) == expected or f"got {got}"


# -- ex3: the non-positive table -----------------------------------------------

# The eight non-positive multi-indices with known exact forms:
# index -> (numerator coeffs ascending, pole order, star combination,
#           closed-form monomials or None)
KNOWN_NONPOSITIVE = [
    ((0,), [0, 1], 1, {1: 1, 0: -1}, {1: "1"}),
    ((-1,), [0, 1], 2, {2: 1, 1: -1}, {2: "1/2", 1: "1/2"}),
    ((0, 0), [0, 0, 1], 2, {2: 1, 1: -2, 0: 1}, {2: "1/2", 1: "-1/2"}),
    (
        (-2, -1),
        [0, 0, 4, 7, 1],
        5,
        {5: 12, 4: -33, 3: 31, 2: -11, 1: 1},
        {5: "1/10", 4: "1/8", 3: "-1/12", 2: "-1/8", 1: "-1/60"},
    ),
    (
        (-2, -2),
        [0, 0, 4, 21, 14, 1],
        6,
        {6: 40, 5: -132, 4: 161, 3: -87, 2: 19, 1: -1},
        {6: "1/18", 5: "1/15", 4: "-5/72", 3: "-1/12", 2: "1/72", 1: "1/60"},
    ),
    (
        (-3, -3),
        [0, 0, 8, 179, 584, 424, 64, 1],
        8,
        {8: 1260, 7: -5400, 6: 9270, 5: -8070, 4: 3699, 3: -829, 2: 71, 1: -1},
        None,
    ),
    (
        (-1, 0, -2),
        [0, 0, 0, 3, 6, 1],
        6,
        {6: 10, 5: -38, 4: 55, 3: -37, 2: 11, 1: -1},
        {6: "1/72", 5: "-1/40", 4: "-1/36", 3: "1/24", 2: "1/72", 1: "-1/60"},
    ),
    (
        (-1, -2, -2),
        [0, 0, 0, 12, 100, 133, 34, 1],
        8,
        {8: 280, 7: -1312, 6: 2497, 5: -2457, 4: 1310, 3: -358, 2: 41, 1: -1},
        {
            8: "1/144",
            7: "-13/1260",
            6: "-7/240",
            5: "23/720",
            4: "1/24",
            3: "-19/720",
            2: "-7/360",
            1: "1/210",
        },
    ),
]


def _matches_oracle(index, s, n_max) -> bool:
    poly = harmonic.h_x1star_closed_form(s)
    return [poly.eval(n) for n in range(n_max + 1)] == harmonic.h_signed_table(index, n_max)


def suite_ex3(ncap: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Closed forms for the table of non-positive multi-indices.

    Each step index -> rational function -> stars -> N-polynomial is checked
    from the table's value for the step before it.
    """
    ncap = 50 if ncap is None else ncap
    oracle = partial(_matches_oracle, n_max=ncap)
    out = []
    for index, num, pole, star_map, npoly_map in KNOWN_NONPOSITIVE:
        label = ",".join(str(s) for s in index)
        f = negindex.RatFuncAtOne(num, pole)
        s = X1StarPoly(star_map)
        out.append(Check(f"ratfunc[{label}]", _equals(negindex.li_nonpositive), ((index, f),)))
        out.append(Check(f"stars[{label}]", _equals(negindex.ratfunc_to_x1star), ((f, s),)))
        if npoly_map is not None:
            p = NPoly.from_monomials(npoly_map)
            out.append(Check(f"npoly[{label}]", _equals(harmonic.h_x1star_closed_form), ((s, p),)))
        out.append(Check(f"oracle[{label}] N<={ncap}", oracle, ((index, s),)))
    return out


# -- mixed: the mixed-index identity table -------------------------------------


# Star forms of Li, whose harmonic sums are the plain nested power sums.
POWER_SUM_STARS: dict[tuple[int, ...], X1StarPoly] = {
    index: negindex.li_nonpositive_stars(index) for index in ((0,), (-1,), (-2,), (-2, -2))
}

# Each identity equates an exactly computable combination (closed forms,
# harmonic numbers, or a stuffle against a star expansion) with a
# brute-force nested sum.  Terms on either side are (coefficient, kind,
# payload) with kinds:
#   "star"    - X1StarPoly, evaluated through its closed-form polynomial
#   "word"    - Y-word, evaluated through the harmonic-sum table
#   "stuffle" - (s, X1StarPoly): y_s stuffled against the star's Y-expansion
#   "oracle"  - signed index, evaluated by the brute-force nested sum
_Term = tuple[Fraction, str, object]


def mixed_identities() -> list[tuple[str, list[_Term], tuple[int, ...]]]:
    """The mixed-index identities as (name, left-side terms, oracle index) rows."""
    one = Fraction(1)
    f = Fraction
    return [
        (
            "sum 1/n1 sum n2",
            [(one, "star", X1StarPoly({2: f(1, 2), 1: -1, 0: f(1, 2)}))],
            (1, -1),
        ),
        (
            "sum n1 sum 1/n2",
            [
                (one, "stuffle", (1, POWER_SUM_STARS[(-1,)])),
                (f(-1, 2), "star", X1StarPoly({2: 1, 0: -1})),
            ],
            (-1, 1),
        ),
        (
            "sum 1/n1 sum n2^2",
            [(one, "star", X1StarPoly({3: f(2, 3), 2: f(-3, 2), 1: 1, 0: f(-1, 6)}))],
            (1, -2),
        ),
        (
            "sum n1^2 sum 1/n2",
            [
                (one, "stuffle", (1, POWER_SUM_STARS[(-2,)])),
                (-one, "star", X1StarPoly({3: f(2, 3), 2: f(-1, 2), 0: f(-1, 6)})),
            ],
            (-2, 1),
        ),
        (
            "sum 1/n1^2 sum n2^2",
            [
                (one, "star", X1StarPoly({2: f(1, 3), 1: f(-5, 6), 0: f(1, 2)})),
                (f(1, 6), "word", Word((1,), Y)),
            ],
            (2, -2),
        ),
        (
            "sum n1^2 sum 1/n2^2",
            [
                (one, "stuffle", (2, POWER_SUM_STARS[(-2,)])),
                (-one, "star", X1StarPoly({2: f(1, 3), 1: f(1, 6), 0: f(-1, 2)})),
                (f(-1, 6), "word", Word((1,), Y)),
            ],
            (-2, 2),
        ),
        (
            "sum 1/n1 sum n2^2 sum n3^2",
            # Derived constructively; see the closed-form pipeline tests.
            [
                (
                    one,
                    "star",
                    X1StarPoly(
                        {
                            6: f(20, 3),
                            5: f(-132, 5),
                            4: f(161, 4),
                            3: -29,
                            2: f(19, 2),
                            1: -1,
                            0: f(-1, 60),
                        }
                    ),
                )
            ],
            (1, -2, -2),
        ),
        (
            "sum n1^2 sum 1/n2 sum n3^2",
            [
                (
                    one,
                    "star",
                    X1StarPoly(
                        {
                            6: f(40, 3),
                            5: -50,
                            4: f(427, 6),
                            3: f(-281, 6),
                            2: f(27, 2),
                            1: f(-7, 6),
                        }
                    ),
                )
            ],
            (-2, 1, -2),
        ),
        (
            "sum n1^2 sum n2^2 sum 1/n3",
            [
                (one, "stuffle", (1, POWER_SUM_STARS[(-2, -2)])),
                (-one, "oracle", (-2, 1, -2)),
                (-one, "oracle", (1, -2, -2)),
                (-one, "oracle", (-2, -1)),
                (-one, "oracle", (-1, -2)),
            ],
            (-2, -2, 1),
        ),
    ]


def _eval_term_table(kind: str, payload: object, n_max: int) -> list[Fraction]:
    if kind == "star":
        poly = harmonic.h_x1star_closed_form(payload)
        return [poly.eval(n) for n in range(n_max + 1)]
    if kind == "word":
        return harmonic.h_word_table(payload, n_max)
    if kind == "stuffle":
        s, star = payload
        # H_w(N) vanishes when depth(w) > N, so expanding the star to depth
        # n_max keeps every contributing word and the check stays exact.
        image = stars.x1star_y_expansion(star, n_max)
        return harmonic.h_poly_table(products.stuffle(NCPoly.from_word(y_word(s)), image), n_max)
    return harmonic.h_signed_table(payload, n_max)  # kind "oracle"


def mixed_identity_failure(identity, n_max: int) -> int | None:
    """The first N <= n_max where a row of :func:`mixed_identities` fails; None if none."""
    _, lhs_terms, oracle_index = identity
    tables = [(c, _eval_term_table(kind, payload, n_max)) for c, kind, payload in lhs_terms]
    lhs = [sum(c * vec[n] for c, vec in tables) for n in range(n_max + 1)]
    rhs = harmonic.h_signed_table(oracle_index, n_max)
    return next((n for n in range(n_max + 1) if lhs[n] != rhs[n]), None)


def suite_mixed(ncap: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Mixed-index identities against the brute-force nested sums."""
    n_max = 40 if ncap is None else ncap
    return [
        Check(
            f"mixed[{row[0]}] N<={n_max}",
            lambda row: (n := mixed_identity_failure(row, n_max)) is None
            or f"first failure at N={n}",
            ((row,),),
        )
        for row in mixed_identities()
    ]


# -- morphisms -----------------------------------------------------------------


def _compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [(k,) + rest for k in range(1, total + 1) for rest in _compositions(total - k)]


def _random_y_word(rng: random.Random, max_weight: int) -> Word:
    return Word(rng.choice(_compositions(rng.randint(1, max_weight))), Y)


def _random_signed_index(rng: random.Random, max_size: int) -> tuple[int, ...]:
    # size = depth + sum |s_i|
    while True:
        r = rng.randint(1, 3)
        index = tuple(rng.randint(-2, 2) for _ in range(r))
        if r + sum(abs(s) for s in index) <= max_size:
            return index


def _random_x_poly(rng: random.Random, max_len: int, max_terms: int = 4) -> NCPoly:
    def term() -> tuple[Word, Fraction]:
        w = Word(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_len))), X)
        return w, Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    return NCPoly(X, [term() for _ in range(rng.randint(1, max_terms))])  # repeated words add up


def _radford_roundtrip(p: NCPoly) -> bool:
    """p = sum_k part_k sh x0^(sh k), every part's words ending in x1."""
    parts = negindex.regularize_trailing_x0(p)
    x0 = NCPoly.from_word(Word((0,), X))
    total = NCPoly.zero(X)
    for k, part in parts.items():
        total = total + products.shuffle(part, products.shuffle_pow(x0, k))
    return total == p and all(
        not w.letters or w.letters[-1] == 1 for part in parts.values() for w in part.support()
    )


def suite_morphisms(ncap: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Character identities, Taylor morphisms, regularization, numerics."""
    ncap = 100 if ncap is None else ncap
    rng = random.Random(seed)
    random_pairs = tuple((_random_y_word(rng, 6), _random_y_word(rng, 6)) for _ in range(200))
    indices = tuple((_random_signed_index(rng, 5),) for _ in range(30))
    x_polys = tuple((_random_x_poly(rng, 5),) for _ in range(100))
    words4 = [Word(c, Y) for weight in range(5) for c in _compositions(weight)]
    pairs4 = tuple((u, v) for u in words4 for v in words4)
    coded = [pi_x_word(w) for w in words4]  # the X-words of length <= 4 ending in x1, and 1
    stuffle_character = partial(harmonic.h_stuffle_check, n_max=30)
    return [
        Check("stuffle-character weight<=4 N<=30", stuffle_character, pairs4),
        Check("stuffle-character 200 random weight<=6", stuffle_character, random_pairs),
        Check("stuffle-character Euler pair y2,y3", stuffle_character, ((y_word(2), y_word(3)),)),
        Check(
            f"shuffle-morphism len<=4 N<={ncap}",
            partial(polylog_num.check_shuffle_morphism, n_cap=ncap),
            tuple((u, v) for u in coded for v in coded),
        ),
        Check(
            f"hadamard weight<=4 N<={ncap}",
            partial(polylog_num.check_hadamard_identity, n_cap=ncap),
            pairs4,
        ),
        Check(
            "derivative-recursion 30 random size<=5 N<=60",
            partial(polylog_num.check_derivative_recursion, n_cap=60),
            indices,
        ),
        Check("radford-regularization 100 random roundtrips", _radford_roundtrip, x_polys),
        Check(
            "numeric Li_1(1/2) = ln 2 within 1e-10",
            lambda: abs((v := polylog_num.li_eval((1,), 0.5, 1e-10)) - 0.6931471805599453)
            <= 1e-10
            or f"got {v}",
        ),
        Check(
            "numeric H_y2(10^4) ~ pi^2/6 within 1.2e-4",
            lambda: abs((v := float(harmonic.h_word_eval(y_word(2), 10**4))) - 1.6449340668482264)
            <= 1.2e-4
            or f"got {v}",
        ),
    ]


# -- stars ---------------------------------------------------------------------


def suite_stars(ncap: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Plane-star group law, star expansions, radius diagnostic (``ncap`` is unused)."""
    rng = random.Random(seed)

    def plane(max_len: int) -> PlaneStar:
        n = rng.randint(1, max_len)
        return PlaneStar.make([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)])

    def rat() -> Fraction:
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    expand = partial(stars.plane_star_expand, weight_cap=6)
    group = partial(stars.one_param_group, weight_cap=5)
    plane_pairs = tuple((plane(3), plane(3)) for _ in range(50))
    planes = tuple((plane(4),) for _ in range(20))
    groups = tuple((QSeriesTrunc.make([rat() for _ in range(3)]), rat(), rat()) for _ in range(10))
    return [
        Check(
            "plane-star stuffle consistency 50 random pairs cap 6",
            lambda a, b: expand(stars.plane_star_stuffle(a, b))
            == products.stuffle(expand(a), expand(b), grade_cap=6),
            plane_pairs,
        ),
        Check(
            "plane-star group inverses up to order 4",
            lambda a: not any(
                stars.plane_star_stuffle(a, stars.plane_star_inverse(a, 4)).alpha[:4]
            ),
            planes,
        ),
        Check(
            "ykstar exponential identity k<=3 cap 6",
            partial(stars.ykstar_exp_identity, weight_cap=6),
            tuple((k, Fraction(z)) for k in (1, 2, 3) for z in (1, "1/2", "-1/3")),
        ),
        Check(
            "kstar shuffle powers k<=3 cap 5",
            partial(stars.check_kstar_shuffle_power, len_cap=5),
            ((1,), (2,), (3,)),
        ),
        Check(
            "one-parameter stuffle group law cap 5",
            lambda t, z1, z2: products.stuffle(group(t, z1), group(t, z2), grade_cap=5)
            == group(t, z1 + z2),
            groups,
        ),
        Check(
            "radius diagnostic t=1 r=1/2 diverges",
            lambda: not polylog_num.dom_radius_demo(1, Fraction(1, 2), 60).converges,
        ),
        Check(
            "radius diagnostic t=1 r=1/4 converges to 3/2",
            lambda: (r := polylog_num.dom_radius_demo(1, Fraction(1, 4), 60)).converges
            and r.closed_form == Fraction(3, 2)
            and abs(r.partial_sum - r.closed_form) <= r.tail_bound,
        ),
    ]


# -- stirling ------------------------------------------------------------------


def suite_stirling(ncap: int | None = None, seed: int = DEFAULT_SEED) -> list[Check]:
    """Surjection counts and the exponential generating function."""
    return [
        Check("surjection lemma n<=20 m<=8", lambda: polylog_num.check_surjection_lemma(20, 8)),
        Check(
            "stirling2 spot values",
            lambda n, k, count: polylog_num.stirling2(n, k) == count,
            ((3, 2, 3), (7, 7, 1), (5, 0, 0), (6, 3, 90)),
        ),
    ]


#: suite name -> builder(ncap, seed); ``verify --suite all`` runs them in this order
SUITES: dict[str, Callable[[int | None, int], list[Check]]] = {
    "ex3": suite_ex3,
    "mixed": suite_mixed,
    "morphisms": suite_morphisms,
    "stars": suite_stars,
    "stirling": suite_stirling,
}
