"""The registry of identity checks that ``polylog verify`` and the acceptance tests run.

A suite (see :data:`SUITES`) is a list of :class:`Check`: a name, the inputs
the identity is checked on, and a test of one input.  Building a suite for
(ncap, seed) draws every seeded input up front, in a fixed order, and runs
nothing, so a failing check cannot shift the inputs of the checks after it.
:meth:`Check.run` tests the inputs in order, stops at the first failure and
returns a :class:`CheckResult` with the detail and the elapsed time.  The
identity data and predicates live here, which no request outside ``verify``
loads: the tables, the stuffle character (one check with the Hadamard identity,
each H_w the prefix sums of Li_w's memoized Taylor vector), the shuffle morphism,
the derivative recursions and the radius diagnostic.  ``stars.ykstar_exp_identity``,
``stars.check_kstar_shuffle_power`` and ``polylog_num.check_surjection_lemma``
stay by their computations, where ``perfbench`` calls them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import harmonic, negindex, polylog_num, products, stars
from .coding import QSeriesTrunc, pi_x_word
from .dense import NPoly
from .nc_core import _ANSWERED, AlphabetError, NCPoly, NotInImageError, ONE, X, Y, ZERO
from .stars import PlaneStar, X1StarPoly
from .words import Word, index_from_word, y_word

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

    ``test(*item)`` returns True when the identity holds on an input.  Any other value fails: a string is
    the failure detail, and otherwise the detail names the input.  An error that the CLI answers as JSON (a
    refusal past a cap, say) fails the check with "<Type>: <message>", and the checks after it still run.
    A check with no drawn inputs runs once.
    """

    name: str
    test: Callable[..., bool | str]
    inputs: tuple = ((),)

    def run(self) -> CheckResult:
        started = time.perf_counter()
        detail = None
        for item in self.inputs:
            try:
                got = self.test(*item)
            except _ANSWERED as exc:  # a refused input fails its check alone
                got = f"{type(exc).__name__}: {exc}"
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
    return _eval_term_table("star", s, n_max) == harmonic.h_signed_table(index, n_max)


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
#   "stuffle" - (s, X1StarPoly): y_s stuffled with the star's Y-image, read off its linear representation
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


def _star_stuffle_representation(s: int, star: X1StarPoly) -> tuple[list, list, list]:
    """(initial, transitions, final) of y_s st sum c_k (k y1)*, as y_s st (k y1)* = (k y1)* (y_s + k y_(s+1)) (k y1)*:
    per order k, states q and q + 1 with k y1 loops, entered at q with c_k, left at q + 1, joined by y_s, k y_(s+1)."""
    orders = [(k, c) for k, c in enumerate(star.poly.coeffs) if c]
    transitions = [
        t for q, (k, _) in zip(range(0, 2 * len(orders), 2), orders)
        for t in ((q, 1, q, k), (q, s, q + 1, 1), (q, s + 1, q + 1, k), (q + 1, 1, q + 1, k)) if t[3]
    ]
    return [x for _, c in orders for x in (c, 0)], transitions, [0, 1] * len(orders)


def _eval_term_table(kind: str, payload: object, n_max: int) -> list[Fraction]:
    if kind == "star":
        poly = harmonic.h_x1star_closed_form(payload)
        return [poly.eval(n) for n in range(n_max + 1)]
    if kind == "word":
        return harmonic.h_word_table(payload, n_max)
    if kind == "stuffle":
        return harmonic.h_series_table(*_star_stuffle_representation(*payload), n_max)
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


def h_stuffle_check(u: Word, v: Word, n_max: int) -> bool:
    """Exact character check H_{u st v}(N) = H_u(N) H_v(N) for N <= n_max: :func:`check_hadamard_identity`."""
    return check_hadamard_identity(u, v, n_max)


def check_hadamard_identity(u: Word, v: Word, n_cap: int) -> bool:
    """Exact check of (Li_u/(1-z)) had (Li_v/(1-z)) = Li_{u st v}/(1-z).

    The stuffle character for N <= n_cap, with each H_w(N) read as the prefix sums of Li_w's memoized Taylor
    vector, and H_{u st v} as those of the stuffle's polynomial vector.
    """
    if u.alphabet != Y or v.alphabet != Y:
        raise AlphabetError("the stuffle character is indexed by Y-words")
    lhs = harmonic._li_poly_vector(products.stuffle(NCPoly.from_word(u), NCPoly.from_word(v)), n_cap)
    hu, hv = (harmonic._li_vector(n_cap, *w.letters).prefix_sums(n_cap) for w in (u, v))
    return lhs.prefix_sums(n_cap) == hu.hadamard(hv)


def check_shuffle_morphism(u: Word, v: Word, n_cap: int) -> bool:
    """Exact check that Taylor(Li_u) x Taylor(Li_v) = Taylor(Li_{u sh v}).

    Both words must end in x1 (or be empty) so the series exist around 0.
    """
    for w in (u, v):
        if w.alphabet != X:
            raise AlphabetError("check_shuffle_morphism expects X-words")
        if not (w.is_empty or w.ends_in_x1):
            raise NotInImageError(f"word {w} ends in x0; no Taylor series at 0")
    lhs = polylog_num.cauchy(
        polylog_num.li_taylor_coeffs(index_from_word(u), n_cap),
        polylog_num.li_taylor_coeffs(index_from_word(v), n_cap),
    )
    rhs = polylog_num.li_taylor_poly(products.shuffle(NCPoly.from_word(u), NCPoly.from_word(v)), n_cap)
    return lhs == rhs


def check_derivative_recursion(s: Sequence[int], n_cap: int) -> bool:
    """Coefficientwise check of the differential recursions for Li.

    For s1 != 1 this is theta Li_(s1,..) = Li_(s1-1,..), i.e.
    N a_N(s) = a_N(s1-1, rest); for s1 = 1 it is
    (1-z) d/dz Li_(1,rest) = Li_rest, i.e. (N+1) a_{N+1} - N a_N = b_N.
    """
    index = tuple(s)
    if not index:
        raise ValueError("the recursion needs a nonempty index")
    a = polylog_num.li_taylor_coeffs(index, n_cap).coeffs
    if index[0] != 1:
        b = polylog_num.li_taylor_coeffs((index[0] - 1,) + index[1:], n_cap).coeffs
        return all(n * a[n] == b[n] for n in range(n_cap + 1))
    b = polylog_num.li_taylor_coeffs(index[1:], n_cap).coeffs
    return all((n + 1) * a[n + 1] - n * a[n] == b[n] for n in range(n_cap))


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
    stuffle_character = partial(h_stuffle_check, n_max=30)
    return [
        Check("stuffle-character weight<=4 N<=30", stuffle_character, pairs4),
        Check("stuffle-character 200 random weight<=6", stuffle_character, random_pairs),
        Check("stuffle-character Euler pair y2,y3", stuffle_character, ((y_word(2), y_word(3)),)),
        Check(
            f"shuffle-morphism len<=4 N<={ncap}",
            partial(check_shuffle_morphism, n_cap=ncap),
            tuple((u, v) for u in coded for v in coded),
        ),
        Check(
            f"hadamard weight<=4 N<={ncap}",
            partial(check_hadamard_identity, n_cap=ncap),
            pairs4,
        ),
        Check(
            "derivative-recursion 30 random size<=5 N<=60",
            partial(check_derivative_recursion, n_cap=60),
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


class DomRadiusReport(NamedTuple):
    """Behaviour of the partial sums M_m(r) = sum_{m'<=m} (t r/(1-r))^m'.

    For r < 1/(t+1) the sums converge geometrically to
    (1-r)/(1-(t+1)r) with remaining tail at most ``tail_bound``; otherwise
    the terms are non-decreasing and the series diverges.
    """

    t: Fraction
    r: Fraction
    m_cap: int
    ratio: Fraction
    converges: bool
    partial_sum: Fraction
    closed_form: Fraction | None
    tail_bound: Fraction | None


def dom_radius_demo(t, r, m_cap: int) -> DomRadiusReport:
    """Exact partial sums of the worked family showing strict radius decrease.

    The m-th term is (t r/(1-r))^m; convergence holds exactly when
    r < 1/(t+1).
    """
    t, r = Fraction(t), Fraction(r)
    if not (0 < r < 1):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if m_cap < 0:
        raise ValueError("m_cap must be >= 0")
    ratio = t * r / (1 - r)
    partial_sum, term = ZERO, ONE
    for _ in range(m_cap + 1):
        partial_sum += term
        term *= ratio
    converges = ratio < 1
    closed = (1 - r) / (1 - (t + 1) * r) if converges else None
    tail = ratio ** (m_cap + 1) / (1 - ratio) if converges else None
    return DomRadiusReport(t, r, m_cap, ratio, converges, partial_sum, closed, tail)


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
            lambda: not dom_radius_demo(1, Fraction(1, 2), 60).converges,
        ),
        Check(
            "radius diagnostic t=1 r=1/4 converges to 3/2",
            lambda: (r := dom_radius_demo(1, Fraction(1, 4), 60)).converges
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
