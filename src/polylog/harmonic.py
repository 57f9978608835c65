"""Exact harmonic sums for words, signed indices, polynomials, and stars.

The harmonic sum of a Y-word y_{s1}...y_{sr} at N is the nested sum
sum_{N >= n1 > ... > nr > 0} prod n_i^(-s_i); the same formula with signed
exponents (non-positive entries turn reciprocals into powers) serves as the
universal brute-force oracle of this package.  Both come out of one prefix
recurrence, H_s(N) = H_s(N-1) + N^(-s1) H_(s2..sr)(N-1), run on integer
numerators over one denominator.  With L = lcm(1..N) the step multiplies by
L^s1 // N^s1 (s1 > 0) or N^(-s1) (s1 <= 0), and the denominator is
D_(s2..sr) L^max(s1, 0), so no step of the recurrence pays a gcd and
Fractions are built only for returned values.  :func:`h_word_eval` and
:func:`h_signed_eval` stream with O(r) memory, and :func:`h_signed_table`
streams apart from the cache so it stays an independent oracle.  A word table
reads its word's memoized column; Taylor vectors of Li take one weight pass per
leading entry over the memoized tail columns, and a polynomial table is their
prefix sum, so it never caches a product's full words.  Columns and Taylor
vectors are each an :class:`~polylog.nc_core.NPoly`, the one dense kernel.

Star combinations sum_k c_k (k x1)* have polynomial harmonic sums:
H of (k x1)* at N is binomial(N+k, k) = (N+1)...(N+k)/k!, so the closed form
is an exact polynomial in N: an :class:`~polylog.nc_core.NPoly` again, one
linear combination of the rising products, each over k!.  Composed with the
star form of Li at non-positive indices (:mod:`polylog.negindex`), this
yields Faulhaber-style closed forms for every non-positive multi-index.

The column cache is copy-on-extend: a longer column replaces an entry whole,
numerators and denominator in one immutable value, so a racing thread can at
worst duplicate work, never observe a partial or mismatched column.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Sequence

from .nc_core import AlphabetError, NCPoly, NPoly, RatLike, Word, Y
from .negindex import li_nonpositive_stars
from .products import stuffle
from .stars import X1StarPoly, x1star_y_expansion

#: A signed multi-index: positive entries are reciprocal exponents,
#: non-positive entries are power weights.
SignedIndex = tuple[int, ...]


def _scales(index: SignedIndex, n_max: int) -> list[int]:
    """Per entry s, lcm(1..n_max)^max(s, 0): F n^(-s) is an integer for n <= n_max."""
    big = lcm(*range(1, n_max + 1)) if any(s > 0 for s in index) else 1
    return [big**s if s > 0 else 1 for s in index]


def _weights(s: int, scale: int, n_max: int) -> Iterator[int]:
    """The integers scale * n^(-s) for n = 1..n_max, with scale from :func:`_scales`."""
    return (scale // n**s if s > 0 else n ** (-s) for n in range(1, n_max + 1))


def _prefix_rows(index: SignedIndex, scales: list[int], n_max: int) -> Iterator[list[int]]:
    """The prefix recurrence on integer numerators, one row per n = 0..n_max.

    Entry j is the numerator of H_(index[j:])(n) over prod(scales[j:]), the last is
    H_()(n) = 1.  The same list is yielded every time, so a caller copies what it keeps.
    """
    weights = [_weights(s, f, n_max) for s, f in zip(index, scales)]
    state = [0] * len(index) + [1]
    yield state
    for _ in range(n_max):
        # j ascending: state[j + 1] still holds row n - 1
        for j, w in enumerate(weights):
            state[j] += next(w) * state[j + 1]
        yield state


def _shifted(s1: int, sub: NPoly, n_max: int) -> NPoly:
    """Coefficients n^(-s1) sub_(n-1), n = 0..n_max: Li's Taylor vector from H of its tail."""
    (scale,) = _scales((s1,), n_max)
    weights = _weights(s1, scale, n_max)
    return NPoly((0, *(m * x for m, x in zip(weights, sub.nums))), sub.den * scale)


#: Integer columns keyed by signed index.  An entry is replaced whole by a
#: longer column, never mutated, so readers see one consistent column.
_HVEC_CACHE: dict[SignedIndex, NPoly] = {}


def _h_vector(index: SignedIndex, n_max: int) -> NPoly:
    """Cached column of H_index(0..n_max) or longer, copy-on-extend.

    H_index(N) = 0 for N < depth and > 0 from there on, so a column is either
    zero (not cached) or keeps every entry under trimming, and ``len`` of a
    cached column is its entry count.  Built in a loop upwards from the
    longest suffix cached long enough, so a deep index never reaches the
    recursion limit.
    """
    if n_max < len(index):
        return NPoly()
    for k in range(len(index)):
        col = _HVEC_CACHE.get(index[k:])
        if col is not None and len(col) > n_max:
            break
    else:
        k = len(index)
        col = NPoly((1,) * (n_max + 1), 1)
    for j in reversed(range(k)):
        col = _shifted(index[j], col, n_max).prefix_sums(n_max)
        _HVEC_CACHE[index[j:]] = col
    return col


def _taylor_map(terms: Iterable[tuple[RatLike, SignedIndex]], n_cap: int) -> NPoly:
    """Taylor coefficients to n_cap of sum_k c_k Li_(index_k): one weight pass per s1."""
    groups: dict[int, list[tuple[RatLike, NPoly]]] = {}
    parts = []
    for c, index in terms:
        if index:
            groups.setdefault(index[0], []).append((c, _h_vector(index[1:], n_cap)))
        else:
            parts.append((c, NPoly([1])))
    for s1, tails in groups.items():
        parts.append((1, _shifted(s1, NPoly.lin_comb(tails, n_cap), n_cap)))
    return NPoly.lin_comb(parts, n_cap)


def h_word_eval(w: Word, n: int) -> Fraction:
    """Exact H_w(N) for a Y-word; 1 on the empty word, 0 when N < depth."""
    if w.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-words")
    return h_signed_eval(w.letters, n)


def h_signed_eval(s: Sequence[int], n: int) -> Fraction:
    """Brute-force oracle: the nested sum with arbitrary integer exponents.

    Streams with O(r) memory, so large N needs no column.
    """
    if n < 0:
        raise ValueError("N must be a natural number")
    index = tuple(s)
    scales = _scales(index, n)
    for row in _prefix_rows(index, scales, n):
        pass
    return Fraction(row[0], prod(scales))


def h_signed_table(s: Sequence[int], n_max: int) -> list[Fraction]:
    """Oracle values [H_s(0), ..., H_s(n_max)] in one streaming pass, apart from the cache."""
    index = tuple(s)
    scales = _scales(index, n_max)
    den = prod(scales)
    return [Fraction(row[0], den) for row in _prefix_rows(index, scales, n_max)]


def h_word_table(w: Word, n_max: int) -> list[Fraction]:
    """Cached values [H_w(0), ..., H_w(n_max)] for a Y-word."""
    if w.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-words")
    return list(_h_vector(w.letters, n_max).padded(n_max))


def h_poly_eval(q: NCPoly, n: int) -> Fraction:
    """Linear extension sum_w <Q|w> H_w(N) over a Y-polynomial."""
    return h_poly_table(q, n)[n]


def _h_poly_vector(q: NCPoly, n_max: int) -> NPoly:
    """The linear extension for N = 0..n_max: prefix sums of its Taylor vector."""
    return _taylor_map(((c, w.letters) for w, c in q.items()), n_max).prefix_sums(n_max)


def h_poly_table(q: NCPoly, n_max: int) -> list[Fraction]:
    """Values of the linear extension for N = 0..n_max."""
    if q.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-polynomials")
    return list(_h_poly_vector(q, n_max).padded(n_max))


def h_x1star_closed_form(s: X1StarPoly) -> NPoly:
    """Polynomial N -> H of a star combination, via H of (k x1)* = (N+1)...(N+k) / k!."""
    rising = accumulate(
        range(1, len(s.poly)), lambda r, k: r * NPoly((k, 1), 1), initial=NPoly((1,), 1)
    )
    terms = enumerate(zip(s.poly.nums, rising))
    return NPoly.lin_comb((Fraction(c, s.poly.den * factorial(k)), r) for k, (c, r) in terms)


def h_negindex_closed_form(s: Sequence[int]) -> NPoly:
    """Faulhaber-style closed form of the nested power sum for indices <= 0."""
    return h_x1star_closed_form(li_nonpositive_stars(s))


def h_stuffle_check(u: Word, v: Word, n_max: int) -> bool:
    """Exact character check H_{u st v}(N) = H_u(N) H_v(N) for N <= n_max."""
    lhs = _h_poly_vector(stuffle(NCPoly.from_word(u), NCPoly.from_word(v)), n_max)
    hu, hv = (_h_vector(w.letters, n_max) for w in (u, v))
    cut = n_max + 1  # a cached column can be longer than asked for
    return lhs == NPoly(hu.nums[:cut], hu.den).hadamard(NPoly(hv.nums[:cut], hv.den))


# -- the mixed-index identity table ----------------------------------------


# Star forms of Li, whose harmonic sums are the plain nested power sums.
POWER_SUM_STARS: dict[tuple[int, ...], X1StarPoly] = {
    index: li_nonpositive_stars(index) for index in ((0,), (-1,), (-2,), (-2, -2))
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
        poly = h_x1star_closed_form(payload)
        return [poly.eval(n) for n in range(n_max + 1)]
    if kind == "word":
        return h_word_table(payload, n_max)
    if kind == "stuffle":
        s, star = payload
        # H_w(N) vanishes when depth(w) > N, so expanding the star to depth
        # n_max keeps every contributing word and the check stays exact.
        image = x1star_y_expansion(star, n_max)
        return h_poly_table(stuffle(NCPoly.from_word(Word((s,), Y)), image), n_max)
    if kind == "oracle":
        return h_signed_table(payload, n_max)
    raise ValueError(f"unknown term kind {kind!r}")


def mixed_identity_failure(identity, n_max: int) -> int | None:
    """The first N <= n_max where a row of :func:`mixed_identities` fails; None if none."""
    _, lhs_terms, oracle_index = identity
    tables = [(c, _eval_term_table(kind, payload, n_max)) for c, kind, payload in lhs_terms]
    lhs = [sum(c * vec[n] for c, vec in tables) for n in range(n_max + 1)]
    rhs = h_signed_table(oracle_index, n_max)
    return next((n for n in range(n_max + 1) if lhs[n] != rhs[n]), None)
