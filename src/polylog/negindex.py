"""Non-positive-index polylogarithms, in t = 1/(1-z), as exact rational functions.

For a multi-index (s1,...,sr) with every s_i <= 0, the polylogarithm
sum_{n1>...>nr>0} n1^(-s1)...nr^(-sr) z^(n1) is an integer polynomial in
t = 1/(1-z), that is the star combination sum_k c_k (k x1)* of
:class:`polylog.stars.X1StarPoly`, since Li of (k x1)* is t^k.  It is
computed right-to-left through the index list on integers: starting from 1,
each step multiplies by z/(1-z) = t - 1 (appending a 0 index) and then
applies the Euler operator theta = z d/dz = (t^2 - t) d/dt |s_i| times.

:class:`RatFuncAtOne` is the canonical carrier in z: a dense numerator and a
pole order at z = 1, with (1-z) factors always divided out of the numerator
so equality is plain field-wise comparison.  One binomial basis change turns
sum_k c_k t^k into p(z)/(1-z)^m, canonical as built; :func:`ratfunc_to_x1star`
is its inverse.  The numerator is an :class:`polylog.nc_core.NPoly`: sums,
products, the Euler step, the division by (1-z), evaluation and printing are
that one dense exact kernel's, on integer numerators over one denominator.

The module also hosts the trailing-x0 shuffle regularization: every
X-polynomial P decomposes uniquely as sum_k P_k sh x0^(sh k) with each P_k
ending in x1 (or constant).  The decomposition is computed by rewriting the
terms with maximal trailing-x0 count and strictly descending through the
levels, which terminates because every rewrite only creates words with
fewer trailing zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .nc_core import (
    AlphabetError,
    InvalidIndexError,
    NCPoly,
    NPoly,
    PolylogError,
    RatLike,
    Word,
    X,
    X0,
    as_rat,
    format_terms,
)
from .products import shuffle
from .stars import X1StarPoly


class NotRepresentableError(PolylogError):
    """The rational function lies outside the star fragment C[x1*]."""


class RatFuncAtOne:
    """A rational function p(z)/(1-z)^m with its only pole at z = 1.

    Canonical form: the numerator is trimmed and, whenever m > 0, not
    divisible by (1-z); the zero function has m = 0.  The numerator is held as
    an :class:`NPoly` ``p``; ``num`` gives its coefficients as Fractions.
    """

    __slots__ = ("p", "pole_order")

    def __init__(self, num: Sequence[RatLike] | NPoly, pole_order: int) -> None:
        if pole_order < 0:
            raise ValueError(f"pole order must be >= 0, got {pole_order}")
        p = num if isinstance(num, NPoly) else NPoly(num)
        while pole_order > 0 and p and not sum(p.nums):
            # p(1) = 0, so p = (1-z) q with q_i = p_0 + ... + p_i
            p = p.prefix_sums(p.degree - 1)
            pole_order -= 1
        self.p = p
        self.pole_order = pole_order if p else 0

    @classmethod
    def constant(cls, c: RatLike) -> "RatFuncAtOne":
        return cls([as_rat(c)], 0)

    @property
    def num(self) -> tuple[Fraction, ...]:
        return self.p.coeffs

    @property
    def is_zero(self) -> bool:
        return not self.p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFuncAtOne):
            return NotImplemented
        return self.p == other.p and self.pole_order == other.pole_order

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "RatFuncAtOne") -> "RatFuncAtOne":
        m = max(self.pole_order, other.pole_order)
        p = self.p * _one_minus_z_pow(m - self.pole_order)
        q = other.p * _one_minus_z_pow(m - other.pole_order)
        return RatFuncAtOne(p + q, m)

    def __neg__(self) -> "RatFuncAtOne":
        return RatFuncAtOne(-self.p, self.pole_order)

    def __sub__(self, other: "RatFuncAtOne") -> "RatFuncAtOne":
        return self + (-other)

    def __mul__(self, other: "RatFuncAtOne") -> "RatFuncAtOne":
        return RatFuncAtOne(self.p * other.p, self.pole_order + other.pole_order)

    def eval(self, z):
        """Exact evaluation at a rational (or complex) z != 1."""
        return self.p.eval(z) / (1 - z) ** self.pole_order

    def taylor_coeffs(self, n_cap: int) -> list[Fraction]:
        """Exact Taylor coefficients a_0..a_{n_cap} at z = 0.

        Uses 1/(1-z)^m = sum_n C(n+m-1, m-1) z^n, independently of the
        harmonic-sum recurrences used elsewhere.
        """
        m = self.pole_order
        series = NPoly([comb(n + m - 1, m - 1) for n in range(n_cap + 1)], 1) if m else _ONE
        return list(self.p.mul_trunc(series, n_cap).padded(n_cap))

    def to_json_dict(self) -> dict:
        return {"num": [str(c) for c in self.num], "pole_order": self.pole_order}

    def __str__(self) -> str:
        num = format_terms(self.p._monomials("z"))
        if self.pole_order == 0:
            return num
        return f"({num})/(1-z)^{self.pole_order}"

    def __repr__(self) -> str:
        return f"RatFuncAtOne({self!s})"


_ONE = NPoly([1])


def _one_minus_z_pow(k: int) -> NPoly:
    return NPoly([(-1) ** i * comb(k, i) for i in range(k + 1)], 1)


def theta_derivative(f: RatFuncAtOne) -> RatFuncAtOne:
    """The Euler operator z d/dz, exactly, re-canonicalized.

    For f = p/(1-z)^m: theta f = z (p'(1-z) + m p) / (1-z)^(m+1).
    """
    return RatFuncAtOne(f.p.euler(f.pole_order), f.pole_order + 1)


def li_nonpositive_stars(s: Sequence[int]) -> X1StarPoly:
    """Li at indices all <= 0 as an integer polynomial in t = 1/(1-z), a star combination.

    Right to left from 1, each s_i applies F -> theta^(-s_i)((t - 1) F), where
    theta t^j = j t^(j+1) - j t^j.  The empty index gives 1.
    """
    for si in s:
        if si > 0:
            raise InvalidIndexError(
                f"li_nonpositive needs indices <= 0, got {si}; "
                "mixed signs are evaluated numerically, not in closed form"
            )
    c = [1]  # integer coefficients of t^0, t^1, ...
    for si in reversed(list(s)):
        c = [a - b for a, b in zip((0, *c), (*c, 0))]  # times t - 1
        for _ in range(-si):
            c = [(j - 1) * a - j * b for j, (a, b) in enumerate(zip((0, *c), (*c, 0)))]
    return X1StarPoly(NPoly(c, 1))


def li_nonpositive(s: Sequence[int]) -> RatFuncAtOne:
    """Exact rational function of the polylogarithm at indices all <= 0."""
    return x1star_to_ratfunc(li_nonpositive_stars(s))


def ratfunc_to_x1star(f: RatFuncAtOne) -> X1StarPoly:
    """Rewrite p(z)/(1-z)^m as sum_k c_k (k x1)* via Li_{(k x1)*} = (1-z)^(-k).

    Substituting u = 1-z expands p(1-u) = sum_j b_j u^j, so c_{m-j} = b_j.
    Needs deg p <= m; the outputs of :func:`li_nonpositive` always qualify.
    """
    m = f.pole_order
    if f.p.degree > m:
        raise NotRepresentableError(
            f"numerator degree {f.p.degree} exceeds pole order {m}; "
            "the function is not a combination of (k x1)* stars"
        )
    p = f.p.nums
    b = [(-1) ** j * sum(p[i] * comb(i, j) for i in range(j, len(p))) for j in range(len(p))]
    return X1StarPoly(NPoly([0] * (m + 1 - len(b)) + b[::-1], f.p.den))


def x1star_to_ratfunc(s: X1StarPoly) -> RatFuncAtOne:
    """sum_k c_k / (1-z)^k as p(z)/(1-z)^m, m the top order: one basis change.

    p(z) = sum_k c_k (1-z)^(m-k), so p_j = (-1)^j sum_k c_k C(m-k, j) (the mirror
    of :func:`ratfunc_to_x1star`) and p(1) = c_m != 0; by Horner's rule in 1 - z.
    """
    p = []
    for x in s.poly.nums:
        p = [a - b for a, b in zip((*p, 0), (0, *p))]  # times 1 - z
        p[0] += x
    return RatFuncAtOne(NPoly(p, s.poly.den), s.max_order)


def regularize_trailing_x0(p: NCPoly) -> dict[int, NCPoly]:
    """Unique decomposition P = sum_k (result[k] sh x0^(sh k)).

    Each result[k] has all its words ending in x1 (or empty).  Terms whose
    trailing-x0 count j is maximal are rewritten through u sh x0^j, whose
    only j-trailing-zero word is u x0^j itself (coefficient 1); the
    corrections all strictly decrease the trailing count, so the levels are
    cleared from the top down.
    """
    if p.alphabet != X:
        raise AlphabetError("regularization acts on X-polynomials")
    parts: dict[int, NCPoly] = {}
    remainder = p
    while remainder:
        level = max(w.trailing_x0_count for w in remainder.support())
        if level == 0:
            parts[0] = parts.get(0, NCPoly.zero(X)) + remainder
            break
        stripped = NCPoly(
            X,
            [
                (Word(w.letters[: len(w) - level], X), c)
                for w, c in remainder.items()
                if w.trailing_x0_count == level
            ],
        )
        parts[level] = stripped * Fraction(1, factorial(level))
        x0_pow = NCPoly.from_word(Word((X0,) * level, X))
        remainder = remainder - shuffle(stripped, x0_pow)
    return {k: q for k, q in parts.items() if q}
