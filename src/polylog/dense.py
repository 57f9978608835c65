"""The one dense exact kernel, :class:`NPoly`: a polynomial in one variable over the rationals.

:class:`TaylorTrunc` is its one capped view, of Taylor vectors and, through :class:`~polylog.coding.QSeriesTrunc`,
of q-series and plane stars.  Values are immutable, so threads share them freely.  A product request does not
load this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm, perm
from numbers import Rational
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .nc_core import ZERO, RatLike, as_rat, format_terms, rat_text


class NPoly:
    """A dense polynomial in one variable with exact rational coefficients.

    The package's one dense exact kernel: coefficient j is ``nums[j] / den``,
    integer numerators over one positive denominator, trimmed of trailing
    zeros.  The pair is not reduced by the kernels (a gcd over every
    numerator per result costs more than they save), only by
    :meth:`reduced`, so equality compares cross products, and
    Fractions are built only for ``coeffs``, :meth:`coeff`, :meth:`padded`,
    printing and JSON.  Every other dense carrier is a view of an NPoly with
    its own explicit truncation order, so trimming never shortens a cap.
    :meth:`texts` prints coefficients from the numerators by
    :func:`~polylog.nc_core.rat_text`, building no Fraction.
    The variable is N, z, q or t = 1/(1-z) by context; printing names N.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = (), den: int | None = None) -> None:
        """Rational coefficients, or integer numerators over ``den`` > 0 when given."""
        if den is None:
            data = [as_rat(c) for c in coeffs]
            den = lcm(1, *(c.denominator for c in data))
            coeffs = [c.numerator * (den // c.denominator) for c in data]
        nums = list(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den = tuple(nums), den

    @classmethod
    def from_monomials(cls, monomials: Mapping[int, RatLike]) -> "NPoly":
        """Build from a {degree: coefficient} mapping."""
        return cls(monomials.get(j, 0) for j in range(max(monomials, default=-1) + 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        return self.padded(self.degree)

    def padded(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients 0..n as Fractions, cut or zero-padded to n + 1 entries; none for n < 0."""
        head = tuple(Fraction(x, self.den) for x in self.nums[: max(n + 1, 0)])
        return head + (ZERO,) * (n + 1 - len(head))

    def texts(self, n: int | None = None) -> list[str]:
        """The texts of :meth:`padded` (n, or else the degree), as ``str`` writes each Fraction, by one gcd each."""
        n = self.degree if n is None else n
        head = list(map(rat_text, self.nums[: max(n + 1, 0)], repeat(self.den)))
        return head + ["0"] * (n + 1 - len(head))

    def coeff(self, j: int) -> Fraction:
        """Coefficient of the j-th power; 0 outside the stored range."""
        return Fraction(self.nums[j], self.den) if 0 <= j < len(self.nums) else ZERO

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree -1."""
        return len(self.nums) - 1

    def __len__(self) -> int:
        return len(self.nums)

    def reduced(self) -> "NPoly":
        """The same polynomial in lowest terms: numerators and denominator divided by their gcd."""
        g = gcd(self.den, *reversed(self.nums))  # last entry first: in a Li vector the gcd falls fastest there
        return NPoly([x // g for x in self.nums], self.den // g)

    def eval(self, x):
        """Horner evaluation; in integers over one denominator at a rational point."""
        if isinstance(x, Rational):
            p, q = x.numerator, x.denominator
            acc, qk = 0, 1
            for c in reversed(self.nums):
                acc = acc * p + c * qk
                qk *= q
            return Fraction(acc * q, self.den * qk)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- kernels -------------------------------------------------------------

    @staticmethod
    def lin_comb(terms: Iterable[tuple[RatLike, "NPoly"]], n: int | None = None) -> "NPoly":
        """sum_k c_k p_k over one denominator, no Fraction for an int c_k; with n, cut to degree n (zero if n < 0)."""
        terms = [(c if isinstance(c, int) else as_rat(c), p) for c, p in terms]
        den = lcm(1, *(c.denominator * p.den for c, p in terms))
        size = max((len(p.nums) for _, p in terms), default=0) if n is None else max(n + 1, 0)
        acc = [0] * size
        for c, p in terms:
            k = c.numerator * (den // (c.denominator * p.den))
            # a term of k == 1 is added as it is; map stops at len(acc) = size
            acc[: len(p.nums)] = map(add, acc, p.nums if k == 1 else map(mul, repeat(k), p.nums))
        return NPoly(acc, den)

    def __add__(self, other: "NPoly") -> "NPoly":
        if not isinstance(other, NPoly):
            return NotImplemented
        return NPoly.lin_comb([(1, self), (1, other)])

    def __sub__(self, other: "NPoly") -> "NPoly":
        if not isinstance(other, NPoly):
            return NotImplemented
        return NPoly.lin_comb([(1, self), (-1, other)])

    def __neg__(self) -> "NPoly":
        return NPoly([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, NPoly):
            return self.mul_trunc(other, len(self.nums) + len(other.nums) - 2)
        c = as_rat(other)
        return NPoly([c.numerator * x for x in self.nums], self.den * c.denominator)

    __rmul__ = __mul__

    def mul_trunc(self, other: "NPoly", n: int) -> "NPoly":
        """Cauchy product cut to degree n; zero for n < 0."""
        ys = other.nums
        out = [0] * (n + 1)
        for i, x in enumerate(self.nums[: max(n + 1, 0)]):
            if not x:
                continue
            for j, y in enumerate(ys[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
        return NPoly(out, self.den * other.den)

    def hadamard(self, other: "NPoly") -> "NPoly":
        """Coefficientwise product."""
        return NPoly([x * y for x, y in zip(self.nums, other.nums)], self.den * other.den)

    def prefix_sums(self, n: int) -> "NPoly":
        """Coefficients 0..n of p/(1-z): b_k = p_0 + ... + p_k; zero for n < 0."""
        head = self.nums[: max(n + 1, 0)]
        return NPoly(accumulate(head + (0,) * (n + 1 - len(head))), self.den)

    def star_inverse(self, n: int) -> "NPoly":
        """(1 + p)^-1 - 1 to degree n, for p without constant term.

        With p_k = s_k / d the coefficients are T_k / d^k for the integers
        T_k = -(s_k d^(k-1) + sum_{0<i<k} s_i d^(i-1) T_(k-i)).
        """
        if n < 0:
            raise ValueError(f"star inverse needs a degree n >= 0, got {n}")
        p, d = self.nums, self.den
        s = [0] + [p[i] * d ** (i - 1) if i < len(p) else 0 for i in range(1, n + 1)]
        t = [0]
        for k in range(1, n + 1):
            t.append(-(s[k] + sum(s[i] * t[k - i] for i in range(1, k))))
        return NPoly([x * d ** (n - k) for k, x in enumerate(t)], d**n)

    def exp_m1(self, n: int) -> "NPoly":
        """exp(p) - 1 to degree n, for p without constant term: m e_m = sum_k k p_k e_(m-k).

        Over D = n! d^n (p_k = s_k / d) the numerators are integers: m d U_m = sum_k k s_k U_(m-k).
        """
        if n < 0:
            raise ValueError(f"exp - 1 needs a degree n >= 0, got {n}")
        p, d = self.nums, self.den
        u = [perm(n) * d**n]
        for m in range(1, n + 1):
            u.append(sum(k * p[k] * u[m - k] for k in range(1, min(m + 1, len(p)))) // (m * d))
        return NPoly([0, *u[1:]], u[0])

    def euler(self, pole: int) -> "NPoly":
        """Numerator of theta (p / (1-z)^pole) over (1-z)^(pole+1), theta = z d/dz.

        One pass: z sum_i ((i+1) p_(i+1) + (pole - i) p_i) z^i.
        """
        p = self.nums + (0,)
        terms = ((i + 1) * p[i + 1] + (pole - i) * p[i] for i in range(len(self.nums)))
        return NPoly([0, *terms], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NPoly):
            return NotImplemented
        if self.den == other.den or len(self.nums) != len(other.nums):
            return self.nums == other.nums
        return all(x * other.den == y * self.den for x, y in zip(self.nums, other.nums))

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.nums)

    def _monomials(self, var: str, texts: Sequence[str] | None = None) -> list[tuple[str, str]]:
        """The nonzero (coefficient text, var^j) terms, ascending, for :func:`format_terms`.

        ``texts`` are this polynomial's :meth:`texts`, for a caller that prints them too; built here otherwise.
        """
        return [
            (c, "" if j == 0 else var if j == 1 else f"{var}^{j}")
            for j, c in enumerate(self.texts() if texts is None else texts)
            if c != "0"
        ]

    def to_texts(self) -> tuple[list[str], str]:
        """:meth:`texts` and the text ``str`` prints, from that one list."""
        texts = self.texts()
        return texts, format_terms(self._monomials("N", texts)[::-1])

    def __str__(self) -> str:
        return self.to_texts()[1]

    def __repr__(self) -> str:
        return f"NPoly({self!s})"


class TaylorTrunc:
    """Exact coefficients a_0..a_{n_cap} of a series.

    A view of an :class:`NPoly` ``poly`` with its explicit cap ``n_cap``; ``coeffs`` builds the tuple of
    Fractions on each read.  Views compare equal only within one class, and are unhashable as their NPoly is.
    """

    __slots__ = ("poly", "n_cap")

    def __init__(self, coeffs: Sequence) -> None:
        if not coeffs:
            raise ValueError("a TaylorTrunc holds at least the constant term")
        # isinstance over the distinct types, not every entry: this runs per vector
        if not all(issubclass(t, (int, Fraction)) for t in set(map(type, coeffs))):
            raise ValueError("Taylor coefficients must be int or Fraction")
        self.poly = NPoly(coeffs)
        self.n_cap = len(coeffs) - 1

    @classmethod
    def _of(cls, poly: NPoly, n_cap: int) -> "TaylorTrunc":
        out = cls.__new__(cls)
        out.poly, out.n_cap = poly, n_cap
        return out

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.poly.padded(self.n_cap)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n_cap, self.poly) == (other.n_cap, other.poly)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"
