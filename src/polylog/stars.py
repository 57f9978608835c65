"""Tractable star fragments: powers of x1*, letter stars, and plane stars.

Three families of rational series are represented exactly:

* :class:`X1StarPoly` - finite combinations sum_k c_k (k x1)* with
  (0 x1)* = 1, stored as polynomials in t = 1/(1-z).  This fragment hosts the
  non-positive-index polylogarithms computed in :mod:`polylog.negindex`.
* :class:`LetterStarForm` - letter stars (a x0 + b x1)* whose polylogarithm
  is the closed form z^a (1-z)^(-b).
* :class:`PlaneStar` - Kleene stars (sum_s alpha_s y_s)* of degree-one
  Y-elements.  A plane star is the umbral q-series itself: a
  :class:`~polylog.coding.QSeriesTrunc` view of an NPoly in q.  Under
  stuffle these form a commutative group whose law acts coefficientwise,
  c_n = alpha_n + beta_n + sum_{i+j=n} alpha_i beta_j, that is
  (1+A)(1+B) - 1 on the series.

Star objects are exact and finite; anything that expands a star into words
takes an explicit cap.  Their coefficient arithmetic is that of
:class:`~polylog.dense.NPoly`, the one dense exact kernel, and expansions
into words carry its integer numerators into the stored form of
:class:`~polylog.nc_core.NCPoly`, building no Word or Fraction per word.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .coding import QSeriesTrunc
from .dense import NPoly
from .nc_core import NCPoly, RatLike, X, Y, ZERO, as_rat, format_terms
from .products import exp_stuffle, shuffle_pow
from .words import Word


class X1StarPoly:
    """A finite combination sum_k c_k (k x1)*, k >= 0, with (0 x1)* = 1.

    Li of (k x1)* is (1-z)^(-k) = t^k, so the combination is stored as the
    :class:`NPoly` sum_k c_k t^k in t = 1/(1-z): sums are NPoly sums and the
    shuffle inside the fragment, (j x1)* sh (k x1)* = ((j+k) x1)*, is NPoly
    multiplication.  The constructor takes {order: coefficient} terms or that
    NPoly itself.
    """

    __slots__ = ("poly",)

    def __init__(
        self, terms: Mapping[int, RatLike] | Iterable[tuple[int, RatLike]] | NPoly | None = None
    ):
        if isinstance(terms, NPoly):
            self.poly = terms
            return
        data: list[Fraction] = []
        for k, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            if k < 0:
                raise ValueError(f"star orders must be >= 0, got {k}")
            data.extend([ZERO] * (k + 1 - len(data)))
            data[k] += as_rat(c)
        self.poly = NPoly(data)

    @classmethod
    def star(cls, k: int, coeff: RatLike = 1) -> "X1StarPoly":
        return cls({k: coeff})

    def coeff(self, k: int) -> Fraction:
        return self.poly.coeff(k)

    def items(self) -> list[tuple[int, Fraction]]:
        """Nonzero terms ordered by descending star order; Fractions only for those."""
        nums, den = self.poly.nums, self.poly.den
        return [(k, Fraction(nums[k], den)) for k in range(len(nums) - 1, -1, -1) if nums[k]]

    @property
    def max_order(self) -> int:
        return max(self.poly.degree, 0)

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __add__(self, other: "X1StarPoly") -> "X1StarPoly":
        if not isinstance(other, X1StarPoly):
            return NotImplemented
        return X1StarPoly(self.poly + other.poly)

    def __sub__(self, other: "X1StarPoly") -> "X1StarPoly":
        if not isinstance(other, X1StarPoly):
            return NotImplemented
        return X1StarPoly(self.poly - other.poly)

    def __neg__(self) -> "X1StarPoly":
        return X1StarPoly(-self.poly)

    def __mul__(self, scalar: RatLike) -> "X1StarPoly":
        return X1StarPoly(self.poly * as_rat(scalar))

    __rmul__ = __mul__

    def shuffle(self, other: "X1StarPoly") -> "X1StarPoly":
        """Shuffle product inside the fragment: multiplication in t."""
        return X1StarPoly(self.poly * other.poly)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, X1StarPoly):
            return NotImplemented
        return self.poly == other.poly

    __hash__ = None  # type: ignore[assignment]

    def to_texts(self) -> tuple[dict[str, str], str]:
        """The {order: coefficient text} stars by descending order and the expression text, from one :meth:`NPoly.texts`."""
        texts = self.poly.texts()
        stars = {str(k): texts[k] for k in range(len(texts) - 1, -1, -1) if texts[k] != "0"}
        return stars, format_terms([(c, f"star({k})" if k != "0" else "") for k, c in stars.items()])

    def __str__(self) -> str:
        return self.to_texts()[1]

    def __repr__(self) -> str:
        return f"X1StarPoly({self!s})"


def x1star_expand(k: int, len_cap: int) -> NCPoly:
    """Truncated expansion of (k x1)*: sum_{n<=cap} k^n x1^n."""
    return x1star_poly_expand(X1StarPoly.star(k), len_cap)


def x1star_poly_expand(s: X1StarPoly, len_cap: int) -> NCPoly:
    """Truncated expansion of sum_k c_k (k x1)* into x1^n with coefficients sum_k c_k k^n."""
    if len_cap < 0:
        raise ValueError(f"length cap must be >= 0, got {len_cap}")
    nums = s.poly.nums
    sums = {b"\1" * n: sum(x * k**n for k, x in enumerate(nums) if x) for n in range(len_cap + 1)}
    return NCPoly._from_nums(X, sums, s.poly.den)


def check_kstar_shuffle_power(k: int, len_cap: int) -> bool:
    """Check (k x1)* = (x1*)^(sh k) on words of length <= cap."""
    if k < 1:
        raise ValueError(f"needs k >= 1, got {k}")
    lhs = x1star_expand(k, len_cap)
    rhs = shuffle_pow(x1star_expand(1, len_cap), k, grade_cap=len_cap)
    return lhs == rhs


class PlaneStar(QSeriesTrunc):
    """The Kleene star (sum_s alpha_s y_s)* of a degree-one Y-element.

    The umbral view of a :class:`QSeriesTrunc`: ``alpha[i]`` is the
    coefficient of y_(i+1) and S_max is the explicit order.  Stuffle products
    extend S_max additively.
    """

    __slots__ = ()

    alpha = QSeriesTrunc.coeffs

    def truncated(self, s_max: int) -> "PlaneStar":
        return PlaneStar.from_poly(self.poly, min(s_max, self.s_max))

    def to_texts(self) -> tuple[list[str], str]:
        """The texts of ``alpha``, from one :meth:`NPoly.texts`, and the literal text "[a1,...]*"."""
        alpha = self.poly.texts(self.s_max)[1:]
        return alpha, "[" + ",".join(alpha) + "]*"

    def __str__(self) -> str:
        return self.to_texts()[1]

    def __repr__(self) -> str:
        return f"PlaneStar(alpha={self.alpha!r})"


def plane_star_stuffle(a: PlaneStar, b: PlaneStar) -> PlaneStar:
    """Group law on plane stars: c_n = a_n + b_n + sum_{i+j=n} a_i b_j.

    In the umbral coding this is (1+A)(1+B) - 1 = A + B + AB on the
    constant-free q-series A, B of the two stars.  The result carries
    S_max = a.s_max + b.s_max so no cross term is lost.
    """
    return PlaneStar.from_poly(a.poly + b.poly + a.poly * b.poly, a.s_max + b.s_max)


def plane_star_inverse(a: PlaneStar, s_max: int) -> PlaneStar:
    """Stuffle-group inverse to order s_max: in the umbral coding (1+S)^-1 - 1."""
    return PlaneStar.from_poly(a.poly.star_inverse(s_max), s_max)


def plane_star_expand(a: PlaneStar, weight_cap: int) -> NCPoly:
    """All words y_{s1}...y_{sr} of weight <= cap with coefficient prod alpha_{s_i} = prod nums / den^r."""
    if weight_cap < 0:
        raise ValueError(f"weight cap must be >= 0, got {weight_cap}")
    nums, den = a.poly.nums, a.poly.den
    letters = [(s, nums[s]) for s in range(1, min(len(nums), weight_cap + 1)) if nums[s]]
    # the words of r letters, each with its budget left and prod nums, for r = 0, 1, ...
    levels: list[list[tuple[tuple[int, ...], int, int]]] = [[((), weight_cap, 1)]]
    while levels[-1]:
        grown = []
        for word, budget, num in levels[-1]:
            for s, x in letters:
                if s > budget:
                    break
                grown.append((word + (s,), budget - s, num * x))
        levels.append(grown)
    # over den^top, a word of r letters has numerator prod nums * den^(top - r)
    top = len(levels) - 2
    scales = [den ** (top - r) for r in range(top + 1)]
    terms = {word: num * scale for scale, level in zip(scales, levels) for word, _, num in level}
    return NCPoly._from_nums(Y, terms, den**top)


def one_param_group(t: QSeriesTrunc, z: RatLike, weight_cap: int) -> NCPoly:
    """Expansion of G(z) = (umbral image of exp(z T) - 1)*, to weight <= cap.

    G is a one-parameter group for the stuffle: G(z1) st G(z2) = G(z1+z2)
    and G(0) = 1; every word coefficient is polynomial in z.
    """
    series = (t.poly * z).exp_m1(weight_cap)
    return plane_star_expand(PlaneStar.from_poly(series, weight_cap), weight_cap)


def ykstar_exp_identity(k: int, z: RatLike, weight_cap: int) -> bool:
    """Check (z y_k)* = exp_st(-sum_{n>=1} y_{nk} (-z)^n / n) up to the cap."""
    if k < 1:
        raise ValueError(f"needs k >= 1, got {k}")
    z = as_rat(z)
    lhs = plane_star_expand(PlaneStar.make([0] * (k - 1) + [z]), weight_cap)
    arg = NCPoly(Y, {Word((n * k,), Y): -((-z) ** n) / n for n in range(1, weight_cap // k + 1)})
    rhs = exp_stuffle(arg, weight_cap)
    return lhs == rhs


class LetterStarForm(NamedTuple):
    """Closed form z^alpha (1-z)^(-beta) of the letter star (a x0 + b x1)*."""

    alpha: Fraction
    beta: Fraction

    def eval(self, z: complex) -> complex:
        """Evaluate at complex z off the cuts (principal branches).

        At z = 0 or 1, a power 0^p is 1 for p = 0, 0 for p > 0, ZeroDivisionError for p < 0.
        """
        z = complex(z)
        return z ** float(self.alpha) * (1 - z) ** -float(self.beta)


def letter_star_li(alpha: RatLike, beta: RatLike) -> LetterStarForm:
    """Closed-form descriptor for the polylogarithm of (a x0 + b x1)*."""
    return LetterStarForm(as_rat(alpha), as_rat(beta))
