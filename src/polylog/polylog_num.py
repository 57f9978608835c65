"""Truncated Taylor calculus and floating-point evaluation for Li.

The Taylor coefficients of Li at a signed index (s1,...,sr) are
a_N = N^(-s1) H_(s2..sr)(N-1), so the exact vectors come straight out of the
cached harmonic columns, one weight pass per leading entry; the module also provides:

* division by 1-z (prefix sums), which realizes the Li -> H correspondence;
* the Hadamard (coefficientwise) and Cauchy products, and the exact checks
  that the stuffle/shuffle identities hold coefficientwise;
* the theta-operator coefficient recursions;
* Stirling numbers of the second kind with the surjection/shuffle-power
  identity and its exponential generating function;
* a certified numeric evaluator on |z| <= 0.995 and the strict-decrease
  radius diagnostic for the worked divergence family.

A :class:`TaylorTrunc` is a view of an :class:`~polylog.nc_core.NPoly`, the
one dense exact kernel, with an explicit cap: in exact mode the kernels run
on integer numerators over one shared denominator and Fractions are built
only when ``coeffs`` is read.  Float mode runs the same loops on doubles over
the denominator 1 and claims nothing beyond the advertised tolerances.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .harmonic import _h_poly_vector, _taylor_map
from .nc_core import (
    AlphabetError,
    NCPoly,
    NPoly,
    NotInImageError,
    PolylogError,
    Word,
    X,
    Y,
    ZERO,
    ONE,
    index_from_word,
)
from .products import shuffle, stuffle

#: Evaluation is refused closer to the unit circle than this.
Z_ABS_CAP = 0.995
#: Hard cap on the number of series terms the numeric evaluator will sum.
MAX_TERMS = 1_000_000


class PrecisionError(PolylogError):
    """The requested accuracy is unattainable within the evaluation caps."""


class TaylorTrunc:
    """Coefficients a_0..a_{n_cap} of a series, exact or floating.

    A view of an :class:`NPoly` ``poly`` with its explicit cap ``n_cap``:
    exact coefficients are integer numerators over one denominator, float
    coefficients floats over 1, and the kernels of NPoly run on both.
    ``coeffs`` builds the tuple of Fractions (or floats) on each read.
    """

    __slots__ = ("poly", "n_cap", "mode")

    def __init__(self, coeffs: Sequence, mode: str = "exact") -> None:
        if mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        if not coeffs:
            raise ValueError("a TaylorTrunc holds at least the constant term")
        # isinstance over the distinct types, not every entry: this runs per vector
        if mode == "exact" and not all(
            issubclass(t, (int, Fraction)) for t in set(map(type, coeffs))
        ):
            raise ValueError("exact Taylor coefficients must be int or Fraction")
        self.poly = NPoly(coeffs) if mode == "exact" else NPoly(coeffs, 1)
        self.n_cap = len(coeffs) - 1
        self.mode = mode

    @classmethod
    def _of(cls, poly: NPoly, n_cap: int, mode: str = "exact") -> "TaylorTrunc":
        out = cls.__new__(cls)
        out.poly, out.n_cap, out.mode = poly, n_cap, mode
        return out

    @property
    def coeffs(self) -> tuple:
        if self.mode == "exact":
            return self.poly.padded(self.n_cap)
        head = tuple(x / self.poly.den for x in self.poly.nums[: self.n_cap + 1])
        return head + (0.0,) * (self.n_cap - len(head) + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaylorTrunc):
            return NotImplemented
        return (self.mode, self.n_cap, self.poly) == (other.mode, other.n_cap, other.poly)

    def __repr__(self) -> str:
        return f"TaylorTrunc(coeffs={self.coeffs!r}, mode={self.mode!r})"

    def to_json_dict(self) -> dict:
        if self.mode == "exact":
            return {"mode": "exact", "coeffs": [str(c) for c in self.coeffs]}
        return {"mode": "float", "coeffs": [float(c) for c in self.coeffs]}


def _require_compatible(a: TaylorTrunc, b: TaylorTrunc) -> None:
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")
    if a.n_cap != b.n_cap:
        raise ValueError(f"cap mismatch: {a.n_cap} vs {b.n_cap}")


def _li_taylor_float(index: tuple[int, ...], n_cap: int) -> list[float]:
    # same recurrences as the exact path, with double-precision scalars
    s1 = index[0]
    suffix = index[1:]
    r = len(suffix)
    state = [0.0] * r + [1.0]
    out = [0.0]
    for n in range(1, n_cap + 1):
        try:
            coeff = float(n) ** (-s1) * state[0]
            for j in range(r):
                state[j] += float(n) ** (-suffix[j]) * state[j + 1]
        except OverflowError:
            coeff = math.inf
        # products of finite powers overflow to inf without raising
        if not math.isfinite(coeff):
            raise PrecisionError(
                f"float Taylor coefficients of index {index} overflow at term n={n}"
            )
        out.append(coeff)
    return out


def li_taylor_coeffs(s: Sequence[int], n_cap: int, mode: str = "exact") -> TaylorTrunc:
    """Taylor coefficients of Li at a signed index: a_N = N^(-s1) H_suffix(N-1).

    The empty index gives the constant series 1.
    """
    if n_cap < 0:
        raise ValueError("n_cap must be >= 0")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    index = tuple(s)
    if mode == "float" and index:
        return TaylorTrunc(tuple(_li_taylor_float(index, n_cap)), "float")
    return TaylorTrunc._of(_taylor_map([(1, index)], n_cap), n_cap, mode)


def li_taylor_poly(p: NCPoly, n_cap: int) -> TaylorTrunc:
    """Linear combination of Taylor vectors over an X-polynomial.

    Every word of P must end in x1 (or be empty), i.e. code a multi-index.
    """
    if p.alphabet != X:
        raise AlphabetError("li_taylor_poly expects an X-polynomial")
    terms = ((c, index_from_word(w)) for w, c in p.items())
    return TaylorTrunc._of(_taylor_map(terms, n_cap), n_cap)


def div_one_minus_z(a: TaylorTrunc) -> TaylorTrunc:
    """Coefficients of A/(1-z): prefix sums b_N = sum_{n<=N} a_n."""
    return TaylorTrunc._of(a.poly.prefix_sums(a.n_cap), a.n_cap, a.mode)


def hadamard(a: TaylorTrunc, b: TaylorTrunc) -> TaylorTrunc:
    """Coefficientwise product; caps and modes must match."""
    _require_compatible(a, b)
    return TaylorTrunc._of(a.poly.hadamard(b.poly), a.n_cap, a.mode)


def cauchy(a: TaylorTrunc, b: TaylorTrunc) -> TaylorTrunc:
    """Cauchy product truncated at the shared cap."""
    _require_compatible(a, b)
    return TaylorTrunc._of(a.poly.mul_trunc(b.poly, a.n_cap), a.n_cap, a.mode)


def check_hadamard_identity(u: Word, v: Word, n_cap: int) -> bool:
    """Exact check of (Li_u/(1-z)) had (Li_v/(1-z)) = Li_{u st v}/(1-z)."""
    if u.alphabet != Y or v.alphabet != Y:
        raise AlphabetError("the Hadamard identity is indexed by Y-words")
    au = div_one_minus_z(li_taylor_coeffs(u.letters, n_cap))
    av = div_one_minus_z(li_taylor_coeffs(v.letters, n_cap))
    lhs = hadamard(au, av)
    # Li_w/(1-z) has the coefficients H_w(N), so the right side is a harmonic column
    return lhs.poly == _h_poly_vector(stuffle(NCPoly.from_word(u), NCPoly.from_word(v)), n_cap)


def check_shuffle_morphism(u: Word, v: Word, n_cap: int) -> bool:
    """Exact check that Taylor(Li_u) x Taylor(Li_v) = Taylor(Li_{u sh v}).

    Both words must end in x1 (or be empty) so the series exist around 0.
    """
    for w in (u, v):
        if w.alphabet != X:
            raise AlphabetError("check_shuffle_morphism expects X-words")
        if not (w.is_empty or w.ends_in_x1):
            raise NotInImageError(f"word {w} ends in x0; no Taylor series at 0")
    lhs = cauchy(
        li_taylor_coeffs(index_from_word(u), n_cap),
        li_taylor_coeffs(index_from_word(v), n_cap),
    )
    rhs = li_taylor_poly(shuffle(NCPoly.from_word(u), NCPoly.from_word(v)), n_cap)
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
    a = li_taylor_coeffs(index, n_cap).coeffs
    if index[0] != 1:
        b = li_taylor_coeffs((index[0] - 1,) + index[1:], n_cap).coeffs
        return all(n * a[n] == b[n] for n in range(n_cap + 1))
    b = li_taylor_coeffs(index[1:], n_cap).coeffs
    return all(
        (n + 1) * a[n + 1] - n * a[n] == b[n] for n in range(n_cap)
    )


# -- numeric evaluation ------------------------------------------------------


def li_eval(s: Sequence[int], z: complex, eps: float) -> complex:
    """Evaluate Li at a signed index within eps, for |z| <= 0.995.

    The truncation point is certified from the tail bound |a_n| <= n^sigma
    with sigma = r + sum max(0, -s_i).  Raises PrecisionError when the
    target accuracy cannot be certified within the term cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    index = tuple(s)
    if not index:
        return complex(1.0)
    z = complex(z)
    q = abs(z)
    if q > Z_ABS_CAP:
        raise PrecisionError(
            f"|z| = {q:.6f} exceeds the evaluation cap {Z_ABS_CAP}; "
            "the series is only summed well inside the unit disk"
        )
    if q == 0:
        return complex(0.0)
    sigma = len(index) + sum(max(0, -si) for si in index)
    log_q = math.log(q)
    log_eps = math.log(eps)
    m = 16
    while True:
        # terms n^sigma q^n decay at ratio <= c for n > m once c < 1;
        # the comparison runs in log space so huge sigma cannot overflow
        c = math.exp(sigma * math.log((m + 2) / (m + 1)) + log_q)
        if c < 1.0:
            log_tail = sigma * math.log(m + 1) + (m + 1) * log_q - math.log(1.0 - c)
            if log_tail <= log_eps:
                break
        if m >= MAX_TERMS:
            raise PrecisionError(
                f"cannot certify eps={eps} at |z|={q:.6f} within {MAX_TERMS} terms"
            )
        m *= 2
    m = min(m, MAX_TERMS)
    coeffs = li_taylor_coeffs(index, m, mode="float").coeffs
    total = 0.0 + 0.0j
    zp = 1.0 + 0.0j
    for n in range(m + 1):
        total += coeffs[n] * zp
        zp *= z
    if not cmath.isfinite(total):
        raise PrecisionError(f"the partial sum of Li at index {index} overflows at {m} terms")
    return total


# -- Stirling numbers and the surjection identity ---------------------------


def _stirling2_rows(n_max: int, m_max: int) -> list[list[int]]:
    """Rows S2(n, 0..m_max) for n = 0..n_max, by S2(n, m) = m S2(n-1, m) + S2(n-1, m-1)."""
    rows = [[1] + [0] * m_max]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m_max + 1)])
    return rows


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind via the standard recurrence."""
    if n < 0 or m < 0:
        raise ValueError("stirling2 needs natural arguments")
    if m > n:
        return 0
    return _stirling2_rows(n, m)[n][m]


def check_surjection_lemma(n_max: int, m_max: int) -> bool:
    """Check <(x1+)^(sh m) | x1^n> = m! S2(n, m) and its EGF identity.

    x1+ is the truncation of x1 x1* to length n_max; shuffle powers are
    truncated at the same length, which is exact for the inspected
    coefficients because shuffling only grows length.  The generating
    function side checks sum_n m! S2(n,m) x^n/n! = (e^x - 1)^m as truncated
    exact series.
    """
    s2 = _stirling2_rows(n_max, m_max)
    x1plus = NCPoly(X, {Word((1,) * n, X): 1 for n in range(1, n_max + 1)})
    power = NCPoly.one(X)
    for m in range(0, m_max + 1):
        if m > 0:
            power = shuffle(power, x1plus, grade_cap=n_max)
        for n in range(n_max + 1):
            coeff = power.coeff(Word((1,) * n, X))
            if coeff != factorial(m) * s2[n][m]:
                return False
    # EGF side: (e^x - 1)^m, coefficients as exact rationals
    em1 = TaylorTrunc((ZERO,) + tuple(Fraction(1, factorial(n)) for n in range(1, n_max + 1)))
    series = TaylorTrunc((ONE,) + (ZERO,) * n_max)
    for m in range(0, m_max + 1):
        if m > 0:
            series = cauchy(series, em1)
        for n, c in enumerate(series.coeffs):
            if c != Fraction(factorial(m) * s2[n][m], factorial(n)):
                return False
    return True


# -- radius-of-summability diagnostic ---------------------------------------


@dataclass(frozen=True, slots=True)
class DomRadiusReport:
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

    def to_json_dict(self) -> dict:
        return {
            "t": str(self.t),
            "r": str(self.r),
            "m_cap": self.m_cap,
            "ratio": str(self.ratio),
            "converges": self.converges,
            "partial_sum": str(self.partial_sum),
            "closed_form": None if self.closed_form is None else str(self.closed_form),
            "tail_bound": None if self.tail_bound is None else str(self.tail_bound),
        }


def dom_radius_demo(t, r, m_cap: int) -> DomRadiusReport:
    """Exact partial sums of the worked family showing strict radius decrease.

    The m-th term is (t r/(1-r))^m; convergence holds exactly when
    r < 1/(t+1).
    """
    t = Fraction(t)
    r = Fraction(r)
    if not (0 < r < 1):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if m_cap < 0:
        raise ValueError("m_cap must be >= 0")
    ratio = t * r / (1 - r)
    partial = ZERO
    term = ONE
    for _ in range(m_cap + 1):
        partial += term
        term *= ratio
    converges = ratio < 1
    if converges:
        closed = (1 - r) / (1 - (t + 1) * r)
        tail = ratio ** (m_cap + 1) / (1 - ratio)
    else:
        closed = None
        tail = None
    return DomRadiusReport(
        t=t,
        r=r,
        m_cap=m_cap,
        ratio=ratio,
        converges=converges,
        partial_sum=partial,
        closed_form=closed,
        tail_bound=tail,
    )
