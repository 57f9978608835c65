"""Truncated Taylor calculus and floating-point evaluation for Li.

The Taylor coefficients of Li at a signed index (s1,...,sr) are
a_N = N^(-s1) H_(s2..sr)(N-1), so the exact vectors come straight out of the
cached harmonic columns, one weight pass per leading entry; an X-polynomial's
vector is that of the Y-polynomial pi_Y(P) it codes, on the one path of
:mod:`polylog.harmonic`.  The module also provides:

* division by 1-z (prefix sums), which realizes the Li -> H correspondence;
* the Hadamard (coefficientwise) and Cauchy products;
* Stirling numbers of the second kind with the surjection/shuffle-power
  identity and its exponential generating function;
* a float evaluator on |z| <= 0.995 certified for truncation and rounding.

The identities these serve (Hadamard, shuffle morphism, derivative
recursions) and the radius diagnostic are checked in :mod:`polylog.checks`.

A :class:`~polylog.dense.TaylorTrunc` is the capped view of an NPoly, the one
dense exact kernel, whose Fractions are built only when ``coeffs`` is read.
:func:`li_taylor_coeffs` and :func:`li_taylor_poly` wrap the two memoized vector
builders of :mod:`polylog.harmonic`, which answer a hit at once and admit a
miss before any work.  The evaluator runs the prefix recurrence of the harmonic
sums on float weights, each float beside a bound on its error.
"""

from __future__ import annotations

import math
from contextlib import suppress
from itertools import repeat
from math import factorial, perm
from typing import Iterator, Sequence

from .dense import NPoly, TaylorTrunc
from .harmonic import _li_poly_vector, _li_vector
from .nc_core import MAX_TERMS, AlphabetError, NCPoly, PolylogError, X
from .products import shuffle

#: Evaluation is refused closer to the unit circle than this.
Z_ABS_CAP = 0.995


class PrecisionError(PolylogError):
    """The requested accuracy is unattainable within the evaluation caps."""


def _require_compatible(a: TaylorTrunc, b: TaylorTrunc) -> None:
    if a.n_cap != b.n_cap:
        raise ValueError(f"cap mismatch: {a.n_cap} vs {b.n_cap}")


def li_taylor_coeffs(s: Sequence[int], n_cap: int) -> TaylorTrunc:
    """Taylor coefficients of Li at a signed index: a_N = N^(-s1) H_suffix(N-1).

    The empty index gives the constant series 1.
    """
    return TaylorTrunc._of(_li_vector(n_cap, *s), n_cap)


def _powers(s: int, n_max: int) -> Iterator[float]:
    """The doubles n^(-s) for n = 1..n_max; raises OverflowError past the double range."""
    return map(pow, map(float, range(1, n_max + 1)), repeat(-s))


def li_taylor_poly(p: NCPoly, n_cap: int) -> TaylorTrunc:
    """Linear combination of Taylor vectors over an X-polynomial: that of the Y-polynomial pi_Y(P).

    Every word of P must end in x1 (or be empty), i.e. code a multi-index.
    """
    from .coding import pi_y  # here, not at the top: the li-eval and li-coeffs commands never run it

    if p.alphabet != X:
        raise AlphabetError("li_taylor_poly expects an X-polynomial")
    return TaylorTrunc._of(_li_poly_vector(pi_y(p), n_cap), n_cap)


def div_one_minus_z(a: TaylorTrunc) -> TaylorTrunc:
    """Coefficients of A/(1-z): prefix sums b_N = sum_{n<=N} a_n."""
    return TaylorTrunc._of(a.poly.prefix_sums(a.n_cap), a.n_cap)


def hadamard(a: TaylorTrunc, b: TaylorTrunc) -> TaylorTrunc:
    """Coefficientwise product; the caps must match."""
    _require_compatible(a, b)
    return TaylorTrunc._of(a.poly.hadamard(b.poly), a.n_cap)


def cauchy(a: TaylorTrunc, b: TaylorTrunc) -> TaylorTrunc:
    """Cauchy product truncated at the shared cap."""
    _require_compatible(a, b)
    return TaylorTrunc._of(a.poly.mul_trunc(b.poly, a.n_cap), a.n_cap)


# -- numeric evaluation ------------------------------------------------------


def li_eval(s: Sequence[int], z: complex, eps: float) -> complex:
    """Evaluate Li at a signed index within eps of its value, for |z| <= 0.995.

    The truncation point m is certified from the tail bound |a_n| <= n^sigma,
    sigma = r + sum max(0, -s_i) at depth r.  Every float the sum makes carries
    a bound on its absolute error (the rules are in the README).  Raises
    PrecisionError as soon as the truncation bound plus the sum's error bound
    exceeds eps, when a coefficient overflows, or, before any work, when m r > MAX_TERMS.
    """
    if not eps > 0:  # NaN too
        raise ValueError("eps must be positive")
    index = tuple(s)
    if not index:
        return complex(1.0)
    z = complex(z)
    q = abs(z)
    if not q <= Z_ABS_CAP:  # NaN too
        raise PrecisionError(
            f"|z| = {q:.6f} exceeds the evaluation cap {Z_ABS_CAP}; "
            "the series is only summed well inside the unit disk"
        )
    if q == 0:
        return complex(0.0)
    r = len(index)
    sigma = r + sum(max(0, -si) for si in index)
    log_q, log_eps = math.log(q), math.log(eps)
    m = 16
    while True:
        if m * r > MAX_TERMS:
            raise PrecisionError(f"cannot certify eps={eps} at |z|={q:.6f} within {MAX_TERMS} terms times depth")
        # terms n^sigma q^n decay at ratio <= c past m once c < 1 (in logs: sigma may be huge)
        c = math.exp(sigma * math.log((m + 2) / (m + 1)) + log_q)
        if c < 1.0:
            log_tail = sigma * math.log(m + 1) + (m + 1) * log_q - math.log(1.0 - c)
            if log_tail <= log_eps:
                break
        m *= 2
    tail = math.exp(log_tail)
    # the roundings of a real and a complex operation; tiny: a product's losses below the normal range
    u, cu, tiny = 2.0**-53, 5**0.5 * 2.0**-53, 2.0**-1072
    weights = zip(*(_powers(si, m - 1) for si in index[1:]))  # the tail weights of n = 1..m-1
    row, bound = [0.0] * (r - 1) + [1.0], [0.0] * r  # H_(index[j+1:])(n - 1) and its error bound
    total, err, zp, ezp, done = 0j, 0.0, 1 + 0j, 0.0, 0  # done: the last term added
    with suppress(OverflowError):  # a power past the double range
        for n, w in zip(range(1, m + 1), _powers(index[0], m)):
            a = w * row[0]
            if not a < math.inf:  # products of finite powers overflow without raising
                break
            ea = (2 * u * w + tiny) * (row[0] + bound[0]) + w * bound[0] + u * a + tiny
            zp = zp * z
            ezp = ezp * q + cu * abs(zp) + tiny
            t = a * zp
            total = total + t
            err += ea * (abs(zp) + ezp) + a * ezp + u * abs(t) + tiny + u * abs(total)
            if not tail + 1.01 * err <= eps:  # 1.01 rounds the bound's own arithmetic up
                message = f"the float sum of Li at index {index} carries a rounding bound of {1.01 * err:.3g}"
                raise PrecisionError(f"cannot certify eps={eps} at |z|={q:.6f}: {message}")
            done = n
            for j, wj in enumerate(next(weights, ())):  # advance the rows to n
                x, ex = row[j + 1], bound[j + 1]
                p = wj * x
                row[j] += p
                bound[j] += (2 * u * wj + tiny) * (x + ex) + wj * ex + u * p + tiny + u * row[j]
    if done < m:
        raise PrecisionError(f"float Taylor coefficients of index {index} overflow at term n={done + 1}")
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
    exact series.  Both sides compare integer numerators (the series' with
    m! S2(n, m) n_max!/n! over n_max!); no Fraction is built per coefficient.
    """
    s2 = _stirling2_rows(n_max, m_max)
    x1plus = NCPoly._from_nums(X, {b"\1" * n: 1 for n in range(1, n_max + 1)}, 1)
    power = NCPoly.one(X)
    for m in range(0, m_max + 1):
        if m > 0:
            power = shuffle(power, x1plus, grade_cap=n_max)
        for n in range(n_max + 1):
            if power._nums.get(b"\1" * n, 0) != factorial(m) * s2[n][m] * power._den:
                return False
    # EGF side: e^x - 1 over n_max!, whose numerator n is n_max!/n!
    scale = [perm(n_max, n_max - n) for n in range(n_max + 1)]
    em1 = TaylorTrunc._of(NPoly([0, *scale[1:]], scale[0]), n_max)
    series = TaylorTrunc._of(NPoly([1]), n_max)
    for m in range(0, m_max + 1):
        if m > 0:
            series = cauchy(series, em1)
        if series.poly != NPoly([factorial(m) * row[m] * f for row, f in zip(s2, scale)], scale[0]):
            return False
    return True
