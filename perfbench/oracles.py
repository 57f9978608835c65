"""Reference computations the checks compare the library's answers with.

They follow the definitions directly and share no code with the library:
nested harmonic sums, Taylor coefficients and polylogarithm values, and
shuffle, stuffle, concatenation, codings and star expansions of words.
"""

from __future__ import annotations

import functools
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations


def power(n: int, s: int) -> Fraction:
    """n^(-s) as an exact rational."""
    return Fraction(1, n**s) if s > 0 else Fraction(n ** (-s))


def nested_table(index: tuple[int, ...], n_max: int) -> list[Fraction]:
    """[H_s(0), ..., H_s(n_max)] from the nested-sum definition.

    H_s(N) = sum over N >= n1 > ... > nr >= 1 of prod n_i^(-s_i), built from
    the innermost index outwards.
    """
    col = [Fraction(1)] * (n_max + 1)
    for s in reversed(index):
        new = [Fraction(0)] * (n_max + 1)
        for m in range(1, n_max + 1):
            new[m] = new[m - 1] + power(m, s) * col[m - 1]
        col = new
    return col


def li_coeffs(index: tuple[int, ...], n_cap: int) -> list[Fraction]:
    """Taylor coefficients a_N = N^(-s1) H_(s2..sr)(N-1) of Li at a signed index."""
    inner = nested_table(index[1:], max(n_cap - 1, 0))
    return [Fraction(0)] + [power(n, index[0]) * inner[n - 1] for n in range(1, n_cap + 1)]


def eval_poly(coeffs: list[Fraction], n: int) -> Fraction:
    """Value at n of the polynomial with ascending coefficients."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * n + c
    return out


def li_value(index: tuple[int, ...], z: complex, eps: float) -> complex:
    """Li at a signed index, summed in 40-digit decimal arithmetic.

    Terms are bounded by n^sigma |z|^n with sigma = depth + sum of the
    negative parts; summation stops once that bound over 1 - |z| is below a
    thousandth of eps and the terms are past their peak.
    """
    q = abs(z)
    sigma = len(index) + sum(max(0, -s) for s in index)
    suffix = index[1:]
    with localcontext() as ctx:
        ctx.prec = 40
        zr, zi = Decimal(z.real), Decimal(z.imag)
        pr, pi = Decimal(1), Decimal(0)
        tr, ti = Decimal(0), Decimal(0)
        # h[j] = H of suffix[j:] at n - 1; the last entry is the empty sum 1
        h = [Decimal(0)] * len(suffix) + [Decimal(1)]
        n = 0
        while True:
            n += 1
            pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
            a = Decimal(n) ** (-index[0]) * h[0]
            tr += a * pr
            ti += a * pi
            for j in range(len(suffix)):
                h[j] += Decimal(n) ** (-suffix[j]) * h[j + 1]
            if n > 16 and n * (1 - q) > sigma and n**sigma * q**n / (1 - q) < eps * 1e-3:
                return complex(float(tr), float(ti))


# -- words and their products ---------------------------------------------------
#
# A word is a tuple of letters: 0 and 1 for x0 and x1, or the indices s of
# y_s.  A polynomial is a dict {word: Fraction} that holds no zero
# coefficient.  The products enumerate their combinatorial definitions
# instead of recursing on first letters.


@functools.cache
def shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """u sh v: one interleaving for each choice of the places u's letters take."""
    n = len(u) + len(v)
    out: dict[tuple[int, ...], int] = {}
    for places in combinations(range(n), len(u)):
        taken = set(places)
        left, right = iter(u), iter(v)
        w = tuple(next(left) if i in taken else next(right) for i in range(n))
        out[w] = out.get(w, 0) + 1
    return out


@functools.cache
def quasi_shuffle_words(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """u st v: u and v laid in order on k slots that are all used; letters sharing a slot add."""
    m, n = len(u), len(v)
    out: dict[tuple[int, ...], int] = {}
    for k in range(max(m, n), m + n + 1):
        for places_u in combinations(range(k), m):
            free = [i for i in range(k) if i not in places_u]  # these slots must hold v's letters
            for shared in combinations(places_u, n - len(free)):
                w = [0] * k
                for i, s in zip(places_u, u):
                    w[i] += s
                for i, s in zip(sorted(free + list(shared)), v):
                    w[i] += s
                key = tuple(w)
                out[key] = out.get(key, 0) + 1
    return out


def concat_words(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    return {u + v: 1}


def add_into(total: dict, p: dict, scale: Fraction = Fraction(1)) -> dict:
    """total += scale * p, dropping zero coefficients; returns total."""
    for w, c in p.items():
        new = total.get(w, 0) + scale * c
        if new:
            total[w] = new
        else:
            total.pop(w, None)
    return total


def product(p: dict, q: dict, word_product, weight_cap: int | None = None) -> dict:
    """Bilinear extension of a word product.

    With a weight cap (Y-words only) a pair of words is skipped when its
    weights add up to more than the cap: shuffle and stuffle keep the weight,
    so that pair gives no word of weight <= cap.
    """
    out: dict = {}
    for u, a in p.items():
        for v, b in q.items():
            if weight_cap is None or sum(u) + sum(v) <= weight_cap:
                add_into(out, word_product(u, v), a * b)
    return out


def exp_stuffle(p: dict, weight_cap: int) -> dict:
    """sum_n p^(st n) / n! over the Y-words of weight <= cap; p has no constant term."""
    total = {(): Fraction(1)}
    term = {(): Fraction(1)}
    for n in range(1, weight_cap + 1):
        term = {w: c / n for w, c in product(term, p, quasi_shuffle_words, weight_cap).items()}
        add_into(total, term)
    return total


def x_code(word: tuple[int, ...]) -> tuple[int, ...]:
    """The X-word of a Y-word: y_s becomes x0^(s-1) x1."""
    return tuple(b for s in word for b in (0,) * (s - 1) + (1,))


def y_code(word: tuple[int, ...]) -> tuple[int, ...]:
    """The Y-word of an X-word ending in x1: each run x0^(s-1) x1 becomes y_s."""
    out, run = [], 0
    for b in word:
        run += 1
        if b == 1:
            out.append(run)
            run = 0
    if run:
        raise ValueError(f"{word} does not end in x1")
    return tuple(out)


def star_expand(stars: dict[int, Fraction], length: int) -> dict:
    """sum_k c_k (k x1)* up to words of the given length: x1^n has sum_k c_k k^n."""
    return add_into({}, {(1,) * n: sum(c * k**n for k, c in stars.items()) for n in range(length + 1)})


def plane_expand(alpha, weight_cap: int) -> dict:
    """(sum_s alpha_s y_s)* up to weight cap: each word y_s1..y_sr has prod alpha_si."""
    out: dict = {}

    def grow(word: tuple[int, ...], coeff: Fraction, budget: int) -> None:
        out[word] = coeff
        for s, a in enumerate(alpha[:budget], start=1):
            if a:
                grow(word + (s,), coeff * a, budget - s)

    grow((), Fraction(1), weight_cap)
    return out
