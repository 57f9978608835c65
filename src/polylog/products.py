"""Concatenation, shuffle, and stuffle products with powers and exponentials.

The three products are bilinear extensions of their word-level recursions:

* concatenation: juxtaposition of words;
* shuffle: a u <sh> b v = a(u <sh> b v) + b(a u <sh> v), defined over either
  alphabet;
* stuffle: y_s u <st> y_t v = y_s(u <st> y_t v) + y_t(y_s u <st> v)
  + y_{s+t}(u <st> v), defined over Y only.

Shuffle and stuffle are quasi-shuffle products, the shuffle without the
contraction y_{s+t}, so one memoized word recursion serves both (Hoffman 2000).
It runs on the stored words of :class:`NCPoly`, bytes on X and tuples on Y,
with the same code for both: one loop adds each (first letter, sub-product)
step, and only the contraction step builds a letter.  It stops at a one-letter
operand, whose product it builds without recursion by slicing the letter in at
each place, so a long word times a letter needs no deep stack.
Its caches, bounded by :data:`~polylog.nc_core.memo_account`, behave as if
absent (recomputing is the only cost of a race or a clear): all is thread-safe.

The bilinear extensions run on the stored form of :class:`NCPoly`: numerators
times structure constants accumulate in one dict keyed by stored words over the
lcm of the pairs' denominator products, then one gcd pass, with no Word or
Fraction per term.  A unit pair skips the memo.

Both shuffle and stuffle are commutative and associative with the empty word
as unit.  Both are graded: every word of u <sh> v or u <st> v has grade
grade(u) + grade(v), where grade is length on X and weight on Y.  So
``shuffle``, ``stuffle`` and ``shuffle_pow`` take an optional ``grade_cap``
and skip every pair of words whose grades add up to more than the cap; the
result is exactly the full product truncated to grade <= cap, without
building the discarded terms.  No operation in this package truncates
silently: the stuffle exponential E of a constant-free P takes a weight cap.
It is built a grade at a time, n E_n = sum_k k P_k st E_(n-k), as w -> wt(w) w
is a derivation of the stuffle (Brent-Kung 1978; Hoffman-Ihara 2017).
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from sys import getsizeof

from .nc_core import _GRADE, AlphabetError, Letters, NCPoly, Y, memo_account


def _with_letter(u: Letters, v: Letters, contract: bool) -> dict[Letters, int]:
    """u * v for a one-letter word v = (a), with no recursion: v placed at each position of u.

    Placing a just before a letter equal to a gives the same word as just after
    it, so each run of such letters gives one word, counted once per position.
    The contracted words (u_i + a in place of u_i) are distinct, as letters are >= 1.
    """
    out: dict[Letters, int] = {}
    a, i, n = v[0], 0, len(u)
    while i <= n:
        j = i
        while j < n and u[j] == a:
            j += 1
        out[u[:i] + v + u[i:]] = j - i + 1
        i = j + 1
    if contract:
        for i, b in enumerate(u):
            out[u[:i] + (b + a,) + u[i + 1 :]] = 1
    return out


def _word_product(contract: bool):
    """The memoized quasi-shuffle of stored words; the term (a+b)(u * v) only if ``contract``."""

    @lru_cache(maxsize=None)
    def product(u: Letters, v: Letters) -> dict[Letters, int]:
        if not u or not v:
            out = {u + v: 1}
        elif len(v) == 1:
            out = _with_letter(u, v, contract)
        elif len(u) == 1:
            out = _with_letter(v, u, contract)
        else:
            out = {}
            steps = [(u[:1], product(u[1:], v)), (v[:1], product(u, v[1:]))]  # (first letter, sub-product)
            if contract:
                steps.append(((u[0] + v[0],), product(u[1:], v[1:])))
            for a, sub in steps:
                for w, c in sub.items():
                    key = a + w
                    out[key] = out.get(key, 0) + c
        memo_account.charge(getsizeof(out) + len(out) * getsizeof(u + v))  # no word of u * v is stored larger than u v
        return out

    memo_account.tables.append(product.cache_clear)
    return product


_shuffle_letters = _word_product(False)
_stuffle_letters = _word_product(True)


def _check_cap(grade_cap: int | None) -> None:
    if grade_cap is not None and grade_cap < 0:
        raise ValueError(f"grade cap must be >= 0, got {grade_cap}")


def _bilinear(alphabet: str, pairs, word_product, grade_cap: int | None) -> NCPoly:
    """Sum over (p, q) pairs of the bilinear extension of a word product, to grade <= grade_cap.

    Both products are graded (every word of u <op> v has grade(u) + grade(v)),
    so skipping the pairs above the cap is exact and never reaches the memo.
    Under a cap, q's terms are sorted by grade once per pair, and the terms
    within the cap of a term u of p are a prefix of them.
    The sum runs on integer numerators over the lcm of the pairs' dp * dq.
    """
    _check_cap(grade_cap)
    den = lcm(*(p._den * q._den for p, q in pairs))
    grade = _GRADE[alphabet]
    acc: dict[Letters, int] = {}
    get = acc.get
    for p, q in pairs:
        m = den // (p._den * q._den)
        q_terms = list(q._nums.items())
        if grade_cap is not None:
            q_terms.sort(key=lambda t: grade(t[0]))
            q_grades = [grade(v) for v, _ in q_terms]
        for u, cu in p._nums.items():
            terms = q_terms if grade_cap is None else q_terms[: bisect_right(q_grades, grade_cap - grade(u))]
            cu *= m
            for v, cv in terms:
                c = cu * cv
                if not u or not v:  # the unit: its partner's word, with no memo lookup
                    acc[u or v] = get(u or v, 0) + c
                    continue
                # structure constants are symmetric; canonical order keys the memo
                product = word_product(u, v) if u <= v else word_product(v, u)
                for letters, k in product.items():
                    acc[letters] = get(letters, 0) + c * k
    return NCPoly._from_nums(alphabet, acc, den)


def conc(p: NCPoly, q: NCPoly) -> NCPoly:
    """Concatenation product, extended bilinearly from words."""
    p._require_same_alphabet(q)
    acc: dict[Letters, int] = {}
    get = acc.get
    for u, cu in p._nums.items():
        for v, cv in q._nums.items():
            letters = u + v
            acc[letters] = get(letters, 0) + cu * cv
    return NCPoly._from_nums(p.alphabet, acc, p._den * q._den)


def shuffle(p: NCPoly, q: NCPoly, *, grade_cap: int | None = None) -> NCPoly:
    """Shuffle product on X- or Y-polynomials (matching alphabets).

    With ``grade_cap`` the result keeps only words of grade <= grade_cap;
    it equals ``shuffle(p, q).truncated(grade_cap)``.
    """
    p._require_same_alphabet(q)
    return _bilinear(p.alphabet, [(p, q)], _shuffle_letters, grade_cap)


def stuffle(p: NCPoly, q: NCPoly, *, grade_cap: int | None = None) -> NCPoly:
    """Stuffle (quasi-shuffle) product; both operands must be Y-polynomials.

    With ``grade_cap`` the result keeps only words of weight <= grade_cap;
    it equals ``stuffle(p, q).truncated(grade_cap)``.
    """
    if p.alphabet != Y or q.alphabet != Y:
        raise AlphabetError("stuffle is defined on Y-polynomials only")
    return _bilinear(Y, [(p, q)], _stuffle_letters, grade_cap)


def shuffle_pow(p: NCPoly, k: int, *, grade_cap: int | None = None) -> NCPoly:
    """k-fold shuffle power; k = 0 gives the unit.

    With ``grade_cap`` every intermediate power is capped, and the result
    equals ``shuffle_pow(p, k).truncated(grade_cap)``.
    """
    if k < 0:
        raise ValueError(f"shuffle power needs k >= 0, got {k}")
    _check_cap(grade_cap)
    out = NCPoly.one(p.alphabet)
    for _ in range(k):
        out = shuffle(out, p, grade_cap=grade_cap)
    return out


def stuffle_pow(p: NCPoly, k: int) -> NCPoly:
    """k-fold stuffle power; k = 0 gives the unit."""
    if k < 0:
        raise ValueError(f"stuffle power needs k >= 0, got {k}")
    if p.alphabet != Y:
        raise AlphabetError("stuffle is defined on Y-polynomials only")
    out = NCPoly.one(Y)
    for _ in range(k):
        out = stuffle(out, p)
    return out


def exp_stuffle(p: NCPoly, weight_cap: int) -> NCPoly:
    """Stuffle exponential E = sum_n P^(st n)/n!, truncated to weight <= cap.

    P must have zero constant term.  Each weight-n part E_n is one ``_bilinear``
    sum over the pairs (k/n P_k, E_(n-k)); the result is the union of the E_n.
    """
    if p.alphabet != Y:
        raise AlphabetError("exp_stuffle is defined on Y-polynomials only")
    if p.constant_term != 0:
        raise ValueError("exp_stuffle needs a polynomial with zero constant term")
    if weight_cap < 0:
        raise ValueError(f"weight cap must be >= 0, got {weight_cap}")
    parts = [p.homogeneous_component(k) for k in range(weight_cap + 1)]
    grades = [NCPoly.one(Y)]
    for n in range(1, weight_cap + 1):
        pairs = [(parts[k] * Fraction(k, n), grades[n - k]) for k in range(1, n + 1) if parts[k]]
        grades.append(_bilinear(Y, pairs, _stuffle_letters, None))
    # the grades hold disjoint words: over the lcm of their denominators they are one dict
    den = lcm(*(e._den for e in grades))
    return NCPoly._from_nums(Y, {l: x * (den // e._den) for e in grades for l, x in e._nums.items()}, den)
