import inspect
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, gcd

import pytest

from polylog.nc_core import AlphabetError, NCPoly, Word, X, Y, x_word, y_word
from polylog.products import (
    _bilinear,
    _shuffle_letters,
    _stuffle_letters,
    conc,
    exp_stuffle,
    shuffle,
    shuffle_pow,
    stuffle,
    stuffle_pow,
)


# -- independent word-level oracles -----------------------------------------


def brute_shuffle(u: tuple, v: tuple) -> dict[tuple, int]:
    """Enumerate all interleavings by choosing the positions of u."""
    n, m = len(u), len(v)
    out: dict[tuple, int] = {}
    for pos in combinations(range(n + m), n):
        posset = set(pos)
        word = []
        ui = iter(u)
        vi = iter(v)
        for i in range(n + m):
            word.append(next(ui) if i in posset else next(vi))
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


def brute_stuffle(u: tuple, v: tuple) -> dict[tuple, int]:
    """Enumerate pairs of order-preserving injections with covering union.

    Letters landing on a shared slot add their indices.
    """
    r, s = len(u), len(v)
    out: dict[tuple, int] = {}
    for k in range(max(r, s), r + s + 1):
        for pos_u in combinations(range(k), r):
            for pos_v in combinations(range(k), s):
                if len(set(pos_u) | set(pos_v)) != k:
                    continue
                word = [0] * k
                for letter, p in zip(u, pos_u):
                    word[p] += letter
                for letter, p in zip(v, pos_v):
                    word[p] += letter
                key = tuple(word)
                out[key] = out.get(key, 0) + 1
    return out


def _as_poly(mapping: dict[tuple, int], alphabet: str) -> NCPoly:
    return NCPoly(alphabet, {Word(k, alphabet): c for k, c in mapping.items()})


def _x_words(max_len: int) -> list[Word]:
    words = [Word((), X)]
    for n in range(1, max_len + 1):
        for bits in range(2**n):
            letters = tuple((bits >> i) & 1 for i in range(n))
            words.append(Word(letters, X))
    return words


def _y_words(max_weight: int) -> list[Word]:
    def comps(total):
        if total == 0:
            return [()]
        return [(f,) + rest for f in range(1, total + 1) for rest in comps(total - f)]

    out = [Word((), Y)]
    for w in range(1, max_weight + 1):
        out.extend(Word(c, Y) for c in comps(w))
    return out


class TestShuffle:
    def test_one_step_example(self):
        x0 = NCPoly.from_word(x_word("0"))
        x1 = NCPoly.from_word(x_word("1"))
        expected = NCPoly.from_word(x_word("01")) + NCPoly.from_word(x_word("10"))
        assert shuffle(x0, x1) == expected
        assert _as_poly(brute_shuffle((0,), (1,)), X) == expected

    def test_unit(self):
        w = NCPoly.from_word(x_word("0110"))
        assert shuffle(NCPoly.one(X), w) == w

    def test_square_example(self):
        x1 = NCPoly.from_word(x_word("1"))
        assert shuffle(x1, x1) == NCPoly.from_word(x_word("11")) * 2

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            u = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
            v = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
            got = shuffle(NCPoly.from_word(Word(u, X)), NCPoly.from_word(Word(v, X)))
            assert got == _as_poly(brute_shuffle(u, v), X)

    def test_commutative_associative_short_words(self):
        words = _x_words(3)
        polys = [NCPoly.from_word(w) for w in words]
        for p in polys:
            for q in polys:
                assert shuffle(p, q) == shuffle(q, p)
        for p in polys:
            for q in polys:
                for r in polys:
                    assert shuffle(shuffle(p, q), r) == shuffle(p, shuffle(q, r))

    def test_coefficient_count(self):
        rng = random.Random(9)
        for _ in range(40):
            m, n = rng.randint(0, 4), rng.randint(0, 4)
            u = Word(tuple(rng.randint(0, 1) for _ in range(m)), X)
            v = Word(tuple(rng.randint(0, 1) for _ in range(n)), X)
            total = sum(c for _, c in shuffle(NCPoly.from_word(u), NCPoly.from_word(v)))
            assert total == comb(m + n, n)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            shuffle(NCPoly.from_word(x_word("1")), NCPoly.from_word(y_word(1)))

    def test_y_alphabet_allowed(self):
        y1 = NCPoly.from_word(y_word(1))
        assert shuffle(y1, y1) == NCPoly.from_word(y_word(1, 1)) * 2


class TestStuffle:
    def test_one_step_example(self):
        y1 = NCPoly.from_word(y_word(1))
        expected = NCPoly.from_word(y_word(1, 1)) * 2 + NCPoly.from_word(y_word(2))
        assert stuffle(y1, y1) == expected
        assert _as_poly(brute_stuffle((1,), (1,)), Y) == expected

    def test_euler_instance(self):
        got = stuffle(NCPoly.from_word(y_word(2)), NCPoly.from_word(y_word(3)))
        expected = (
            NCPoly.from_word(y_word(2, 3))
            + NCPoly.from_word(y_word(3, 2))
            + NCPoly.from_word(y_word(5))
        )
        assert got == expected

    def test_unit(self):
        w = NCPoly.from_word(y_word(2, 1))
        assert stuffle(NCPoly.one(Y), w) == w

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(50):
            u = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            got = stuffle(NCPoly.from_word(Word(u, Y)), NCPoly.from_word(Word(v, Y)))
            assert got == _as_poly(brute_stuffle(u, v), Y)

    def test_commutative_associative_low_weight(self):
        polys = [NCPoly.from_word(w) for w in _y_words(3)]
        for p in polys:
            for q in polys:
                assert stuffle(p, q) == stuffle(q, p)
        for p in polys:
            for q in polys:
                for r in polys:
                    assert stuffle(stuffle(p, q), r) == stuffle(p, stuffle(q, r))

    def test_weight_grading(self):
        rng = random.Random(29)
        for _ in range(40):
            u = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), Y)
            v = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))), Y)
            product = stuffle(NCPoly.from_word(u), NCPoly.from_word(v))
            assert all(w.grade == u.grade + v.grade for w, _ in product)

    def test_rejects_x_polynomials(self):
        with pytest.raises(AlphabetError):
            stuffle(NCPoly.from_word(x_word("1")), NCPoly.from_word(x_word("1")))
        with pytest.raises(AlphabetError, match="Y-polynomials only"):
            stuffle_pow(NCPoly.from_word(x_word("1")), 2)
        with pytest.raises(AlphabetError, match="Y-polynomials only"):
            exp_stuffle(NCPoly.from_word(x_word("1")), 2)


class TestConc:
    def test_words(self):
        assert conc(
            NCPoly.from_word(x_word("0")), NCPoly.from_word(x_word("1"))
        ) == NCPoly.from_word(x_word("01"))

    def test_unit(self):
        p = NCPoly.from_word(y_word(2)) * 3
        assert conc(NCPoly.one(Y), p) == p

    def test_bilinear(self):
        p = NCPoly.from_word(y_word(1)) + NCPoly.from_word(y_word(2))
        got = conc(p, NCPoly.from_word(y_word(1)))
        assert got == NCPoly.from_word(y_word(1, 1)) + NCPoly.from_word(y_word(2, 1))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError, match="alphabet mismatch: X vs Y"):
            conc(NCPoly.from_word(x_word("1")), NCPoly.from_word(y_word(1)))


class TestPowers:
    def test_shuffle_pow_example(self):
        x1 = NCPoly.from_word(x_word("1"))
        assert shuffle_pow(x1, 2) == NCPoly.from_word(x_word("11")) * 2

    def test_pow_zero(self):
        assert stuffle_pow(NCPoly.from_word(y_word(1)), 0) == NCPoly.one(Y)
        assert shuffle_pow(NCPoly.from_word(x_word("1")), 0) == NCPoly.one(X)

    def test_stuffle_pow_example(self):
        y1 = NCPoly.from_word(y_word(1))
        assert stuffle_pow(y1, 2) == stuffle(y1, y1)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            shuffle_pow(NCPoly.from_word(x_word("1")), -1)
        with pytest.raises(ValueError):
            stuffle_pow(NCPoly.from_word(y_word(1)), -2)


def exp_by_powers(p: NCPoly, cap: int) -> NCPoly:
    """The stuffle exponential as a sum of capped powers P^(st n)/n!: the reference."""
    out = term = NCPoly.one(Y)
    n = 0
    while term and n < cap:
        n += 1
        term = stuffle(term, p, grade_cap=cap) * Fraction(1, n)
        out = out + term
    return out


class TestExpStuffle:
    def test_property_matches_sum_of_powers(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
        # mixed grades: words of one to three letters y1..y4, never the empty word
        words = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda l: Word(tuple(l), Y))
        polys = st.dictionaries(words, coeffs, max_size=4).map(lambda d: NCPoly(Y, d))

        @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @hyp.given(polys, st.integers(0, 8))
        # every grade above the cap: the exponential is 1
        @hyp.example(NCPoly(Y, {y_word(4): 2, y_word(3, 3): Fraction(-1, 3)}), 2)
        def check(p, cap):
            got = exp_stuffle(p, cap)
            assert got == exp_by_powers(p, cap)
            if all(g > cap for g in p.grades()):
                assert got == NCPoly.one(Y)

        check()

    def test_single_letter(self):
        got = exp_stuffle(NCPoly.from_word(y_word(1)), 7)
        assert got == exp_by_powers(NCPoly.from_word(y_word(1)), 7)
        # y1^(st n) holds y1...y1 n! times
        assert all(got.coeff(y_word(*(1,) * n)) == 1 for n in range(8))

    def test_one_grade_above_one(self):
        p = NCPoly.from_word(y_word(2)) * Fraction(3, 2) - NCPoly.from_word(y_word(1, 1))
        got = exp_stuffle(p, 7)
        assert got == exp_by_powers(p, 7)
        assert got.grades() == {0, 2, 4, 6}

    def test_empty_grade_before_nonzero_grades(self):
        # P_2 = -(y1 st y1)/2 makes E_2 = (y1 st y1)/2 + P_2 vanish; E_3 = 2/3 P_2 st P_1 does not
        y1 = NCPoly.from_word(y_word(1))
        p = y1 - stuffle(y1, y1) * Fraction(1, 2) + NCPoly.from_word(y_word(1, 3)) * Fraction(2, 7)
        got = exp_stuffle(p, 6)
        assert got == exp_by_powers(p, 6)
        assert not got.homogeneous_component(2)
        assert got.homogeneous_component(3) and got.homogeneous_component(6)

    def test_zero_argument(self):
        assert exp_stuffle(NCPoly.zero(Y), 5) == NCPoly.one(Y)

    def test_first_example(self):
        got = exp_stuffle(NCPoly.from_word(y_word(1)), 2)
        expected = (
            NCPoly.one(Y)
            + NCPoly.from_word(y_word(1))
            + NCPoly.from_word(y_word(1, 1))
            + NCPoly.from_word(y_word(2)) * Fraction(1, 2)
        )
        assert got == expected

    def test_matches_direct_series(self):
        rng = random.Random(31)
        for _ in range(10):
            terms = {
                Word((rng.randint(1, 3),), Y): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(2)
            }
            p = NCPoly(Y, terms)
            cap = 5
            direct = NCPoly.zero(Y)
            for n in range(cap + 1):
                direct = direct + stuffle_pow(p, n) * Fraction(1, factorial(n))
            assert exp_stuffle(p, cap) == direct.truncated(cap)

    def test_group_inverse(self):
        p = NCPoly.from_word(y_word(1)) + NCPoly.from_word(y_word(2)) * Fraction(1, 3)
        cap = 5
        prod = stuffle(exp_stuffle(p, cap), exp_stuffle(p * -1, cap)).truncated(cap)
        assert prod == NCPoly.one(Y)

    def test_homomorphism(self):
        rng = random.Random(37)
        for _ in range(5):
            p = NCPoly(Y, {Word((rng.randint(1, 2),), Y): rng.randint(1, 2)})
            q = NCPoly(Y, {Word((rng.randint(1, 3),), Y): Fraction(1, rng.randint(1, 3))})
            cap = 5
            lhs = exp_stuffle(p + q, cap)
            rhs = stuffle(exp_stuffle(p, cap), exp_stuffle(q, cap)).truncated(cap)
            assert lhs == rhs

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            exp_stuffle(NCPoly.one(Y), 3)

    def test_zero_cap(self):
        assert exp_stuffle(NCPoly.from_word(y_word(1)), 0) == NCPoly.one(Y)


class TestGradeCap:
    """The capped products against the full product cut afterwards."""

    def test_property_capped_equals_truncated(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        x_polys = st.dictionaries(
            st.lists(st.integers(0, 1), max_size=4).map(lambda l: Word(tuple(l), X)),
            coeffs,
            max_size=4,
        ).map(lambda d: NCPoly(X, d))
        y_polys = st.dictionaries(
            st.lists(st.integers(1, 3), max_size=3).map(lambda l: Word(tuple(l), Y)),
            coeffs,
            max_size=4,
        ).map(lambda d: NCPoly(Y, d))
        caps = st.integers(0, 8)
        settings = hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)

        @settings
        @hyp.given(x_polys, x_polys, caps)
        def x_shuffle(p, q, cap):
            assert shuffle(p, q, grade_cap=cap) == shuffle(p, q).truncated(cap)

        @settings
        @hyp.given(y_polys, y_polys, caps)
        def y_products(p, q, cap):
            assert shuffle(p, q, grade_cap=cap) == shuffle(p, q).truncated(cap)
            assert stuffle(p, q, grade_cap=cap) == stuffle(p, q).truncated(cap)

        @settings
        @hyp.given(st.one_of(x_polys, y_polys), st.integers(0, 3), caps)
        def powers(p, k, cap):
            assert shuffle_pow(p, k, grade_cap=cap) == shuffle_pow(p, k).truncated(cap)

        x_shuffle()
        y_products()
        powers()

    def test_no_cap_is_full_product(self):
        p = NCPoly.from_word(y_word(1)) + NCPoly.from_word(y_word(2, 1)) * Fraction(1, 3)
        q = NCPoly.from_word(y_word(3)) - NCPoly.one(Y)
        assert stuffle(p, q, grade_cap=None) == stuffle(p, q)
        assert shuffle(p, q, grade_cap=None) == shuffle(p, q)
        assert shuffle_pow(p, 3, grade_cap=None) == shuffle_pow(p, 3)
        # the cut-afterwards value, written out
        assert stuffle(p, q) == (
            NCPoly.from_word(y_word(1, 3))
            + NCPoly.from_word(y_word(3, 1))
            + NCPoly.from_word(y_word(4))
            - NCPoly.from_word(y_word(1))
            + (
                NCPoly.from_word(y_word(2, 1, 3))
                + NCPoly.from_word(y_word(2, 3, 1))
                + NCPoly.from_word(y_word(3, 2, 1))
                + NCPoly.from_word(y_word(5, 1))
                + NCPoly.from_word(y_word(2, 4))
                - NCPoly.from_word(y_word(2, 1))
            )
            * Fraction(1, 3)
        )

    def test_cap_below_every_pair_gives_zero(self):
        p = NCPoly.from_word(x_word("01")) + NCPoly.from_word(x_word("110"))
        q = NCPoly.from_word(x_word("1")) * 2
        assert shuffle(p, q, grade_cap=2) == NCPoly.zero(X)
        assert shuffle_pow(p, 2, grade_cap=3) == NCPoly.zero(X)
        y = NCPoly.from_word(y_word(2)) + NCPoly.from_word(y_word(1, 3))
        assert stuffle(y, y, grade_cap=3) == NCPoly.zero(Y)

    def test_pairs_above_the_cap_never_reach_the_memo(self):
        p = NCPoly.from_word(x_word("011")) + NCPoly.from_word(x_word("1010"))
        q = NCPoly.from_word(x_word("10")) + NCPoly.from_word(x_word("11"))
        y = NCPoly.from_word(y_word(2, 1)) + NCPoly.from_word(y_word(4))
        for product, kernel, a, b in ((shuffle, _shuffle_letters, p, q), (stuffle, _stuffle_letters, y, y)):
            before = kernel.cache_info()
            assert product(a, b, grade_cap=4) == NCPoly.zero(a.alphabet)
            after = kernel.cache_info()
            assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("product,kernel", [(shuffle, _shuffle_letters), (stuffle, _stuffle_letters)])
    def test_capped_pairs_hit_a_warm_memo_once_each(self, product, kernel):
        # grades with ties on both sides: a prefix one term too short or too long changes the count
        p = NCPoly(Y, {Word(w, Y): c for c, w in enumerate([(), (1,), (2,), (1, 1), (3,), (1, 2), (2, 1, 1)], 1)})
        q = NCPoly(Y, {Word(w, Y): c for c, w in enumerate([(1,), (2,), (1, 1), (1, 3), (2, 2)], 2)})
        product(p, q)  # warms the memo with every pair
        for cap in range(0, 10):
            # p holds the empty word, whose pairs take its partner's word without the memo
            within = sum(sum(u) + sum(v) <= cap for u in p._nums for v in q._nums if u and v)
            before = kernel.cache_info()
            product(p, q, grade_cap=cap)
            after = kernel.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (within, 0)

    def test_copy_never_aliases_the_memo(self):
        # u sh v of two coefficient-1 words is copied from the memo's dict; a second pair adds into the copy
        u, v = (0, 1, 1), (1, 0)
        p, q = NCPoly.from_word(Word(u, X)), NCPoly.from_word(Word(v, X))
        want = {bytes(w): c for w, c in brute_shuffle(u, v).items()}  # X-words are stored as bytes
        got = shuffle(p, q)
        assert got._nums == want and got._nums is not _shuffle_letters(bytes(u), bytes(v))
        twice = _bilinear(X, [(p, q), (p, q)], _shuffle_letters, None)
        assert twice == got * 2
        assert _shuffle_letters(bytes(u), bytes(v)) == want

    @pytest.mark.parametrize("product,kernel", [(shuffle, _shuffle_letters), (stuffle, _stuffle_letters)])
    def test_unit_pairs_add_no_hit_and_no_miss(self, product, kernel):
        one = NCPoly.one(Y)
        q = NCPoly(Y, {Word(w, Y): c for c, w in enumerate([(), (4, 4), (5, 1, 5)], 1)})
        for a, b in ((one, q), (q, one), (one, one)):
            want = b if a is one else a
            before = kernel.cache_info()
            assert product(a, b) == want and product(a, b, grade_cap=8) == want.truncated(8)
            after = kernel.cache_info()
            assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_negative_cap_rejected(self):
        x1 = NCPoly.from_word(x_word("1"))
        y1 = NCPoly.from_word(y_word(1))
        with pytest.raises(ValueError):
            shuffle(x1, x1, grade_cap=-1)
        with pytest.raises(ValueError):
            stuffle(y1, y1, grade_cap=-1)
        with pytest.raises(ValueError):
            shuffle_pow(x1, 0, grade_cap=-1)


# -- a word times one letter, built without recursion --------------------------


class TestOneLetter:
    """The placement path of a one-letter operand against the defining recursion."""

    def test_property_matches_recursion(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        # words as runs of equal letters, so that a letter often meets a run of itself
        runs = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), max_size=4)
        words = runs.map(lambda rs: tuple(a for a, k in rs for _ in range(k)))

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(words, st.integers(1, 3))
        @hyp.example((2, 2, 2), 2)
        @hyp.example((), 1)
        # X-letters, with runs of the letter at either end and inside; stuffle contracts Y-letters only
        @hyp.example((0, 0, 1, 0, 0, 0), 0)
        @hyp.example((1, 0, 1, 1, 0, 1), 1)
        @hyp.example((0, 0), 1)
        def agree(u, a):
            kernels = ((_shuffle_letters, ref_shuffle), (_stuffle_letters, ref_stuffle))
            for kernel, ref in kernels if min(u + (a,)) else kernels[:1]:
                want = Counter(ref(u, (a,)))
                assert kernel(u, (a,)) == want and kernel((a,), u) == want

        agree()

    def test_long_word_needs_no_deep_stack(self):
        # a stack far shorter than the word: x0^600 sh x1 is the 601 words x0^i x1 x0^(600-i)
        x0s, x1 = NCPoly.from_word(Word((0,) * 600, X)), NCPoly.from_word(x_word("1"))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            got = shuffle(x0s, x1)
        finally:
            sys.setrecursionlimit(limit)
        assert got.to_terms_text() == {"0" * i + "1" + "0" * (600 - i): "1" for i in range(601)}


# -- a plain Fraction reference for the integer accumulation -----------------


def ref_shuffle(u: tuple, v: tuple) -> list[tuple]:
    """Shuffle by its defining recursion, one list entry per interleaving."""
    if not u or not v:
        return [u + v]
    return [(u[0],) + w for w in ref_shuffle(u[1:], v)] + [
        (v[0],) + w for w in ref_shuffle(u, v[1:])
    ]


def ref_stuffle(u: tuple, v: tuple) -> list[tuple]:
    """Quasi-shuffle by its defining recursion, one list entry per term."""
    if not u or not v:
        return [u + v]
    return (
        [(u[0],) + w for w in ref_stuffle(u[1:], v)]
        + [(v[0],) + w for w in ref_stuffle(u, v[1:])]
        + [(u[0] + v[0],) + w for w in ref_stuffle(u[1:], v[1:])]
    )


def ref_conc(u: tuple, v: tuple) -> list[tuple]:
    return [u + v]


def ref_product(p: NCPoly, q: NCPoly, word_product, cap=None) -> dict[tuple, Fraction]:
    """Fraction double loop over the term pairs, cut to grade <= cap afterwards."""
    acc: dict[tuple, Fraction] = {}
    for u, cu in p:
        for v, cv in q:
            for w in word_product(u.letters, v.letters):
                acc[w] = acc.get(w, Fraction(0)) + cu * cv
    grade = len if p.alphabet == X else sum
    return {w: c for w, c in acc.items() if c and (cap is None or grade(w) <= cap)}


def _terms(p: NCPoly) -> dict[tuple, Fraction]:
    for _, c in p:
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
    return {w.letters: c for w, c in p}


class TestIntegerAccumulation:
    """shuffle, stuffle and conc against a Fraction reference that shares no code with them."""

    def test_cancelling_sums(self):
        y1, y2 = NCPoly.from_word(y_word(1)), NCPoly.from_word(y_word(2))
        # y1 y2, y2 y1 and y3 cancel between the cross terms
        assert stuffle(y1 + y2, y1 - y2) == (
            NCPoly.from_word(y_word(1, 1)) * 2
            + y2
            - NCPoly.from_word(y_word(2, 2)) * 2
            - NCPoly.from_word(y_word(4))
        )
        assert shuffle(y1 + y2, y1 - y2) == (
            NCPoly.from_word(y_word(1, 1)) * 2 - NCPoly.from_word(y_word(2, 2)) * 2
        )
        # y1^3 cancels: (y1 + y1 y1)(y1 y1 - y1) = y1^4 - y1^2
        y11 = NCPoly.from_word(y_word(1, 1))
        assert conc(y1 + y11, y11 - y1) == NCPoly.from_word(y_word(1, 1, 1, 1)) - y11
        third = Fraction(1, 3)
        assert stuffle(y1 * third, y1 * -third) == (y11 * 2 + y2) * Fraction(-1, 9)
        assert stuffle(y1 + y2, (y1 + y2) * 0) == NCPoly.zero(Y)

    def test_property_matches_fraction_reference(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
        x_polys = st.dictionaries(
            st.lists(st.integers(0, 1), max_size=4).map(lambda l: Word(tuple(l), X)),
            coeffs,
            max_size=5,
        ).map(lambda d: NCPoly(X, d))
        y_polys = st.dictionaries(
            st.lists(st.integers(1, 3), max_size=3).map(lambda l: Word(tuple(l), Y)),
            coeffs,
            max_size=5,
        ).map(lambda d: NCPoly(Y, d))
        caps = st.one_of(st.none(), st.integers(0, 8))
        settings = hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        y1, y2 = NCPoly.from_word(y_word(1)), NCPoly.from_word(y_word(2))
        x0, x1 = NCPoly.from_word(x_word("0")), NCPoly.from_word(x_word("1"))

        def check(p, q, cap):
            assert _terms(shuffle(p, q, grade_cap=cap)) == ref_product(p, q, ref_shuffle, cap)
            assert _terms(conc(p, q)) == ref_product(p, q, ref_conc)
            if p.alphabet == Y:
                assert _terms(stuffle(p, q, grade_cap=cap)) == ref_product(p, q, ref_stuffle, cap)

        @settings
        @hyp.given(x_polys, x_polys, caps)
        @hyp.example(x0 + x1, x0 - x1, None)
        def x_products(p, q, cap):
            check(p, q, cap)

        @settings
        @hyp.given(y_polys, y_polys, caps)
        @hyp.example(y1 + y2, y1 - y2, None)
        @hyp.example(y1 + y2, y1 - y2, 3)
        @hyp.example(y1 * Fraction(1, 6) + y2 * Fraction(-5, 4), y1 * Fraction(7, 10), 2)
        def y_products(p, q, cap):
            check(p, q, cap)

        x_products()
        y_products()
