import copy
import pickle
import random
from math import gcd

import pytest
from fractions import Fraction

from polylog.nc_core import (
    AlphabetError,
    InvalidIndexError,
    NCPoly,
    NPoly,
    NotInImageError,
    Word,
    X,
    Y,
    index_from_word,
    word_from_index,
    word_from_text,
    x_word,
    y_word,
)
from polylog.products import conc, shuffle, stuffle


class TestWordCoding:
    def test_single_index(self):
        assert word_from_index([2]) == x_word("01")

    def test_ones(self):
        assert word_from_index([1, 1]) == x_word("11")

    def test_empty(self):
        assert word_from_index([]) == Word((), X)

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(InvalidIndexError):
            word_from_index([2, 0])
        with pytest.raises(InvalidIndexError):
            word_from_index([-1])

    def test_inverse_simple(self):
        assert index_from_word(x_word("01")) == (2,)

    def test_inverse_empty(self):
        assert index_from_word(Word((), X)) == ()

    def test_inverse_rejects_trailing_x0(self):
        with pytest.raises(NotInImageError):
            index_from_word(x_word("10"))

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            index = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 4)))
            assert index_from_word(word_from_index(index)) == index


class TestWords:
    def test_grades(self):
        assert x_word("011").grade == 3
        assert y_word(2, 1).grade == 3
        assert Word((), Y).grade == 0

    def test_alphabet_validation(self):
        with pytest.raises(AlphabetError):
            Word((2,), X)
        with pytest.raises(AlphabetError):
            Word((0,), Y)
        with pytest.raises(AlphabetError, match="over {0,1}"):
            word_from_text("012", X)
        with pytest.raises(AlphabetError, match="unknown alphabet 'Z'"):
            NCPoly("Z")

    def test_text_roundtrip(self):
        for w in (x_word("0110"), Word((), X), y_word(2, 1), Word((), Y)):
            assert word_from_text(w.text(), w.alphabet) == w

    def test_trailing_x0_count(self):
        assert x_word("100").trailing_x0_count == 2
        assert x_word("01").trailing_x0_count == 0
        assert Word((), X).trailing_x0_count == 0
        with pytest.raises(AlphabetError):
            y_word(1).trailing_x0_count


_VALUE_WORDS = [x_word("0110"), Word((), X), y_word(2, 1), y_word(12), Word((), Y)]
_COPIERS = {
    "pickle": lambda w: pickle.loads(pickle.dumps(w)),
    "pickle-0": lambda w: pickle.loads(pickle.dumps(w, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestWordValue:
    @pytest.mark.parametrize("copier", list(_COPIERS.values()), ids=list(_COPIERS))
    @pytest.mark.parametrize("w", _VALUE_WORDS, ids=lambda w: f"{w.alphabet}:{w.text()}")
    def test_round_trips(self, copier, w):
        back = copier(w)
        assert type(back) is Word and back == w and hash(back) == hash(w)
        assert (back.letters, back.alphabet) == (w.letters, w.alphabet)

    @pytest.mark.parametrize("field", ["letters", "alphabet"])
    def test_read_only(self, field):
        w = y_word(2, 1)
        with pytest.raises(AttributeError):
            setattr(w, field, (1,) if field == "letters" else X)
        with pytest.raises(AttributeError):
            delattr(w, field)
        with pytest.raises(AttributeError):
            w.other = 1
        assert w == y_word(2, 1)

    def test_equal_words_hash_equal(self):
        for w in _VALUE_WORDS:
            twin = Word(tuple(w.letters), w.alphabet)
            assert twin == w and hash(twin) == hash(w) and twin is not w
        # same letters over the other alphabet, and a plain tuple, are other values
        assert x_word("1") != y_word(1) and x_word("1") != ((1,), X)
        assert len({x_word("1"), y_word(1), Word((1,), X)}) == 2

    def test_keyword_construction_and_repr(self):
        w = Word(letters=(0, 1), alphabet=X)
        assert w == x_word("01") and Word((3,), alphabet=Y) == y_word(3)
        assert repr(w) == "Word(letters=(0, 1), alphabet='X')"
        assert Word((1,)) == x_word("1")  # X is the default alphabet
        assert y_word([2, 1]) == y_word(2, 1)  # indices as one iterable


def _random_poly(rng, alphabet, max_len=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        n = rng.randint(0, max_len)
        if alphabet == X:
            w = Word(tuple(rng.randint(0, 1) for _ in range(n)), X)
        else:
            w = Word(tuple(rng.randint(1, 3) for _ in range(n)), Y)
        terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return NCPoly(alphabet, terms)


class TestNCPoly:
    def test_zero_coefficients_dropped(self):
        p = NCPoly(X, {x_word("1"): 1, x_word("0"): 0})
        assert p.support() == [x_word("1")]

    def test_cancellation(self):
        p = NCPoly.from_word(x_word("1")) + NCPoly.from_word(x_word("1")) * -1
        assert not p
        assert p == NCPoly.zero(X)

    def test_add_example(self):
        assert NCPoly.from_word(x_word("1")) + NCPoly.from_word(x_word("1")) * -1 == NCPoly.zero(X)

    def test_scale_example(self):
        assert Fraction(1, 2) * (NCPoly.from_word(x_word("0")) * 2) == NCPoly.from_word(x_word("0"))

    def test_coeff_example(self):
        p = NCPoly.from_word(x_word("01")) + NCPoly.from_word(x_word("10")) * 3
        assert p.coeff(x_word("10")) == 3
        assert p.coeff(x_word("00")) == 0

    def test_coeff_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            NCPoly.from_word(x_word("1")).coeff(y_word(1))

    def test_add_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            NCPoly.from_word(x_word("1")) + NCPoly.from_word(y_word(1))

    def test_homogeneous_component_examples(self):
        p = NCPoly.from_word(x_word("01")) + NCPoly.from_word(x_word("1"))
        assert p.homogeneous_component(1) == NCPoly.from_word(x_word("1"))
        q = NCPoly.from_word(y_word(2)) + NCPoly.from_word(y_word(1, 1))
        assert q.homogeneous_component(2) == q
        one = NCPoly.one(Y)
        assert one.homogeneous_component(0) == one

    def test_grading_reconstructs(self):
        rng = random.Random(11)
        for _ in range(50):
            for alphabet in (X, Y):
                p = _random_poly(rng, alphabet)
                total = NCPoly.zero(alphabet)
                for n in p.grades():
                    total = total + p.homogeneous_component(n)
                assert total == p

    def test_pairing_linearity(self):
        rng = random.Random(13)
        for _ in range(50):
            p = _random_poly(rng, Y)
            q = _random_poly(rng, Y)
            n = rng.randint(0, 2)
            w = Word(tuple(rng.randint(1, 3) for _ in range(n)), Y)
            assert (p + q).coeff(w) == p.coeff(w) + q.coeff(w)

    def test_canonical_ordering(self):
        p = NCPoly(X, {x_word("10"): 1, x_word("1"): 1, x_word("01"): 1})
        assert [w.text() for w in p.support()] == ["1", "01", "10"]

    def test_terms_text(self):
        p = NCPoly(Y, {y_word(2, 1): Fraction(3, 2), Word((), Y): -1})
        assert p.to_terms_text() == {"": "-1", "2,1": "3/2"}

    def test_truncated(self):
        p = NCPoly.from_word(y_word(3)) + NCPoly.from_word(y_word(1))
        assert p.truncated(2) == NCPoly.from_word(y_word(1))

    def test_duplicate_pairs_accumulate(self):
        w = y_word(2)
        p = NCPoly(Y, [(w, 1), (w, Fraction(1, 2)), (w, Fraction(-3, 2))])
        assert not p

    def test_size_and_grades(self):
        p = NCPoly(Y, {y_word(2, 1): 1, y_word(1): 3, Word((), Y): 2})
        assert (len(p), p.max_grade, p.max_length) == (3, 3, 2)
        assert (len(NCPoly.zero(Y)), NCPoly.zero(Y).max_grade) == (0, 0)

    def test_foreign_keys_and_operands_refused(self):
        with pytest.raises(TypeError, match="keys must be Words"):
            NCPoly(X, {(0, 1): 1})
        with pytest.raises(AlphabetError, match="polynomial is over X"):
            NCPoly(X, {y_word(1): 1})
        with pytest.raises(TypeError, match="expected NCPoly, got int"):
            NCPoly.one(X) + 1
        with pytest.raises(TypeError, match="exact rational"):
            NCPoly.one(X) * 0.5
        assert NCPoly.one(X) != 1 and NCPoly.one(X) != x_word("")

    def test_index_from_word_rejects_y(self):
        with pytest.raises(AlphabetError):
            index_from_word(y_word(2))


# -- the stored form of NCPoly against plain Fraction dicts ---------------------
# A reference polynomial is a {letters: Fraction} dict without zero values.


def _ref(pairs):
    acc = {}
    for w, c in pairs:
        acc[w.letters] = acc.get(w.letters, Fraction(0)) + c
    return {l: c for l, c in acc.items() if c}


def _ref_combined(a, b, sign=1):
    acc = dict(a)
    for l, c in b.items():
        acc[l] = acc.get(l, Fraction(0)) + sign * c
    return {l: c for l, c in acc.items() if c}


def _ref_ordered(a):
    return sorted(a.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _assert_canonical(p):
    """Integer numerators keyed by letter tuples over one den > 0, none zero, all coprime to den."""
    assert type(p._den) is int and p._den > 0
    assert all(type(l) is tuple and type(x) is int and x for l, x in p._nums.items())
    assert gcd(p._den, *p._nums.values()) == 1


class TestCanonicalForm:
    """Every writer of NCPoly keeps the one canonical stored form, and it reads back exactly."""

    def test_property_canonical_and_matches_fraction_dicts(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))  # zeros included
        words = {
            X: st.lists(st.integers(0, 1), max_size=3).map(lambda l: Word(tuple(l), X)),
            Y: st.lists(st.integers(1, 3), max_size=3).map(lambda l: Word(tuple(l), Y)),
        }

        @st.composite
        def terms(draw, alphabet):
            """(word, coefficient) pairs with repeated words, some cancelling a drawn term."""
            pairs = draw(st.lists(st.tuples(words[alphabet], coeffs), max_size=6))
            cancelled = draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
            return pairs + [(w, -c) for w, c in cancelled]

        settings = hyp.settings(max_examples=50, deadline=None, derandomize=True, database=None)

        def check(alphabet, a, b, scale, grade):
            p, q = NCPoly(alphabet, a), NCPoly(alphabet, b)
            ra, rb = _ref(a), _ref(b)
            grade_of = len if alphabet == X else sum
            made = {
                "from pairs": (p, ra),
                "from a dict": (NCPoly(alphabet, {Word(l, alphabet): c for l, c in ra.items()}), ra),
                "sum": (p + q, _ref_combined(ra, rb)),
                "difference": (p - q, _ref_combined(ra, rb, -1)),
                "negation": (-p, {l: -c for l, c in ra.items()}),
                "scaled": (p * scale, {l: c * scale for l, c in ra.items() if scale}),
                "scaled from the left": (scale * p, {l: c * scale for l, c in ra.items() if scale}),
                "truncated": (p.truncated(grade), {l: c for l, c in ra.items() if grade_of(l) <= grade}),
                "component": (
                    p.homogeneous_component(grade),
                    {l: c for l, c in ra.items() if grade_of(l) == grade},
                ),
                "zero": (NCPoly.zero(alphabet), {}),
                "one": (NCPoly.one(alphabet), {(): Fraction(1)}),
                "a word": (NCPoly.from_word(Word((), alphabet), scale), {(): scale} if scale else {}),
            }
            for name, (got, want) in made.items():
                _assert_canonical(got)
                items = got.items()  # reduced Fractions, in canonical order
                assert [(w.letters, c) for w, c in items] == _ref_ordered(want), name
                assert all(type(c) is Fraction and w.alphabet == alphabet for w, c in items), name
                assert got.constant_term == want.get((), 0), name
                for l in {*ra, *rb, ()}:
                    assert got.coeff(Word(l, alphabet)) == want.get(l, 0), name
            # == agrees with equality of the Fraction dicts, also for the terms in another order
            assert (p == q) == (ra == rb)
            assert NCPoly(alphabet, a[::-1]) == p and p + q - q == p
            # the products write the stored form too; test_products checks their values
            for got in (shuffle(p, q), conc(p, q), *([stuffle(p, q)] if alphabet == Y else [])):
                _assert_canonical(got)

        @settings
        @hyp.given(terms(X), terms(X), coeffs, st.integers(0, 3))
        @hyp.example([(Word((), X), Fraction(1, 2)), (Word((), X), Fraction(-1, 2))], [], Fraction(0), 0)
        @hyp.example([(Word((0, 1), X), Fraction(1, 2)), (Word((1,), X), Fraction(3, 2))], [], Fraction(4), 1)
        def x_polys(a, b, scale, grade):
            check(X, a, b, scale, grade)

        @settings
        @hyp.given(terms(Y), terms(Y), coeffs, st.integers(0, 4))
        @hyp.example([(Word((2,), Y), Fraction(6, 5)), (Word((1, 1), Y), Fraction(-9, 5))], [], Fraction(5), 2)
        def y_polys(a, b, scale, grade):
            check(Y, a, b, scale, grade)

        x_polys()
        y_polys()


# -- plain Fraction references for the dense kernel ---------------------------
# A polynomial is a list of Fractions, constant term first; `_cut` pads or cuts
# it to n + 1 entries.


def _cut(a, n):
    return (list(a) + [Fraction(0)] * (n + 1))[: n + 1]


def _ref_mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= n:
                out[i + j] += x * y
    return out


def _ref_star_inverse(a, n):
    # (1 + A)(1 + T) = 1 degree by degree: t_k = -(a_k + sum_{0<i<k} a_i t_(k-i))
    a, t = _cut(a, n), [Fraction(0)]
    for k in range(1, n + 1):
        t.append(-(a[k] + sum(a[i] * t[k - i] for i in range(1, k))))
    return t


def _ref_exp_m1(a, n):
    out, power, fact = [Fraction(0)] * (n + 1), _cut(a, n), 1
    for k in range(1, n + 1):
        fact *= k
        out = [o + p / fact for o, p in zip(out, power)]
        power = _ref_mul(power, a, n)
    return out


def _ref_euler(a, m):
    # z (p'(1-z) + m p): the numerator of z d/dz (p/(1-z)^m) over (1-z)^(m+1)
    d = len(a)
    deriv = [j * a[j] for j in range(1, d)] + [Fraction(0)] * 2
    inner = [deriv[i] - (deriv[i - 1] if i else 0) + m * a[i] for i in range(d)]
    return [Fraction(0)] + inner


class TestDenseKernel:
    """Every NPoly kernel against the plain Fraction loops above."""

    @staticmethod
    def _strategies():
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))
        # zeros, trailing zeros and the zero polynomial all occur
        poly = st.tuples(st.lists(entry, max_size=7), st.integers(0, 2)).map(
            lambda pair: pair[0] + [Fraction(0)] * pair[1]
        )
        return hyp, st, entry, poly

    def test_property_sums_and_products(self):
        hyp, st, entry, poly = self._strategies()

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(poly, poly, entry, entry, st.integers(0, 8))
        def check(a, b, c, d, n):
            pa, pb = NPoly(a), NPoly(b)
            full = len(a) + len(b)
            assert (pa + pb).padded(full) == tuple(_cut([x + y for x, y in zip(_cut(a, full), _cut(b, full))], full))
            assert (pa - pb).padded(full) == tuple(x - y for x, y in zip(_cut(a, full), _cut(b, full)))
            assert (-pa).padded(full) == tuple(-x for x in _cut(a, full))
            assert (pa * c).padded(full) == tuple(c * x for x in _cut(a, full))
            combo = NPoly.lin_comb([(c, pa), (d, pb)], n)
            assert combo.padded(n) == tuple(c * x + d * y for x, y in zip(_cut(a, n), _cut(b, n)))
            assert len(combo) <= n + 1
            assert (pa * pb).padded(full) == tuple(_ref_mul(a, b, full))
            assert pa.mul_trunc(pb, n).padded(n) == tuple(_ref_mul(a, b, n))
            assert len(pa.mul_trunc(pb, n)) <= n + 1
            assert pa.hadamard(pb).padded(full) == tuple(_cut([x * y for x, y in zip(a, b)], full))

        check()

    def test_property_series_kernels(self):
        hyp, st, entry, poly = self._strategies()

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(poly, st.integers(0, 8), st.integers(0, 4))
        @hyp.example([], 0, 0)
        @hyp.example([Fraction(0), Fraction(-3, 2)], 0, 1)
        def check(a, n, m):
            p = NPoly(a)
            running, prefix = Fraction(0), []
            for x in _cut(a, n):
                running += x
                prefix.append(running)
            assert p.prefix_sums(n).padded(n) == tuple(prefix)
            a0 = [Fraction(0)] + a[1:]  # star inverse and exp - 1 take no constant term
            assert NPoly(a0).star_inverse(n).padded(n) == tuple(_ref_star_inverse(a0, n))
            assert NPoly(a0).exp_m1(n).padded(n) == tuple(_ref_exp_m1(a0, n))
            top = len(a) + 1
            assert p.euler(m).padded(top) == tuple(_cut(_ref_euler(a, m), top))

        check()

    def test_property_reading_and_equality(self):
        hyp, st, entry, poly = self._strategies()
        points = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=7))

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(poly, points, st.integers(1, 30))
        def check(a, x, k):
            p = NPoly(a)
            trimmed = list(a)
            while trimmed and not trimmed[-1]:
                trimmed.pop()
            assert p.coeffs == tuple(trimmed) and len(p) == len(trimmed)
            assert all(type(c) is Fraction for c in p.coeffs)
            assert [p.coeff(j) for j in range(-1, len(a) + 2)] == [Fraction(0)] + _cut(a, len(a) + 1)
            value = p.eval(x)
            assert type(value) is Fraction and value == sum(c * Fraction(x) ** j for j, c in enumerate(a))
            # the same values over a k-fold denominator are the same polynomial
            scaled = NPoly([k * v for v in p.nums], k * p.den)
            assert scaled == p and scaled.coeffs == p.coeffs
            if trimmed:
                assert NPoly([k * v for v in p.nums[:-1]] + [k * p.nums[-1] + 1], k * p.den) != p

        check()

    def test_repr_and_foreign_equality(self):
        assert repr(NPoly([1, Fraction(1, 2)])) == "NPoly(1/2*N + 1)"
        assert NPoly([1]) != 1 and NPoly() != ()

    def test_caps_of_zero(self):
        p = NPoly([Fraction(0), Fraction(2, 3), 5])
        assert p.mul_trunc(p, 0) == NPoly() and p.prefix_sums(0) == NPoly()
        assert p.star_inverse(0) == NPoly() and p.exp_m1(0) == NPoly()
        with pytest.raises(ValueError, match="n >= 0"):
            p.exp_m1(-1)
        with pytest.raises(ValueError, match="n >= 0"):
            NPoly([0, 1], 2).star_inverse(-1)
        assert NPoly.lin_comb([(3, p)], 0) == NPoly() and NPoly.lin_comb([]) == NPoly()
        assert NPoly([1, 2]).prefix_sums(0).padded(0) == (Fraction(1),)

    @pytest.mark.parametrize("n", [-1, -2, -3, -5])
    @pytest.mark.parametrize(
        "kernel",
        [
            lambda p, n: p.prefix_sums(n),
            lambda p, n: NPoly.lin_comb([(1, p)], n),
            lambda p, n: p.mul_trunc(p, n),
            lambda p, n: NPoly(p.padded(n)),
        ],
        ids=["prefix_sums", "lin_comb", "mul_trunc", "padded"],
    )
    def test_negative_degree_is_zero(self, kernel, n):
        # a negative cut never reads from the end of the tuple: every degree is zero
        p = NPoly([1, 2, 3, 4], 1)
        assert kernel(p, n) == NPoly()
