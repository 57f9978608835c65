import copy
import gc
import pickle
import random
import tracemalloc
from math import gcd
from sys import getsizeof

import pytest
from fractions import Fraction

import polylog
from polylog import cli, coding, harmonic, nc_core, negindex, polylog_num, products, stars, words
from polylog.dense import NPoly
from polylog.harmonic import h_poly_table, h_word_table
from polylog.nc_core import (
    AlphabetError,
    InvalidIndexError,
    NCPoly,
    NotInImageError,
    Word,
    X,
    Y,
    index_from_word,
    memo_account,
    word_from_index,
    word_from_text,
    x_word,
    y_word,
)
from polylog.polylog_num import li_taylor_coeffs
from polylog.products import conc, exp_stuffle, shuffle, shuffle_pow, stuffle, stuffle_pow


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
        # a float or bool letter equals its int twin, so it is refused by type before the alphabet's range
        for letters, alphabet in (((0, 1.0), X), ((0, True), X), ((True, 2), Y), ((2, 1.0), Y)):
            with pytest.raises(TypeError, match=f"{alphabet}-word letters must be integers"):
                Word(letters, alphabet)

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


# the names that moved from nc_core to polylog.words, which nc_core re-exports on first use
_MOVED = ["Word", "x_word", "y_word", "word_from_text", "word_from_index", "index_from_word"]


class TestWordsModule:
    def test_nc_core_reexports_the_moved_names(self):
        assert nc_core.Word is words.Word
        for name in _MOVED:
            assert getattr(nc_core, name) is getattr(words, name)
        assert set(_MOVED) <= set(polylog.__all__)
        assert all(getattr(polylog, name) is getattr(words, name) for name in _MOVED)
        # the private helpers of polylog.words are read from that module only
        assert not any(hasattr(nc_core, name) for name in ("_trailing_x0", "_coded", "_index_of"))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'polylog.nc_core' has no attribute 'no_such_name'"):
            nc_core.no_such_name
        assert not hasattr(nc_core, "words_of")

    def test_word_pickles_through_its_module(self):
        w = y_word(2, 1)
        data = pickle.dumps(w)
        assert b"polylog.words" in data
        back = pickle.loads(data)
        assert type(back) is nc_core.Word and back == w

    def test_polynomial_readers_build_words(self):
        # __init__, items and support reach the class through the hook
        p = NCPoly(Y, {words.y_word(2): 3, words.Word((), Y): 1})
        assert [type(w) for w in p.support()] == [words.Word] * 2
        assert p.items() == [(Word((), Y), 1), (y_word(2), 3)]
        with pytest.raises(TypeError, match="keys must be Words"):
            NCPoly(Y, {(2,): 1})


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

    def test_property_terms_text_matches_fraction_text(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
        # Y letters of 10 and more, whose texts sort apart from their letters ("10" < "9")
        letters = {X: st.integers(0, 1), Y: st.sampled_from([1, 2, 9, 10, 11, 21, 100])}

        def fraction_text(p):
            """The {text: str(Fraction)} mapping in (length, letters) order."""
            sep = "" if p.alphabet == X else ","
            terms = sorted(p._nums.items(), key=lambda kv: (len(kv[0]), kv[0]))
            return [(sep.join(map(str, l)), str(Fraction(x, p._den))) for l, x in terms]

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(st.sampled_from([X, Y]).flatmap(
            lambda a: st.dictionaries(st.lists(letters[a], max_size=5).map(tuple), coeffs, max_size=8).map(
                lambda d: NCPoly(a, {Word(l, a): c for l, c in d.items()})
            )
        ))
        @hyp.example(NCPoly(Y, {y_word(10): Fraction(-3, 4), y_word(9): 2, y_word(1, 10): 1, y_word(2): 5}))
        def agree(p):
            assert list(p.to_terms_text().items()) == fraction_text(p)

        agree()

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
        # the dense kernel refuses a scalar summand the same way, by NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            NPoly([1]) + 1
        with pytest.raises(TypeError, match="unsupported operand"):
            NPoly([1]) - 1

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
    """Integer numerators keyed by the alphabet's stored words over one den > 0, none zero, all coprime to den."""
    key_type = {X: bytes, Y: tuple}[p.alphabet]
    assert type(p._den) is int and p._den > 0
    assert all(type(l) is key_type and type(x) is int and x for l, x in p._nums.items())
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


class TestStoredForm:
    """Every polynomial a public operation returns keys its words by its alphabet's one stored form.

    Keys of two forms in one polynomial would split equal words into two terms: equality, products
    and the re-parse of printed text would go wrong with no error.
    """

    def test_property_public_results_hold_only_their_key_type(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))

        def polys(alphabet, letters, size):
            words = st.lists(letters, max_size=size).map(lambda l: Word(tuple(l), alphabet))
            return st.lists(st.tuples(words, coeffs), max_size=4).map(lambda pairs: NCPoly(alphabet, pairs))

        # products and the right side of "+ 3*" take polynomials: the parser refuses sh(1, 2/3) and y2 + 3* 1
        y_polys = st.recursive(st.sampled_from(["y2", "y1y3", "y1"]), lambda e: st.one_of(
            st.tuples(st.sampled_from(["st", "conc"]), e, e).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
            st.tuples(e, st.sampled_from(["+", "-", "+ 3*"]), e).map(" ".join),
            e.map(lambda a: f"piy(pix({a}))"),
        ), max_leaves=4)
        x_atoms = st.one_of(st.sampled_from(['"01"', '"1"', '"110"', '"0"']), y_polys.map(lambda e: f"pix({e})"))
        x_polys = st.recursive(x_atoms, lambda e: st.one_of(
            st.tuples(st.sampled_from(["sh", "conc"]), e, e).map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
            st.tuples(e, st.sampled_from(["+", "-", "+ 3*"]), e).map(" ".join),
        ), max_leaves=4)

        def with_rationals(polys, rationals):  # a rational stands alone, or on either side of a sum
            return st.one_of(
                polys, rationals, st.tuples(polys, st.sampled_from(["+", "-"]), rationals).map(" ".join),
                st.tuples(rationals, st.sampled_from(["+", "-", "+ 3*"]), polys).map(" ".join),
            )

        exprs = st.one_of(
            with_rationals(x_polys, st.sampled_from(["1", "2/3"])),
            with_rationals(y_polys, st.sampled_from(["1", "-1/2"])),
        )

        @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @hyp.given(
            polys(X, st.integers(0, 1), 4), polys(X, st.integers(0, 1), 4), polys(Y, st.integers(1, 3), 3),
            polys(Y, st.integers(1, 3), 3), st.dictionaries(st.integers(0, 4), coeffs, max_size=3),
            exprs,
        )
        @hyp.example(NCPoly.one(X), NCPoly.zero(X), NCPoly.one(Y), NCPoly.zero(Y), {}, 'sh(pix(y2), "01")')
        def stored(p, q, a, b, star, expr):
            one = NCPoly.one(Y)
            plane = stars.PlaneStar([1, Fraction(-1, 2)])
            results = [
                p + q, p - q, -p, p * Fraction(3, 2), p.truncated(2), p.homogeneous_component(2),
                shuffle(p, q), shuffle(p, q, grade_cap=3), conc(p, q), shuffle_pow(p, 2), shuffle_pow(p, 3, grade_cap=4),
                a + b, stuffle(a, b), stuffle(a, b, grade_cap=3), shuffle(a, b), conc(a, b), stuffle_pow(a, 2),
                exp_stuffle(a - one * a.constant_term, 4),
                coding.pi_x(a), coding.pi_y(coding.pi_x(b)), *negindex.regularize_trailing_x0(p).values(),
                stars.x1star_expand(2, 3), stars.x1star_poly_expand(stars.X1StarPoly(star), 4),
                coding.pi_y(stars.x1star_poly_expand(stars.X1StarPoly(star), 3)), stars.plane_star_expand(plane, 4),
                stars.one_param_group(plane, Fraction(1, 3), 3), NCPoly.one(X), NCPoly.zero(X),
            ]
            for got in results:
                _assert_canonical(got)
            value = cli.parse_value(expr)
            if isinstance(value, NCPoly):  # a rational term alone parses to a scalar
                _assert_canonical(value)
                # its printed expression re-parses to it: a key of another form would print as a second term
                back = cli.parse_value(cli._ncpoly_texts(value)[1])
                if not isinstance(back, NCPoly):  # a constant prints as a rational
                    back = NCPoly.one(value.alphabet) * back.value
                assert back == value

        stored()


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

    def test_property_texts_are_str_of_the_fractions(self):
        # rat_text and NPoly.texts print what str of the Fractions prints: negative, zero and big numerators,
        # unreduced pairs, trailing zeros, and texts cut or zero-padded to n
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        big = st.integers(-(10**40), 10**40)
        nums = st.one_of(st.integers(-12, 12), big, st.just(0))
        dens = st.one_of(st.integers(1, 12), st.integers(1, 10**40), st.sampled_from([2**64, 3**50 * 7]))

        @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(nums, max_size=8), dens, st.one_of(st.none(), st.integers(-2, 10)))
        def check(xs, den, n):
            assert [nc_core.rat_text(x, den) for x in xs] == [str(Fraction(x, den)) for x in xs]
            p = NPoly(xs, den)
            expected = p.coeffs if n is None else p.padded(n)
            assert p.texts(n) == [str(c) for c in expected]
            texts, text = p.to_texts()
            assert texts == [str(c) for c in p.coeffs] and text == str(p)

        check()

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

    def test_property_lin_comb_of_every_coefficient_kind(self, monkeypatch):
        # int, Fraction and "p/q" coefficients on polynomials of unequal lengths, uncut, cut below every degree,
        # cut short of the longest and padded past it: the coefficientwise Fraction sum, and no Fraction built
        # when every coefficient is an int
        hyp, st, entry, poly = self._strategies()
        fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9)
        coeffs = st.one_of(st.integers(-9, 9), fractions, fractions.map(lambda c: f"{c.numerator}/{c.denominator}"))
        made, new = [], Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.tuples(coeffs, poly), max_size=4), st.sampled_from(["none", "below", "short", "long"]))
        @hyp.example([(3, [Fraction(1, 2)]), (-2, [Fraction(0), Fraction(1, 3), Fraction(5)])], "short")
        def check(pairs, cut):
            longest = max((len(a) for _, a in pairs), default=0)
            n = {"none": None, "below": -1, "short": longest - 2, "long": longest + 2}[cut]
            top = longest - 1 if n is None else n
            terms = [(c, NPoly(a)) for c, a in pairs]
            made.clear()
            combo = NPoly.lin_comb(terms, n)
            ints = all(type(c) is int for c, _ in pairs)
            assert not (ints and made), made
            want = tuple(sum((Fraction(c) * _cut(a, top)[j] for c, a in pairs), Fraction(0)) for j in range(top + 1))
            assert combo.padded(top) == want and len(combo) <= max(top + 1, 0)

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


class TestMemoAccount:
    """The one memo rule: past MEMO_BYTES every memo table is emptied whole, and no answer changes."""

    def test_past_the_bound_every_table_is_emptied(self, monkeypatch):
        shuffle(NCPoly.from_word(x_word("011")), NCPoly.from_word(x_word("10")))
        stuffle(NCPoly.from_word(y_word(2, 1)), NCPoly.from_word(y_word(1, 3)))
        li_taylor_coeffs((2, 1), 10)
        h_poly_table(stuffle(NCPoly.from_word(y_word(2)), NCPoly.from_word(y_word(1))), 10)
        tables = products._shuffle_letters, products._stuffle_letters, harmonic._li_vector
        assert harmonic._HVEC_CACHE and harmonic._POLY_VECTORS and all(table.cache_info().currsize for table in tables)
        monkeypatch.setattr(nc_core, "MEMO_BYTES", 2048)
        clears = memo_account.clears
        memo_account.charge(2056)  # 2,056 bytes alone pass the bound
        assert memo_account.clears == clears + 1 and memo_account.bytes == 2056
        assert not harmonic._HVEC_CACHE and not harmonic._POLY_VECTORS
        assert not any(table.cache_info().currsize for table in tables)
        # the total is past the bound, so the next charge empties the tables again and is the new total
        # x1x0x1 + 2 x0x1x1: the dict (read back by a hit) and two words, each charged as the stored u v
        shuffle(NCPoly.from_word(x_word("01")), NCPoly.from_word(x_word("1")))
        total = getsizeof(products._shuffle_letters(b"\0\1", b"\1")) + 2 * getsizeof(bytes(3))
        assert memo_account.clears == clears + 2 and memo_account.bytes == total
        li_taylor_coeffs((1,), 3)  # (0, 6, 3, 2) / 6: the integers' own sizes
        total += sum(map(getsizeof, (6, 0, 6, 3, 2)))
        assert memo_account.clears == clears + 2 and memo_account.bytes == total
        h_word_table(y_word(2), 3)  # Li's vector (0, 36, 9, 4) / 36 of y2: the integers' own sizes
        total += sum(map(getsizeof, (36, 0, 36, 9, 4)))
        assert memo_account.clears == clears + 2 and memo_account.bytes == total
        # the weight row (0, 216, 27, 8) / 216 of the tail entry 3, Li's vector of (3,): the integers' own sizes; the
        # tail's column (0, 216, 243, 251) / 216, and the vector (0, 0, 4, 3) / 8
        li_taylor_coeffs((1, 3), 3)
        total += sum(map(getsizeof, (216, 0, 216, 27, 8))) + getsizeof(216) + getsizeof(0) + 3 * getsizeof(251)
        total += sum(map(getsizeof, (8, 0, 0, 4, 3)))
        assert memo_account.clears == clears + 2 and memo_account.bytes == total
        # y1y2 + y2y1 + y3: the dict and three words, each charged as the stored u v, a tuple of 2 letters
        stuffle(NCPoly.from_word(y_word(1)), NCPoly.from_word(y_word(2)))
        total += getsizeof(products._stuffle_letters((1,), (2,))) + 3 * getsizeof((1, 2))
        assert memo_account.clears == clears + 2 and memo_account.bytes == total

    @pytest.mark.parametrize("fill", ["shuffles", "column", "poly"])
    def test_charge_is_what_the_tables_hold(self, monkeypatch, fill):
        # charged bytes over the bytes tracemalloc sees the emptied tables hold after filling them once:
        # 20 random shuffles of 6-term X polynomials with words up to 8 letters, one word table, or the
        # polynomial tables of five stuffle products (174 words) to N = 10, where the keys are about a third of
        # the charge; the products are built first, so their letter tuples are charged but not traced
        rng = random.Random(1)

        def poly():
            words = (bytes(rng.randrange(2) for _ in range(rng.randint(1, 8))) for _ in range(6))
            return NCPoly._from_nums(X, {w: rng.randint(1, 9) for w in words}, 1)

        pairs = [(poly(), poly()) for _ in range(20)]
        words = [((2, 1), (1, 3)), ((1, 1, 2), (3, 1)), ((2, 2, 1), (1, 1, 1)), ((4, 1), (2, 3, 1))]
        words.append(((1, 2, 1, 2), (2, 1, 1)))
        stuffles = [stuffle(NCPoly.from_word(y_word(*u)), NCPoly.from_word(y_word(*v))) for u, v in words]
        for clear in memo_account.tables:
            clear()
        monkeypatch.setattr(memo_account, "bytes", 0)
        clears = memo_account.clears
        tracemalloc.start()
        try:
            if fill == "shuffles":
                for p, q in pairs:
                    shuffle(p, q)
            elif fill == "column":
                h_word_table(y_word(2, 1, 3), 400)
            else:
                for q in stuffles:
                    h_poly_table(q, 10)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert memo_account.clears == clears and 0.8 <= memo_account.bytes / held <= 1.25

    def test_property_a_tiny_bound_changes_no_answer(self, monkeypatch):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))

        def polys(alphabet, letters, size):
            words = st.lists(letters, max_size=size).map(lambda l: Word(tuple(l), alphabet))
            return st.lists(st.tuples(words, coeffs), max_size=4).map(lambda pairs: NCPoly(alphabet, pairs))

        x_polys, y_polys = polys(X, st.integers(0, 1), 6), polys(Y, st.integers(1, 3), 4)
        y_words = st.lists(st.integers(1, 3), max_size=4).map(lambda l: Word(tuple(l), Y))
        indices = st.lists(st.integers(-3, 4), max_size=4).map(tuple)
        default = nc_core.MEMO_BYTES

        @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hyp.given(x_polys, x_polys, y_polys, y_polys, y_words, indices, st.integers(0, 40))
        def same(p, q, a, b, w, index, n):
            def answers():
                return (
                    shuffle(p, q),
                    stuffle(a, b),
                    h_word_table(w, n),
                    h_poly_table(stuffle(a, b), n),
                    li_taylor_coeffs(index, n).coeffs,
                )

            monkeypatch.setattr(nc_core, "MEMO_BYTES", default)
            want = answers()
            monkeypatch.setattr(nc_core, "MEMO_BYTES", 2048)
            for clear in memo_account.tables:
                clear()
            assert answers() == want

        clears = memo_account.clears
        same()
        assert memo_account.clears > clears
