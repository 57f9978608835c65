import random

import pytest
from fractions import Fraction

from polylog.nc_core import (
    AlphabetError,
    InvalidIndexError,
    NCPoly,
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

    def test_concat_requires_matching_alphabets(self):
        with pytest.raises(AlphabetError):
            x_word("0").concat(y_word(1))

    def test_text_roundtrip(self):
        for w in (x_word("0110"), Word((), X), y_word(2, 1), Word((), Y)):
            assert word_from_text(w.text(), w.alphabet) == w

    def test_trailing_x0_count(self):
        assert x_word("100").trailing_x0_count == 2
        assert x_word("01").trailing_x0_count == 0
        assert Word((), X).trailing_x0_count == 0


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

    def test_index_from_word_rejects_y(self):
        with pytest.raises(AlphabetError):
            index_from_word(y_word(2))
