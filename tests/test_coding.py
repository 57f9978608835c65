import random
from fractions import Fraction
from math import factorial

import pytest

from polylog.coding import (
    QSeriesTrunc,
    in_image,
    pi_x,
    pi_x_word,
    pi_y,
    pi_y_word,
    plane_to_umbra,
    q_exp_m1,
    q_scale,
    umbra_to_plane,
)
from polylog.dense import NPoly, TaylorTrunc
from polylog.nc_core import AlphabetError, NCPoly, NotInImageError, Word, X, Y, x_word, y_word
from polylog.products import conc
from polylog.stars import PlaneStar


def _y_words(max_weight):
    def comps(total):
        if total == 0:
            return [()]
        return [(f,) + rest for f in range(1, total + 1) for rest in comps(total - f)]

    out = [Word((), Y)]
    for w in range(1, max_weight + 1):
        out.extend(Word(c, Y) for c in comps(w))
    return out


class TestPiX:
    def test_letter_images(self):
        assert pi_x_word(y_word(2)) == x_word("01")
        assert pi_x_word(y_word(1, 2)) == x_word("101")
        assert pi_x_word(Word((), Y)) == Word((), X)

    def test_conc_morphism(self):
        rng = random.Random(41)
        for _ in range(40):
            u = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))), Y)
            v = Word(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))), Y)
            lhs = pi_x(conc(NCPoly.from_word(u), NCPoly.from_word(v)))
            rhs = conc(pi_x(NCPoly.from_word(u)), pi_x(NCPoly.from_word(v)))
            assert lhs == rhs


class TestPiY:
    def test_letter_images(self):
        assert pi_y_word(x_word("001")) == y_word(3)
        assert pi_y_word(x_word("101")) == y_word(1, 2)

    def test_error_names_word(self):
        with pytest.raises(NotInImageError) as exc:
            pi_y_word(x_word("10"))
        assert "x1x0" in str(exc.value)

    def test_poly_roundtrip_weight_six(self):
        for w in _y_words(6):
            assert pi_y(pi_x(NCPoly.from_word(w))) == NCPoly.from_word(w)

    def test_x_side_roundtrip(self):
        p = NCPoly.from_word(x_word("011")) * 2 + NCPoly.one(X)
        assert pi_x(pi_y(p)) == p

    @staticmethod
    def _polys(letters, last=None):
        """Hypothesis strategy: small polynomials in words over ``letters``, ending in ``last`` when given."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        body = st.lists(st.sampled_from(letters), max_size=5)
        word = body.map(tuple) if last is None else body.map(lambda b: tuple(b) + (last,))
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        return hyp, st.lists(st.tuples(word, coeff), max_size=5)

    def test_property_y_roundtrip(self):
        hyp, terms = self._polys([1, 2, 3, 4])

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(terms)
        def check(pairs):
            p = NCPoly(Y, [(Word(w, Y), c) for w, c in pairs])
            assert pi_y(pi_x(p)) == p

        check()

    def test_property_x_roundtrip_on_image(self):
        hyp, terms = self._polys([0, 1], last=1)

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(terms, hyp.strategies.fractions(min_value=-3, max_value=3, max_denominator=4))
        def check(pairs, constant):
            q = NCPoly(X, [(Word(w, X), c) for w, c in pairs] + [(Word((), X), constant)])
            assert pi_x(pi_y(q)) == q

        check()

    def test_property_words_ending_in_x0_are_rejected(self):
        hyp, terms = self._polys([0, 1], last=1)

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(terms, hyp.strategies.lists(hyp.strategies.sampled_from([0, 1]), max_size=5))
        def check(pairs, body):
            bad = Word(tuple(body) + (0,), X)
            q = NCPoly(X, [(Word(w, X), c) for w, c in pairs] + [(bad, 1)])
            with pytest.raises(NotInImageError) as exc:
                pi_y(q)
            assert str(bad) in str(exc.value)

        check()

    def test_wrong_alphabet_refused(self):
        with pytest.raises(NotInImageError, match="pi_X acts on Y-words"):
            pi_x_word(x_word("1"))
        with pytest.raises(NotInImageError, match="pi_X acts on Y-words"):
            pi_x(NCPoly.from_word(x_word("1")))
        with pytest.raises(AlphabetError, match="pi_Y acts on X-words"):
            pi_y(NCPoly.from_word(y_word(1)))
        assert not in_image(y_word(1))

    def test_image_characterization(self):
        for n in range(0, 6):
            for bits in range(2**n):
                letters = tuple((bits >> i) & 1 for i in range(n))
                w = Word(letters, X)
                expected = w.is_empty or w.ends_in_x1
                assert in_image(w) == expected
                if expected:
                    pi_y_word(w)
                else:
                    with pytest.raises(NotInImageError):
                        pi_y_word(w)


class TestQSeries:
    def test_umbra_examples(self):
        assert umbra_to_plane(QSeriesTrunc.make([1])) == (Fraction(1),)
        assert umbra_to_plane(QSeriesTrunc.make([0, Fraction(1, 2)])) == (
            Fraction(0),
            Fraction(1, 2),
        )

    def test_roundtrip_random(self):
        rng = random.Random(43)
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
            s = QSeriesTrunc.make(coeffs)
            assert plane_to_umbra(umbra_to_plane(s)) == s

    def test_coeff_out_of_range(self):
        s = QSeriesTrunc.make([1, 2])
        assert s.coeff(5) == 0
        with pytest.raises(ValueError):
            s.coeff(0)

    def test_mul_truncates(self):
        s = QSeriesTrunc.make([1, 1])
        t = QSeriesTrunc.make([1])
        assert _mul_ref(s.coeffs, t.coeffs, 3) == [0, 1, 1]
        assert s.poly.mul_trunc(t.poly, 3).padded(3)[1:] == (0, 1, 1)

    def test_exp_m1_matches_series(self):
        rng = random.Random(47)
        for _ in range(10):
            s_max = 5
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
            direct = [Fraction(0)] * s_max
            power = (a + [Fraction(0)] * s_max)[:s_max]
            for n in range(1, s_max + 1):
                direct = [d + p / factorial(n) for d, p in zip(direct, power)]
                power = _mul_ref(power, a, s_max)
            assert q_exp_m1(QSeriesTrunc.make(a), s_max) == QSeriesTrunc(tuple(direct))

    def test_exp_m1_matches_sympy_series(self):
        sp = pytest.importorskip("sympy")
        q = sp.Symbol("q")
        rng = random.Random(5)
        for _ in range(4):
            a = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
            s_max = rng.randint(1, 6)
            s = sum(sp.Rational(c.numerator, c.denominator) * q ** (i + 1) for i, c in enumerate(a))
            series = sp.series(sp.exp(s) - 1, q, 0, s_max + 1).removeO()
            want = [series.coeff(q, n) for n in range(1, s_max + 1)]
            got = q_exp_m1(QSeriesTrunc.make(a), s_max).coeffs
            assert got == tuple(Fraction(int(c.p), int(c.q)) for c in want)

    def test_scale(self):
        s = QSeriesTrunc.make([1, Fraction(-2, 3), 0])
        assert q_scale(Fraction(3, 2), s) == QSeriesTrunc.make([Fraction(3, 2), -1, 0])
        assert q_scale(0, s) == QSeriesTrunc.make([0, 0, 0])


class TestQSeriesView:
    """QSeriesTrunc is a view of an NPoly in q cut to s_max, checked against plain tuples."""

    def test_property_make_roundtrip(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(entry, max_size=6), st.integers(0, 3))
        def check(head, zeros):
            # trailing zeros keep s_max equal to the length
            coeffs = head + [Fraction(0)] * zeros
            s = QSeriesTrunc.make(coeffs)
            assert s.s_max == len(coeffs) and s.coeffs == tuple(coeffs)
            assert [s.coeff(n) for n in range(1, len(coeffs) + 3)] == coeffs + [0, 0]
            assert QSeriesTrunc(tuple(coeffs)) == s == plane_to_umbra(umbra_to_plane(s))

        check()

    def test_equality_ignores_unreduced_denominator(self):
        assert QSeriesTrunc.from_poly(NPoly([0, 2], 4), 1) == QSeriesTrunc.make([Fraction(1, 2)])
        assert QSeriesTrunc.make([1, 0]) != QSeriesTrunc.make([1])

    def test_from_poly_cuts_to_order(self):
        s = QSeriesTrunc.from_poly(NPoly([5, 1, Fraction(2, 3), 3, 4]), 2)
        assert s == QSeriesTrunc.make([1, Fraction(2, 3)])
        assert s.poly == NPoly([0, 1, Fraction(2, 3)])
        assert QSeriesTrunc.from_poly(NPoly([0, 1]), 3).coeffs == (1, 0, 0)
        with pytest.raises(ValueError):
            QSeriesTrunc.from_poly(NPoly([0, 1]), -1)

    @pytest.mark.parametrize(
        "cls, text",
        [
            (TaylorTrunc, "TaylorTrunc(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)))"),
            (QSeriesTrunc, "QSeriesTrunc(coeffs=(Fraction(1, 1), Fraction(1, 2)))"),
            (PlaneStar, "PlaneStar(alpha=(Fraction(1, 1), Fraction(1, 2)))"),
        ],
        ids=["TaylorTrunc", "QSeriesTrunc", "PlaneStar"],
    )
    def test_equality_hash_and_repr(self, cls, text):
        # the three capped views of one NPoly and cap: equal only within one class
        poly, views = NPoly([0, 1, Fraction(1, 2)]), (TaylorTrunc, QSeriesTrunc, PlaneStar)
        view = cls._of(poly, 2)
        assert view == cls._of(NPoly([0, 2, 1], 2), 2) and not view != cls._of(poly, 2)
        for other in (o._of(poly, 2) for o in views if o is not cls):
            assert view != other and other != view
        assert view != 1 and view != view.coeffs and view != poly
        with pytest.raises(TypeError):
            hash(view)
        assert repr(view) == text and text.startswith(cls.__name__ + "(")
        assert isinstance(view, TaylorTrunc) and issubclass(QSeriesTrunc, TaylorTrunc)
        if cls is not TaylorTrunc:
            assert view.s_max == view.n_cap == 2


def _mul_ref(a, b, s_max):
    """Product of constant-free q-series (a[i] is the coefficient of q^(i+1)) cut at q^s_max."""
    out = [Fraction(0)] * s_max
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j + 2 <= s_max:
                out[i + j + 1] += x * y
    return out
