import random
from fractions import Fraction
from math import comb

import pytest

from polylog.harmonic import h_signed_table
from polylog.nc_core import AlphabetError, InvalidIndexError, NCPoly, Word, X, x_word, y_word
from polylog.negindex import (
    NotRepresentableError,
    RatFuncAtOne,
    li_nonpositive,
    li_nonpositive_stars,
    ratfunc_to_x1star,
    regularize_trailing_x0,
    theta_derivative,
    x1star_to_ratfunc,
)
from polylog.products import shuffle, shuffle_pow
from polylog.stars import X1StarPoly
from test_harmonic import refusal_in_fresh_process

# The known table: index -> (numerator ascending, pole order, star combination)
KNOWN_TABLE = [
    ((0,), [0, 1], 1, {1: 1, 0: -1}),
    ((-1,), [0, 1], 2, {2: 1, 1: -1}),
    ((0, 0), [0, 0, 1], 2, {2: 1, 1: -2, 0: 1}),
    ((-2, -1), [0, 0, 4, 7, 1], 5, {5: 12, 4: -33, 3: 31, 2: -11, 1: 1}),
    ((-2, -2), [0, 0, 4, 21, 14, 1], 6, {6: 40, 5: -132, 4: 161, 3: -87, 2: 19, 1: -1}),
    (
        (-3, -3),
        [0, 0, 8, 179, 584, 424, 64, 1],
        8,
        {8: 1260, 7: -5400, 6: 9270, 5: -8070, 4: 3699, 3: -829, 2: 71, 1: -1},
    ),
    ((-1, 0, -2), [0, 0, 0, 3, 6, 1], 6, {6: 10, 5: -38, 4: 55, 3: -37, 2: 11, 1: -1}),
    (
        (-1, -2, -2),
        [0, 0, 0, 12, 100, 133, 34, 1],
        8,
        {8: 280, 7: -1312, 6: 2497, 5: -2457, 4: 1310, 3: -358, 2: 41, 1: -1},
    ),
]


class TestRatFuncCanonical:
    def test_divides_out_pole_factors(self):
        # (1-z)(1+z)/(1-z)^2 reduces to (1+z)/(1-z)
        f = RatFuncAtOne([1, 0, -1], 2)
        assert f == RatFuncAtOne([1, 1], 1)

    def test_zero(self):
        f = RatFuncAtOne([0, 0], 3)
        assert f.is_zero and f.pole_order == 0

    def test_eval(self):
        f = RatFuncAtOne([0, 1], 1)  # z/(1-z)
        assert f.eval(Fraction(1, 2)) == 1

    def test_eval_at_the_pole_names_it(self):
        f = RatFuncAtOne([1, 1], 3)
        for z in (1, Fraction(1)):
            with pytest.raises(ZeroDivisionError, match=r"^pole of order 3 at z = 1$"):
                f.eval(z)
        # float and complex points divide as before; without a pole z = 1 is an ordinary point
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            f.eval(1.0)
        with pytest.raises(ZeroDivisionError, match="complex division by zero"):
            f.eval(1 + 0j)
        assert RatFuncAtOne([1, 2], 0).eval(1) == 3

    def test_add(self):
        one_over = RatFuncAtOne([1], 1)
        assert one_over - RatFuncAtOne([1], 0) == RatFuncAtOne([0, 1], 1)

    def test_zero_evaluates_to_exact_zero(self):
        value = RatFuncAtOne([], 0).eval(2)
        assert type(value) is Fraction and value == 0

    def test_str_writes_unit_coefficients_as_signs(self):
        assert str(RatFuncAtOne([1, -1, 0, -1], 2)) == "(1 - z - z^3)/(1-z)^2"
        assert str(RatFuncAtOne([0, -1, Fraction(-1, 2), 1], 0)) == "-z - 1/2*z^2 + z^3"
        assert str(RatFuncAtOne([Fraction(-3, 2)], 1)) == "(-3/2)/(1-z)^1"
        assert str(RatFuncAtOne([], 0)) == "0"

    def test_repr_equality_and_negative_pole_order(self):
        assert repr(RatFuncAtOne([1, 1], 2)) == "RatFuncAtOne((1 + z)/(1-z)^2)"
        assert RatFuncAtOne([1], 0) != 1 and RatFuncAtOne([1], 0) != NCPoly.one(X)
        with pytest.raises(ValueError, match="pole order must be >= 0, got -1"):
            RatFuncAtOne([1], -1)


def _ratfuncs():
    """Hypothesis strategy: p(z)/(1-z)^m with small rational coefficients."""
    st = pytest.importorskip("hypothesis").strategies
    coeffs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=5)
    return st.builds(RatFuncAtOne, coeffs, st.integers(0, 3))


class TestArithmeticThroughTaylor:
    """Sums, products and theta against the binomial Taylor expansion."""

    N = 12

    def _property(self, strategies, check):
        hyp = pytest.importorskip("hypothesis")
        hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)(
            hyp.given(*strategies)(check)
        )()

    def test_sum(self):
        def check(f, g):
            a, b = f.taylor_coeffs(self.N), g.taylor_coeffs(self.N)
            assert (f + g).taylor_coeffs(self.N) == [x + y for x, y in zip(a, b)]
            assert (f - g).taylor_coeffs(self.N) == [x - y for x, y in zip(a, b)]

        self._property([_ratfuncs(), _ratfuncs()], check)

    def test_product_is_cauchy_product(self):
        def check(f, g):
            a, b = f.taylor_coeffs(self.N), g.taylor_coeffs(self.N)
            cauchy = [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(self.N + 1)]
            assert (f * g).taylor_coeffs(self.N) == cauchy

        self._property([_ratfuncs(), _ratfuncs()], check)

    def test_theta_multiplies_by_n(self):
        def check(f):
            a = f.taylor_coeffs(self.N)
            assert theta_derivative(f).taylor_coeffs(self.N) == [n * a[n] for n in range(self.N + 1)]

        self._property([_ratfuncs()], check)

    def test_star_round_trip(self):
        st = pytest.importorskip("hypothesis").strategies

        def check(index):
            f = li_nonpositive(index)
            assert x1star_to_ratfunc(ratfunc_to_x1star(f)) == f

        self._property([st.lists(st.integers(-4, 0), max_size=3)], check)

    def test_stars_to_ratfunc(self):
        st = pytest.importorskip("hypothesis").strategies
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        stars = st.dictionaries(st.integers(0, 5), coeffs, max_size=4).map(X1StarPoly)

        def check(s):
            # 1/(1-z)^k has Taylor coefficients C(n+k-1, n)
            pole = [[comb(n + k - 1, n) if k else int(n == 0) for k in range(6)] for n in range(self.N + 1)]
            want = [sum(c * row[k] for k, c in s.items()) for row in pole]
            f = x1star_to_ratfunc(s)
            assert f.taylor_coeffs(self.N) == want
            assert f.pole_order == s.max_order and ratfunc_to_x1star(f) == s

        self._property([stars], check)


class TestThetaDerivative:
    def test_geometric(self):
        assert theta_derivative(RatFuncAtOne([0, 1], 1)) == RatFuncAtOne([0, 1], 2)

    def test_constant(self):
        assert theta_derivative(RatFuncAtOne([1], 0)).is_zero

    def test_canonicalizes(self):
        got = theta_derivative(RatFuncAtOne([0, 0, 1], 2))
        assert got == RatFuncAtOne([0, 0, 2], 3)

    def test_matches_series_derivative(self):
        rng = random.Random(73)
        for _ in range(20):
            num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            f = RatFuncAtOne(num, rng.randint(0, 3))
            coeffs = f.taylor_coeffs(20)
            theta = theta_derivative(f).taylor_coeffs(20)
            assert all(theta[n] == n * coeffs[n] for n in range(21))


class TestLiNonpositive:
    @pytest.mark.parametrize("index,num,pole,stars", KNOWN_TABLE)
    def test_known_rational_functions(self, index, num, pole, stars):
        assert li_nonpositive(index) == RatFuncAtOne(num, pole)

    @pytest.mark.parametrize("index,num,pole,stars", KNOWN_TABLE)
    def test_known_star_combinations(self, index, num, pole, stars):
        assert li_nonpositive_stars(index) == X1StarPoly(stars)
        assert ratfunc_to_x1star(li_nonpositive(index)) == X1StarPoly(stars)

    def test_empty_index(self):
        assert li_nonpositive(()) == RatFuncAtOne.constant(1)
        assert li_nonpositive_stars(()) == X1StarPoly({0: 1})

    def test_positive_index_rejected(self):
        with pytest.raises(InvalidIndexError, match="needs indices <= 0, got 1"):
            li_nonpositive((1, -2))
        with pytest.raises(InvalidIndexError, match="needs indices <= 0, got 3"):
            li_nonpositive_stars((0, 3))
        # the sign check comes before the star-order cap
        with pytest.raises(InvalidIndexError, match="needs indices <= 0, got 5"):
            li_nonpositive_stars((5, -(10**20)))

    @pytest.mark.parametrize(
        "index,order",
        [("(-(10**20),)", 10**20 + 1), ("(0,) * 1001", 1001), ("(-500, -499)", 1001)],
        ids=["huge-entry", "deep", "at-cap-plus-one"],
    )
    def test_star_order_refused_past_max_star_order(self, index, order):
        # the order len(s) + sum |s_i| is refused before the Euler loop, which ran on past a 5 s timeout
        message = refusal_in_fresh_process(f"li_nonpositive_stars({index})")
        assert message == f"star order {order} is above MAX_STAR_ORDER = 1000"

    def test_star_order_at_max_star_order_answers(self):
        stars = li_nonpositive_stars((0,) * 1000)  # (t - 1)^1000
        assert stars == X1StarPoly({k: (-1) ** (1000 - k) * comb(1000, k) for k in range(1001)})

    def test_property_matches_z_recurrence(self):
        """The t recurrence against the z recurrence: z/(1-z), then theta |s_i| times."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        def in_z(index):
            f = RatFuncAtOne.constant(1)
            for si in reversed(index):
                f = f * RatFuncAtOne([0, 1], 1)
                for _ in range(-si):
                    f = theta_derivative(f)
            return f

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-6, 0), max_size=4))
        def check(index):
            f = in_z(index)
            assert li_nonpositive(index) == f
            assert li_nonpositive_stars(index) == ratfunc_to_x1star(f)

        check()

    def test_taylor_matches_nested_sums(self):
        # all non-positive index lists with depth + total size <= 8
        def index_lists(budget):
            out = [()]
            for first in range(0, budget):  # first is |s_i|
                for rest in index_lists(budget - first - 1):
                    out.append((-first,) + rest)
            return out

        for index in index_lists(8):
            if not index:
                continue
            coeffs = li_nonpositive(index).taylor_coeffs(60)
            prefix = h_signed_table(index, 60)
            assert coeffs[0] == 0
            assert all(
                coeffs[n] == prefix[n] - prefix[n - 1] for n in range(1, 61)
            )


class TestStarConversion:
    @pytest.mark.parametrize("index,num,pole,stars", KNOWN_TABLE)
    def test_star_form_reproduces_function(self, index, num, pole, stars):
        f = li_nonpositive(index)
        assert x1star_to_ratfunc(ratfunc_to_x1star(f)) == f

    def test_geometric_pole_coefficients(self):
        # 1/(1-z)^k has Taylor coefficients binomial(n+k-1, k-1)
        from math import comb

        for k in range(1, 6):
            coeffs = RatFuncAtOne([1], k).taylor_coeffs(30)
            assert all(coeffs[n] == comb(n + k - 1, k - 1) for n in range(31))

    def test_not_representable(self):
        with pytest.raises(NotRepresentableError):
            ratfunc_to_x1star(RatFuncAtOne([0, 0, 1], 1))

    def test_constant_star(self):
        s = ratfunc_to_x1star(RatFuncAtOne.constant(Fraction(5, 3)))
        assert s == X1StarPoly({0: Fraction(5, 3)})


def _random_x_poly(rng, max_len=5, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(0, max_len)
        w = Word(tuple(rng.randint(0, 1) for _ in range(n)), X)
        terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return NCPoly(X, terms)


class TestRegularization:
    def test_already_regular(self):
        p = NCPoly.from_word(x_word("1"))
        assert regularize_trailing_x0(p) == {0: p}

    def test_bare_x0(self):
        got = regularize_trailing_x0(NCPoly.from_word(x_word("0")))
        assert got == {1: NCPoly.one(X)}

    def test_x1x0(self):
        got = regularize_trailing_x0(NCPoly.from_word(x_word("10")))
        assert got == {
            0: NCPoly.from_word(x_word("01")) * -1,
            1: NCPoly.from_word(x_word("1")),
        }

    def test_roundtrip_random(self):
        rng = random.Random(79)
        x0 = NCPoly.from_word(x_word("0"))
        for _ in range(100):
            p = _random_x_poly(rng)
            parts = regularize_trailing_x0(p)
            total = NCPoly.zero(X)
            for k, part in parts.items():
                total = total + shuffle(part, shuffle_pow(x0, k))
                for w in part.support():
                    assert w.is_empty or w.ends_in_x1
            assert total == p

    def test_property_roundtrip(self):
        # p = sum_k part_k sh x0^(sh k), every part's words ending in x1 (Radford's theorem)
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        x_polys = st.dictionaries(
            st.lists(st.integers(0, 1), max_size=6).map(lambda l: Word(tuple(l), X)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            max_size=4,
        ).map(lambda d: NCPoly(X, d))
        x0 = NCPoly.from_word(x_word("0"))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(x_polys)
        @hyp.example(NCPoly.from_word(x_word("000000")))
        def roundtrip(p):
            parts = regularize_trailing_x0(p)
            total = NCPoly.zero(X)
            for k, part in parts.items():
                total = total + shuffle(part, shuffle_pow(x0, k))
                assert all(w.is_empty or w.ends_in_x1 for w in part.support())
            assert total == p

        roundtrip()

    def test_support_bound(self):
        rng = random.Random(83)
        for _ in range(30):
            p = _random_x_poly(rng)
            parts = regularize_trailing_x0(p)
            assert all(k <= p.max_length for k in parts)

    def test_zero_input(self):
        assert regularize_trailing_x0(NCPoly.zero(X)) == {}

    def test_y_side_refused(self):
        with pytest.raises(AlphabetError, match="acts on X-polynomials"):
            regularize_trailing_x0(NCPoly.from_word(y_word(1)))
