import cmath
import random
from fractions import Fraction

import pytest

from polylog.coding import QSeriesTrunc, umbra_to_plane
from polylog.nc_core import NCPoly, NPoly, Word, X, Y, x_word, y_word
from polylog.products import exp_stuffle, shuffle, stuffle
from polylog.stars import (
    PlaneStar,
    X1StarPoly,
    check_kstar_shuffle_power,
    letter_star_li,
    one_param_group,
    plane_element_poly,
    plane_star_expand,
    plane_star_inverse,
    plane_star_stuffle,
    x1star_expand,
    x1star_poly_expand,
    x1star_y_expansion,
    ykstar_exp_identity,
)


def _expand_ref(alpha, weight_cap):
    """Words of weight <= cap with coefficient prod alpha_{s_i}: a Fraction frontier walk."""
    letters = [(s, a) for s, a in enumerate(alpha, 1) if s <= weight_cap and a]
    terms = {Word((), Y): Fraction(1)}
    frontier = [((), Fraction(1))]
    while frontier:
        new_frontier = []
        for word, coeff in frontier:
            budget = weight_cap - sum(word)
            for s, alpha_s in letters:
                if s > budget:
                    break
                ext = word + (s,)
                c = coeff * alpha_s
                new_frontier.append((ext, c))
                key = Word(ext, Y)
                terms[key] = terms.get(key, Fraction(0)) + c
        frontier = new_frontier
    return NCPoly(Y, terms)


def _stuffle_ref(a, b):
    """c_n = a_n + b_n + sum_{i+j=n} a_i b_j for n = 1..len(a) + len(b)."""
    out = [Fraction(0)] * (len(a) + len(b))
    for n in range(1, len(out) + 1):
        out[n - 1] = (a[n - 1] if n <= len(a) else 0) + (b[n - 1] if n <= len(b) else 0)
        cross = (a[i - 1] * b[n - i - 1] for i in range(1, n) if i <= len(a) and n - i <= len(b))
        out[n - 1] += sum(cross)
    return out


def _planes():
    """Hypothesis strategy: plane coefficient lists with zero entries, trailing zeros and mixed denominators."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    entry = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=6))
    return hyp, st, st.lists(entry, min_size=1, max_size=5)


def _rand_star(rng, s_max_max=3):
    return PlaneStar.make(
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, s_max_max))]
    )


class TestX1StarExpand:
    def test_geometric(self):
        expected = NCPoly.one(X) + NCPoly.from_word(x_word("1")) + NCPoly.from_word(x_word("11"))
        assert x1star_expand(1, 2) == expected

    def test_coefficient_power(self):
        p = x1star_expand(2, 4)
        assert p.coeff(x_word("111")) == 8

    def test_zero_star(self):
        assert x1star_expand(0, 7) == NCPoly.one(X)

    def test_combination_expand(self):
        s = X1StarPoly({1: 1, 0: -1})
        p = x1star_poly_expand(s, 3)
        assert p.coeff(Word((), X)) == 0
        assert p.coeff(x_word("11")) == 1

    def test_negative_denominator_expands_like_its_positive_form(self):
        # an NPoly given numerators over den < 0 is a valid combination; the expansion takes the sign
        s, positive = X1StarPoly(NPoly([1, -2], -3)), X1StarPoly({0: Fraction(-1, 3), 1: Fraction(2, 3)})
        assert s == positive and x1star_poly_expand(s, 3) == x1star_poly_expand(positive, 3)


class TestX1StarPolyAlgebra:
    def test_empty_and_coefficients(self):
        assert not X1StarPoly() and X1StarPoly() == X1StarPoly({}) and X1StarPoly().max_order == 0
        s = X1StarPoly({2: Fraction(1, 2), 0: -1})
        assert [s.coeff(k) for k in range(4)] == [-1, 0, Fraction(1, 2), 0]
        assert repr(s) == "X1StarPoly(1/2*star(2) - 1)" and str(X1StarPoly()) == "0"

    def test_sums_and_negation(self):
        a, b = X1StarPoly({2: 1, 1: Fraction(1, 3)}), X1StarPoly({1: Fraction(-1, 3), 0: 4})
        assert a + b == X1StarPoly({2: 1, 0: 4}) and a - b == X1StarPoly({2: 1, 1: Fraction(2, 3), 0: -4})
        assert -a == a * -1 and a + -a == X1StarPoly() and a - a == X1StarPoly()

    def test_refusals(self):
        with pytest.raises(ValueError, match="star orders must be >= 0, got -1"):
            X1StarPoly({-1: 1})
        with pytest.raises(ValueError, match="needs k >= 1, got 0"):
            check_kstar_shuffle_power(0, 3)
        assert X1StarPoly({0: 1}) != 1 and X1StarPoly() != NPoly()


class TestKStarShufflePower:
    def test_k2(self):
        assert check_kstar_shuffle_power(2, 4)

    def test_k1(self):
        assert check_kstar_shuffle_power(1, 6)

    def test_k3(self):
        assert check_kstar_shuffle_power(3, 5)

    def test_fragment_shuffle_is_order_convolution(self):
        lhs = X1StarPoly.star(2).shuffle(X1StarPoly.star(1))
        assert lhs == X1StarPoly.star(3)
        # cross-check against truncated expansions
        cap = 4
        expanded = shuffle(x1star_expand(2, cap), x1star_expand(1, cap)).truncated(cap)
        assert expanded == x1star_expand(3, cap)


class TestPlaneStarStuffle:
    def test_delta_pair(self):
        got = plane_star_stuffle(PlaneStar.make([1]), PlaneStar.make([1]))
        assert got == PlaneStar.make([2, 1])

    def test_cross_term(self):
        got = plane_star_stuffle(PlaneStar.make([1, 0]), PlaneStar.make([0, 1]))
        assert got == PlaneStar.make([1, 1, 1, 0])

    def test_zero_is_neutral(self):
        b = PlaneStar.make([Fraction(2, 3), 1])
        got = plane_star_stuffle(PlaneStar.make([0]), b)
        assert got.truncated(b.s_max) == b and all(
            got.coeff(n) == 0 for n in range(b.s_max + 1, got.s_max + 1)
        )

    def test_commutative_associative(self):
        rng = random.Random(53)
        for _ in range(30):
            a, b, c = _rand_star(rng), _rand_star(rng), _rand_star(rng)
            ab = plane_star_stuffle(a, b)
            ba = plane_star_stuffle(b, a)
            assert ab == ba
            left = plane_star_stuffle(ab, c)
            right = plane_star_stuffle(a, plane_star_stuffle(b, c))
            assert left == right

    def test_inverse(self):
        rng = random.Random(59)
        for _ in range(30):
            a = _rand_star(rng, s_max_max=4)
            inv = plane_star_inverse(a, 4)
            prod = plane_star_stuffle(a, inv)
            assert all(prod.coeff(n) == 0 for n in range(1, 5))

    def test_expand_consistency(self):
        rng = random.Random(61)
        cap = 6
        for _ in range(25):
            a, b = _rand_star(rng), _rand_star(rng)
            lhs = plane_star_expand(plane_star_stuffle(a, b), cap)
            rhs = stuffle(plane_star_expand(a, cap), plane_star_expand(b, cap)).truncated(cap)
            assert lhs == rhs


class TestPlaneStarView:
    """PlaneStar is the QSeriesTrunc view read as a plane; each operation against a Fraction reference."""

    def test_property_make_roundtrip(self):
        hyp, st, plane = _planes()

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(plane, st.integers(0, 2))
        def check(alpha, zeros):
            alpha = alpha + [Fraction(0)] * zeros
            a = PlaneStar.make(alpha)
            assert a.s_max == len(alpha) and a.alpha == a.coeffs == tuple(alpha)
            assert [a.coeff(s) for s in range(1, len(alpha) + 2)] == alpha + [0]
            assert str(a) == "[" + ",".join(map(str, alpha)) + "]*"

        check()

    def test_property_stuffle(self):
        hyp, st, plane = _planes()

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(plane, plane)
        def check(a, b):
            got = plane_star_stuffle(PlaneStar.make(a), PlaneStar.make(b))
            assert got.s_max == len(a) + len(b)
            assert got.alpha == tuple(_stuffle_ref(a, b))

        check()

    def test_property_inverse(self):
        hyp, st, plane = _planes()

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(plane, st.integers(0, 6))
        def check(alpha, n):
            a = PlaneStar.make(alpha)
            inv = plane_star_inverse(a, n)
            assert inv.s_max == n
            law = _stuffle_ref(alpha, list(inv.alpha))
            assert law[:n] == [0] * min(n, len(law))
            assert plane_star_stuffle(a, inv).truncated(n) == PlaneStar.make([0] * n)

        check()

    def test_property_expand_matches_frontier_walk(self):
        hyp, st, plane = _planes()

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(plane, st.integers(0, 7))
        def check(alpha, cap):
            assert plane_star_expand(PlaneStar.make(alpha), cap) == _expand_ref(alpha, cap)

        check()

    def test_property_x1star_expand(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.dictionaries(st.integers(0, 5), coeff, max_size=4), st.integers(0, 6))
        def check(terms, cap):
            powers = [(Word((1,) * n, X), c * Fraction(k) ** n) for k, c in terms.items() for n in range(cap + 1)]
            want = NCPoly(X, powers)
            assert x1star_poly_expand(X1StarPoly(terms), cap) == want

        check()

    def test_distinct_from_q_series_and_unhashable(self):
        a = PlaneStar.make([1, Fraction(1, 2)])
        assert a != QSeriesTrunc.make([1, Fraction(1, 2)])
        assert repr(a) == "PlaneStar(alpha=(Fraction(1, 1), Fraction(1, 2)))"
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cap", [-1, -3])
@pytest.mark.parametrize(
    "expand",
    [
        lambda cap: plane_star_expand(PlaneStar.make([1, Fraction(1, 2)]), cap),
        lambda cap: x1star_poly_expand(X1StarPoly({0: 1, 2: 3}), cap),
        lambda cap: x1star_expand(2, cap),
        lambda cap: x1star_y_expansion(X1StarPoly({1: 1}), cap),
        lambda cap: exp_stuffle(NCPoly.from_word(y_word(1)), cap),
    ],
    ids=["plane_star", "x1star_poly", "x1star", "x1star_y", "exp_stuffle"],
)
def test_negative_cap_is_refused(expand, cap):
    with pytest.raises(ValueError, match="cap must be >= 0"):
        expand(cap)


class TestPlaneStarExpand:
    def test_y1_star(self):
        expected = NCPoly.one(Y) + NCPoly.from_word(y_word(1)) + NCPoly.from_word(y_word(1, 1))
        assert plane_star_expand(PlaneStar.make([1]), 2) == expected

    def test_y2_star(self):
        expected = NCPoly.one(Y) + NCPoly.from_word(y_word(2)) + NCPoly.from_word(y_word(2, 2))
        assert plane_star_expand(PlaneStar.make([0, 1]), 4) == expected

    def test_coefficients_multiply(self):
        a = PlaneStar.make([Fraction(1, 2), 3])
        p = plane_star_expand(a, 3)
        assert p.coeff(y_word(1, 2)) == Fraction(3, 2)
        assert p.coeff(y_word(1, 1, 1)) == Fraction(1, 8)


class TestOneParamGroup:
    def test_zero_parameter(self):
        t = QSeriesTrunc.make([1, Fraction(1, 2)])
        assert one_param_group(t, 0, 4) == NCPoly.one(Y)

    def test_group_law(self):
        rng = random.Random(67)
        for _ in range(8):
            t = QSeriesTrunc.make(
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)]
            )
            z1 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            z2 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            lhs = stuffle(one_param_group(t, z1, 5), one_param_group(t, z2, 5)).truncated(5)
            assert lhs == one_param_group(t, z1 + z2, 5)

    def test_equals_stuffle_exponential(self):
        rng = random.Random(71)
        for _ in range(8):
            t = QSeriesTrunc.make(
                [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)]
            )
            z = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            cap = 5
            lhs = one_param_group(t, z, cap)
            rhs = exp_stuffle(plane_element_poly(umbra_to_plane(t)) * z, cap)
            assert lhs == rhs


class TestYkStarIdentity:
    def test_k1_z1_cap2_value(self):
        assert ykstar_exp_identity(1, 1, 2)
        # the two sides are both 1 + y1 + y1y1 at this cap
        arg = NCPoly.from_word(y_word(1)) - NCPoly.from_word(y_word(2)) * Fraction(1, 2)
        expanded = exp_stuffle(arg, 2)
        expected = NCPoly.one(Y) + NCPoly.from_word(y_word(1)) + NCPoly.from_word(y_word(1, 1))
        assert expanded == expected

    def test_k2_half(self):
        assert ykstar_exp_identity(2, Fraction(1, 2), 6)

    def test_zero_parameter(self):
        assert ykstar_exp_identity(3, 0, 6)

    def test_negative_parameter(self):
        assert ykstar_exp_identity(1, Fraction(-1, 3), 5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ykstar_exp_identity(0, 1, 3)


class TestLetterStar:
    def test_constant(self):
        form = letter_star_li(0, 0)
        assert form.eval(0.37) == 1

    def test_identity_map(self):
        form = letter_star_li(1, 0)
        assert abs(form.eval(0.3) - 0.3) < 1e-15

    def test_matches_x1star_closed_form(self):
        for k in (1, 2, 3):
            form = letter_star_li(0, k)
            for z in (0.25, -0.5, 0.1 + 0.2j):
                assert abs(form.eval(z) - 1 / (1 - z) ** k) < 1e-12

    def test_product_form(self):
        form = letter_star_li(Fraction(1, 2), Fraction(3, 2))
        z = 0.4
        expected = z**0.5 * (1 - z) ** -1.5
        assert abs(form.eval(z) - expected) < 1e-12

    @staticmethod
    def _reference(alpha, beta, z):
        """z^alpha (1-z)^(-beta) as exp(p log w), with the powers of zero spelled out."""
        z = complex(z)
        powers = []
        for w, p in ((z, float(alpha)), (1 - z, -float(beta))):
            if w != 0:
                powers.append(cmath.exp(p * cmath.log(w)))
            elif p < 0:
                raise ZeroDivisionError("0 to a negative power")
            else:
                powers.append(complex(p == 0))
        return powers[0] * powers[1]

    def test_matches_reference_on_random_grid(self):
        rng = random.Random(20)
        for _ in range(2000):
            alpha, beta = (Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = self._reference(alpha, beta, z)
            assert abs(letter_star_li(alpha, beta).eval(z) - want) <= 1e-14 * abs(want), (alpha, beta, z)

    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("beta", [0, Fraction(1, 2), -2])
    @pytest.mark.parametrize("alpha", [0, 3, Fraction(-1, 2)])
    def test_zero_and_one(self, alpha, beta, z):
        # a power of zero is 1, 0 or a ZeroDivisionError, as its exponent is 0, positive or negative
        form = letter_star_li(alpha, beta)
        try:
            want = self._reference(alpha, beta, z)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                form.eval(z)
        else:
            assert form.eval(z) == want
