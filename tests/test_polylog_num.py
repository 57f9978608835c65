import cmath
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from polylog import polylog_num
from polylog.harmonic import h_signed_table, h_word_table
from polylog.nc_core import AlphabetError, NCPoly, NotInImageError, Word, X, Y, x_word, y_word
from polylog.polylog_num import (
    PrecisionError,
    TaylorTrunc,
    cauchy,
    check_derivative_recursion,
    check_hadamard_identity,
    check_shuffle_morphism,
    check_surjection_lemma,
    div_one_minus_z,
    dom_radius_demo,
    hadamard,
    li_eval,
    li_taylor_coeffs,
    li_taylor_poly,
    _stirling2_rows,
    stirling2,
)
from polylog.products import conc, shuffle

F = Fraction


def _y_words(max_weight):
    def comps(total):
        if total == 0:
            return [()]
        return [(f,) + rest for f in range(1, total + 1) for rest in comps(total - f)]

    out = [Word((), Y)]
    for w in range(1, max_weight + 1):
        out.extend(Word(c, Y) for c in comps(w))
    return out


@pytest.mark.parametrize("n_cap", [-1, -2])
@pytest.mark.parametrize(
    "series",
    [
        lambda n: li_taylor_coeffs((2, 1), n),
        lambda n: li_taylor_coeffs((), n),
        lambda n: li_taylor_poly(NCPoly.from_word(x_word("01")), n),
        lambda n: li_taylor_poly(NCPoly.one(X), n),
    ],
    ids=["coeffs", "coeffs_empty_index", "poly", "poly_constant"],
)
def test_negative_cap_is_refused(series, n_cap):
    with pytest.raises(ValueError, match="n_cap must be >= 0"):
        series(n_cap)


class TestTaylorCoeffs:
    def test_dilogarithm(self):
        t = li_taylor_coeffs((2,), 10)
        assert all(t.coeffs[n] == F(1, n * n) for n in range(1, 11))
        assert t.coeffs[0] == 0

    def test_depth_two(self):
        t = li_taylor_coeffs((1, 1), 5)
        assert t.coeffs[3] == F(1, 2)

    def test_negative_index(self):
        t = li_taylor_coeffs((-1,), 8)
        assert all(t.coeffs[n] == n for n in range(9))

    def test_empty_index(self):
        t = li_taylor_coeffs((), 4)
        assert t.coeffs == (F(1), F(0), F(0), F(0), F(0))

    def test_property_float_coeffs_track_exact(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-3, 3), max_size=3).map(tuple), st.integers(0, 60))
        def tracks(index, n_cap):
            exact = li_taylor_coeffs(index, n_cap).coeffs
            floats = polylog_num._li_float_coeffs(index, n_cap)
            assert len(floats) == n_cap + 1 and all(type(b) is float for b in floats)
            for a, b in zip(exact, floats):
                assert abs(F(b) - a) <= F(1e-12) * abs(a)

        tracks()

    def test_float_coeffs_edges(self):
        assert polylog_num._li_float_coeffs((), 3) == [1.0, 0.0, 0.0, 0.0]
        assert polylog_num._li_float_coeffs((2, 1), 0) == [0.0]
        with pytest.raises(ValueError, match="n_cap"):
            polylog_num._li_float_coeffs((2,), -1)


class TestDivOneMinusZ:
    def test_gives_harmonic_numbers(self):
        t = div_one_minus_z(li_taylor_coeffs((1,), 30))
        expected = h_word_table(y_word(1), 30)
        assert list(t.coeffs) == expected

    def test_ones(self):
        t = div_one_minus_z(TaylorTrunc((F(1), F(0), F(0))))
        assert t.coeffs == (F(1), F(1), F(1))

    def test_zero(self):
        t = div_one_minus_z(TaylorTrunc((F(0), F(0))))
        assert t.coeffs == (F(0), F(0))

    def test_prefix_sums_match_oracle(self):
        # every signed index with depth + sum |s_i| <= 6
        def index_lists(budget):
            out = []
            for r in range(1, budget + 1):
                def build(prefix, left):
                    if len(prefix) == r:
                        out.append(tuple(prefix))
                        return
                    for s in range(-left, left + 1):
                        build(prefix + [s], left - abs(s))
                build([], budget - r)
            return out

        for index in sorted(set(index_lists(6))):
            t = div_one_minus_z(li_taylor_coeffs(index, 60))
            oracle = h_signed_table(index, 60)
            assert list(t.coeffs) == oracle


class TestHadamard:
    def test_unit(self):
        ones = div_one_minus_z(TaylorTrunc((F(1),) + (F(0),) * 10))
        other = li_taylor_coeffs((2,), 10)
        assert hadamard(ones, other).coeffs == other.coeffs

    def test_annihilator(self):
        zero = TaylorTrunc((F(0),) * 6)
        other = li_taylor_coeffs((1,), 5)
        assert hadamard(other, zero).coeffs == zero.coeffs

    def test_cap_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(TaylorTrunc((F(1),)), TaylorTrunc((F(1), F(2))))


class TestHadamardIdentity:
    def test_y1_pair(self):
        assert check_hadamard_identity(y_word(1), y_word(1), 50)

    def test_y2_y1(self):
        assert check_hadamard_identity(y_word(2), y_word(1), 100)

    def test_unit(self):
        assert check_hadamard_identity(Word((), Y), y_word(2), 20)

    def test_weight_three_exhaustive(self):
        words = _y_words(3)
        for u in words:
            for v in words:
                assert check_hadamard_identity(u, v, 40)

    def test_wrong_product_fails(self, monkeypatch):
        # concatenation in place of stuffle: the right side is H_{y1 y1}, not H_1^2
        monkeypatch.setattr(polylog_num, "stuffle", conc)
        assert not check_hadamard_identity(y_word(1), y_word(1), 10)
        assert not check_hadamard_identity(y_word(2), y_word(1), 10)

    def test_wrong_alphabet_refused(self):
        with pytest.raises(AlphabetError, match="indexed by Y-words"):
            check_hadamard_identity(x_word("1"), y_word(1), 10)
        with pytest.raises(AlphabetError, match="expects X-words"):
            check_shuffle_morphism(x_word("1"), y_word(1), 10)
        with pytest.raises(AlphabetError, match="expects an X-polynomial"):
            li_taylor_poly(NCPoly.from_word(y_word(1)), 10)


class TestShuffleMorphism:
    def test_log_squared(self):
        assert check_shuffle_morphism(x_word("1"), x_word("1"), 50)

    def test_weight_three(self):
        assert check_shuffle_morphism(x_word("01"), x_word("1"), 80)

    def test_unit(self):
        assert check_shuffle_morphism(Word((), X), x_word("011"), 30)

    def test_rejects_trailing_x0(self):
        with pytest.raises(NotInImageError):
            check_shuffle_morphism(x_word("10"), x_word("1"), 10)

    def test_cauchy_against_direct_product(self):
        a = li_taylor_coeffs((1,), 20)
        square = cauchy(a, a)
        double = li_taylor_poly(
            shuffle(NCPoly.from_word(x_word("1")), NCPoly.from_word(x_word("1"))), 20
        )
        assert square.coeffs == double.coeffs


class TestDerivativeRecursion:
    def test_dilog(self):
        assert check_derivative_recursion((2,), 50)

    def test_leading_one(self):
        assert check_derivative_recursion((1, 1), 40)

    def test_negative(self):
        assert check_derivative_recursion((-1, -2), 40)

    def test_seed(self):
        assert check_derivative_recursion((1,), 40)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_derivative_recursion((), 10)


def brute_stirling2(n: int, m: int) -> int:
    """Count partitions of {0..n-1} into m nonempty blocks by enumeration."""
    if n == 0:
        return 1 if m == 0 else 0

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [first]] + part[i + 1 :]
            yield part + [[first]]

    return sum(1 for p in partitions(list(range(n))) if len(p) == m)


class TestStirling:
    def test_against_enumeration(self):
        for n in range(0, 8):
            for m in range(0, n + 2):
                assert stirling2(n, m) == brute_stirling2(n, m)

    def test_diagonal(self):
        for n in (0, 1, 5, 12):
            assert stirling2(n, n) == 1

    def test_zero_blocks(self):
        for n in (1, 4, 9):
            assert stirling2(n, 0) == 0
        with pytest.raises(ValueError, match="natural arguments"):
            stirling2(-1, 0)

    def test_surjection_lemma_small(self):
        assert check_surjection_lemma(10, 5)

    def test_surjection_lemma_wrong_product_fails(self, monkeypatch):
        # concatenation in place of shuffle fails the word side; the Hadamard product in
        # place of the Cauchy product fails the generating-function side
        with monkeypatch.context() as patched:
            patched.setattr(polylog_num, "shuffle", lambda p, q, grade_cap: conc(p, q))
            assert not check_surjection_lemma(6, 3)
        monkeypatch.setattr(polylog_num, "cauchy", hadamard)
        assert not check_surjection_lemma(6, 3)

    def test_table_matches_explicit_formula(self):
        # S2(n, m) = sum_j (-1)^j C(m, j) (m - j)^n / m!
        rows = _stirling2_rows(20, 8)
        assert len(rows) == 21 and all(len(row) == 9 for row in rows)
        for n in range(21):
            for m in range(9):
                total = sum((-1) ** j * math.comb(m, j) * (m - j) ** n for j in range(m + 1))
                assert rows[n][m] == total // math.factorial(m)
                assert total % math.factorial(m) == 0
                assert stirling2(n, m) == rows[n][m]

    def test_explicit_coefficient(self):
        # <(x1+)^(sh 2) | x1^3> = 2! S2(3,2) = 6
        x1plus = NCPoly(X, {Word((1,) * n, X): 1 for n in range(1, 4)})
        square = shuffle(x1plus, x1plus)
        assert square.coeff(Word((1, 1, 1), X)) == 6


class TestLiEval:
    def test_empty_index(self):
        assert li_eval((), 0.9, 1e-12) == 1.0

    def test_origin(self):
        assert li_eval((2, -1), 0, 1e-12) == 0 and li_eval((1,), 0j, 1e-6) == 0

    def test_log_two(self):
        value = li_eval((1,), 0.5, 1e-10)
        assert abs(value - math.log(2)) <= 1e-10

    def test_dilog_at_half_bounded_by_zeta2(self):
        value = li_eval((2,), 0.5, 1e-10)
        assert 0 < value.real < math.pi**2 / 6

    def test_agreement_with_exact_partial_sums(self):
        rng = random.Random(97)
        for _ in range(20):
            r = rng.randint(1, 3)
            index = tuple(rng.randint(-2, 3) for _ in range(r))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3))
            if abs(z) < 1e-3:
                z = 0.25 + 0.1j
            eps = 1e-8
            value = li_eval(index, z, eps)
            exact = li_taylor_coeffs(index, 120).coeffs
            reference = sum(complex(c) * z**n for n, c in enumerate(exact))
            assert abs(value - reference) <= eps + 1e-12

    def test_radius_cap(self):
        with pytest.raises(PrecisionError):
            li_eval((2,), 0.999, 1e-6)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            li_eval((2,), 0.5, 0.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-10])
    def test_against_mpmath(self, eps):
        """Li_s for s = 1..4 and Li_(1,1) = log(1-z)^2 / 2 at random |z| <= 0.9."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2021)
        with mpmath.workdps(30):
            for _ in range(40):
                z = cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
                for s in range(1, 5):
                    assert abs(li_eval((s,), z, eps) - complex(mpmath.polylog(s, z))) <= eps
                want = complex(mpmath.log(1 - mpmath.mpc(z)) ** 2 / 2)
                assert abs(li_eval((1, 1), z, eps) - want) <= eps


class TestDomRadius:
    def test_convergent_case(self):
        report = dom_radius_demo(1, F(1, 4), 60)
        assert report.converges
        assert report.closed_form == F(3, 2)
        assert report.ratio == F(1, 3)
        assert abs(report.partial_sum - report.closed_form) <= report.tail_bound

    def test_boundary_divergence(self):
        report = dom_radius_demo(1, F(1, 2), 30)
        assert not report.converges
        assert report.closed_form is None
        assert report.ratio >= 1

    def test_zero_weight(self):
        for r in (F(1, 10), F(9, 10)):
            report = dom_radius_demo(0, r, 25)
            assert report.converges
            assert report.partial_sum == 1
            assert report.closed_form == 1

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            dom_radius_demo(1, F(3, 2), 10)
        with pytest.raises(ValueError):
            dom_radius_demo(1, 0, 10)
        with pytest.raises(ValueError, match="t must be >= 0"):
            dom_radius_demo(-1, F(1, 4), 10)
        with pytest.raises(ValueError, match="m_cap must be >= 0"):
            dom_radius_demo(1, F(1, 4), -1)


def _naive_cauchy(a, b):
    n_cap = len(a) - 1
    return [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(n_cap + 1)]


def _naive_li(index, n_cap):
    """a_N = N^(-s1) H_rest(N-1), with H by enumeration over N-1 >= n2 > ... > nr >= 1."""
    if not index:
        return [F(1)] + [F(0)] * n_cap
    out = [F(0)]
    for n in range(1, n_cap + 1):
        h = F(0)
        for ns in combinations(range(n - 1, 0, -1), len(index) - 1):
            term = F(1)
            for m, s in zip(ns, index[1:]):
                term *= F(m) ** -s
            h += term
        out.append(F(n) ** -index[0] * h)
    return out


class TestIntegerKernel:
    """cauchy, hadamard, div_one_minus_z and li_taylor_poly against plain Fraction loops."""

    def test_property_kernels_match_fraction_loops(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        entries = st.one_of(
            st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12)
        )
        pairs = st.integers(0, 10).flatmap(
            lambda n: st.tuples(
                st.lists(entries, min_size=n + 1, max_size=n + 1),
                st.lists(entries, min_size=n + 1, max_size=n + 1),
            )
        )

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(pairs)
        @hyp.example(([F(0)], [F(-3, 2)]))
        def kernels(pair):
            a, b = pair
            ta, tb = TaylorTrunc(tuple(a)), TaylorTrunc(tuple(b))
            assert list(cauchy(ta, tb).coeffs) == _naive_cauchy(a, b)
            assert list(hadamard(ta, tb).coeffs) == [x * y for x, y in zip(a, b)]
            running, prefix = F(0), []
            for x in a:
                running += x
                prefix.append(running)
            assert list(div_one_minus_z(ta).coeffs) == prefix

        kernels()

    def test_property_taylor_poly_is_per_word_sum(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        indices = st.lists(st.integers(1, 3), max_size=3).map(tuple)
        polys = st.dictionaries(
            indices, st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4
        )

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(polys, st.integers(0, 12))
        def per_word(terms, n_cap):
            # the X-word x0^(s1-1) x1 ... x0^(sr-1) x1 codes the index (s1, ..., sr)
            words = {
                Word(tuple(b for s in index for b in [0] * (s - 1) + [1]), X): c
                for index, c in terms.items()
            }
            expected = [F(0)] * (n_cap + 1)
            for index, c in terms.items():
                for n, a in enumerate(_naive_li(index, n_cap)):
                    expected[n] += c * a
            assert list(li_taylor_poly(NCPoly(X, words), n_cap).coeffs) == expected

        per_word()

    def test_exact_mode_rejects_non_rational_coefficients(self):
        with pytest.raises(ValueError, match="int or Fraction"):
            TaylorTrunc((0.5, 1.0))
        with pytest.raises(ValueError):
            TaylorTrunc((F(1), "2"))
        assert TaylorTrunc((1, F(1, 2))).coeffs == (1, F(1, 2))
        with pytest.raises(ValueError, match="at least the constant term"):
            TaylorTrunc(())

    def test_repr_and_foreign_equality(self):
        assert repr(TaylorTrunc((1, F(1, 2)))) == "TaylorTrunc(coeffs=(Fraction(1, 1), Fraction(1, 2)))"
        assert TaylorTrunc((1,)) != 1 and TaylorTrunc((1,)) != (F(1),)

    def test_exact_results_are_reduced_fractions(self):
        t = cauchy(li_taylor_coeffs((1,), 6), li_taylor_coeffs((2,), 6))
        assert all(type(c) is Fraction for c in t.coeffs)
        assert t.coeffs[2] == F(1, 1)
        assert str(t.coeffs[3]) == "3/4"


class TestNonFiniteFloat:
    def test_coefficient_overflow_by_multiplication(self):
        with pytest.raises(PrecisionError, match="n=366"):
            polylog_num._li_float_coeffs((-60, -60), 400)

    def test_overflowing_weight_names_first_infinite_coefficient(self):
        with pytest.raises(PrecisionError, match="n=6"):
            polylog_num._li_float_coeffs((-400,), 60)
        # a_6 of Li_(1,-400) is about 6.5e278; the weight 6^400 of the suffix first enters a_7
        assert all(map(math.isfinite, polylog_num._li_float_coeffs((1, -400), 6)))
        with pytest.raises(PrecisionError, match="n=7"):
            polylog_num._li_float_coeffs((1, -400), 8)

    def test_sum_overflow(self, monkeypatch):
        def huge(index, m):
            return [0.0] + [1e308] * m

        # every coefficient is finite, but their sum at z = 0.9 exceeds the float range
        monkeypatch.setattr(polylog_num, "_li_float_coeffs", huge)
        with pytest.raises(PrecisionError):
            li_eval((1,), 0.9, 1e-6)
