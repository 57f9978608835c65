import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from polylog import checks, harmonic
from polylog.cli import main
from polylog.harmonic import (
    NPoly,
    h_negindex_closed_form,
    h_poly_eval,
    h_poly_table,
    h_signed_eval,
    h_signed_table,
    h_stuffle_check,
    h_word_eval,
    h_word_table,
    h_x1star_closed_form,
)
from polylog.nc_core import AlphabetError, InvalidIndexError, NCPoly, Word, X, Y, x_word, y_word
from polylog.polylog_num import li_taylor_poly
from polylog.products import conc, stuffle
from polylog.stars import X1StarPoly

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


class TestNPoly:
    def test_trimming_and_equality(self):
        assert NPoly([1, 2, 0]) == NPoly([1, 2])
        assert NPoly([]) == NPoly([0])

    def test_eval(self):
        p = NPoly([0, F(1, 2), F(1, 2)])
        assert p.eval(3) == 6

    def test_arithmetic(self):
        p = NPoly([1, 1])
        q = NPoly([0, 1])
        assert p * q == NPoly([0, 1, 1])
        assert p - p == NPoly([])
        assert 2 * p == NPoly([2, 2])

    def test_from_monomials(self):
        assert NPoly.from_monomials({2: F(1, 2), 0: -1}) == NPoly([-1, 0, F(1, 2)])


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: h_poly_eval(NCPoly.from_word(y_word(1)), n),
        lambda n: h_poly_table(NCPoly.from_word(y_word(1)), n),
        lambda n: h_signed_table((1,), n),
        lambda n: h_signed_eval((2, -1), n),
        lambda n: h_word_table(y_word(2, 1), n),
        lambda n: h_word_table(Word((), Y), n),
        lambda n: h_word_eval(y_word(1), n),
    ],
    ids=["poly_eval", "poly_table", "signed_table", "signed_eval", "word_table", "empty_word", "word_eval"],
)
def test_negative_n_is_refused(call, n):
    with pytest.raises(ValueError):
        call(n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_word_eval(x_word("1"), 3),
        lambda: h_word_table(x_word("1"), 3),
        lambda: h_poly_eval(NCPoly.from_word(x_word("1")), 3),
    ],
    ids=["word_eval", "word_table", "poly_eval"],
)
def test_x_side_is_refused(call):
    with pytest.raises(AlphabetError, match="harmonic sums are indexed by Y-"):
        call()


class TestHWordEval:
    def test_harmonic_number(self):
        assert h_word_eval(y_word(1), 3) == F(11, 6)

    def test_empty_sum(self):
        assert h_word_eval(y_word(2, 1), 0) == 0

    def test_unit_word(self):
        for n in (0, 1, 5):
            assert h_word_eval(Word((), Y), n) == 1

    def test_depth_support(self):
        for w in _y_words(4):
            depth = len(w.letters)
            for n in range(0, 6):
                value = h_word_eval(w, n)
                if n < depth:
                    assert value == 0
                else:
                    assert value > 0

    def test_table_matches_pointwise(self):
        for w in _y_words(4):
            table = h_word_table(w, 12)
            assert table == [h_word_eval(w, n) for n in range(13)]


class TestHSignedEval:
    def test_power_sum(self):
        assert h_signed_eval((-1,), 4) == 10

    def test_nested_example(self):
        assert h_signed_eval((-2, -1), 3) == 31

    def test_mixed_example(self):
        assert h_signed_eval((1, -1), 3) == F(3, 2)

    def test_table(self):
        assert h_signed_table((-1,), 4) == [0, 1, 3, 6, 10]

    def test_agrees_with_word_eval_on_positive(self):
        rng = random.Random(89)
        for _ in range(30):
            letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            n = rng.randint(0, 10)
            assert h_signed_eval(letters, n) == h_word_eval(Word(letters, Y), n)


class TestHPolyEval:
    def test_scaling(self):
        assert h_poly_eval(NCPoly.from_word(y_word(1)) * 2, 2) == 3

    def test_unit(self):
        assert h_poly_eval(NCPoly.one(Y), 9) == 1

    def test_morphism_instance(self):
        y1 = NCPoly.from_word(y_word(1))
        assert h_poly_eval(stuffle(y1, y1), 2) == F(9, 4)

    def test_table_linear(self):
        q = NCPoly.from_word(y_word(2)) - NCPoly.from_word(y_word(1, 1)) * F(1, 3)
        table = h_poly_table(q, 10)
        for n in range(11):
            expected = h_word_eval(y_word(2), n) - F(1, 3) * h_word_eval(y_word(1, 1), n)
            assert table[n] == expected


class TestClosedForms:
    def test_x1star(self):
        assert h_x1star_closed_form(X1StarPoly.star(1)) == NPoly([1, 1])

    def test_x1star_minus_one(self):
        assert h_x1star_closed_form(X1StarPoly({1: 1, 0: -1})) == NPoly([0, 1])

    def test_counting_square(self):
        got = h_x1star_closed_form(X1StarPoly({2: 1, 1: -1}))
        assert got == NPoly([0, F(1, 2), F(1, 2)])

    def test_depth_two_closed_form(self):
        stars = X1StarPoly({5: 12, 4: -33, 3: 31, 2: -11, 1: 1})
        expected = NPoly.from_monomials(
            {5: F(1, 10), 4: F(1, 8), 3: F(-1, 12), 2: F(-1, 8), 1: F(-1, 60)}
        )
        assert h_x1star_closed_form(stars) == expected

    def test_negindex_pipeline_simple(self):
        assert h_negindex_closed_form((0,)) == NPoly([0, 1])
        assert h_negindex_closed_form((-1,)) == NPoly([0, F(1, 2), F(1, 2)])

    def test_negindex_pipeline_depth_three(self):
        expected = NPoly.from_monomials(
            {
                6: F(1, 72),
                5: F(-1, 40),
                4: F(-1, 36),
                3: F(1, 24),
                2: F(1, 72),
                1: F(-1, 60),
            }
        )
        assert h_negindex_closed_form((-1, 0, -2)) == expected

    def test_positive_entry_rejected(self):
        with pytest.raises(InvalidIndexError):
            h_negindex_closed_form((0, 2))

    def test_degree_and_constant_term(self):
        def index_lists(budget):
            out = [()]
            for first in range(0, budget):
                for rest in index_lists(budget - first - 1):
                    out.append((-first,) + rest)
            return out

        for index in index_lists(7):
            if not index:
                continue
            poly = h_negindex_closed_form(index)
            size = len(index) + sum(-s for s in index)
            assert poly.degree == size
            assert poly.eval(0) == 0

    def test_matches_oracle(self):
        def index_lists(budget):
            out = [()]
            for first in range(0, budget):
                for rest in index_lists(budget - first - 1):
                    out.append((-first,) + rest)
            return out

        for index in index_lists(6):
            if not index:
                continue
            poly = h_negindex_closed_form(index)
            oracle = h_signed_table(index, 40)
            assert all(poly.eval(n) == oracle[n] for n in range(41))

    def test_matches_taylor_prefix_sums(self):
        # the closed form agrees with the prefix sums of the Taylor
        # coefficients of the star combination's rational function
        from polylog.negindex import li_nonpositive, ratfunc_to_x1star

        for index in [(0,), (-1,), (0, 0), (-2, -1), (-2, -2), (-1, 0, -2)]:
            f = li_nonpositive(index)
            poly = h_x1star_closed_form(ratfunc_to_x1star(f))
            run = F(0)
            for n, a in enumerate(f.taylor_coeffs(50)):
                run += a
                assert poly.eval(n) == run


class TestSympyOracle:
    """Closed forms in N against sympy's nested summation, an oracle outside this package."""

    @pytest.mark.parametrize(
        "index",
        # (-3,-3) is the table row whose N-polynomial KNOWN_NONPOSITIVE leaves as None
        [(0,), (-3,), (-3, -3), (-1, -2), (-3, -1), (0, 0, 0), (-1, -1, -1), (-2, 0, -1)],
    )
    def test_closed_form_matches_nested_summation(self, index):
        sp = pytest.importorskip("sympy")
        big_n = sp.Symbol("N", integer=True, nonnegative=True)
        n = [sp.Symbol(f"n{i}", integer=True, positive=True) for i in range(len(index))]
        # H_s(N) = sum_{N >= n0 > n1 > ... >= 1} prod n_i^(-s_i), summed from the innermost out
        expr = sp.Integer(1)
        for i in reversed(range(len(index))):
            expr = sp.summation(n[i] ** (-index[i]) * expr, (n[i], 1, n[i - 1] - 1 if i else big_n))
        want = sp.Poly(sp.expand(expr), big_n).all_coeffs()[::-1]
        assert h_negindex_closed_form(index).coeffs == tuple(F(int(c.p), int(c.q)) for c in want)


class TestStuffleCharacter:
    def test_simple_pair(self):
        assert h_stuffle_check(y_word(1), y_word(1), 10)

    def test_euler_pair(self):
        assert h_stuffle_check(y_word(2), y_word(3), 30)

    def test_unit(self):
        assert h_stuffle_check(Word((), Y), y_word(2, 1), 10)

    def test_low_weight_exhaustive(self):
        words = _y_words(4)
        for u in words:
            for v in words:
                assert h_stuffle_check(u, v, 30)

    def test_longer_cached_columns(self, monkeypatch):
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        h_word_table(y_word(2, 1), 40)
        h_word_table(y_word(1), 40)
        assert h_stuffle_check(y_word(2, 1), y_word(1), 12)

    def test_wrong_product_fails(self, monkeypatch):
        # concatenation in place of stuffle: H_{y1 y1} is not H_1^2
        monkeypatch.setattr(harmonic, "stuffle", conc)
        assert not h_stuffle_check(y_word(1), y_word(1), 10)
        assert not h_stuffle_check(y_word(2), y_word(1), 10)


class TestMixedExamples:
    def test_all_pass(self):
        results = [check.run() for check in checks.suite_mixed(25)]
        assert len(results) == 9
        assert all(r.passed for r in results), [r.name for r in results if not r.passed]

    def test_identity_values_at_three(self):
        # H of (1/2)(2x1)* - x1* + 1/2 equals 1/4 N^2 - 1/4 N, which is 3/2 at N=3
        poly = h_x1star_closed_form(X1StarPoly({2: F(1, 2), 1: -1, 0: F(1, 2)}))
        assert poly == NPoly([0, F(-1, 4), F(1, 4)])
        assert poly.eval(3) == F(3, 2)
        assert h_signed_eval((1, -1), 3) == F(3, 2)

    def test_depth_two_reciprocal_square(self):
        poly = h_x1star_closed_form(
            X1StarPoly({3: F(2, 3), 2: F(-3, 2), 1: 1, 0: F(-1, 6)})
        )
        assert poly == NPoly([0, F(-1, 36), F(-1, 12), F(1, 9)])

    def test_trivial_cap(self):
        assert all(checks.mixed_identity_failure(row, 0) is None for row in checks.mixed_identities())

    def test_report_serialization(self, capsys):
        assert main(["verify", "--suite", "mixed", "--ncap", "5", "--json"]) == 0
        entry = json.loads(capsys.readouterr().out)[0]
        assert entry["check"] == "mixed[sum 1/n1 sum n2] N<=5"
        assert entry["status"] == "pass" and entry["detail"] == ""


def _brute_h(index, n):
    """Nested sum over n >= n1 > ... > nr >= 1 of prod n_i^(-s_i), by enumeration."""
    total = F(0)
    for ns in combinations(range(n, 0, -1), len(index)):
        term = F(1)
        for m, s in zip(ns, index):
            term *= F(m) ** -s
        total += term
    return total


class TestIntegerColumns:
    """The integer columns and streams against brute-force nested sums."""

    def test_property_stream_table_and_brute_force_agree(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-3, 3), max_size=3), st.integers(0, 25))
        @hyp.example([], 7)
        def agree(index, n):
            expected = _brute_h(index, n)
            assert h_signed_eval(index, n) == expected
            assert h_signed_table(index, n)[n] == expected

        agree()

    def test_property_poly_table_is_per_word_sum(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        y_polys = st.dictionaries(
            st.lists(st.integers(1, 3), max_size=3).map(lambda l: Word(tuple(l), Y)),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            max_size=4,
        )

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(y_polys, st.integers(0, 12))
        # the words led by 2 have coefficients summing to zero; the empty word stands alone
        @hyp.example({Word((2, 1), Y): F(1), Word((2,), Y): F(-1), Word((), Y): F(2)}, 6)
        def per_word(terms, n_max):
            table = h_poly_table(NCPoly(Y, terms), n_max)
            expected = [
                sum((c * _brute_h(w.letters, n) for w, c in terms.items()), F(0))
                for n in range(n_max + 1)
            ]
            assert table == expected

        per_word()

    def test_cache_extension_order(self, monkeypatch):
        # a short column, a longer one replacing it, a request the longer one
        # serves, then one entry past the cached column
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        words = [y_word(2, 1, 3), y_word(1, 2), y_word(3)]
        for n in (5, 40, 10, 41):
            for w in words:
                table = h_word_table(w, n)
                assert len(table) == n + 1
                assert table == [_brute_h(w.letters, k) for k in range(n + 1)]
        assert len(harmonic._HVEC_CACHE[(2, 1, 3)]) == 42

    def test_poly_table_caches_only_proper_suffixes(self, monkeypatch):
        # a polynomial table reads the tail columns of its words, never their full columns
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        q = stuffle(NCPoly.from_word(y_word(2, 1)), NCPoly.from_word(y_word(3, 1, 2)))
        table = h_poly_table(q, 12)
        assert table == [sum(c * _brute_h(w.letters, n) for w, c in q.items()) for n in range(13)]
        suffixes = {w.letters[k:] for w, _ in q.items() for k in range(1, len(w))}
        assert harmonic._HVEC_CACHE and set(harmonic._HVEC_CACHE) <= suffixes
        assert (3, 1, 2, 2, 1) not in harmonic._HVEC_CACHE

    def test_property_grouped_taylor_map(self):
        # indices sharing a leading entry, groups cancelled by a negated copy, the
        # empty index, and non-positive entries, which only the signed map accepts
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        tails = st.lists(st.integers(-2, 3), max_size=2)
        draws = st.lists(st.tuples(coeffs, tails, st.booleans(), st.booleans()), max_size=5)

        def naive_li(index, n):
            """a_n = n^(-s1) H_(s2..sr)(n-1), by enumeration; the empty index is 1."""
            if not index:
                return F(n == 0)
            return F(n) ** -index[0] * _brute_h(index[1:], n - 1) if n else F(0)

        def x_word_of(index):
            return Word(tuple(b for s in index for b in [0] * (s - 1) + [1]), X)

        # the group led by 3 cancels whole; the empty index and (2,) stand alone
        whole = [(F(1), [1], True, True), (F(1, 3), [3], True, True)]

        @hyp.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hyp.given(draws, st.integers(-2, 3), st.integers(0, 10))
        @hyp.example(whole + [(F(2), [], False, False), (F(-1), [2], False, False)], 3, 6)
        @hyp.example([(F(1, 2), [], False, False), (F(-1), [0], True, False)], -1, 4)
        def agree(draws, lead, n):
            pairs = []  # (coefficient, signed index); a cancelled draw comes with its negation
            for c, tail, shared, cancelled in draws:
                index = (lead, *tail) if shared else tuple(tail)
                pairs += [(c, index), (-c, index)] if cancelled else [(c, index)]
            li = [sum((c * naive_li(i, k) for c, i in pairs), F(0)) for k in range(n + 1)]
            assert list(harmonic._taylor_map(pairs, n).padded(n)) == li
            pos = [(c, i) for c, i in pairs if all(s > 0 for s in i)]
            li = [sum((c * naive_li(i, k) for c, i in pos), F(0)) for k in range(n + 1)]
            x_poly = NCPoly(X, [(x_word_of(i), c) for c, i in pos])
            assert list(li_taylor_poly(x_poly, n).coeffs) == li

        agree()
