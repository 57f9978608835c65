import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from polylog import checks, harmonic, nc_core
from polylog.checks import h_stuffle_check
from polylog.cli import main
from polylog.dense import NPoly
from polylog.coding import pi_y
from polylog.harmonic import (
    h_negindex_closed_form,
    h_poly_eval,
    h_poly_table,
    h_series_table,
    h_signed_eval,
    h_signed_table,
    h_word_eval,
    h_word_table,
    h_x1star_closed_form,
)
from polylog.nc_core import AlphabetError, InvalidIndexError, NCPoly, Word, X, Y, x_word, y_word
from polylog.polylog_num import li_taylor_coeffs, li_taylor_poly
from polylog.products import conc, stuffle
from polylog.stars import X1StarPoly, x1star_poly_expand

F = Fraction

# a fresh interpreter imports this checkout's package first and keeps the rest of PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_FRESH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


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

    def test_reduced(self):
        p = NPoly([0, 6, -4], 10).reduced()
        assert (p.nums, p.den) == ((0, 3, -2), 5)
        assert (NPoly([], 7).reduced().den, NPoly([3], 2).reduced().den) == (1, 2)


@pytest.mark.parametrize("n", [-1, -2])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: h_poly_eval(NCPoly.from_word(y_word(1)), n),
        lambda n: h_poly_table(NCPoly.from_word(y_word(1)), n),
        lambda n: h_signed_table((1,), n),
        lambda n: h_signed_eval((2, -1), n),
        lambda n: h_signed_eval((), n),
        lambda n: h_word_table(y_word(2, 1), n),
        lambda n: h_word_table(Word((), Y), n),
        lambda n: h_word_eval(y_word(1), n),
    ],
    ids=[
        "poly_eval", "poly_table", "signed_table", "signed_eval", "signed_eval_empty",
        "word_table", "empty_word", "word_eval",
    ],
)
def test_negative_n_is_refused(call, n):
    with pytest.raises(ValueError):
        call(n)


def refusal_in_fresh_process(call: str) -> str:
    """The ValueError message of ``call``, run in a fresh interpreter under a timeout and a 1 GiB address space.

    The memo is warmed first, and the probe asserts that the refusal leaves the
    memo account's bytes and the column cache as they were.  A call that answers
    prints nothing.
    """
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from polylog import harmonic\n"
        "from polylog.harmonic import h_poly_eval, h_poly_table, h_signed_eval, h_signed_table, h_word_eval, h_word_table\n"
        "from polylog.nc_core import NCPoly, Word, X, Y, memo_account, x_word\n"
        "from polylog.negindex import li_nonpositive_stars\n"
        "from polylog.polylog_num import li_taylor_coeffs, li_taylor_poly\n"
        "h_word_table(Word((2, 1), Y), 30)\n"
        "before = memo_account.bytes, len(harmonic._HVEC_CACHE)\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "assert before[0] and (memo_account.bytes, len(harmonic._HVEC_CACHE)) == before\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=_FRESH_ENV, capture_output=True, text=True, timeout=30)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


_PAST_BITS = "weights of about {} bits at N = {} are above MAX_TERMS = 1000000"
_PAST_MEMO = "cached vectors of about 100014600084 bytes at N = 500001 are above MEMO_BYTES = 67108864"


@pytest.mark.parametrize(
    "call,message",
    [
        ("h_signed_eval((3000000,), 2)", _PAST_BITS.format(3000000, 2)),
        ("h_word_eval(Word((3000000,), Y), 2)", _PAST_BITS.format(3000000, 2)),
        ("h_signed_table((3000000,), 2)", _PAST_BITS.format(3000000, 2)),
        ("h_signed_table((), 10**12)", "N * depth = 1000000000000 * 1 is above MAX_TERMS = 1000000"),
        ("h_word_table(Word((3000000,), Y), 2)", _PAST_BITS.format(3000000, 2)),
        ("h_word_table(Word((), Y), 10**12)", "N * depth = 1000000000000 * 1 is above MAX_TERMS = 1000000"),
        # a polynomial is estimated by its heaviest word: depth from its length, bits from its weight
        ("h_poly_table(NCPoly.from_word(Word((1, 3000000), Y)), 3)", _PAST_BITS.format(6000002, 3)),
        ("h_poly_eval(NCPoly.from_word(Word((1, 1), Y)), 500001)", "N * depth = 500001 * 2 is above MAX_TERMS = 1000000"),
        ("h_poly_table(NCPoly.zero(Y), 10**12)", "N * depth = 1000000000000 * 1 is above MAX_TERMS = 1000000"),
        # the cached tables: within both MAX_TERMS estimates, but N + 1 numbers of 10**6 bits pass MEMO_BYTES
        ("h_word_table(Word((2,), Y), 500001)", _PAST_MEMO),
        ("h_poly_table(NCPoly.from_word(Word((2,), Y)), 500001)", _PAST_MEMO),
        ("h_poly_eval(NCPoly.from_word(Word((2,), Y)), 500001)", _PAST_MEMO),
    ],
    ids=[
        "signed_eval", "word_eval", "signed_table", "signed_table_empty", "word_table", "word_table_empty",
        "poly_table", "poly_eval", "poly_table_zero", "word_table_memo", "poly_table_memo", "poly_eval_memo",
    ],
)
def test_refused_past_max_terms_before_any_work(call, message):
    assert refusal_in_fresh_process(call) == message


@pytest.mark.parametrize(
    "call,values",
    [
        # at N = 2 an entry s carries |s| weight bits: 10**6 of them is at MAX_TERMS
        (lambda: h_signed_table((1_000_000,), 2), [0, 1, 1 + F(1, 2**1_000_000)]),
        (lambda: h_word_table(Word((1_000_000,), Y), 2), [0, 1, 1 + F(1, 2**1_000_000)]),
        (lambda: h_poly_table(NCPoly.from_word(Word((1, 999_999), Y)), 2), [0, 0, F(1, 2)]),
        (lambda: [h_poly_eval(NCPoly.from_word(Word((1, 999_999), Y)), 2)], [F(1, 2)]),
    ],
    ids=["signed_table", "word_table", "poly_table", "poly_eval"],
)
def test_at_max_terms_answers(call, values):
    assert call() == values


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

    def test_weight_bits_refused_past_max_terms(self):
        # at N = 2 the weights of an entry s carry |s| bits: 10**6 is at MAX_TERMS, one more is past it
        assert h_signed_eval((1_000_000,), 2) == 1 + F(1, 2**1_000_000)
        assert h_signed_eval((-1_000_000,), 2) == 1 + 2**1_000_000
        for s in (1_000_001, -1_000_001):
            with pytest.raises(ValueError) as raised:
                h_signed_eval((s,), 2)
            assert str(raised.value) == "weights of about 1000001 bits at N = 2 are above MAX_TERMS = 1000000"
        assert h_signed_eval((10**20,), 1) == h_signed_eval((-(10**20),), 1) == 1  # no weight bits at N <= 1

    def test_property_power_sums_match_a_plain_sum(self):
        # H_(-t)(N) runs over odd powers with shifts: N at, one below and one above each power of two too
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        edges = [2**j + d for j in range(12) for d in (-1, 0, 1)]

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.integers(1, 40), st.one_of(st.sampled_from(edges), st.integers(0, 2000)))
        @hyp.example(1, 0)
        @hyp.example(40, 2000)
        def agree(t, n):
            assert h_signed_eval((-t,), n) == sum(k**t for k in range(1, n + 1))

        agree()

    def test_large_power_sum_and_its_admission(self):
        assert h_signed_eval((-2000,), 200) == sum(k**2000 for k in range(1, 201))
        assert h_signed_eval((F(-2),), 10) == 385  # an integral Fraction entry reads as its int
        with pytest.raises(ValueError) as raised:
            h_signed_eval((-2,), -1)
        assert str(raised.value) == "n_cap must be >= 0"
        with pytest.raises(TypeError) as raised:
            h_signed_eval((-2.0,), 5)
        assert str(raised.value) == "index entries must be integers, got (-2.0,)"

    def test_property_short_indices_match_a_nested_sum(self):
        # an index of one entry streams as one C iterator, of none or two in the row loop
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-4, 4), max_size=2), st.integers(0, 200))
        @hyp.example([], 0)
        @hyp.example([-3], 0)
        @hyp.example([2, -1], 0)
        @hyp.example([4, 4], 200)
        @hyp.example([-4, -4], 200)
        def agree(index, n):
            # H_(s, rest)(m) = sum_(k <= m) k^(-s) H_rest(k - 1), and H_()(m) = 1, on Fractions
            table = [F(1)] * (n + 1)
            for s in reversed(index):
                inner, table = table, [F(0)]
                for k in range(1, n + 1):
                    table.append(table[-1] + F(k) ** -s * inner[k - 1])
            assert h_signed_table(index, n) == table
            assert h_signed_eval(index, n) == table[-1]

        agree()

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

    def test_property_matches_the_rising_product_sum(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        def rising_product_sum(s):
            """sum_k c_k (N+1)...(N+k)/k!, one rising product at a time."""
            out, rising = NPoly([]), NPoly([1])
            for k, c in enumerate(s.poly.padded(s.poly.degree)):
                if k:
                    rising = rising * NPoly([1, F(1, k)])  # times (N + k)/k
                out = out + rising * c
            return out

        coeffs = st.builds(F, st.integers(-40, 40), st.integers(1, 9))

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(st.dictionaries(st.integers(0, 12), coeffs, max_size=6))
        @hyp.example({})
        @hyp.example({0: F(3)})
        @hyp.example({12: F(-7, 9)})
        def agree(stars):
            s = X1StarPoly(stars)
            assert h_x1star_closed_form(s) == rising_product_sum(s)

        agree()

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

    def test_property_random_words(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        words = st.lists(st.integers(1, 4), max_size=4).map(lambda l: Word(tuple(l), Y))

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(words, words, st.integers(0, 20))
        @hyp.example(y_word(1, 1, 1, 1), y_word(1, 1), 20)  # runs of equal letters
        def character(u, v, n_max):
            assert h_stuffle_check(u, v, n_max)

        character()

    def test_longer_cached_columns(self, monkeypatch):
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        h_word_table(y_word(2, 1), 40)
        h_word_table(y_word(1), 40)
        assert h_stuffle_check(y_word(2, 1), y_word(1), 12)

    def test_wrong_product_fails(self, monkeypatch):
        # concatenation in place of stuffle: H_{y1 y1} is not H_1^2
        monkeypatch.setattr(checks.products, "stuffle", conc)
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
        @hyp.example([], 0)
        # N = 0 and the block edges of the leading-entry sum, for s1 > 0 (blocks of 32) and s1 <= 0 (one block)
        @hyp.example([2, -1], 0)
        @hyp.example([1], 31)
        @hyp.example([2, -1], 32)
        @hyp.example([1, 2, 1], 33)
        @hyp.example([3], 64)
        @hyp.example([1, 1], 65)
        @hyp.example([-1, 2], 0)
        @hyp.example([0], 31)
        @hyp.example([-1, 3], 32)
        @hyp.example([-3, 1, -1], 33)
        @hyp.example([0, 0], 64)
        @hyp.example([-2, 1], 65)
        def agree(index, n):
            expected = _brute_h(index, n)
            assert h_signed_eval(index, n) == expected
            assert h_signed_table(index, n)[n] == expected

        agree()

    def test_property_block_sum_is_exact(self):
        # N at, one below and one above 1, 2 and 3 block lengths of the leading-entry sum
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        edges = [k * harmonic._BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)]

        @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @hyp.given(
            st.lists(st.integers(-3, 4), max_size=4),
            st.one_of(st.sampled_from(edges), st.integers(0, 300)),
        )
        @hyp.example([4, 4, 4, 4], 3)  # N < depth
        @hyp.example([], 3 * harmonic._BLOCK)
        # the largest shapes of the benchmark's h-eval requests
        @hyp.example([4, -1], 1988)
        @hyp.example([3, -1], 1926)
        def exact(index, n):
            assert h_signed_eval(index, n) == h_signed_table(index, n)[n]

        exact()

    def test_stream_memory_stays_small(self):
        # no list of rows: the tail rows stream and the block sums merge into O(log N) numbers
        tracemalloc.start()
        try:
            h_signed_eval((1, 2), 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_deep_index_costs_no_c_stack(self):
        # in a fresh interpreter, so that a C stack overflow fails the test and not the run
        probe = (
            "import threading\n"
            "from polylog.harmonic import h_signed_eval, h_signed_table\n"
            "assert h_signed_eval((1,) * 200_000, 2) == h_signed_eval((1,) * 200_000, 0) == 0\n"
            "assert h_signed_table((1,) * 200_000, 2) == [0, 0, 0]\n"
            # 998 rows of a 1000-entry tail, as deep as MAX_TERMS lets h-eval go, on a 64 KiB stack
            "threading.stack_size(1 << 16)\n"
            "out = []\n"
            "t = threading.Thread(target=lambda: out.append(h_signed_eval((0,) * 1001, 999)))\n"
            "t.start(); t.join()\n"
            "assert out == [0], out\n"
        )
        run = subprocess.run([sys.executable, "-c", probe], env=_FRESH_ENV, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr

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

    def test_property_columns_from_weight_rows_match_the_oracle(self, monkeypatch):
        # the memoized columns against h_signed_table, which weighs on its own; then again from emptied tables
        # under a bound that empties them again and again while columns are built
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        indices = st.lists(st.integers(-3, 4), max_size=4).map(tuple)
        cases = st.lists(st.tuples(indices, st.integers(0, 120)), max_size=4)
        default = nc_core.MEMO_BYTES

        @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hyp.given(cases)
        @hyp.example([((4, -3, 4), 120), ((-3, 4), 119), ((4,), 120), ((), 0)])
        def agree(cases):
            want = [tuple(h_signed_table(index, n)) for index, n in cases]
            for bound in (default, 2048):
                monkeypatch.setattr(nc_core, "MEMO_BYTES", bound)
                for clear in nc_core.memo_account.tables:
                    clear()
                assert [harmonic._h_vector(index, n).padded(n) for index, n in cases] == want

        clears = nc_core.memo_account.clears
        agree()
        assert nc_core.memo_account.clears > clears

    def test_cache_extension_order(self, monkeypatch):
        # Li's vectors of (1, 2, 1, 3) read the column of the tail (2, 1, 3): a short column, a longer one
        # replacing it, a request the longer one serves, then one entry past the cached column
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        for clear in nc_core.memo_account.tables:
            clear()
        for n in (5, 40, 10, 41):
            vector = li_taylor_coeffs((1, 2, 1, 3), n).coeffs
            assert vector == tuple(F(_brute_h((2, 1, 3), k - 1), k) if k else F(0) for k in range(n + 1))
        assert len(harmonic._HVEC_CACHE[(2, 1, 3)]) == 42

    def test_poly_table_caches_only_proper_suffixes(self, monkeypatch):
        # from emptied tables, a polynomial table, Li's vector, a word table and the stuffle character read the
        # tail columns of their words, never their full columns
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        u, v = y_word(2, 1), y_word(3, 1, 2)
        q = stuffle(NCPoly.from_word(u), NCPoly.from_word(v))

        def cached(call, *args):
            for clear in nc_core.memo_account.tables:
                clear()
            return call(*args), set(harmonic._HVEC_CACHE)

        def suffixes(*words):
            return {w.letters[k:] for w in words for k in range(1, len(w))}

        table, keys = cached(h_poly_table, q, 12)
        assert table == [sum(c * _brute_h(w.letters, n) for w, c in q.items()) for n in range(13)]
        assert keys and keys <= suffixes(*q.support())
        assert (3, 1, 2, 2, 1) not in keys
        for w in (u, v):
            table, keys = cached(h_word_table, w, 12)
            assert table == [_brute_h(w.letters, n) for n in range(13)]
            assert keys and keys <= suffixes(w)
            _, keys = cached(li_taylor_coeffs, w.letters, 12)
            assert keys and keys <= suffixes(w)
        checked, keys = cached(h_stuffle_check, u, v, 12)
        assert checked and keys and keys <= suffixes(*q.support())
        checked, keys = cached(h_stuffle_check, Word((), Y), v, 12)  # the stuffle is v alone
        assert checked and keys and keys <= suffixes(v)

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


class TestSeriesTable:
    """H of a rational series read off its linear representation, with no word expanded."""

    def test_property_stuffle_representation_matches_the_word_product(self):
        # the word path the mixed suite took before: expand the star to depth N, stuffle y_s in, sum per word
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        stars = st.dictionaries(st.integers(0, 4), coeffs, max_size=4)

        @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hyp.given(st.integers(1, 4), stars, st.integers(0, 15))
        @hyp.example(2, {0: F(1, 2), 1: -1, 3: F(2, 3)}, 15)
        def agree(s, terms, n):
            star = X1StarPoly(terms)
            words = stuffle(NCPoly.from_word(y_word(s)), pi_y(x1star_poly_expand(star, n)))
            assert h_series_table(*checks._star_stuffle_representation(s, star), n) == h_poly_table(words, n)

        agree()

    def test_property_matches_the_oracle(self):
        # a signed index is the chain (j, s_j, j + 1, 1); y_s st S is a character: H_(y_s st S) = H_(y_s) H_S
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        stars = st.dictionaries(st.integers(0, 4), coeffs, max_size=4)

        @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-2, 3), max_size=4), st.integers(1, 4), stars, st.integers(0, 20))
        @hyp.example([3, -2, 0, 1], 1, {1: 1, 2: -1}, 20)
        def agree(index, s, terms, n):
            r = len(index)
            chain = [1] + [0] * r, [(j, e, j + 1, 1) for j, e in enumerate(index)], [0] * r + [1]
            assert h_series_table(*chain, n) == h_signed_table(index, n)
            star = X1StarPoly(terms)
            closed = h_x1star_closed_form(star)
            want = [h * closed.eval(m) for m, h in enumerate(h_signed_table((s,), n))]
            assert h_series_table(*checks._star_stuffle_representation(s, star), n) == want

        agree()

    def test_admission(self):
        initial, transitions, final = checks._star_stuffle_representation(1, X1StarPoly({1: 1, 2: -1}))
        with pytest.raises(ValueError, match="n_cap must be >= 0"):
            h_series_table(initial, transitions, final, -1)
        with pytest.raises(TypeError, match="index entries must be integers"):
            h_series_table([1], [(0, 2.0, 0, 1)], [1], 3)
        # two orders, four transitions each; refused before any step, which would fail on the unreadable final vector
        with pytest.raises(ValueError, match=r"^N \* depth = 1000000 \* 8 is above MAX_TERMS = 1000000$"):
            h_series_table(initial, transitions, None, 10**6)

    def test_mixed_suite_caches_nothing(self, monkeypatch, capsys):
        monkeypatch.setattr(harmonic, "_POLY_VECTORS", {})
        monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
        assert main(["verify", "--suite", "mixed", "--ncap", "60", "--json"]) == 0
        assert [r["status"] for r in json.loads(capsys.readouterr().out)] == ["pass"] * 9
        assert harmonic._POLY_VECTORS == {} and harmonic._HVEC_CACHE == {}
