import cmath
import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from polylog import checks, cli, harmonic, nc_core, negindex, polylog_num
from polylog.checks import (
    check_derivative_recursion,
    check_hadamard_identity,
    check_shuffle_morphism,
    dom_radius_demo,
)
from polylog.coding import pi_y
from polylog.dense import NPoly
from polylog.harmonic import _li_vector, _taylor_map, h_poly_eval, h_poly_table, h_signed_eval, h_signed_table, h_word_table
from polylog.nc_core import AlphabetError, NCPoly, NotInImageError, Word, X, Y, memo_account, x_word, y_word
from polylog.words import index_from_word
from polylog.polylog_num import (
    PrecisionError,
    TaylorTrunc,
    cauchy,
    check_surjection_lemma,
    div_one_minus_z,
    hadamard,
    li_eval,
    li_taylor_coeffs,
    li_taylor_poly,
    _stirling2_rows,
    stirling2,
)
from polylog.products import conc, shuffle, stuffle
from test_harmonic import refusal_in_fresh_process

F = Fraction
_PAST_MEMO = "cached vectors of about 100014600084 bytes at N = 500001 are above MEMO_BYTES = 67108864"


def _float_coeffs(index, n_cap):
    """The doubles of ``li-coeffs --float``, or its JSON error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["li-coeffs", "--float", "--", ",".join(map(str, index)) or "()", str(n_cap)])
    payload = json.loads(out.getvalue())
    assert (code, "error" in payload) in ((0, False), (2, True))
    return payload.get("coeffs", payload)


def _y_words(max_weight):
    def comps(total):
        if total == 0:
            return [()]
        return [(f,) + rest for f in range(1, total + 1) for rest in comps(total - f)]

    out = [Word((), Y)]
    for w in range(1, max_weight + 1):
        out.extend(Word(c, Y) for c in comps(w))
    return out


def _empty_tables(monkeypatch):
    for clear in memo_account.tables:
        clear()
    monkeypatch.setattr(memo_account, "bytes", 0)


def _recording_taylor_map(monkeypatch):
    """The N of every harmonic._taylor_map call from here on: the builds that did work."""
    built, taylor_map = [], harmonic._taylor_map
    monkeypatch.setattr(harmonic, "_taylor_map", lambda terms, n: built.append(n) or taylor_map(terms, n))
    return built


@pytest.mark.parametrize("n_cap", [-1, -2])
@pytest.mark.parametrize(
    "series",
    [
        lambda n: li_taylor_coeffs((2, 1), n),
        lambda n: li_taylor_coeffs((), n),
        lambda n: li_taylor_poly(NCPoly.from_word(x_word("01")), n),
        lambda n: li_taylor_poly(NCPoly.one(X), n),
        lambda n: h_signed_eval((2, 1), n),
        lambda n: h_signed_eval((), n),
        lambda n: h_signed_table((-1, 2), n),
        lambda n: h_word_table(y_word(2, 1), n),
        lambda n: h_poly_table(NCPoly.zero(Y), n),
        lambda n: h_poly_table(NCPoly.from_word(y_word(3), 2), n),
        lambda n: h_poly_table(stuffle(NCPoly.from_word(y_word(2)), NCPoly.from_word(y_word(1))), n),
    ],
    ids=["coeffs", "coeffs_empty_index", "poly", "poly_constant", "eval", "eval_empty", "table", "word_table",
         "poly_table_zero", "poly_table_one_word", "poly_table_many_words"],
)
def test_negative_cap_is_refused(monkeypatch, series, n_cap):
    # one text from the one admission, for the oracles and for each builder's miss, before any work
    built = _recording_taylor_map(monkeypatch)
    with pytest.raises(ValueError) as raised:
        series(n_cap)
    assert str(raised.value) == "n_cap must be >= 0" and not built


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
            floats = _float_coeffs(index, n_cap)
            assert len(floats) == n_cap + 1 and all(type(b) is float for b in floats)
            # correctly rounded: each double is the nearest one to its exact coefficient
            assert floats == [float(a) for a in exact]

        tracks()

    def test_float_coeffs_edges(self):
        assert _float_coeffs((), 3) == [1.0, 0.0, 0.0, 0.0]
        assert _float_coeffs((2, 1), 0) == [0.0]
        assert _float_coeffs((2,), -1)["error"] == {"code": "ValueError", "message": "n_cap must be >= 0"}


def _uncached_li(index, n_cap):
    """Li's Taylor vector straight from the harmonic columns, as built before any cache."""
    return TaylorTrunc._of(_taylor_map([(1, tuple(index))], n_cap), n_cap)


class TestLiVectorCache:
    """li_taylor_coeffs serves each (cap, index) from a cache in lowest terms, bounded by the memo account."""

    def test_property_cached_vectors_are_the_uncached_ones(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hyp.given(st.lists(st.integers(-3, 4), max_size=4).map(tuple), st.integers(0, 60))
        def cached(index, n_cap):
            t, want = li_taylor_coeffs(index, n_cap), _uncached_li(index, n_cap)
            assert t == want and t.coeffs == want.coeffs
            assert math.gcd(t.poly.den, *t.poly.nums) == 1
            hits = _li_vector.cache_info().hits
            again = li_taylor_coeffs(index, n_cap)
            assert _li_vector.cache_info().hits == hits + 1
            # a fresh view of the one shared vector
            assert again is not t and again.poly is t.poly

        cached()

    def test_a_tiny_memo_bound_empties_the_table(self, monkeypatch):
        want = {n_cap: li_taylor_coeffs((2, 1), n_cap).coeffs for n_cap in range(0, 60, 3)}
        vector = _uncached_li((3, 1, 2), 60)
        monkeypatch.setattr(nc_core, "MEMO_BYTES", 2048)
        clears = memo_account.clears
        assert {n_cap: li_taylor_coeffs((2, 1), n_cap).coeffs for n_cap in want} == want
        assert memo_account.clears == clears  # a hit charges nothing
        # this vector alone charges about 4,100 bytes: the table is emptied whole, then holds it
        assert li_taylor_coeffs((3, 1, 2), 60) == vector
        assert memo_account.clears > clears
        assert _li_vector.cache_info().currsize == 1
        assert {n_cap: li_taylor_coeffs((2, 1), n_cap).coeffs for n_cap in want} == want

    def test_float_entry_is_refused_after_the_memos_hold_its_int_twin(self, monkeypatch):
        # (2, 1, 2) leaves Li's vector and the weight rows of 1 and 2, Li's vectors of (1,) and (2,), memoized (2
        # leads and is a tail entry); the keys are typed, so 2.0 reads neither, weighs by float and is refused
        for clear in memo_account.tables:
            clear()
        monkeypatch.setattr(memo_account, "bytes", 0)
        for index in ((2, 1), (2, 1, 2)):
            li_taylor_coeffs(index, 5)
        hits = _li_vector.cache_info().hits
        _li_vector(5, 1), _li_vector(5, 2)
        assert _li_vector.cache_info().hits == hits + 2
        for index in ((2.0, 1), (2.0, 1, 2)):
            with pytest.raises(TypeError):
                li_taylor_coeffs(index, 5)

    def test_a_tail_row_and_a_one_letter_vector_are_one_entry(self, monkeypatch):
        # the weight row of the tail entry 3 is Li's vector of (3,): asked for first, the vector serves the tail's
        # column, and a row built for a tail first answers the vector; the leading 2's row is one entry more
        _empty_tables(monkeypatch)
        li_taylor_coeffs((3,), 40)
        misses = _li_vector.cache_info().misses
        assert li_taylor_coeffs((2, 3), 40) == _uncached_li((2, 3), 40)
        assert _li_vector.cache_info().misses == misses + 2  # (2, 3) and (2,)
        li_taylor_coeffs((2, 3), 41)
        hits = _li_vector.cache_info().hits
        got = li_taylor_coeffs((3,), 41)
        assert _li_vector.cache_info().hits == hits + 1 and got == _uncached_li((3,), 41)

    def test_a_refused_float_entry_leaves_no_column_for_its_int_twin(self, monkeypatch):
        # 2.0 == 2 and hashes alike, so a float column cached under (2.0,) would be read for (2,): the entry is
        # refused before any table is read or filled, and the int call that follows answers
        calls = [
            (lambda: li_taylor_coeffs((1, 2.0), 5), lambda: li_taylor_coeffs((1, 2), 5).coeffs,
             _uncached_li((1, 2), 5).coeffs),
            (lambda: h_word_table(Word((2.0,), Y), 5), lambda: h_word_table(y_word(2), 5), h_signed_table((2,), 5)),
            (lambda: h_poly_table(NCPoly.from_word(Word((2, 1.0), Y)) + NCPoly.from_word(y_word(9)), 5),
             lambda: li_taylor_coeffs((2, 1), 5).coeffs, _uncached_li((2, 1), 5).coeffs),
        ]
        for refused, answered, want in calls:
            for clear in memo_account.tables:
                clear()
            monkeypatch.setattr(memo_account, "bytes", 0)
            with pytest.raises(TypeError):
                refused()
            assert memo_account.bytes == 0 and not harmonic._HVEC_CACHE
            assert answered() == want

    def test_keys_are_exact(self):
        li_taylor_coeffs((2, 1), 5)
        with pytest.raises(TypeError):
            li_taylor_coeffs((2.0, 1), 5)
        with pytest.raises(TypeError):
            li_taylor_coeffs((2, 1), 5.0)
        assert li_taylor_coeffs((F(2),), 5) == li_taylor_coeffs((2,), 5)
        assert li_taylor_coeffs((F(2),), 5).coeffs == li_taylor_coeffs((2,), 5).coeffs

    @pytest.mark.parametrize(
        "index,n_cap,message",
        [
            ((2,), 2_000_000, "2000000 * 1"),
            ((), 2_000_000, "2000000 * 1"),
            ((1, 1, 1, 1), 250_001, "250001 * 4"),
        ],
    )
    def test_refused_past_max_terms_before_any_work(self, monkeypatch, index, n_cap, message):
        built = _recording_taylor_map(monkeypatch)
        size, charged = _li_vector.cache_info().currsize, memo_account.bytes
        with pytest.raises(ValueError) as raised:
            li_taylor_coeffs(index, n_cap)
        assert str(raised.value) == f"N * depth = {message} is above MAX_TERMS = 1000000"
        assert _li_vector.cache_info().currsize == size and memo_account.bytes == charged and not built

    def test_weight_bits_refused_past_max_terms(self, monkeypatch):
        # at N = 2 the weights of an entry s carry |s| bits; a miss is refused before any work
        assert li_taylor_coeffs((1_000_000,), 2).coeffs == (0, 1, F(1, 2**1_000_000))
        assert li_taylor_coeffs((-1_000_000,), 2).coeffs == (0, 1, 2**1_000_000)
        built = _recording_taylor_map(monkeypatch)
        size, charged = _li_vector.cache_info().currsize, memo_account.bytes
        for s in (1_000_001, -1_000_001):
            with pytest.raises(ValueError) as raised:
                li_taylor_coeffs((s,), 2)
            assert str(raised.value) == "weights of about 1000001 bits at N = 2 are above MAX_TERMS = 1000000"
        assert _li_vector.cache_info().currsize == size and memo_account.bytes == charged and not built
        assert li_taylor_coeffs((10**20,), 1).coeffs == (0, 1)  # no weight bits at N <= 1

    @pytest.mark.parametrize(
        "call,message",
        [
            ("li_taylor_coeffs((3000000,), 2)", "weights of about 3000000 bits at N = 2 are above MAX_TERMS = 1000000"),
            ("li_taylor_coeffs((), 10**12)", "N * depth = 1000000000000 * 1 is above MAX_TERMS = 1000000"),
            # an X-word is estimated as the index it codes: its depth is its count of x1, its weight its length
            ("li_taylor_poly(NCPoly.from_word(x_word('11')), 500001)", "N * depth = 500001 * 2 is above MAX_TERMS = 1000000"),
            ("li_taylor_poly(NCPoly.one(X), 10**12)", "N * depth = 1000000000000 * 1 is above MAX_TERMS = 1000000"),
            # within both MAX_TERMS estimates, but N + 1 numbers of 10**6 bits are no memo entry
            ("li_taylor_coeffs((2,), 500001)", _PAST_MEMO),
            ("li_taylor_poly(NCPoly.from_word(x_word('01')), 500001)", _PAST_MEMO),
        ],
        ids=["coeffs", "coeffs_empty", "poly", "poly_unit", "coeffs_memo", "poly_memo"],
    )
    def test_refused_in_a_fresh_process(self, call, message):
        assert refusal_in_fresh_process(call) == message

    def test_under_the_memo_bound_answers(self):
        # the vector, the column of (1,) and the rows of 1 and 2: 3,002 numbers each, of at most 8,686, 4,333, 4,330
        # and 8,660 bits, 10,691,300 bytes charged against an estimate of 12,944,024
        t = li_taylor_coeffs((2, 1), 3000)
        assert t.n_cap == 3000 and t.coeffs[:4] == (0, 0, F(1, 4), F(1, 6))

    @pytest.mark.parametrize(
        "index,n",
        [
            ((1,), 3000), ((2,), 3000), ((1, 1, 1), 3000), ((2, 1), 3000), ((4, 4), 60), ((1,) * 8, 300), ((6,), 40),
            ((3, -2, 1), 500), ((-3,), 200), ((0, 0, 0), 100), ((-5, -5), 300), ((-1, 2), 2), ((), 10), ((5,), 0),
            # an entry and its int twin share one weight row, as the estimate counts them
            ((2, F(2)), 200), ((1, F(1)), 50), ((True, 1), 30),
        ],
    )
    def test_charge_is_within_the_estimate(self, monkeypatch, index, n):
        # from emptied tables, what li_taylor_coeffs and h_word_table (the vector, the tail's columns and the rows)
        # charge is at most the estimate that MEMO_BYTES refuses; a Word takes int letters only
        def charge(call, *args):
            for clear in memo_account.tables:
                clear()
            monkeypatch.setattr(memo_account, "bytes", 0)
            clears = memo_account.clears
            call(*args)
            assert memo_account.clears == clears
            return memo_account.bytes

        estimate = harmonic._index_bytes(index, n)
        assert 0 < charge(li_taylor_coeffs, index, n) <= estimate
        if all(type(s) is int and s > 0 for s in index):
            assert charge(h_word_table, Word(index, Y), n) <= estimate
            # one walk of the distinct tails: a word's figure is that of the polynomial of the word alone
            monkeypatch.setattr(harmonic, "MEMO_BYTES", 0)
            word = NCPoly.from_word(Word(index, Y))
            assert harmonic._poly_bytes(word, word.max_grade, word.max_length, n) == estimate

    @pytest.mark.parametrize(
        "poly,n",
        [
            (lambda: stuffle(NCPoly.from_word(y_word(2, 1, 3)), NCPoly.from_word(y_word(1, 1, 2))), 400),
            (lambda: stuffle(NCPoly.from_word(y_word(1, 1)), NCPoly.from_word(y_word(1, 1, 1))), 2000),
            (lambda: NCPoly.from_word(y_word(3, 2)), 1000),
            (lambda: NCPoly.from_word(y_word(1, 1, 1, 1, 1, 1)) - NCPoly.from_word(y_word(4, 1, 1)), 300),
            (lambda: pi_y(shuffle(NCPoly.from_word(x_word("01")), NCPoly.from_word(x_word("001")))), 800),
            (lambda: stuffle(NCPoly.from_word(y_word(2, 2)), stuffle(NCPoly.from_word(y_word(1, 3)),
                                                                     NCPoly.from_word(y_word(2)))), 60),
            # 77 words at N = 5: the entry's key is over a third of what the call charges
            (lambda: stuffle(NCPoly.from_word(y_word(1, 2, 1, 2)), NCPoly.from_word(y_word(2, 1, 1))), 5),
        ],
        ids=["stuffle", "stuffle_ones", "word", "shared_tails", "coded_shuffle", "deep_stuffle", "many_words"],
    )
    def test_poly_charge_is_within_the_estimate(self, monkeypatch, poly, n):
        # the vector and one column per distinct tail of the words, from emptied tables, against the walk of the
        # distinct tails (forced by a bound of 0), and that against the estimate at MEMO_BYTES; the call answers
        # at a bound of the walk's figure
        p = poly()
        estimate = harmonic._poly_bytes(p, p.max_grade, p.max_length, n)
        monkeypatch.setattr(harmonic, "MEMO_BYTES", 0)
        walked = harmonic._poly_bytes(p, p.max_grade, p.max_length, n)
        assert walked <= estimate
        monkeypatch.setattr(harmonic, "MEMO_BYTES", walked)
        for clear in memo_account.tables:
            clear()
        monkeypatch.setattr(memo_account, "bytes", 0)
        h_poly_table(p, n)
        assert 0 < memo_account.bytes <= walked

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: li_taylor_coeffs((2,), n),
            lambda n: li_taylor_poly(NCPoly.from_word(x_word("01")), n),
            lambda n: h_word_table(y_word(2), n),
            lambda n: h_poly_table(NCPoly.from_word(y_word(2)), n),
            lambda n: h_poly_eval(NCPoly.from_word(y_word(2)), n),
        ],
        ids=["coeffs", "poly", "word_table", "poly_table", "poly_eval"],
    )
    def test_memo_bound_refuses_past_it_and_answers_at_it(self, monkeypatch, call):
        # at N = 40 one vector of (2,): 42 numbers of at most 128 bits, 42 * (28 + 4 * 4) = 1,848 bytes on
        # CPython's 30-bit digits, the bound read at call time by a miss; a stored entry answers past it
        _empty_tables(monkeypatch)
        monkeypatch.setattr(harmonic, "MEMO_BYTES", 1847)
        with pytest.raises(ValueError) as raised:
            call(40)
        assert str(raised.value) == "cached vectors of about 1848 bytes at N = 40 are above MEMO_BYTES = 1847"
        assert _li_vector.cache_info().currsize == 0 and memo_account.bytes == 0
        monkeypatch.setattr(harmonic, "MEMO_BYTES", 1848)
        want = call(40)
        assert _li_vector.cache_info().currsize == 1
        monkeypatch.setattr(harmonic, "MEMO_BYTES", 1847)
        hits = _li_vector.cache_info().hits
        assert call(40) == want and _li_vector.cache_info().hits == hits + 1
        # the streaming oracles cache nothing, so they keep only the MAX_TERMS estimates
        assert h_signed_table((2,), 40)[-1] == h_signed_eval((2,), 40) == sum(F(1, k * k) for k in range(1, 41))

    def test_poly_depth_is_the_count_of_x1(self):
        # one x1, so depth 1: the word answers as the index it codes does, not refused by its length
        word = x_word("0" * 500_000 + "1")
        assert li_taylor_poly(NCPoly.from_word(word), 2) == li_taylor_coeffs((500_001,), 2)

    def test_property_one_taylor_path(self):
        # li_taylor_poly is the Taylor vector of pi_Y(P): the sum of its words' vectors, whose prefix sums are
        # the harmonic table of pi_Y(P); an over-size P is refused alike through either entry point
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        words = st.lists(st.integers(1, 4), max_size=3).map(lambda i: x_word("".join("0" * (s - 1) + "1" for s in i)))
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        polys = st.lists(st.tuples(words, coeffs), max_size=4).map(lambda terms: NCPoly(X, terms))
        # N * depth past MAX_TERMS, a word of too many weight bits, and a vector past MEMO_BYTES
        past = st.sampled_from([("", 10**7), ("0" * 1001 + "1", 1000), ("01", 500_001)])

        @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hyp.given(polys, st.integers(0, 25), past)
        def one_path(p, n, big):
            got = li_taylor_poly(p, n)
            terms = [(c, li_taylor_coeffs(index_from_word(w), n).poly) for w, c in p.items()]
            assert got == TaylorTrunc._of(NPoly.lin_comb(terms, n), n)
            assert list(div_one_minus_z(got).coeffs) == h_poly_table(pi_y(p), n)
            text, big_n = big
            q = p + NCPoly.from_word(x_word(text))
            messages = []
            for call in (li_taylor_poly, lambda q, n: h_poly_table(pi_y(q), n), lambda q, n: h_poly_eval(pi_y(q), n)):
                with pytest.raises(ValueError) as raised:
                    call(q, big_n)
                messages.append(str(raised.value))
            assert len(set(messages)) == 1 and messages[0].endswith(("MAX_TERMS = 1000000", "MEMO_BYTES = 67108864"))

        one_path()

    def test_poly_at_max_terms_answers(self):
        # 2 rows times a 500,000-letter word: at MAX_TERMS
        word = x_word("0" * 499_999 + "1")
        assert li_taylor_poly(NCPoly.from_word(word), 2).coeffs == (0, 1, F(1, 2**500_000))


class TestPolyVectorCache:
    """A Y-polynomial of two or more words reads its Taylor vector from its own memo, keyed by N, den and its terms."""

    def test_equal_polynomials_share_one_entry(self, monkeypatch):
        # y2y1 + 3 y3 - y1y1y1/2 in two insertion orders: one entry, and the second call builds nothing
        terms = [(y_word(2, 1), 1), (y_word(3), 3), (y_word(1, 1, 1), F(-1, 2))]
        p, q = NCPoly(Y, terms), NCPoly(Y, terms[::-1])
        assert p == q and list(p._nums) != list(q._nums)
        _empty_tables(monkeypatch)
        built = _recording_taylor_map(monkeypatch)
        vector = harmonic._li_poly_vector(p, 20)
        assert harmonic._li_poly_vector(q, 20) is vector and built == [20] and len(harmonic._POLY_VECTORS) == 1
        # in lowest terms, the sum of the words' vectors
        assert math.gcd(vector.den, *vector.nums) == 1
        assert vector == NPoly.lin_comb([(c, _uncached_li(w.letters, 20).poly) for w, c in p.items()], 20)
        # p / 2 has p's numerators over twice its den, and N is typed: each is an entry of its own
        half = p * F(1, 2)
        assert half._nums == p._nums and half._den == 2 * p._den
        assert harmonic._li_poly_vector(half, 20) == vector * F(1, 2) and built == [20, 20]
        assert harmonic._li_poly_vector(p, True) == harmonic._li_poly_vector(p, 1)
        assert len(built) == len(harmonic._POLY_VECTORS) == 4

    def test_a_call_refused_past_memo_bytes_leaves_no_entry(self, monkeypatch):
        # the vector and the tails' columns and rows fit the bound, and with the entry's key they do not: the miss
        # is refused before any table is filled, and answers at the bound that counts the key
        p, n = stuffle(NCPoly.from_word(y_word(2, 1)), NCPoly.from_word(y_word(1, 3))), 30
        bits = harmonic._entry_bits(p.max_grade, n) + (p.max_length - 1) * n.bit_length()
        keyless = harmonic._walk_bytes(p._nums, n, bits)
        monkeypatch.setattr(harmonic, "MEMO_BYTES", keyless)
        _empty_tables(monkeypatch)
        with pytest.raises(ValueError, match="above MEMO_BYTES"):
            h_poly_table(p, n)
        assert memo_account.bytes == 0 and not harmonic._POLY_VECTORS and not harmonic._HVEC_CACHE
        monkeypatch.setattr(harmonic, "MEMO_BYTES", 0)  # the walk of distinct tails, with the key
        monkeypatch.setattr(harmonic, "MEMO_BYTES", harmonic._poly_bytes(p, p.max_grade, p.max_length, n))
        want = [sum(c * h_signed_eval(w.letters, k) for w, c in p.items()) for k in range(n + 1)]
        assert h_poly_table(p, n) == want and len(harmonic._POLY_VECTORS) == 1

    def test_one_word_reads_li_vector(self, monkeypatch):
        # 3/2 y2y1 is Li's memoized vector of (2, 1) scaled, and no polynomial entry; nor is the zero polynomial
        _empty_tables(monkeypatch)
        li_taylor_coeffs((2, 1), 20)
        hits = _li_vector.cache_info().hits
        got = h_poly_table(NCPoly.from_word(y_word(2, 1), F(3, 2)), 20)
        assert _li_vector.cache_info().hits == hits + 1 and not harmonic._POLY_VECTORS
        assert got == [F(3, 2) * x for x in h_signed_table((2, 1), 20)]
        assert h_poly_table(NCPoly.zero(Y), 20) == [0] * 21 and not harmonic._POLY_VECTORS


class _Estimated(Exception):
    """Raised by a size estimate patched in, to show that it ran."""


def _estimated(*args):
    raise _Estimated


class TestAdmissionOnAMiss:
    """A memo hit answers at once; a miss, and every oracle call, is admitted by harmonic._refuse before any work."""

    def test_a_hit_runs_no_estimate_and_charges_nothing(self, monkeypatch):
        p = stuffle(NCPoly.from_word(y_word(2, 1)), NCPoly.from_word(y_word(1, 3)))
        calls = [
            lambda n: li_taylor_coeffs((2, 1), n).coeffs,
            lambda n: li_taylor_coeffs((), n).coeffs,
            lambda n: h_word_table(y_word(3, 1), n),
            lambda n: h_poly_table(NCPoly.from_word(y_word(2, 2), 3), n),
            lambda n: h_poly_table(p, n),
            lambda n: h_poly_eval(p, n),
            lambda n: li_taylor_poly(NCPoly.from_word(x_word("01")) - NCPoly.from_word(x_word("011")), n).coeffs,
            lambda n: check_hadamard_identity(y_word(2), y_word(1, 1), n),
        ]
        _empty_tables(monkeypatch)
        want = [call(20) for call in calls]
        monkeypatch.setattr(harmonic, "_index_bytes", _estimated)
        monkeypatch.setattr(harmonic, "_poly_bytes", _estimated)
        built = _recording_taylor_map(monkeypatch)
        charged, clears = memo_account.bytes, memo_account.clears
        assert [call(20) for call in calls] == want
        assert not built and memo_account.bytes == charged and memo_account.clears == clears
        # at N = 21 each call but the oracle's misses: its estimate runs before any work
        for call in calls[:-1]:
            with pytest.raises(_Estimated):
                call(21)
        assert not built and memo_account.bytes == charged


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
        monkeypatch.setattr(checks.products, "stuffle", conc)
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
        # m > n, n = 0 and m = 0 meet the trimmed zero series and the cross-product equality
        assert all(check_surjection_lemma(n, m) for n in range(13) for m in range(7))

    def test_surjection_lemma_wrong_stirling_entry_fails(self, monkeypatch):
        for n in range(7):
            for m in range(4):

                def off_by_one(n_max, m_max, n=n, m=m):
                    rows = _stirling2_rows(n_max, m_max)
                    rows[n][m] += 1
                    return rows

                monkeypatch.setattr(polylog_num, "_stirling2_rows", off_by_one)
                assert not check_surjection_lemma(6, 3), (n, m)

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

    def test_nan_eps_is_refused_before_any_work(self):
        # NaN fails every comparison: it is no positive eps, not a PrecisionError after the term search
        with pytest.raises(ValueError, match="eps must be positive"):
            li_eval((1,), 0.5, math.nan)

    @pytest.mark.parametrize("z", [math.nan, complex(0.1, math.nan)])
    def test_nan_z_is_past_the_radius_cap(self, z):
        with pytest.raises(PrecisionError, match=r"\|z\| = nan exceeds the evaluation cap"):
            li_eval((1,), z, 1e-8)

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


class TestLiEvalRunningBound:
    """Inputs whose exact value is tiny, which a bound on the rounding that happens answers."""

    def test_deep_zero_index(self):
        # every coefficient up to m = 128 is exactly 0; Li_(0^r)(z) = (z / (1 - z))^r
        value = li_eval((0,) * 400, 1e-10, 1e-6)
        exact = (F(1e-10) / (1 - F(1e-10))) ** 400
        assert value.imag == 0 and abs(F(value.real) - exact) <= F(1e-6)

    def test_underflowing_index(self):
        # H_(1100,1)(n - 1) <= n^2 2^-1100, so |Li| <= 2^-1100 Li_(-62)(1/2), exactly
        value = li_eval((-60, 1100, 1), 0.5, 1e-200)
        upper = negindex.li_nonpositive((-62,)).eval(F(1, 2)) / 2**1100
        assert value.imag == 0 and abs(F(value.real)) + upper <= F(1e-200)

    def test_refused_at_the_term_that_breaks_the_bound(self, monkeypatch):
        # -3,1 at 0.99 passes eps = 1e-8 at term 34 of its m = 8192
        made, powers = [], polylog_num._powers

        def counted(s, n_max):
            made.append((s, n_max))
            for w in powers(s, n_max):
                made.append(s)
                yield w

        monkeypatch.setattr(polylog_num, "_powers", counted)
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-3, 1), 0.99, 1e-8)
        assert (-3, 8192) in made and made.count(-3) == 34 and made.count(1) == 33

    @pytest.mark.parametrize(
        "args, bound",
        [(((-60, 1100, 1), 0.5, 1e-250), "1.37e-250"), (((-3, 1, 1), 0.99, 1e-8), "1.09e-08")],
        ids=["underflow", "row-below"],
    )
    def test_tail_rows_carry_their_bound(self, args, bound):
        # the tail rows' share of the bound decides both refusals: without the two 2^-1072 terms of
        # a tail-row step the first answers 0j (without one of them, it is refused at 4.56e-250 or
        # 1.16e-249), and without the bound of the row below the second is refused at 1.15e-08
        with pytest.raises(PrecisionError) as refused:
            li_eval(*args)
        assert str(refused.value).endswith(f"carries a rounding bound of {bound}")


class TestLiEvalExactOracle:
    """li_eval against the exact rational function of a non-positive index.

    Each call either raises PrecisionError or lands within eps of the exact
    value at the double z, rounding included.
    """

    @staticmethod
    def _grid():
        rng = random.Random(19)
        # a value of about 8.3e36, where a double's ulp is 1.2e21 and the float sum is off by
        # about 7e22: within 1e22 only a rounding bound that counts the operations refuses it
        points = [((-6, -6), 0.99, 1e-3), ((-6, -6), 0.99, 1e22)]
        for _ in range(60):
            index = tuple(rng.randint(-6, 0) for _ in range(rng.randint(1, 3)))
            points.append((index, round(rng.uniform(-0.995, 0.995), 4), rng.choice((1e-3, 1e-8, 1e-12))))
        return points

    def test_answer_within_eps_or_refused(self):
        answered = 0
        for index, z, eps in self._grid():
            try:
                value = li_eval(index, z, eps)
            except PrecisionError:
                continue
            exact = negindex.li_nonpositive(index).eval(F(z))
            assert value.imag == 0 and abs(F(value.real) - exact) <= F(eps), (index, z, eps)
            answered += 1
        assert answered >= 30

    def test_known_misses_are_refused(self):
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-6, -6), 0.99, 1e-3)
        # about 3.8e9 and off by about 2.1e-5 in the float sum
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-3, 1), 0.99, 1e-8)

    def test_underflow_is_bounded(self):
        # 2^-1100 underflows to 0, so every float coefficient is 0; the exact value exceeds
        # its n = 100 term 100^60 2^-1100 / 2^100 > 5e-242, which is above eps
        assert F(100**60, 2**1200) > F(1e-250)
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-60, 1100, 1), 0.5, 1e-250)


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

    def test_exact_results_are_reduced_fractions(self):
        t = cauchy(li_taylor_coeffs((1,), 6), li_taylor_coeffs((2,), 6))
        assert all(type(c) is Fraction for c in t.coeffs)
        assert t.coeffs[2] == F(1, 1)
        assert str(t.coeffs[3]) == "3/4"


class TestNonFiniteFloat:
    @staticmethod
    def _overflow_message(index, n_cap):
        error = _float_coeffs(index, n_cap)["error"]
        assert error["code"] == "PrecisionError"
        return error["message"]

    def test_coefficient_overflow_by_multiplication(self):
        assert self._overflow_message((-60, -60), 400).endswith("n=366")
        # li_eval's running bound refuses long before that term; at a z whose powers
        # underflow, its products of finite powers overflow first
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-60, -60), 0.5, 1e-6)
        with pytest.raises(PrecisionError, match="n=4"):
            li_eval((-300, -300), 1e-300, 1e-6)

    def test_overflowing_weight_names_first_infinite_coefficient(self):
        assert self._overflow_message((-400,), 60).endswith("n=6")
        # a_6 of Li_(1,-400) is about 6.5e278; the weight 6^400 of the suffix first enters a_7
        assert all(map(math.isfinite, _float_coeffs((1, -400), 6)))
        assert self._overflow_message((1, -400), 8).endswith("n=7")
        with pytest.raises(PrecisionError, match="rounding bound"):
            li_eval((-200,), 0.5, 1e-6)
        with pytest.raises(PrecisionError, match="n=6"):
            li_eval((-400,), 1e-300, 1e-6)

    def test_sum_overflow(self, monkeypatch):
        # every coefficient is finite, but their sum at z = 0.9 exceeds the float range; eps is
        # wide enough that the bound on the first term alone does not refuse
        monkeypatch.setattr(polylog_num, "_powers", lambda s, n_max: [1e308] * n_max)
        with pytest.raises(PrecisionError, match="rounding bound of inf"):
            li_eval((1,), 0.9, 1e300)
