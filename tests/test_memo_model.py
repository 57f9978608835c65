"""A stateful model of the harmonic memos: in any order of calls, each answer is the oracle's, a refusal leaves every
table as it was, and the tables hold only what their rules allow.

Three tables remain: the column cache ``_HVEC_CACHE``, Li's vectors ``_li_vector`` (the weight rows among them, as
Li's vectors of one letter) and the polynomial vectors ``_POLY_VECTORS``.  The machine runs the five entry points
that read them, on int, integral and non-integral Fraction, float and bool entries and negative N; it empties every
table, and runs one call under a tiny MEMO_BYTES.  The oracle is the streaming :func:`h_signed_table`, which reads
and fills no table.
"""

from fractions import Fraction

import pytest

from polylog import harmonic, nc_core, products
from polylog.checks import h_stuffle_check
from polylog.harmonic import h_poly_table, h_signed_table, h_word_table
from polylog.nc_core import NCPoly, Word, Y, memo_account
from polylog.polylog_num import li_taylor_coeffs, li_taylor_poly
from polylog.words import word_from_index

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
stateful = pytest.importorskip("hypothesis.stateful")

_N = st.integers(-2, 24)
_INT = st.integers(-2, 4)
#: signed index entries: li_taylor_coeffs admits ints, bools and integral Fractions, and refuses floats and 1/2
_ENTRY = st.one_of(_INT, _INT.map(Fraction), st.booleans(), _INT.map(float), st.just(Fraction(1, 2)))
_POSITIVE = st.integers(1, 4)
#: Y-letters: a Word admits ints >= 1 only
_LETTER = st.one_of(_POSITIVE, _POSITIVE, st.integers(1, 3).map(float), st.just(True), st.integers(1, 3).map(Fraction))


def _terms(letter):
    """Up to three (letters, coefficient) terms of up to three letters each."""
    term = st.tuples(st.lists(letter, max_size=3).map(tuple), st.fractions(-2, 2, max_denominator=3))
    return st.lists(term, max_size=3)


def _h(index, n):
    """H_index(0..n) by the streaming oracle."""
    return h_signed_table(tuple(map(int, index)), n)


def _li(index, n):
    """Li's Taylor coefficients 0..n of ``index``: the differences of its harmonic sums."""
    h = _h(index, n)
    return [h[0], *(b - a for a, b in zip(h, h[1:]))]


def _combination(oracle, terms, n):
    """sum c oracle(index, n) over the (index, c) ``terms``, entry by entry."""
    return [sum(col, Fraction(0)) for col in zip(*([c * x for x in oracle(i, n)] for i, c in terms), [0] * (n + 1))]


def _word_refusal(letters, n):
    """What a call on Y-words of ``letters`` raises: the Word's TypeError for a letter no int, then N < 0's."""
    return TypeError if any(type(s) is not int for s in letters) else ValueError if n < 0 else None


def _y_poly(terms):
    return sum((NCPoly.from_word(Word(letters, Y), c) for letters, c in terms), NCPoly.zero(Y))


def _tables():
    """The size of every memo table and the account's total."""
    sizes = (harmonic._li_vector, products._shuffle_letters, products._stuffle_letters)
    lens = (len(harmonic._HVEC_CACHE), len(harmonic._POLY_VECTORS))
    return (*lens, *(table.cache_info().currsize for table in sizes), memo_account.bytes)


def _integer(s):
    """An entry that the admission reads as its int twin: an int, a bool or an integral Fraction, never a float."""
    return type(s) in (int, bool) or type(s) is Fraction and s.denominator == 1


class MemoModel(stateful.RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clear()

    def _call(self, refusal, call, want, words=()):
        """``call()`` raises ``refusal`` and changes no table, or answers ``want()``; ``words`` reach Li's map."""
        before = _tables()
        if refusal is not None:
            with pytest.raises(refusal):
                call()
            assert _tables() == before
            return
        self._built(words)
        assert call() == want()

    def _built(self, words):
        """Note the proper tails of ``words``, which a build may cache as columns."""
        self.tails.update(tuple(w[k:]) for w in words for k in range(1, len(w)))

    @stateful.rule()
    def clear(self):
        for clear in memo_account.tables:
            clear()
        memo_account.bytes = 0
        self.tails = set()  # the proper tails of every word built since

    @stateful.rule(index=st.lists(_ENTRY, max_size=3).map(tuple), n=_N)
    def li_coeffs(self, index, n):
        refusal = ValueError if n < 0 else None if all(map(_integer, index)) else TypeError
        self._call(refusal, lambda: li_taylor_coeffs(index, n).coeffs, lambda: tuple(_li(index, n)), [index])

    @stateful.rule(index=st.lists(_INT, min_size=1, max_size=3).map(tuple), data=st.data(), n=st.integers(0, 24))
    def float_twin(self, index, data, n):
        # the int index is cached, then the same index with one float entry is refused, not read from its entry
        self.li_coeffs(index, n)
        j = data.draw(st.integers(0, len(index) - 1))
        self._call(TypeError, lambda: li_taylor_coeffs((*index[:j], float(index[j]), *index[j + 1:]), n), None)

    @stateful.rule(letters=st.lists(_LETTER, max_size=3).map(tuple), n=_N)
    def word_table(self, letters, n):
        call = lambda: h_word_table(Word(letters, Y), n)
        self._call(_word_refusal(letters, n), call, lambda: _h(letters, n), [letters])

    @stateful.rule(terms=_terms(_LETTER), n=_N)
    def poly_table(self, terms, n):
        refusal = _word_refusal([s for letters, _ in terms for s in letters], n)
        call = lambda: h_poly_table(_y_poly(terms), n)
        self._call(refusal, call, lambda: _combination(_h, terms, n), [letters for letters, _ in terms])

    @stateful.rule(terms=_terms(_POSITIVE), n=_N)
    def li_poly(self, terms, n):
        p = sum((NCPoly.from_word(word_from_index(index), c) for index, c in terms), NCPoly.zero(nc_core.X))
        call = lambda: li_taylor_poly(p, n).coeffs
        want = lambda: tuple(_combination(_li, terms, n))
        self._call(ValueError if n < 0 else None, call, want, [index for index, _ in terms])

    @stateful.rule(u=st.lists(_LETTER, max_size=2).map(tuple), v=st.lists(_LETTER, max_size=2).map(tuple), n=_N)
    def stuffle_check(self, u, v, n):
        words = []
        if all(type(s) is int for s in u + v):
            # the product first, so that the check reads it from its memo: the harmonic tables are the model's
            product = products.stuffle(NCPoly.from_word(Word(u, Y)), NCPoly.from_word(Word(v, Y)))
            words = [u, v, *(w.letters for w in product.support())]
        self._call(_word_refusal(u + v, n), lambda: h_stuffle_check(Word(u, Y), Word(v, Y), n), lambda: True, words)

    @stateful.rule(bound=st.integers(0, 4096), letters=st.lists(_POSITIVE, max_size=3).map(tuple),
                   terms=_terms(_POSITIVE), poly=st.booleans(), n=st.integers(0, 24))
    def tiny_bound(self, bound, letters, terms, poly, n):
        # one call under a bound of a few KiB: refused with no table changed, or answered with the total within it
        if poly:
            call, want = lambda: h_poly_table(_y_poly(terms), n), lambda: _combination(_h, terms, n)
            words = [letters for letters, _ in terms]
        else:
            call, want, words = lambda: h_word_table(Word(letters, Y), n), lambda: _h(letters, n), [letters]
        before = _tables()
        saved = harmonic.MEMO_BYTES, nc_core.MEMO_BYTES
        harmonic.MEMO_BYTES = nc_core.MEMO_BYTES = bound
        try:
            got = call()
        except ValueError as refused:
            assert "above MEMO_BYTES" in str(refused) and _tables() == before
        else:
            self._built(words)
            assert got == want()
            assert memo_account.bytes == before[-1] or memo_account.bytes <= bound
        finally:
            harmonic.MEMO_BYTES, nc_core.MEMO_BYTES = saved

    @stateful.invariant()
    def keys_are_integers(self):
        assert all(_integer(s) for key in harmonic._HVEC_CACHE for s in key)
        for n, kind, den, terms in harmonic._POLY_VECTORS:
            assert type(n) is int and kind is int and type(den) is int
            assert all(type(s) is int for letters, _ in terms for s in letters)

    @stateful.invariant()
    def columns_are_proper_tails(self):
        assert set(harmonic._HVEC_CACHE) <= self.tails

    @stateful.invariant()
    def account_within_the_bound(self):
        assert memo_account.bytes <= nc_core.MEMO_BYTES


TestMemoModel = MemoModel.TestCase
TestMemoModel.settings = hyp.settings(
    max_examples=40, stateful_step_count=25, deadline=None, derandomize=True, database=None
)
