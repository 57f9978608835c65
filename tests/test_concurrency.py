"""The memo tables must behave as if absent under concurrent use."""

import sys
import threading
from fractions import Fraction

import pytest

from polylog import harmonic, nc_core, polylog_num
from polylog.harmonic import _taylor_map, h_poly_table, h_signed_eval, h_word_eval, h_word_table
from polylog.nc_core import NCPoly, Word, Y, x_word, y_word
from polylog.products import shuffle, stuffle

_DEFAULT_BYTES = nc_core.MEMO_BYTES


def _run_threads(worker, count=8):
    """Run worker in count threads switching every microsecond; fail on any error or hang."""
    errors = []

    def wrapped():
        try:
            worker()
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    threads = [threading.Thread(target=wrapped) for _ in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors


def test_concurrent_products_agree():
    u = NCPoly.from_word(x_word("0110"))
    v = NCPoly.from_word(x_word("101"))
    expected = shuffle(u, v)

    def worker():
        for _ in range(20):
            assert shuffle(u, v) == expected

    _run_threads(worker)


def test_concurrent_harmonic_tables_agree():
    q = stuffle(NCPoly.from_word(y_word(2)), NCPoly.from_word(y_word(1, 1)))
    expected = h_poly_table(q, 25)

    def worker():
        for _ in range(10):
            assert h_poly_table(q, 25) == expected
            assert h_word_eval(y_word(1), 10) == Fraction(7381, 2520)

    _run_threads(worker)


def test_concurrent_column_growth_agrees(monkeypatch):
    # Threads grow the same cached columns from an empty cache.  A reader that
    # paired new numerators with an old denominator would get wrong values.
    monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
    w = y_word(2, 1, 3)
    expected = [h_signed_eval(w.letters, n) for n in range(61)]  # streams, no cache

    def worker():
        for n in range(0, 61, 3):
            assert h_word_table(w, n) == expected[: n + 1]

    _run_threads(worker)


def test_concurrent_li_vectors_agree(monkeypatch):
    # Threads fill the Taylor-vector cache (and the columns under it) from empty.
    indices = [(2, 1, 3), (1, 1), (-2, 3), (4,), ()]
    expected = {
        (index, n): _taylor_map([(1, index)], n).padded(n) for index in indices for n in range(0, 61, 5)
    }
    monkeypatch.setattr(harmonic, "_HVEC_CACHE", {})
    harmonic._li_vector.cache_clear()

    def worker():
        for (index, n), coeffs in expected.items():
            assert polylog_num.li_taylor_coeffs(index, n).coeffs == coeffs

    _run_threads(worker)
    held = harmonic._li_vector.cache_info().currsize
    # each vector is held once, and so is each entry's weight row: Li's vectors of (1,), (2,) and (-2,) at all 13 N
    # (a leading entry reads its row at N = 0 too) and of (3,), a tail entry only, at the 12 from N = 5; unless a
    # lowered bound emptied the table
    entries = len(expected) + 3 * 13 + 12
    assert held == entries if nc_core.MEMO_BYTES == _DEFAULT_BYTES else held < entries


def test_concurrent_poly_vectors_agree():
    # Threads fill the polynomial-vector table (and the columns and rows under it) from empty; one word reads
    # Li's vector memo and adds no entry.
    pairs = [((2, 1), (1, 3)), ((1,), (1, 1)), ((3,), (2, 2)), ((2, 1, 3), ())]
    polys = [stuffle(NCPoly.from_word(y_word(*u)), NCPoly.from_word(y_word(*v))) for u, v in pairs]
    expected = {(i, n): h_poly_table(q, n) for i, q in enumerate(polys) for n in range(0, 41, 5)}
    for clear in nc_core.memo_account.tables:
        clear()

    def worker():
        for (i, n), table in expected.items():
            assert h_poly_table(polys[i], n) == table

    _run_threads(worker)
    held, entries = len(harmonic._POLY_VECTORS), sum(len(polys[i]) > 1 for i, _ in expected)
    # each vector is held once, unless a lowered bound had the account empty the table
    assert held == entries if nc_core.MEMO_BYTES == _DEFAULT_BYTES else held < entries


@pytest.mark.parametrize(
    "case",
    [
        test_concurrent_products_agree,
        test_concurrent_harmonic_tables_agree,
        test_concurrent_column_growth_agrees,
        test_concurrent_li_vectors_agree,
        test_concurrent_poly_vectors_agree,
    ],
    ids=lambda case: case.__name__.removeprefix("test_concurrent_"),
)
def test_agree_while_the_memo_tables_clear(case, monkeypatch):
    # each case again from empty tables under a 2 KiB bound; a thread that charges
    # past it every half millisecond makes clears race with readers that only hit
    monkeypatch.setattr(nc_core, "MEMO_BYTES", 2048)
    for clear in nc_core.memo_account.tables:
        clear()
    clears = nc_core.memo_account.clears
    done = threading.Event()

    def charge_past_the_bound():
        while not done.wait(5e-4):
            nc_core.memo_account.charge(4096)

    clearer = threading.Thread(target=charge_past_the_bound)
    clearer.start()
    try:
        if case.__code__.co_argcount:
            case(monkeypatch)
        else:
            case()
    finally:
        done.set()
        clearer.join()
    assert nc_core.memo_account.clears > clears
