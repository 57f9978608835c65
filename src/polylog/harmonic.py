"""Exact harmonic sums for words, signed indices, polynomials, and stars.

The harmonic sum of a Y-word y_{s1}...y_{sr} at N is the nested sum sum_{N >= n1 > ... > nr > 0} prod n_i^(-s_i);
the same formula with signed exponents (non-positive entries turn reciprocals into powers) serves as the
brute-force oracle of :mod:`polylog.checks`.  Both come out of one prefix recurrence,
H_s(N) = H_s(N-1) + N^(-s1) H_(s2..sr)(N-1), run on integer numerators over one denominator.  With
L = lcm(1..N) the step multiplies by L^s1 // N^s1 (s1 > 0) or N^(-s1) (s1 <= 0), and the denominator is
D_(s2..sr) L^max(s1, 0), so no step of the recurrence pays a gcd and Fractions are built only for returned
values.  :func:`h_signed_table` streams apart from the cache, an independent oracle; an index of one entry streams
as one C iterator.  :func:`h_signed_eval` (and :func:`h_word_eval`) streams the tail's rows only, and sums
the terms H_(s2..sr)(k-1) k^(-s1) per block of k over lcm(block)^s1, merged pairwise like a binary counter (no step
divides a number of lcm(1..N)^s1 size), and a power sum over odd powers with shifts: O(r + log N) numbers.
The two oracles compute their own weights.  Every other path reads weight rows (0, L^s n^(-s)) / L^s per (s, N),
Li's Taylor vectors of one letter, held in Li's memo only, as in Vermaseren's tabulation of nested sums (*Harmonic
sums, Mellin transforms and integrals*, 1999).  One step (:func:`_shifted`) multiplies a row into a shifted memoized
tail column: a column is the step's prefix sums, so the column cache holds tails only, never a full word.  H_w(N) is the
N-th Taylor coefficient of Li_w(z)/(1-z), and that is the one reading of a word's harmonic sums: a word table
is the prefix sums of the word's memoized Taylor vector.  A polynomial has one Taylor path, :func:`_li_poly_vector`
of a Y-polynomial: its prefix sums are the polynomial's harmonic sums, and an X-polynomial P reaches it as pi_Y(P)
(:func:`~polylog.polylog_num.li_taylor_poly`).  It and its index twin :func:`_li_vector` memoize vectors in
lowest terms, by (N, den, the terms as a frozenset) for two or more words and by (cap, index) for one: the series
calculus reads them again and again (about 73% of its polynomial calls repeat one), and over lcm(1..100)^4 a
weight-4 vector carries up to 257 of its 543 bits as a common factor.  Columns and Taylor vectors are each an
:class:`~polylog.dense.NPoly`, the one dense kernel.  A memo hit answers at once; a miss, and each call of an
oracle, makes one call of the admission :func:`_refuse` before any work: it refuses N < 0, an entry that is not
an integer, then rows and weight bits past MAX_TERMS, then, for a build that caches, its charge past MEMO_BYTES.
A rational series S with linear representation (lambda, mu, gamma) expands no word (:func:`h_series_table`): per
state q, H_q(0) = gamma_q, H_q(N) = H_q(N-1) + sum N^(-s) mu(y_s)[q, r] H_r(N-1), and H_S = lambda . H, on Fractions.

Star combinations sum_k c_k (k x1)* have polynomial harmonic sums: H of (k x1)* at N is
binomial(N+k, k) = (N+1)...(N+k)/k!, so the closed form is an exact polynomial in N: an
:class:`~polylog.dense.NPoly` again, built by Horner's rule in the rising products over one denominator.
Composed with the star form of Li at non-positive indices (:mod:`polylog.negindex`, imported on first use),
this yields Faulhaber-style closed forms for every non-positive multi-index.  The stuffle character is checked
in :mod:`polylog.checks`.

The column cache and the two Li-vector memos, rows included, are bounded by nc_core's ``memo_account``.  A longer
column replaces a cached one whole, in one immutable value, so a racing thread can at worst duplicate work,
never observe a partial or mixed column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, islice, repeat
from math import gcd, lcm, prod
from operator import floordiv, mul
from sys import getsizeof, int_info
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .dense import NPoly
from .nc_core import MAX_TERMS, MEMO_BYTES, AlphabetError, NCPoly, RatLike, Y, memo_account, refuse_above

#: A signed multi-index: positive entries are reciprocal exponents,
#: non-positive entries are power weights.
SignedIndex = tuple[int, ...]


def _scales(index: SignedIndex, n_max: int) -> list[int]:
    """Per entry s, lcm(1..n_max)^max(s, 0): F n^(-s) is an integer for n <= n_max."""
    big = lcm(*range(1, n_max + 1)) if any(s > 0 for s in index) else 1
    return [big**s if s > 0 else 1 for s in index]


def _weights(s: int, scale: int, n_max: int, start: int = 1) -> Iterator[int]:
    """The integers scale * n^(-s) for n = start..n_max, scale a multiple of lcm(start..n_max)^s."""
    powers = map(pow, range(start, n_max + 1), repeat(abs(s)))
    return map(floordiv, repeat(scale), powers) if s > 0 else powers


def _refuse(index: SignedIndex, n: int, depth: int, charged: Callable[[], int] | None = None) -> None:
    """The one admission of a harmonic build, before any work: a ValueError for N < 0; a TypeError for an entry
    neither an int nor an integral Fraction (the column cache's keys are untyped, 2.0 == 2); N * depth rows, then
    the weight bits summed per entry s, above MAX_TERMS; then, for a build that caches, its bound ``charged()`` on
    what it charges above MEMO_BYTES, which one build must not pass (bound at import, as a cap is).  The oracles
    run it on every call, the memoized builders on a miss only: a hit answers at once.

    The weights of s > 0 count (N - 1) s bits: a work estimate below the size of lcm(1..N)^s, about 1.44 N s
    bits, which MEMO_BYTES bounds by :func:`_entry_bits`.  Those of s <= 0, the n^|s|, count |s| bit_length(N - 1);
    none count at N <= 1.  A polynomial is estimated as its heaviest word: (weight,) at depth max(length, 1).
    """
    if n < 0:
        raise ValueError("n_cap must be >= 0")
    if not all(isinstance(s, (int, Fraction)) and s.denominator == 1 for s in index):
        raise TypeError(f"index entries must be integers, got {index!r}")
    refuse_above(n * depth, MAX_TERMS, "MAX_TERMS", "N * depth = {} * {} is", n, depth)
    bits = sum((n - 1) * s if s > 0 else -s * int.bit_length(n - 1) for s in index) if n > 1 else 0
    refuse_above(bits, MAX_TERMS, "MAX_TERMS", "weights of about {} bits at N = {} are", bits, n)
    if charged is not None:
        size = charged()
        refuse_above(size, MEMO_BYTES, "MEMO_BYTES", "cached vectors of about {} bytes at N = {} are", size, n)


# CPython's ints: getsizeof(1) bytes hold one digit, and each further digit of _DIGIT_BITS bits takes _DIGIT_BYTES
_INT_BYTES, _DIGIT_BITS, _DIGIT_BYTES = getsizeof(1), int_info.bits_per_digit, int_info.sizeof_digit


def _column_bytes(bits: int, n: int, depth: int) -> int:
    """A bound on what one column or vector to N of an index of ``depth`` entries charges.

    A denominator and N + 1 numerators of ``bits`` bits or fewer, of which the first min(depth, N + 1) are 0,
    as a nested sum of that depth is empty below N = depth.
    """
    zeros = min(depth, n + 1)
    return (n + 2 - zeros) * (_INT_BYTES + _DIGIT_BYTES * (bits // _DIGIT_BITS)) + zeros * _INT_BYTES


def _entry_bits(s: int, n: int) -> int:
    """A bound on the bits that entry s adds to the numbers of a column to N.

    One s > 0 multiplies the denominator by lcm(1..N)^s, of at most (3N/2 + 1) s bits since
    ln lcm(1..N) = psi(N) < 1.03883 N (Rosser and Schoenfeld, 1962, Thm 12), so log2 lcm(1..N) < 1.4988 N,
    and of none at N <= 1, and the value by at most 1 + ln N; one s <= 0 multiplies the value by at most
    N^(1 - s).  Both factors of the value are below 2^bit_length(N).
    """
    if s <= 0:
        return (1 - s) * int.bit_length(n)
    return ((3 * n // 2 + 1) * s if n > 1 else 0) + int.bit_length(n)


def _walk_bytes(words: Collection[Sequence[int]], n: int, bits: int, key: int = 0) -> int:
    """What a cached build of the Taylor vector to N of ``words`` charges, walked once: the ``key`` of its entry, the
    vector at ``bits``, a column per distinct proper tail (the letters after a word's first) at its own entries' bits
    and depth, and a weight row per distinct letter.  A lone letter's vector is its row."""
    seen: dict[tuple[int, int], tuple[int, int]] = {}  # (first letter, id of the rest) -> (id, bits); 0: empty
    lone = len(words) == 1 and all(len(word) == 1 for word in words)
    size, letters = key + (0 if lone else _column_bytes(bits, n, 0)), set()
    for word in words:
        letters.update(word)
        tail = tail_bits = 0
        for depth, s in enumerate(reversed(word[1:]), 1):
            got = seen.get((s, tail))
            if got is None:
                got = seen[s, tail] = (len(seen) + 1, tail_bits + _entry_bits(s, n))
                size += _column_bytes(got[1], n, depth)
            tail, tail_bits = got
    return size + sum(_column_bytes(_entry_bits(s, n), n, 0) for s in letters)


def _index_bytes(index: SignedIndex, n: int) -> int:
    """A bound on what Li's Taylor vector of ``index`` to N (so a word table too) charges with its tail's columns and
    rows: the walk of its one word, the vector at every entry's bits, as a polynomial's (:func:`_poly_bytes`)."""
    return _walk_bytes((index,), n, sum(map(_entry_bits, index, repeat(n))))


def _poly_bytes(q: NCPoly, weight: int, length: int, n: int) -> int:
    """A bound on what the Taylor vector to N of a Y-polynomial builds and charges: it, its tail columns and rows.

    The vector is counted at the bits of a word of the largest ``weight`` and ``length``, and so is each tail,
    one per letter after a word's first, with a weight row per letter 1..weight; where that passes MEMO_BYTES,
    the walk of the words (:func:`_walk_bytes`).  The first count never falls below the walk and takes O(weight):
    on the series workload's polynomials the walk takes about 45 us a call against 1.6 us, and walking on every
    call read 2-4% slower there.  Both count the key of two or more words' entry: a frozenset of at most 8 slots
    of 16 bytes a term (a set built item by item), the (letters, numerator) pairs and letter tuples of ``length``.
    """
    key = getsizeof(frozenset()) + len(q) * (128 + getsizeof((0, 0)) + getsizeof((0,) * length)) if len(q) > 1 else 0
    bits = _entry_bits(weight, n) + max(length - 1, 0) * int.bit_length(n)
    size = key + _column_bytes(bits, n, 0) + len(q) * max(length - 1, 0) * _column_bytes(bits, n, 1)
    size += sum(_column_bytes(_entry_bits(s, n), n, 0) for s in range(1, weight + 1))
    return size if size <= MEMO_BYTES else _walk_bytes(q._nums, n, bits, key)


def _prefix_column(weights: list[Iterator], n_max: int) -> Iterator[int]:
    """The prefix recurrence H_0(0..n_max) from one weight iterator per entry.

    With the weights w_j(n) of entry j for n = 1..n_max, H_j(n) = H_j(n-1) + w_j(n) H_(j+1)(n-1)
    and the entry past the last is 1: the numerator of H_(index[j:])(n) over prod(scales[j:]) for :func:`_weights`.
    One entry streams as one C iterator of fixed nesting depth, ``accumulate``; others run :func:`_row_loop`.
    """
    if len(weights) == 1:
        return accumulate(islice(weights[0], n_max), initial=0)
    return _row_loop(weights, n_max)


def _row_loop(weights: list[Iterator], n_max: int) -> Iterator[int]:
    """:func:`_prefix_column` in one flat loop per row: one number per entry, no nested iterator, so no C stack."""
    state = [0] * len(weights) + [1]
    steps = list(enumerate(weights))  # built once, not per row
    yield state[0]
    for _ in range(n_max):
        # j ascending: state[j + 1] still holds row n - 1
        for j, w in steps:
            state[j] += next(w) * state[j + 1]
        yield state[0]


def _shifted(s1: int, sub: NPoly, n_max: int) -> NPoly:
    """n^(-s1) sub_(n-1), n = 0..n_max, Li's vector from H of its tail: s1's row is Li's memoized vector of int(s1)."""
    row = _li_vector(n_max, int(s1))
    return NPoly(map(mul, row.nums, (0, *sub.nums[:n_max])), sub.den * row.den)


#: Integer columns keyed by signed index; a longer column replaces an entry whole, so readers see one column.
_HVEC_CACHE: dict[SignedIndex, NPoly] = {}
memo_account.tables.append(lambda: _HVEC_CACHE.clear())  # the global at call time: tests replace it


def _h_vector(index: SignedIndex, n_max: int) -> NPoly:
    """Cached column of H_index(0..n_max) or longer, copy-on-extend; the index is a tail of a Taylor map's term.

    H_index(N) = 0 for N < depth and > 0 from there on, so a column is either zero (not cached) or keeps every
    entry under trimming, and ``len`` of a cached column is its entry count.  Built in a loop upwards from the
    longest suffix cached long enough, so a deep index never reaches the recursion limit.  A column is the prefix
    sums of :func:`_shifted`; its charge is a bound, every nonzero entry at the last's size.
    """
    if n_max < len(index):
        return NPoly()
    for k in range(len(index)):
        col = _HVEC_CACHE.get(index[k:])
        if col is not None and len(col) > n_max:
            break
    else:
        k = len(index)
        col = NPoly((1,) * (n_max + 1), 1)
    for j in reversed(range(k)):
        col = _shifted(index[j], col, n_max).prefix_sums(n_max)
        depth = len(index) - j  # the leading zeros
        memo_account.charge(getsizeof(col.den) + depth * getsizeof(0) + (len(col) - depth) * getsizeof(col.nums[-1]))
        _HVEC_CACHE[index[j:]] = col
    return col


def _taylor_map(terms: Iterable[tuple[RatLike, SignedIndex]], n_cap: int) -> NPoly:
    """Taylor coefficients to n_cap of sum_k c_k Li_(index_k): one weight pass per s1, no sum of one term of 1."""
    groups: dict[int, list[tuple[RatLike, NPoly]]] = {}
    parts = []
    for c, index in terms:
        if index:
            groups.setdefault(index[0], []).append((c, _h_vector(index[1:], n_cap)))
        else:
            parts.append((c, NPoly([1])))
    for s1, tails in groups.items():
        sub = tails[0][1] if len(tails) == 1 and tails[0][0] == 1 else NPoly.lin_comb(tails, n_cap)
        parts.append((1, _shifted(s1, sub, n_cap)))
    return parts[0][1] if len(parts) == 1 and parts[0][0] == 1 else NPoly.lin_comb(parts, n_cap)


def h_word_eval(w: Word, n: int) -> Fraction:
    """Exact H_w(N) for a Y-word; 1 on the empty word, 0 when N < depth."""
    if w.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-words")
    return h_signed_eval(w.letters, n)


#: Consecutive leading-entry terms that :func:`h_signed_eval` sums over one block lcm.
_BLOCK = 32


def _merge(e: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """P1 / l1^e + P2 / l2^e as (P, l) over lcm(l1, l2)^e."""
    (p1, l1), (p2, l2) = x, y
    g = gcd(l1, l2)
    return p1 * (l2 // g) ** e + p2 * (l1 // g) ** e, l1 // g * l2


def _power_sum(t: int, n: int) -> int:
    """sum_(k <= n) k^t = sum_j 2^(jt) O(n >> j), O(m) the sum of k^t over odd k <= m, by Horner's rule in 2^t: the
    odd powers are summed in C between the ascending cuts n >> j, and each cut's even terms enter by one shift."""
    total, odd, lo = 0, 0, 1  # lo: the first odd k past the last cut
    for j in reversed(range(n.bit_length())):
        odd += sum(map(pow, range(lo, (n >> j) + 1, 2), repeat(t)))
        lo = (n >> j) + 1 | 1
        total = (total << t) + odd
    return total


def h_signed_eval(s: Sequence[int], n: int) -> Fraction:
    """Streaming oracle of the nested sum with any integer exponents: (-t,) by :func:`_power_sum`, else term by term.

    Streams the tail's column with O(r + log N) memory, so large N needs no cache: H_s(N) = sum_k H_(s2..sr)(k-1)
    k^(-s1), summed per block of k over the block's lcm^s1 and merged pairwise.  For s1 <= 0 a merge is a plain add,
    so one block; with no tail that is the power sum (-t,), over odd powers with shifts (:func:`_power_sum`).
    """
    index = tuple(s)
    _refuse(index, n, len(index))
    if not index or not n:
        return Fraction(not index)  # 1 on the empty index, else 0 at N = 0
    if len(index) == 1 and index[0] <= 0:
        return Fraction(_power_sum(-int(index[0]), n))
    scales = _scales(index[1:], n)
    s1, e = index[0], max(index[0], 0)
    tail = _prefix_column([_weights(t, f, n) for t, f in zip(index[1:], scales)], n - 1)
    step = _BLOCK if e else n
    parts: list[tuple[int, int]] = []  # a binary counter: block counts fall, powers of two
    for i, a in enumerate(range(1, n + 1, step), 1):
        b = min(a + step, n + 1)
        l = lcm(*range(a, b)) if e else 1
        # weights first: map stops on them before it takes a tail entry of the next block
        parts.append((sum(map(mul, _weights(s1, l**e, b - 1, a), tail)), l))
        for _ in range((i & -i).bit_length() - 1):
            parts.append(_merge(e, parts.pop(-2), parts.pop()))
    p, l = reduce(lambda x, y: _merge(e, x, y), reversed(parts), (0, 1))
    return Fraction(p, l**e * prod(scales))


def h_signed_table(s: Sequence[int], n_max: int) -> list[Fraction]:
    """Oracle values [H_s(0), ..., H_s(n_max)] in one streaming pass, apart from the cache."""
    index = tuple(s)
    _refuse(index, n_max, max(len(index), 1))  # the empty index still has N + 1 entries
    scales = _scales(index, n_max)
    den = prod(scales)
    column = _prefix_column([_weights(e, f, n_max) for e, f in zip(index, scales)], n_max)
    return [Fraction(x, den) for x in column]


def h_word_table(w: Word, n_max: int) -> list[Fraction]:
    """Values [H_w(0), ..., H_w(n_max)] for a Y-word: the prefix sums of Li_w's memoized Taylor vector."""
    if w.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-words")
    return list(_li_vector(n_max, *w.letters).prefix_sums(n_max).padded(n_max))


def h_poly_eval(q: NCPoly, n: int) -> Fraction:
    """Linear extension sum_w <Q|w> H_w(N) over a Y-polynomial."""
    return _li_poly_vector(q, n).prefix_sums(n).coeff(n)


def _li_poly_vector(q: NCPoly, n_max: int) -> NPoly:
    """The Taylor vector sum_w <Q|w> Li_w to n_max of a Y-polynomial; its prefix sums are the harmonic sums.

    One word reads Li's vector memo.  Two or more read their own, whose entry charges the vector's integers and
    its key's frozenset, pairs and letter tuples; an admitted miss builds in the polynomial's order, not the key's.
    """
    if q.alphabet != Y:
        raise AlphabetError("harmonic sums are indexed by Y-polynomials")
    if len(q) == 1:
        ((letters, x),) = q._nums.items()
        return _li_vector(n_max, *letters) * Fraction(x, q._den)
    key = (n_max, type(n_max), q._den, frozenset(q._nums.items()))
    vector = _POLY_VECTORS.get(key)
    if vector is None:
        weight, length = q.max_grade, q.max_length
        _refuse((weight,), n_max, max(length, 1), lambda: _poly_bytes(q, weight, length, n_max))
        if not q:
            return _taylor_map((), n_max)
        vector = _taylor_map(((x, l) for l, x in q._nums.items()), n_max)  # numerators over q._den
        vector = NPoly(vector.nums, vector.den * q._den).reduced()
        memo_account.charge(sum(map(getsizeof, (vector.den, *vector.nums, key[3], *key[3], *q._nums))))
        _POLY_VECTORS[key] = vector
    return vector


@lru_cache(maxsize=None, typed=True)
def _li_vector(n_cap: int, *index: int) -> NPoly:
    """Li's Taylor vector to n_cap in lowest terms: 1 for the empty index; for one letter s the weight row (0, L n^(-s)
    for n = 1..n_cap) / L, L = lcm(1..n_cap)^max(s, 0), whose entry at n = 1 is L.  A miss is admitted first.  Typed
    keys, so (2.0,) never reads the entry of (2,) and is refused."""
    _refuse(index, n_cap, max(len(index), 1), lambda: _index_bytes(index, n_cap))  # the empty index has N + 1 entries
    if len(index) == 1:
        (scale,) = _scales(index, n_cap)
        vector = NPoly((0, *_weights(index[0], scale, n_cap)), scale)
    else:
        vector = _taylor_map([(1, index)], n_cap).reduced()
    memo_account.charge(sum(map(getsizeof, (vector.den, *vector.nums))))
    return vector


#: Taylor vectors in lowest terms of Y-polynomials of two or more words, by (N, its type, den, frozenset of terms)
_POLY_VECTORS: dict[tuple, NPoly] = {}
memo_account.tables.extend((_li_vector.cache_clear, _POLY_VECTORS.clear))


def h_poly_table(q: NCPoly, n_max: int) -> list[Fraction]:
    """Values of the linear extension for N = 0..n_max."""
    return list(_li_poly_vector(q, n_max).prefix_sums(n_max).padded(n_max))


def h_series_table(initial: Sequence, transitions: Sequence[tuple], final: Sequence, n_max: int) -> list[Fraction]:
    """[H_S(0), ..., H_S(n_max)] of the rational series S whose representation has a transition (q, s, r, c) for each
    mu(y_s)[q, r] = c (the recurrence above): admitted once, at depth its transition count, and nothing is cached."""
    _refuse(tuple(s for _, s, _, _ in transitions), n_max, max(len(transitions), 1))
    letters, state = {s for _, s, _, _ in transitions}, list(map(Fraction, final))
    out = [sum(map(mul, initial, state), Fraction(0))]
    for n in range(1, n_max + 1):
        weights, prev = {s: Fraction(n) ** -s for s in letters}, tuple(state)
        for q, s, r, c in transitions:
            state[q] += c * weights[s] * prev[r]
        out.append(sum(map(mul, initial, state), Fraction(0)))
    return out


def h_x1star_closed_form(s: "X1StarPoly") -> NPoly:
    """Polynomial N -> H of a :class:`~polylog.stars.X1StarPoly`, via H of (k x1)* = (N+1)...(N+k) / k!.

    Horner's rule in the rising basis, sum_k c_k (N+1)...(N+k)/k! = c_0 + (N+1)(c_1 + (N+2)/2 (c_2 + ...)),
    on integer numerators over den K! for the top order K: the numerator of c_k is scaled by K!/k!, so
    each step multiplies by N + k + 1 and adds one constant, with no rescale of a whole term.
    """
    nums = s.poly.nums
    acc, scale = list(nums[-1:]), 1  # scale is K!/k! at order k
    for k in reversed(range(len(nums) - 1)):
        scale *= k + 1
        acc = [(k + 1) * x + y for x, y in zip((*acc, 0), (0, *acc))]  # times N + k + 1
        acc[0] += nums[k] * scale
    return NPoly(acc, s.poly.den * scale)


def h_negindex_closed_form(s: Sequence[int]) -> NPoly:
    """Faulhaber-style closed form of the nested power sum for indices <= 0."""
    from .negindex import li_nonpositive_stars

    return h_x1star_closed_form(li_nonpositive_stars(s))
