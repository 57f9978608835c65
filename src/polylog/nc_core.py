"""Exact noncommutative polynomials over the two-letter and indexed alphabets.

Two alphabets are supported:

* ``"X"``: the letters x0 and x1, the integers 0 and 1.  Words over X are
  graded by length.
* ``"Y"``: letters y_s indexed by an integer s >= 1, stored as s.  Words over
  Y are graded by weight (the sum of the indices).

An :class:`NCPoly` is a finite linear combination of words with exact
rational coefficients, stored as FLINT's ``fmpq_poly`` stores a dense one:
integer numerators keyed by stored words over one positive denominator
coprime to them all, with no zero numerator.  An X-word is stored as
``bytes`` (letter values 0 and 1), whose hash is cached and whose slicing and
translation run in C; a Y-word as a tuple, as its letters are unbounded and
the stuffle adds them (``_LETTERS``).  The form is canonical, so equality
compares one int and one dict, and the algebra runs on ints and stored words;
Words (whose ``letters`` are a tuple on either alphabet) and Fractions are
built only by the readers (``items``, ``coeff``, ``support``,
``constant_term``) and by printing.
:class:`Word` and the index coding are in :mod:`polylog.words`, which a
product request does not load; this module re-exports their names on first
use (PEP 562), so ``from polylog.nc_core import Word`` still works.

Every value in this module is immutable after construction and all operations
are pure functions, so values can be shared freely between threads.

The canonical text syntax (used by the CLI and for JSON output) writes X-words
as bitstrings over {0,1} ("01" is x0x1), Y-words as comma-joined indices
("2,1" is y2y1), and rationals as "p/q" or a bare integer.  The empty word
serializes as "".

The module also hosts :func:`format_terms`, the one text format of a signed
sum of terms ("3/2 - y1 + 2*y2y1") behind every printed polynomial and star
combination; :func:`rat_text`, the one rational rule behind every printed
exact coefficient, which writes a numerator over a denominator as
``str(Fraction)`` does, by one gcd and with no Fraction built;
:data:`memo_account`, which bounds the package's memo tables by
:data:`MEMO_BYTES`; and :func:`refuse_above`, the one size cap.  The dense
kernel is :mod:`polylog.dense`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from threading import Lock
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

X = "X"
Y = "Y"
X0 = 0
X1 = 1
_X_DIGITS = bytes.maketrans(b"\0\1", b"01")  # X-letters to their printed digits
_X_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")  # and back

RatLike = Union[Fraction, int, str]
Letters = bytes | tuple[int, ...]  # a word's stored letters: bytes on X, a tuple on Y

ZERO = Fraction(0)
ONE = Fraction(1)


class PolylogError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetError(PolylogError):
    """Operands or letters do not belong to the expected alphabet."""


class InvalidIndexError(PolylogError):
    """A multi-index entry is outside the domain of the word coding."""


class NotInImageError(PolylogError):
    """A word lies outside the image of the coding being inverted."""


def as_rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rat_text(x: int, den: int) -> str:
    """Text of x / den for den > 0 in lowest terms, as ``str(Fraction(x, den))`` writes it, by one gcd."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def format_terms(parts: Sequence[tuple[str, str]]) -> str:
    """Text of the signed sum of (coefficient text, body) terms, in the given order.

    Coefficient texts are ``str`` of nonzero rationals, so the sign and the
    magnitude are read off the text.  An empty body is the constant term; a
    coefficient of +-1 is written as a bare sign.  The empty sum is "0".
    """
    if not parts:
        return "0"
    chunks = []
    for coeff, body in parts:
        negative = coeff[0] == "-"
        size = coeff[1:] if negative else coeff
        frag = size if body == "" else body if size == "1" else f"{size}*{body}"
        sign = ("- " if negative else "+ ") if chunks else ("-" if negative else "")
        chunks.append(sign + frag)
    return " ".join(chunks)


#: Estimated bytes that the memo tables hold together before all of them are emptied.
MEMO_BYTES = 64 << 20


class _MemoAccount:
    """The one memo rule: a table charges what it stores on a miss, and past MEMO_BYTES all are emptied."""

    def __init__(self) -> None:
        self.bytes = self.clears = 0
        self.tables: list[Callable[[], None]] = []
        self._lock = Lock()

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self.bytes += nbytes
            if self.bytes > MEMO_BYTES:
                for clear in self.tables:
                    clear()
                self.bytes, self.clears = nbytes, self.clears + 1  # the charging entry is stored next


memo_account = _MemoAccount()

#: Hard cap on rows times index depth of the harmonic prefix recurrence and Taylor vectors, and on their weight bits.
MAX_TERMS = 1_000_000
#: The largest order of star(k), a star shuffle or Li at a non-positive index: a star combination is dense.
MAX_STAR_ORDER = 1_000
#: The errors a request answers: as a JSON error in the CLI, and as the failure of one check in ``verify``.
_ANSWERED = (PolylogError, ValueError, OverflowError, MemoryError, RecursionError)


def refuse_above(size: int, bound: int, cap: str, what: str, *args) -> None:
    """The one size cap, checked before any work: ValueError "<what> above <cap> = <bound>" when size > bound.

    ``what`` is formatted with ``args`` only on refusal, so a passing call builds no text.
    """
    if size > bound:
        raise ValueError(f"{what.format(*args)} above {cap} = {bound}")


def _check_alphabet(alphabet: str) -> None:
    if alphabet not in (X, Y):
        raise AlphabetError(f"unknown alphabet {alphabet!r}; expected 'X' or 'Y'")


# the grade of a word's letters: length on X, weight on Y
_GRADE = {X: len, Y: sum}
# a word's stored letters from an iterable of its letters (bytes on X, a tuple on Y); called bare, the
# empty word.  Each returns an argument of its own type unchanged, so storing a stored word copies nothing.
_LETTERS = {X: bytes, Y: tuple}

# the names of polylog.words that __getattr__ re-exports here, loading that module on first use
_WORDS = ("Word", "x_word", "y_word", "word_from_text", "word_from_index", "index_from_word")


def __getattr__(name: str):
    if name not in _WORDS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import words

    return globals().setdefault(name, getattr(words, name))  # later lookups find it without this hook


class NCPoly:
    """A finite rational-linear combination of words over one alphabet.

    Coefficient of the word with stored letters ``l`` (``_LETTERS``: bytes on X,
    a tuple on Y) is ``_nums[l] / _den``: integer numerators over one
    denominator ``_den > 0``, with no zero numerator and
    ``gcd(_den, *_nums.values()) == 1``.  Instances are
    immutable; arithmetic returns new polynomials in that canonical form.
    ``P.coeff(w)`` is the pairing <P | w> and returns 0 for absent words.
    """

    __slots__ = ("_nums", "_den", "_alphabet")

    def __init__(
        self,
        alphabet: str,
        terms: Mapping[Word, RatLike] | Iterable[tuple[Word, RatLike]] | None = None,
    ) -> None:
        _check_alphabet(alphabet)
        pairs, word = [], __getattr__("Word")
        for w, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            if not isinstance(w, word):
                raise TypeError(f"NCPoly keys must be Words, got {w!r}")
            if w.alphabet != alphabet:
                raise AlphabetError(f"word {w} is over {w.alphabet}, polynomial is over {alphabet}")
            pairs.append((w.letters, as_rat(c)))
        p = NCPoly._from_pairs(alphabet, pairs)
        self._nums, self._den, self._alphabet = p._nums, p._den, alphabet

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_nums(cls, alphabet: str, nums: dict[Letters, int], den: int) -> "NCPoly":
        """The polynomial sum_l nums[l]/den l, brought to canonical form.

        The one writer of the stored form: the caller guarantees stored letters
        (``_LETTERS[alphabet]``) valid over ``alphabet`` and den != 0; zero
        numerators are dropped and the common factor of den and every numerator
        is divided out.
        """
        if not all(nums.values()):
            nums = {l: x for l, x in nums.items() if x}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {l: x // g for l, x in nums.items()}
            den //= g
        out = cls.__new__(cls)
        out._nums, out._den, out._alphabet = nums, den, alphabet
        return out

    @classmethod
    def _from_pairs(cls, alphabet: str, pairs: Iterable[tuple[Letters, Fraction]]) -> "NCPoly":
        """The sum of (letters, rational) terms, the letters in any sequence form; repeated letters add up."""
        pairs, store = list(pairs), _LETTERS[alphabet]
        den = lcm(*(c.denominator for _, c in pairs))
        nums: dict[Letters, int] = {}
        for l, c in pairs:
            l = store(l)
            nums[l] = nums.get(l, 0) + c.numerator * (den // c.denominator)
        return cls._from_nums(alphabet, nums, den)

    @classmethod
    def zero(cls, alphabet: str) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: str) -> "NCPoly":
        _check_alphabet(alphabet)
        return cls._from_nums(alphabet, {_LETTERS[alphabet](): 1}, 1)

    @classmethod
    def from_word(cls, w: Word, coeff: RatLike = ONE) -> "NCPoly":
        c = as_rat(coeff)
        return cls._from_nums(w.alphabet, {_LETTERS[w.alphabet](w.letters): c.numerator}, c.denominator)

    # -- inspection --------------------------------------------------------

    @property
    def alphabet(self) -> str:
        return self._alphabet

    def coeff(self, w: Word) -> Fraction:
        if w.alphabet != self._alphabet:
            raise AlphabetError(f"cannot pair a {w.alphabet}-word with a {self._alphabet}-polynomial")
        return Fraction(self._nums.get(_LETTERS[w.alphabet](w.letters), 0), self._den)

    def _sorted_nums(self) -> list[tuple[Letters, int]]:
        """(letters, numerator) terms in canonical (length-then-lexicographic) order: two C sorts, the second stable."""
        return [(l, self._nums[l]) for l in sorted(sorted(self._nums), key=len)]

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms in canonical (length-then-lexicographic) order."""
        a, den, word = self._alphabet, self._den, __getattr__("Word")
        return [(word._of(tuple(l), a), Fraction(x, den)) for l, x in self._sorted_nums()]

    def support(self) -> list[Word]:
        a, word = self._alphabet, __getattr__("Word")
        return [word._of(tuple(l), a) for l, _ in self._sorted_nums()]

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get(_LETTERS[self._alphabet](), 0), self._den)

    def grades(self) -> set[int]:
        return set(map(_GRADE[self._alphabet], self._nums))

    @property
    def max_grade(self) -> int:
        """Largest grade present; 0 for the zero polynomial."""
        return max(map(_GRADE[self._alphabet], self._nums), default=0)

    @property
    def max_length(self) -> int:
        return max(map(len, self._nums), default=0)

    # -- algebra -----------------------------------------------------------

    def _require_same_alphabet(self, other: "NCPoly") -> None:
        if not isinstance(other, NCPoly):
            raise TypeError(f"expected NCPoly, got {type(other).__name__}")
        if other._alphabet != self._alphabet:
            raise AlphabetError(f"alphabet mismatch: {self._alphabet} vs {other._alphabet}")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._require_same_alphabet(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        nums = {l: a * x for l, x in self._nums.items()}
        for l, x in other._nums.items():
            nums[l] = nums.get(l, 0) + b * x
        return NCPoly._from_nums(self._alphabet, nums, den)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def _with(self, nums: dict[Letters, int], scale: int = 1) -> "NCPoly":
        """Numerators over this polynomial's denominator times ``scale``, in canonical form."""
        return NCPoly._from_nums(self._alphabet, nums, self._den * scale)

    def __neg__(self) -> "NCPoly":
        return self._with({l: -x for l, x in self._nums.items()})

    def __mul__(self, scalar: RatLike) -> "NCPoly":
        c = as_rat(scalar)
        k = c.numerator
        return self._with({l: k * x for l, x in self._nums.items()}, c.denominator)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (self._alphabet, self._den, self._nums) == (other._alphabet, other._den, other._nums)

    __hash__ = None  # type: ignore[assignment]

    def truncated(self, max_grade: int) -> "NCPoly":
        """Restriction to words of grade <= max_grade."""
        grade = _GRADE[self._alphabet]
        return self._with({l: x for l, x in self._nums.items() if grade(l) <= max_grade})

    def homogeneous_component(self, n: int) -> "NCPoly":
        grade = _GRADE[self._alphabet]
        return self._with({l: x for l, x in self._nums.items() if grade(l) == n})

    # -- serialization -----------------------------------------------------

    def to_terms_text(self) -> dict[str, str]:
        """Canonical {word text: coefficient text} mapping, ordered; each coefficient text by :func:`rat_text`."""
        den, x_words = self._den, self._alphabet == X
        terms = (  # bytes X-words sort as their bit strings do
            (l.translate(_X_DIGITS).decode() if x_words else ",".join(map(str, l)), x) for l, x in self._sorted_nums()
        )
        return {w: rat_text(x, den) for w, x in terms}

    def __str__(self) -> str:
        a, den, word = self._alphabet, self._den, __getattr__("Word")
        terms = self._sorted_nums()
        return format_terms([(rat_text(x, den), str(word._of(tuple(l), a)) if l else "") for l, x in terms])

    def __repr__(self) -> str:
        return f"NCPoly({self._alphabet!r}, {self!s})"
