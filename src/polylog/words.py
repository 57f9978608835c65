"""Words over the X and Y alphabets and the word coding of multi-indices.

A :class:`Word` is an immutable sequence of letters tagged with its alphabet; the empty word is the unit.
A positive multi-index (s1,...,sr) codes as x0^(s1-1) x1 ... x0^(sr-1) x1.  A Word's letters are a tuple
on either alphabet; polynomials store their words apart from Words, as bytes on X and tuples on Y
(:mod:`polylog.nc_core`, which re-exports these names on first use), so products never load this.  The
coding helpers (``_coded``, ``_index_of``, ``_trailing_x0``) work on stored X-words, with bytes joins,
splits and strips.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .nc_core import _GRADE, X1, AlphabetError, InvalidIndexError, NotInImageError, X, Y, _check_alphabet


class Word:
    """An immutable word over the X or Y alphabet.

    ``letters`` holds 0/1 values for the X alphabet and int indices s >= 1
    for the Y alphabet.  The empty tuple is the unit word of either alphabet.
    Words are values: equal and hashed by (letters, alphabet), read-only,
    and rebuilt through the constructor by pickle and copy.
    """

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters: tuple[int, ...], alphabet: str = X) -> None:
        _check_alphabet(alphabet)
        # one pass when valid; a float or bool letter equals its int twin, but prints apart and would share its keys
        if alphabet == X:
            valid = all(type(b) is int and b in (0, 1) for b in letters)
        else:
            valid = all(type(s) is int and s >= 1 for s in letters)
        if not valid:
            if not all(type(s) is int for s in letters):
                raise TypeError(f"{alphabet}-word letters must be integers, got {letters!r}")
            if alphabet == X:
                raise AlphabetError(f"X-word letters must be 0 or 1, got {letters}")
            raise AlphabetError(f"Y-word indices must be >= 1, got {letters}")
        object.__setattr__(self, "letters", letters)  # the class's own __setattr__ refuses
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def _of(cls, letters: tuple[int, ...], alphabet: str) -> "Word":
        """The word of letters already known to be valid over ``alphabet``, unchecked."""
        w = cls.__new__(cls)
        object.__setattr__(w, "letters", letters)
        object.__setattr__(w, "alphabet", alphabet)
        return w

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, (self.letters, self.alphabet)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.letters == other.letters and self.alphabet == other.alphabet
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters, self.alphabet))

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r}, alphabet={self.alphabet!r})"

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters

    @property
    def grade(self) -> int:
        """Length for X-words, weight (sum of indices) for Y-words."""
        return _GRADE[self.alphabet](self.letters)

    @property
    def ends_in_x1(self) -> bool:
        return self.alphabet == X and bool(self.letters) and self.letters[-1] == X1

    @property
    def trailing_x0_count(self) -> int:
        if self.alphabet != X:
            raise AlphabetError("trailing_x0_count is defined for X-words only")
        return _trailing_x0(bytes(self.letters))

    def text(self) -> str:
        """Canonical serialization: bitstring for X, comma-joined for Y."""
        return ("" if self.alphabet == X else ",").join(map(str, self.letters))

    def __str__(self) -> str:
        prefix = "x" if self.alphabet == X else "y"
        return "".join(prefix + str(b) for b in self.letters) or "1"


def _trailing_x0(letters: bytes) -> int:
    """The number of x0 letters after the last x1 of a stored X-word."""
    return len(letters) - len(letters.rstrip(b"\0"))


def x_word(bits: str | Iterable[int]) -> Word:
    """Build an X-word from a bitstring like "011" or an iterable of 0/1."""
    return Word(tuple(map(int, bits)) if isinstance(bits, str) else tuple(bits), X)


def y_word(*indices: int) -> Word:
    """Build a Y-word from indices, e.g. ``y_word(2, 1)`` for y2y1."""
    if len(indices) == 1 and not isinstance(indices[0], int):
        indices = tuple(indices[0])
    return Word(tuple(indices), Y)


def word_from_text(text: str, alphabet: str) -> Word:
    """Parse the canonical serialization produced by :meth:`Word.text`."""
    _check_alphabet(alphabet)
    if text == "":
        return Word((), alphabet)
    if alphabet == X:
        if any(c not in "01" for c in text):
            raise AlphabetError(f"X-word text must be over {{0,1}}: {text!r}")
        return x_word(text)
    return y_word(*(int(part) for part in text.split(",")))


def word_from_index(s: Sequence[int]) -> Word:
    """Code a positive multi-index (s1,...,sr) as x0^(s1-1) x1 ... x0^(sr-1) x1.

    The empty index codes to the empty word.  Raises InvalidIndexError for
    any non-positive entry; non-positive indices live in the rational-function
    representation, not in this coding.
    """
    bad = next((si for si in s if si < 1), None)
    if bad is not None:
        raise InvalidIndexError(f"word coding needs indices >= 1, got {bad}")
    return Word._of(tuple(_coded(s)), X)


def _coded(s: Sequence[int]) -> bytes:
    """The stored X-word x0^(s1-1) x1 ... x0^(sr-1) x1 of a positive multi-index."""
    return b"".join(b"\0" * (si - 1) + b"\1" for si in s)


def index_from_word(w: Word) -> tuple[int, ...]:
    """Invert :func:`word_from_index` on words ending in x1 (or empty)."""
    if w.alphabet != X:
        raise AlphabetError("index_from_word expects an X-word")
    return _index_of(bytes(w.letters))


def _index_of(letters: bytes) -> tuple[int, ...]:
    """The multi-index coded by a stored X-word ending in x1 (or empty): one more than each run of x0."""
    if letters and letters[-1] != X1:
        raise NotInImageError(f"word {Word._of(tuple(letters), X)} ends in x0 and codes no multi-index")
    return tuple(len(zeros) + 1 for zeros in letters.split(b"\1")[:-1])
