"""Exact noncommutative polynomials over the two-letter and indexed alphabets.

Two alphabets are supported:

* ``"X"``: the letters x0 and x1, stored as the integers 0 and 1.  Words over
  X are graded by length.
* ``"Y"``: letters y_s indexed by an integer s >= 1, stored as s.  Words over
  Y are graded by weight (the sum of the indices).

A :class:`Word` is an immutable sequence of letters tagged with its alphabet;
the empty word is the multiplicative unit.  An :class:`NCPoly` is a finite
linear combination of words with exact rational coefficients, stored as
FLINT's ``fmpq_poly`` stores a dense one: integer numerators, here keyed by
letter tuples, over one positive denominator coprime to them all, with no
zero numerator.  The form is canonical, so equality compares one int and one
dict, and the algebra runs on ints and tuples; Words and Fractions are built
only by the readers (``items``, ``coeff``, ``support``, ``constant_term``)
and by printing.

Every value in this module is immutable after construction and all operations
are pure functions, so values can be shared freely between threads.

The canonical text syntax (used by the CLI and for JSON output) writes X-words
as bitstrings over {0,1} ("01" is x0x1), Y-words as comma-joined indices
("2,1" is y2y1), and rationals as "p/q" or a bare integer.  The empty word
serializes as "".

The module also hosts the two pieces every other module shares: :class:`NPoly`,
the one dense exact kernel (integer numerators over one denominator) behind
every coefficient vector of the package - Taylor vectors and harmonic columns,
q-series and plane stars, star combinations, rational-function numerators and
closed forms in N - and :func:`format_terms`, the one text format of a signed
sum of terms ("3/2 - y1 + 2*y2y1") behind every printed polynomial and star
combination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, zip_longest
from math import gcd, lcm, perm
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence, Union

X = "X"
Y = "Y"
X0 = 0
X1 = 1

RatLike = Union[Fraction, int, str]
Letters = tuple[int, ...]

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


def _check_alphabet(alphabet: str) -> None:
    if alphabet not in (X, Y):
        raise AlphabetError(f"unknown alphabet {alphabet!r}; expected 'X' or 'Y'")


class Word:
    """An immutable word over the X or Y alphabet.

    ``letters`` holds 0/1 values for the X alphabet and indices s >= 1 for
    the Y alphabet.  The empty tuple is the unit word of either alphabet.
    Words are values: equal and hashed by (letters, alphabet), read-only,
    and rebuilt through the constructor by pickle and copy.
    """

    __slots__ = ("letters", "alphabet")

    def __init__(self, letters: tuple[int, ...], alphabet: str = X) -> None:
        _check_alphabet(alphabet)
        if alphabet == X and any(b not in (0, 1) for b in letters):
            raise AlphabetError(f"X-word letters must be 0 or 1, got {letters}")
        if alphabet == Y and any(s < 1 for s in letters):
            raise AlphabetError(f"Y-word indices must be >= 1, got {letters}")
        object.__setattr__(self, "letters", letters)  # the class's own __setattr__ refuses
        object.__setattr__(self, "alphabet", alphabet)

    @classmethod
    def _of(cls, letters: Letters, alphabet: str) -> "Word":
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
        return _trailing_x0(self.letters)

    def text(self) -> str:
        """Canonical serialization: bitstring for X, comma-joined for Y."""
        return ("" if self.alphabet == X else ",").join(map(str, self.letters))

    def __str__(self) -> str:
        prefix = "x" if self.alphabet == X else "y"
        return "".join(prefix + str(b) for b in self.letters) or "1"


# the grade of a word's letters: length on X, weight on Y
_GRADE = {X: len, Y: sum}


def _trailing_x0(letters: Letters) -> int:
    """The number of x0 letters after the last x1."""
    return next((i for i, b in enumerate(reversed(letters)) if b != X0), len(letters))


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
    return Word._of(_coded(s), X)


def _coded(s: Sequence[int]) -> Letters:
    """The letters x0^(s1-1) x1 ... x0^(sr-1) x1 of a positive multi-index."""
    return tuple(b for si in s for b in (X0,) * (si - 1) + (X1,))


def index_from_word(w: Word) -> tuple[int, ...]:
    """Invert :func:`word_from_index` on words ending in x1 (or empty)."""
    if w.alphabet != X:
        raise AlphabetError("index_from_word expects an X-word")
    return _index_of(w.letters)


def _index_of(letters: Letters) -> tuple[int, ...]:
    """The multi-index coded by X-letters ending in x1 (or empty)."""
    if letters and letters[-1] != X1:
        raise NotInImageError(f"word {Word._of(letters, X)} ends in x0 and codes no multi-index")
    out, zeros = [], 0
    for b in letters:
        if b == X0:
            zeros += 1
        else:
            out.append(zeros + 1)
            zeros = 0
    return tuple(out)


class NCPoly:
    """A finite rational-linear combination of words over one alphabet.

    Coefficient of the word with letters ``l`` is ``_nums[l] / _den``: integer
    numerators keyed by letter tuples over one denominator ``_den > 0``, with
    no zero numerator and ``gcd(_den, *_nums.values()) == 1``.  Instances are
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
        pairs = []
        for w, c in terms.items() if isinstance(terms, Mapping) else terms or ():
            if not isinstance(w, Word):
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

        The one writer of the stored form: the caller guarantees letter tuples
        valid over ``alphabet`` and den != 0; zero numerators are dropped and
        the common factor of den and every numerator is divided out.
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
        """The sum of (letters, rational) terms; repeated letters add up."""
        pairs = list(pairs)
        den = lcm(*(c.denominator for _, c in pairs))
        nums: dict[Letters, int] = {}
        for l, c in pairs:
            nums[l] = nums.get(l, 0) + c.numerator * (den // c.denominator)
        return cls._from_nums(alphabet, nums, den)

    @classmethod
    def zero(cls, alphabet: str) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: str) -> "NCPoly":
        _check_alphabet(alphabet)
        return cls._from_nums(alphabet, {(): 1}, 1)

    @classmethod
    def from_word(cls, w: Word, coeff: RatLike = ONE) -> "NCPoly":
        c = as_rat(coeff)
        return cls._from_nums(w.alphabet, {w.letters: c.numerator}, c.denominator)

    # -- inspection --------------------------------------------------------

    @property
    def alphabet(self) -> str:
        return self._alphabet

    def coeff(self, w: Word) -> Fraction:
        if w.alphabet != self._alphabet:
            raise AlphabetError(f"cannot pair a {w.alphabet}-word with a {self._alphabet}-polynomial")
        return Fraction(self._nums.get(w.letters, 0), self._den)

    def _sorted_nums(self) -> list[tuple[Letters, int]]:
        """(letters, numerator) terms in canonical (length-then-lexicographic) order."""
        return sorted(self._nums.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def items(self) -> list[tuple[Word, Fraction]]:
        """Terms in canonical (length-then-lexicographic) order."""
        a, den = self._alphabet, self._den
        return [(Word._of(l, a), Fraction(x, den)) for l, x in self._sorted_nums()]

    def support(self) -> list[Word]:
        return [Word._of(l, self._alphabet) for l, _ in self._sorted_nums()]

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get((), 0), self._den)

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
        """Canonical {word text: coefficient text} mapping, ordered; from letters and numerators."""
        sep, den = "" if self._alphabet == X else ",", self._den
        return {sep.join(map(str, l)): str(Fraction(x, den)) for l, x in self._sorted_nums()}

    def __str__(self) -> str:
        return format_terms([(str(c), "" if w.is_empty else str(w)) for w, c in self.items()])

    def __repr__(self) -> str:
        return f"NCPoly({self._alphabet!r}, {self!s})"


class NPoly:
    """A dense polynomial in one variable with exact rational coefficients.

    The package's one dense exact kernel: coefficient j is ``nums[j] / den``,
    integer numerators over one positive denominator, trimmed of trailing
    zeros.  The pair is not reduced (a gcd over every numerator costs more
    than the kernels save), so equality compares cross products, and
    Fractions are built only for ``coeffs``, :meth:`coeff`, :meth:`padded`,
    printing and JSON.  Every other dense carrier is a view of an NPoly with
    its own explicit truncation order, so trimming never shortens a cap.
    The variable is N, z, q or t = 1/(1-z) by context; printing names N.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable = (), den: int | None = None) -> None:
        """Rational coefficients, or integer numerators over ``den`` > 0 when given."""
        if den is None:
            data = [as_rat(c) for c in coeffs]
            den = lcm(1, *(c.denominator for c in data))
            coeffs = [c.numerator * (den // c.denominator) for c in data]
        nums = list(coeffs)
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den = tuple(nums), den

    @classmethod
    def from_monomials(cls, monomials: Mapping[int, RatLike]) -> "NPoly":
        """Build from a {degree: coefficient} mapping."""
        return cls(monomials.get(j, 0) for j in range(max(monomials, default=-1) + 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        return self.padded(self.degree)

    def padded(self, n: int) -> tuple[Fraction, ...]:
        """Coefficients 0..n as Fractions, cut or zero-padded to n + 1 entries; none for n < 0."""
        head = tuple(Fraction(x, self.den) for x in self.nums[: max(n + 1, 0)])
        return head + (ZERO,) * (n + 1 - len(head))

    def coeff(self, j: int) -> Fraction:
        """Coefficient of the j-th power; 0 outside the stored range."""
        return Fraction(self.nums[j], self.den) if 0 <= j < len(self.nums) else ZERO

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree -1."""
        return len(self.nums) - 1

    def __len__(self) -> int:
        return len(self.nums)

    def eval(self, x):
        """Horner evaluation; in integers over one denominator at a rational point."""
        if isinstance(x, Rational):
            p, q = x.numerator, x.denominator
            acc, qk = 0, 1
            for c in reversed(self.nums):
                acc = acc * p + c * qk
                qk *= q
            return Fraction(acc * q, self.den * qk)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- kernels -------------------------------------------------------------

    @staticmethod
    def lin_comb(terms: Iterable[tuple[RatLike, "NPoly"]], n: int | None = None) -> "NPoly":
        """sum_k c_k p_k in ints over one denominator; with n, cut to degree n (zero if n < 0)."""
        terms = [(as_rat(c), p) for c, p in terms]
        den = lcm(1, *(c.denominator * p.den for c, p in terms))
        size = max((len(p.nums) for _, p in terms), default=0) if n is None else max(n + 1, 0)
        acc = [0] * size
        for c, p in terms:
            k = c.numerator * (den // (c.denominator * p.den))
            acc = [a + k * x for a, x in zip_longest(acc, p.nums[:size], fillvalue=0)]
        return NPoly(acc, den)

    def __add__(self, other: "NPoly") -> "NPoly":
        return NPoly.lin_comb([(1, self), (1, other)])

    def __sub__(self, other: "NPoly") -> "NPoly":
        return NPoly.lin_comb([(1, self), (-1, other)])

    def __neg__(self) -> "NPoly":
        return NPoly([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, NPoly):
            return self.mul_trunc(other, len(self.nums) + len(other.nums) - 2)
        c = as_rat(other)
        return NPoly([c.numerator * x for x in self.nums], self.den * c.denominator)

    __rmul__ = __mul__

    def mul_trunc(self, other: "NPoly", n: int) -> "NPoly":
        """Cauchy product cut to degree n; zero for n < 0."""
        ys = other.nums
        out = [0] * (n + 1)
        for i, x in enumerate(self.nums[: max(n + 1, 0)]):
            if not x:
                continue
            for j, y in enumerate(ys[: n + 1 - i]):
                if y:
                    out[i + j] += x * y
        return NPoly(out, self.den * other.den)

    def hadamard(self, other: "NPoly") -> "NPoly":
        """Coefficientwise product."""
        return NPoly([x * y for x, y in zip(self.nums, other.nums)], self.den * other.den)

    def prefix_sums(self, n: int) -> "NPoly":
        """Coefficients 0..n of p/(1-z): b_k = p_0 + ... + p_k; zero for n < 0."""
        head = self.nums[: max(n + 1, 0)]
        return NPoly(accumulate(head + (0,) * (n + 1 - len(head))), self.den)

    def star_inverse(self, n: int) -> "NPoly":
        """(1 + p)^-1 - 1 to degree n, for p without constant term.

        With p_k = s_k / d the coefficients are T_k / d^k for the integers
        T_k = -(s_k d^(k-1) + sum_{0<i<k} s_i d^(i-1) T_(k-i)).
        """
        if n < 0:
            raise ValueError(f"star inverse needs a degree n >= 0, got {n}")
        p, d = self.nums, self.den
        s = [0] + [p[i] * d ** (i - 1) if i < len(p) else 0 for i in range(1, n + 1)]
        t = [0]
        for k in range(1, n + 1):
            t.append(-(s[k] + sum(s[i] * t[k - i] for i in range(1, k))))
        return NPoly([x * d ** (n - k) for k, x in enumerate(t)], d**n)

    def exp_m1(self, n: int) -> "NPoly":
        """exp(p) - 1 to degree n, for p without constant term: m e_m = sum_k k p_k e_(m-k).

        Over D = n! d^n (p_k = s_k / d) the numerators are integers: m d U_m = sum_k k s_k U_(m-k).
        """
        if n < 0:
            raise ValueError(f"exp - 1 needs a degree n >= 0, got {n}")
        p, d = self.nums, self.den
        u = [perm(n) * d**n]
        for m in range(1, n + 1):
            u.append(sum(k * p[k] * u[m - k] for k in range(1, min(m + 1, len(p)))) // (m * d))
        return NPoly([0, *u[1:]], u[0])

    def euler(self, pole: int) -> "NPoly":
        """Numerator of theta (p / (1-z)^pole) over (1-z)^(pole+1), theta = z d/dz.

        One pass: z sum_i ((i+1) p_(i+1) + (pole - i) p_i) z^i.
        """
        p = self.nums + (0,)
        terms = ((i + 1) * p[i + 1] + (pole - i) * p[i] for i in range(len(self.nums)))
        return NPoly([0, *terms], self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NPoly):
            return NotImplemented
        if self.den == other.den or len(self.nums) != len(other.nums):
            return self.nums == other.nums
        return all(x * other.den == y * self.den for x, y in zip(self.nums, other.nums))

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self.nums)

    def _monomials(self, var: str) -> list[tuple[str, str]]:
        """The nonzero (coefficient text, var^j) terms, ascending, for :func:`format_terms`."""
        return [
            (str(c), "" if j == 0 else var if j == 1 else f"{var}^{j}")
            for j, c in enumerate(self.coeffs)
            if c
        ]

    def __str__(self) -> str:
        return format_terms(self._monomials("N")[::-1])

    def __repr__(self) -> str:
        return f"NPoly({self!s})"
