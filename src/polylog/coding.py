"""Letter codings between the Y and X alphabets, and the umbral q-coding.

The concatenation morphism pi_X sends y_n to x0^(n-1) x1; its inverse pi_Y
is defined exactly on the image, i.e. on combinations of X-words that end in
x1 (plus constants).  Applying pi_Y to anything else is a hard error naming
the offending word: this package never guesses an extension off the image.

The umbral coding identifies a constant-free truncated q-series
sum_n a_n q^n with the degree-one Y-element sum_n a_n y_n ("the plane").
Here it is just a typed exchange of coefficient sequences; the point is the
bookkeeping between commutative series (where exponentials are cheap) and
plane elements that get starred in :mod:`polylog.stars`.  A
:class:`QSeriesTrunc` is a view of an :class:`~polylog.nc_core.NPoly` in q
with an explicit order S_max; scaling and exp - 1 are that kernel's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .nc_core import (
    NCPoly,
    NPoly,
    NotInImageError,
    RatLike,
    Word,
    X,
    Y,
    ZERO,
    as_rat,
    index_from_word,
    word_from_index,
)

#: Coefficient sequence (a_1 ... a_Smax) of a plane element sum a_s y_s.
PlaneStarBase = tuple[Fraction, ...]


def pi_x_word(w: Word) -> Word:
    """Image of a Y-word under the letterwise coding y_n -> x0^(n-1) x1."""
    if w.alphabet != Y:
        raise NotInImageError("pi_X acts on Y-words")
    return word_from_index(w.letters)


def pi_y_word(w: Word) -> Word:
    """Inverse coding on X-words ending in x1 (or empty)."""
    return Word(index_from_word(w), Y)


def in_image(w: Word) -> bool:
    """True iff the X-word lies in the image of pi_X (empty or ends in x1)."""
    if w.alphabet != X:
        return False
    return w.is_empty or w.ends_in_x1


def pi_x(p: NCPoly) -> NCPoly:
    """Concatenation-morphism extension of pi_x_word to Y-polynomials."""
    return NCPoly(X, [(pi_x_word(w), c) for w, c in p.items()])


def pi_y(p: NCPoly) -> NCPoly:
    """Inverse of pi_x on its image; words ending in x0 raise NotInImageError."""
    return NCPoly(Y, [(pi_y_word(w), c) for w, c in p.items()])


@dataclass(frozen=True, slots=True)
class QSeriesTrunc:
    """A constant-free q-series sum_{n=1}^{S_max} coeffs[n-1] q^n.

    ``coeffs[i]`` is the coefficient of q^(i+1); the length of ``coeffs`` is
    the explicit truncation order S_max.
    """

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "QSeriesTrunc":
        return cls(tuple(as_rat(c) for c in coeffs))

    @property
    def s_max(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n (n >= 1); 0 beyond the stored range."""
        if n < 1:
            raise ValueError("q-series are constant-free; coefficients start at q^1")
        if n > len(self.coeffs):
            return ZERO
        return self.coeffs[n - 1]

    @property
    def poly(self) -> NPoly:
        """The series as an :class:`NPoly` in q, with zero constant term."""
        return NPoly((0, *self.coeffs))

    @classmethod
    def from_poly(cls, poly: NPoly, s_max: int) -> "QSeriesTrunc":
        """The coefficients of q^1..q^s_max of an NPoly in q."""
        return cls(poly.padded(s_max)[1:])


def q_scale(c: RatLike, s: QSeriesTrunc) -> QSeriesTrunc:
    return QSeriesTrunc.from_poly(s.poly * c, s.s_max)


def q_exp_m1(s: QSeriesTrunc, s_max: int) -> QSeriesTrunc:
    """exp(S) - 1 for a constant-free S, truncated to order s_max."""
    return QSeriesTrunc.from_poly(s.poly.exp_m1(s_max), s_max)


def umbra_to_plane(s: QSeriesTrunc) -> PlaneStarBase:
    """Coefficient sequence of the plane element sum_n a_n y_n."""
    return s.coeffs


def plane_to_umbra(base: PlaneStarBase) -> QSeriesTrunc:
    """Inverse umbral coding, back to a constant-free q-series."""
    return QSeriesTrunc.make(base)
