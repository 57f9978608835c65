"""Letter codings between the Y and X alphabets, and the umbral q-coding.

The concatenation morphism pi_X sends y_n to x0^(n-1) x1; its inverse pi_Y
is defined exactly on the image, i.e. on combinations of X-words that end in
x1 (plus constants).  Applying pi_Y to anything else is a hard error naming
the offending word: this package never guesses an extension off the image.

The umbral coding identifies a constant-free truncated q-series
sum_n a_n q^n with the degree-one Y-element sum_n a_n y_n ("the plane").
The two are one object here: a :class:`QSeriesTrunc` is the constant-free
:class:`~polylog.dense.TaylorTrunc`, a view of an :class:`~polylog.dense.NPoly`
in q whose cap is the explicit order S_max, and
:class:`~polylog.stars.PlaneStar` is the same view read as a plane, so
starring in :mod:`polylog.stars` works on the series' integer numerators
with no copy.  Scaling and exp - 1 are that kernel's; ``umbra_to_plane``
and ``plane_to_umbra`` exchange the coefficient tuple for callers that
hold one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .dense import NPoly, TaylorTrunc
from .nc_core import AlphabetError, NCPoly, NotInImageError, RatLike, X, Y
from .words import Word, _coded, _index_of, index_from_word, word_from_index

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
    if p.alphabet != Y:
        raise NotInImageError("pi_X acts on Y-words")
    return NCPoly._from_nums(X, {_coded(l): x for l, x in p._nums.items()}, p._den)


def pi_y(p: NCPoly) -> NCPoly:
    """Inverse of pi_x on its image; words ending in x0 raise NotInImageError."""
    if p.alphabet != X:
        raise AlphabetError("pi_Y acts on X-words")
    # in canonical order, so that the error names the first word off the image
    return NCPoly._from_nums(Y, {_index_of(l): x for l, x in p._sorted_nums()}, p._den)


class QSeriesTrunc(TaylorTrunc):
    """A constant-free q-series sum_{n=1}^{S_max} coeffs[n-1] q^n.

    The :class:`TaylorTrunc` of an NPoly ``poly`` in q with zero constant term, whose
    cap is ``s_max``, the explicit order: ``coeffs[i]`` is the coefficient of q^(i+1).
    """

    __slots__ = ()
    s_max = TaylorTrunc.n_cap  # the cap's own slot, read by the order's name

    def __init__(self, coeffs: Sequence[RatLike]) -> None:
        self.poly = NPoly((0, *coeffs))
        self.n_cap = len(coeffs)

    @classmethod
    def make(cls, coeffs: Iterable[RatLike]) -> "QSeriesTrunc":
        return cls(tuple(coeffs))

    @classmethod
    def from_poly(cls, poly: NPoly, s_max: int) -> "QSeriesTrunc":
        """The coefficients of q^1..q^s_max of an NPoly in q."""
        if s_max < 0:
            raise ValueError(f"a q-series order must be >= 0, got {s_max}")
        return cls._of(NPoly((0, *poly.nums[1 : s_max + 1]), poly.den), s_max)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.poly.padded(self.n_cap)[1:]

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n (n >= 1); 0 beyond the stored range."""
        if n < 1:
            raise ValueError("coefficients are indexed from 1: the series is constant-free")
        return self.poly.coeff(n)


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
