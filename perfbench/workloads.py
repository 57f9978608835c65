"""The benchmark workloads: seeded operation streams, their execution and checks.

Each workload is an endless stream of blocks.  A block is a short, fixed mix
of operation kinds whose parameters are drawn from ``random.Random(seed)``,
so the same seed always gives the same operations.  The shapes that set an
operation's cost (word lengths, weights, depths, caps) cycle with the block
number, the same for every seed, and the seed draws the rest; so a run's
amount of work hardly depends on its seed.  An operation is plain
data (a kind and its parameters); ``execute`` turns it into library calls,
all made through the tracer, and ``check`` judges the outcome against an
independent computation.  Nothing here is timed; ``run.py`` does that.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import random
import re
from fractions import Fraction
from math import comb

from polylog import cli, coding, harmonic, negindex, polylog_num, products, stars
from polylog.nc_core import NCPoly, Word, X, Y, index_from_word, word_from_text

import defects
import oracles

# -- small helpers ---------------------------------------------------------


def _compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    return [(first,) + rest for first in range(1, total + 1) for rest in _compositions(total - first)]


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


@functools.cache
def _takes_grade_cap(fn) -> bool:
    try:
        return "grade_cap" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


# -- counted library calls ---------------------------------------------------
#
# Thin helpers that make one traced call and, when tracing, add the counters
# measured at that boundary.


def _product(T, fn, *args, cap=None):
    """A products-layer call whose result the caller cuts to grade <= cap.

    When the product functions take a ``grade_cap`` keyword the cap is passed
    to them; the result is cut with ``truncated`` either way, so the checked
    value is the same.
    """
    if cap is not None and _takes_grade_cap(fn):
        out = T.call("products", fn, *args, grade_cap=cap)
    else:
        out = T.call("products", fn, *args)
    kept = out if cap is None else T.call("nc_core", NCPoly.truncated, out, cap)
    if T.enabled:
        T.add("products.terms_out", len(out))
        T.add("products.terms_kept", len(kept))
        T.high("nc_core.max_coeff_bits", max((_bits(c) for _, c in out), default=0))
    return kept


def _series(T, fn, *args):
    out = T.call("polylog_num", fn, *args)
    if T.enabled:
        T.high("polylog_num.max_coeff_bits", max(_bits(c) for c in out.coeffs))
    return out


def _cauchy(T, a, b):
    if T.enabled:
        # cauchy multiplies every nonzero a_i by every nonzero b_j with i + j <= cap
        nonzero_prefix = [0]
        for y in b.coeffs:
            nonzero_prefix.append(nonzero_prefix[-1] + (1 if y else 0))
        n_cap = a.n_cap
        T.add(
            "polylog_num.coeff_mults",
            sum(nonzero_prefix[n_cap + 1 - i] for i, x in enumerate(a.coeffs) if x),
        )
    return _series(T, polylog_num.cauchy, a, b)


def _hadamard(T, a, b):
    if T.enabled:
        T.add("polylog_num.coeff_mults", sum(1 for x, y in zip(a.coeffs, b.coeffs) if x and y))
    return _series(T, polylog_num.hadamard, a, b)


def _stars_poly(T, fn, *args):
    out = T.call("stars", fn, *args)
    if T.enabled:
        T.add("stars.terms_out", len(out))
    return out


def _equal(T, p: NCPoly, q: NCPoly) -> bool:
    return T.call("nc_core", NCPoly.__eq__, p, q) is True


# -- series: Taylor vectors and harmonic sums --------------------------------


def _coded_x_word(rng: random.Random, shape: tuple[int, int]) -> tuple[int, ...]:
    """An X-word ending in x1 with the given (length, number of x1)."""
    length, ones = shape
    inner = [1] * (ones - 1) + [0] * (length - ones)
    rng.shuffle(inner)
    return tuple(inner) + (1,)


def _y_word(rng: random.Random, shape: tuple[int, int]) -> tuple[int, ...]:
    """A Y-word with the given (weight, length)."""
    weight, length = shape
    return rng.choice([c for c in _compositions(weight) if len(c) == length])


# (length, x1 count) of X-words of length <= 4 ending in x1, and (weight,
# length) of Y-words of weight <= 4 and <= 6: the shapes that set the cost.
_X_SHAPES_4 = [(n, k) for n in range(1, 5) for k in range(1, n + 1)]
_Y_SHAPES_4 = [(w, k) for w in range(5) for k in range(min(w, 1), w + 1)]
_Y_SHAPES_6 = [(w, k) for w in range(1, 7) for k in range(1, w + 1)]


def _signed_index(rng: random.Random, max_size: int) -> tuple[int, ...]:
    # size = depth + sum |s_i|, drawn as in ``verify --suite morphisms``
    while True:
        index = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
        if len(index) + sum(abs(s) for s in index) <= max_size:
            return index


def _nonzero_rat(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.choice([p for p in range(-num, num + 1) if p]), rng.randint(1, den))


def _series_block(rng: random.Random, b: int) -> list[tuple]:
    # each pair of shapes runs through its list in two different orders
    x, y4, y6 = _X_SHAPES_4, _Y_SHAPES_4, _Y_SHAPES_6
    return [
        ("taylor-shuffle", _coded_x_word(rng, x[b % 10]), _coded_x_word(rng, x[3 * b % 10]), 100),
        ("hadamard", _y_word(rng, y4[b % 11]), _y_word(rng, y4[4 * b % 11]), 100),
        ("stuffle-character", _y_word(rng, y6[b % 21]), _y_word(rng, y6[8 * b % 21]), 30),
        ("derivative", _signed_index(rng, 5), 60),
        ("closed-form", tuple(rng.randint(-3, 0) for _ in range(1 + b % 3)), 50),
    ]


def _op_taylor_shuffle(T, u, v, n):
    wu, wv = Word(u, X), Word(v, X)
    a = _series(T, polylog_num.li_taylor_coeffs, T.call("nc_core", index_from_word, wu), n)
    b = _series(T, polylog_num.li_taylor_coeffs, T.call("nc_core", index_from_word, wv), n)
    lhs = _cauchy(T, a, b)
    prod = _product(T, products.shuffle, NCPoly.from_word(wu), NCPoly.from_word(wv))
    rhs = _series(T, polylog_num.li_taylor_poly, prod, n)
    return lhs.coeffs == rhs.coeffs


def _op_hadamard(T, u, v, n):
    au = _series(T, polylog_num.div_one_minus_z, _series(T, polylog_num.li_taylor_coeffs, u, n))
    av = _series(T, polylog_num.div_one_minus_z, _series(T, polylog_num.li_taylor_coeffs, v, n))
    lhs = _hadamard(T, au, av)
    prod = _product(T, products.stuffle, NCPoly.from_word(Word(u, Y)), NCPoly.from_word(Word(v, Y)))
    coded = T.call("coding", coding.pi_x, prod)
    rhs = _series(T, polylog_num.div_one_minus_z, _series(T, polylog_num.li_taylor_poly, coded, n))
    return lhs.coeffs == rhs.coeffs


def _op_stuffle_character(T, u, v, n):
    wu, wv = Word(u, Y), Word(v, Y)
    prod = _product(T, products.stuffle, NCPoly.from_word(wu), NCPoly.from_word(wv))
    lhs = T.call("harmonic", harmonic.h_poly_table, prod, n)
    hu = T.call("harmonic", harmonic.h_word_table, wu, n)
    hv = T.call("harmonic", harmonic.h_word_table, wv, n)
    return all(lhs[k] == hu[k] * hv[k] for k in range(n + 1))


def _op_derivative(T, s, n):
    a = _series(T, polylog_num.li_taylor_coeffs, s, n).coeffs
    if s[0] != 1:
        b = _series(T, polylog_num.li_taylor_coeffs, (s[0] - 1,) + s[1:], n).coeffs
        return all(k * a[k] == b[k] for k in range(n + 1))
    b = _series(T, polylog_num.li_taylor_coeffs, s[1:], n).coeffs
    return all((k + 1) * a[k + 1] - k * a[k] == b[k] for k in range(n))


def _op_closed_form(T, s, n):
    f = T.call("negindex", negindex.li_nonpositive, s)
    star_form = T.call("negindex", negindex.ratfunc_to_x1star, f)
    poly = T.call("harmonic", harmonic.h_x1star_closed_form, star_form)
    table = T.call("harmonic", harmonic.h_signed_table, s, n)
    return all(T.call("harmonic", poly.eval, k) == table[k] for k in range(n + 1))


# -- capped-products: products cut to a grade cap ------------------------------


def _plane_alpha(rng: random.Random, support: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Plane-star coefficients p/q, nonzero exactly on the letters in support."""
    return tuple(_nonzero_rat(rng, 3, 3) if s in support else Fraction(0) for s in range(1, max(support) + 1))


def _x_poly_terms(rng: random.Random, max_len: int) -> tuple:
    return tuple(
        (tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_len))), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4))
    )


# Letter supports of the plane-star pairs in every block.  At cap 6 the pairs
# expand to 33 x 18, 52 x 8 and 18 x 52 words, so each block does the same
# amount of product work whatever the seed draws for the coefficients.
_PLANE_SUPPORTS = (((1, 2), (1, 3)), ((1, 2, 3), (2, 3)), ((1, 3), (1, 2, 3)))


def _capped_block(rng: random.Random, b: int) -> list[tuple]:
    ops = [("plane-star-stuffle", _plane_alpha(rng, sa), _plane_alpha(rng, sb), 6) for sa, sb in _PLANE_SUPPORTS]
    ops += [
        ("group-law", tuple(_nonzero_rat(rng, 2, 3) for _ in range(3)), _nonzero_rat(rng, 2, 3), _nonzero_rat(rng, 2, 3), 5)
        for _ in range(2)
    ]
    return ops + [
        ("ykstar-exp", 1 + b % 3, _nonzero_rat(rng, 3, 3), 6),
        ("kstar-shuffle-power", 1 + b % 3, 5),
        ("surjection", 20, 8),
        ("radford", _x_poly_terms(rng, 5)),
    ]


def _op_plane_star_stuffle(T, a, b, cap):
    pa, pb = stars.PlaneStar.make(a), stars.PlaneStar.make(b)
    combined = T.call("stars", stars.plane_star_stuffle, pa, pb)
    lhs = _stars_poly(T, stars.plane_star_expand, combined, cap)
    ea = _stars_poly(T, stars.plane_star_expand, pa, cap)
    eb = _stars_poly(T, stars.plane_star_expand, pb, cap)
    return _equal(T, lhs, _product(T, products.stuffle, ea, eb, cap=cap))


def _op_group_law(T, t, z1, z2, cap):
    series = coding.QSeriesTrunc.make(t)
    g1 = _stars_poly(T, stars.one_param_group, series, z1, cap)
    g2 = _stars_poly(T, stars.one_param_group, series, z2, cap)
    lhs = _product(T, products.stuffle, g1, g2, cap=cap)
    # G(z1 + z2) through the umbral coding: exp(zT) - 1 read back as a plane star
    scaled = T.call("coding", coding.q_scale, z1 + z2, series)
    plane = T.call("coding", coding.umbra_to_plane, T.call("coding", coding.q_exp_m1, scaled, cap))
    rhs = _stars_poly(T, stars.plane_star_expand, stars.PlaneStar(plane), cap)
    return _equal(T, lhs, rhs)


def _op_ykstar_exp(T, k, z, cap):
    return T.call("stars", stars.ykstar_exp_identity, k, z, cap) is True


def _op_kstar_shuffle_power(T, k, cap):
    return T.call("stars", stars.check_kstar_shuffle_power, k, cap) is True


def _op_surjection(T, n_max, m_max):
    return T.call("polylog_num", polylog_num.check_surjection_lemma, n_max, m_max) is True


def _op_radford(T, terms):
    p = NCPoly(X, [(Word(w, X), c) for w, c in terms])
    parts = T.call("negindex", negindex.regularize_trailing_x0, p)
    x0 = NCPoly.from_word(Word((0,), X))
    total = NCPoly.zero(X)
    for k, part in parts.items():
        power = _product(T, products.shuffle_pow, x0, k)
        total = T.call("nc_core", NCPoly.__add__, total, _product(T, products.shuffle, part, power))
    coded = all(
        w.letters[-1] == 1 for part in parts.values() for w in T.call("nc_core", NCPoly.support, part) if w.letters
    )
    return coded and _equal(T, total, p)


# -- cli-requests: requests through cli.main ----------------------------------
#
# Expression operands are small trees: ("sum", kind, ((coeff, atom), ...)) of
# atoms ("word", alphabet, letters), ("star", k), ("plane", alpha) or
# ("call", name, args...).  They print as argument text, and the check
# computes their value with the oracles.

_SIZE_LIMIT = 500


def _word_text(alphabet, letters) -> str:
    if alphabet == X:
        return '"' + "".join(map(str, letters)) + '"'
    return "".join(f"y{s}" for s in letters)


def _text(node) -> str:
    tag = node[0]
    if tag == "sum":
        parts = []
        for c, atom in node[2]:
            body = _text(atom) if abs(c) == 1 else f"{abs(c)}*{_text(atom)}"
            sign = ("-" if c < 0 else "") if not parts else ("- " if c < 0 else "+ ")
            parts.append(sign + body)
        return " ".join(parts)
    if tag == "word":
        return _word_text(node[1], node[2])
    if tag == "star":
        return f"star({node[1]})"
    if tag == "plane":
        return "[" + ",".join(str(a) for a in node[1]) + "]*"
    name, args = node[1], node[2:]
    if name == "exps":
        return f"exps({_text(args[0])}, {args[1]})"
    return f"{name}(" + ", ".join(_text(a) for a in args) + ")"


def _expected(node):
    """The value of a polynomial expression tree, computed by the oracles.

    Returns (alphabet, {letters: Fraction}).
    """
    tag = node[0]
    if tag == "word":
        return node[1], {node[2]: Fraction(1)}
    if tag == "sum":
        total = {}
        for c, atom in node[2]:
            oracles.add_into(total, _expected(atom)[1], c)
        return node[1], total
    name, args = node[1], node[2:]
    if name == "exps":
        return Y, oracles.exp_stuffle(_expected(args[0])[1], args[1])
    values = [_expected(a) for a in args]
    if name == "pix":
        return X, {oracles.x_code(w): c for w, c in values[0][1].items()}
    if name == "piy":
        return Y, {oracles.y_code(w): c for w, c in values[0][1].items()}
    word_product = {"conc": oracles.concat_words, "sh": oracles.shuffle_words, "st": oracles.quasi_shuffle_words}
    return values[0][0], oracles.product(values[0][1], values[1][1], word_product[name])


def _delannoy(m: int, n: int) -> int:
    return sum(comb(m, k) * comb(n, k) * 2**k for k in range(min(m, n) + 1))


def _literal(rng: random.Random, alphabet: str, coded: bool = False, max_terms: int = 3, max_grade: int = 3):
    """A sum of words; returns (node, terms, max length, max weight)."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        if alphabet == Y:
            letters = rng.choice(_compositions(rng.randint(1, max_grade)))
        else:
            letters = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, max_grade)))
            if coded:
                letters = letters[:-1] + (1,)
        c = Fraction(rng.choice((1, 1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
        terms.append((c, ("word", alphabet, letters)))
    length = max(len(t[1][2]) for t in terms)
    weight = max(sum(t[1][2]) if alphabet == Y else len(t[1][2]) for t in terms)
    return ("sum", alphabet, tuple(terms)), len(terms), length, weight


def _operand(rng: random.Random, alphabet: str, nested: bool, coded: bool = False):
    """An operand over one alphabet; returns (node, term bound, max length, max weight)."""
    if not nested or rng.random() < 0.4:
        return _literal(rng, alphabet, coded)
    name = rng.choice(["sh", "conc", "pix"] if alphabet == X else ["st", "sh", "conc", "piy"])
    if name == "pix":
        node, t, _, w = _operand(rng, Y, False)
        return ("call", "pix", node), t, w, w
    if name == "piy":
        node, t, length, _ = _operand(rng, X, False, coded=True)
        return ("call", "piy", node), t, length, length
    a, ta, la, wa = _operand(rng, alphabet, False, coded)
    b, tb, lb, wb = _operand(rng, alphabet, False, coded)
    grow = {"sh": comb(la + lb, la), "st": _delannoy(la, lb), "conc": 1}[name]
    return ("call", name, a, b), ta * tb * grow, la + lb, wa + wb


def _star_sum(rng: random.Random):
    return ("sum", "star", tuple((_nonzero_rat(rng, 3, 2), ("star", rng.randint(0, 3))) for _ in range(rng.randint(1, 3))))


def _product_request(rng: random.Random, command: str, j: int, b: int):
    """The j-th shuffle/stuffle request of block b.

    Slot 0 is a stuffle exponential (cap 2, 4, .., 10, 3, .., 9) or a star shuffle,
    slot 1 of stuffle a pair of plane stars; the rest are random expressions
    whose result is bounded by _SIZE_LIMIT terms.
    """
    if command == "stuffle" and j == 0:
        # exps(+-y1 +- y2, cap) st +-y1: the work depends on the cap alone
        sign = lambda: Fraction(rng.choice((-1, 1)))
        p = ("sum", Y, ((sign(), ("word", Y, (1,))), (sign(), ("word", Y, (2,)))))
        exps = ("call", "exps", p, 2 + 2 * b % 9)
        return ("call", "st", exps, ("sum", Y, ((sign(), ("word", Y, (1,))),)))
    if command == "stuffle" and j == 1:
        supports = [tuple(sorted(rng.sample(range(1, 5), rng.randint(1, 3)))) for _ in range(2)]
        return ("call", "st", ("plane", _plane_alpha(rng, supports[0])), ("plane", _plane_alpha(rng, supports[1])))
    if command == "shuffle" and j == 0:
        return ("call", "sh", _star_sum(rng), _star_sum(rng))
    alphabet = Y if command == "stuffle" or j % 2 else X
    while True:
        a, ta, la, _ = _operand(rng, alphabet, True)
        c, tc, lc, _ = _operand(rng, alphabet, True)
        grow = comb(la + lc, la) if command == "shuffle" else _delannoy(la, lc)
        if ta * tc * grow <= _SIZE_LIMIT:
            return ("call", "sh" if command == "shuffle" else "st", a, c)


def _index(rng: random.Random, lo: int, hi: int, depth: int) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(depth))


def _index_arg(index: tuple[int, ...]) -> str:
    return ",".join(map(str, index))


def _h_eval_index(rng: random.Random, first: int) -> tuple[int, ...]:
    # (s, -t): the leading index cycles through -t', 1, .., 4 with the slot and
    # block, so every trial holds the same mix of sizes.  A positive part of
    # at most 4 keeps every printed integer at N <= 2000 under Python's
    # 4300-digit conversion limit.
    return (first or -rng.randint(1, 3), -rng.randint(0, 3))


def _li_eval_point(rng: random.Random, j: int) -> complex:
    r = rng.uniform(0.05 + 0.94 * j / 6, 0.05 + 0.94 * (j + 1) / 6)
    angle = rng.choice((0.0, rng.uniform(-math.pi, math.pi)))
    return complex(round(r * math.cos(angle), 6), round(r * math.sin(angle), 6))


def _malformed(rng: random.Random, template: int) -> tuple[str, ...]:
    yw = _word_text(Y, rng.choice(_compositions(rng.randint(1, 3))))
    index = _index_arg(_index(rng, -3, 0, rng.randint(1, 2)))
    return (
        ("shuffle", f"sh({yw}", yw),
        ("stuffle", '"' + "1" * rng.randint(1, 4) + '"', yw),
        ("neg-li", f"{index},{rng.randint(1, 3)}"),
        ("h-eval", f"({index},x)", str(rng.randint(0, 50))),
        ("li-eval", index, str(round(rng.uniform(0.996, 0.999), 4)), "1e-8"),
        ("h-closed-form", yw),
        ("shuffle", f"{rng.choice(('sin', 'log', 'exp'))}({yw})", yw),
        ("stuffle", f"exps({yw}, 1/{rng.randint(2, 5)})", yw),
        ("li-coeffs", index, str(-rng.randint(1, 9))),
    )[template]


def _argv(command: str, *args: str, flags: tuple[str, ...] = ()) -> tuple[str, ...]:
    # "--" keeps arguments such as "-y1 + y2" from being read as options
    if any(a.startswith("-") for a in args):
        return (command, *flags, "--", *args)
    return (command, *flags, *args)


def _cli_request(rng: random.Random, kind: str, j: int, b: int) -> tuple:
    """The j-th request of a kind in block b; j sets its size class."""
    if kind in ("shuffle", "stuffle"):
        node = _product_request(rng, kind, j, b)
        return ("cli", kind, _argv(kind, _text(node[2]), _text(node[3])), node)
    if kind == "neg-li":
        index = _index(rng, -10, 0, 1 + j % 3)
        return ("cli", kind, _argv("neg-li", _index_arg(index)), index)
    if kind == "h-closed-form":
        if j % 2 == 0:
            index = _index(rng, -4, 0, 1 + j // 2)
            return ("cli", kind, _argv("h-closed-form", _index_arg(index)), ("index", index))
        terms = {rng.randint(0, 6): _nonzero_rat(rng, 4, 3) for _ in range(rng.randint(1, 3))}
        node = ("sum", "star", tuple((c, ("star", k)) for k, c in sorted(terms.items())))
        return ("cli", kind, _argv("h-closed-form", _text(node)), ("stars", terms))
    if kind == "h-eval":
        index, n = _h_eval_index(rng, (j + b) % 5), 333 * j + 67 * ((j + b) % 5) + rng.randint(0, 66)
        return ("cli", kind, _argv("h-eval", f"({_index_arg(index)})", str(n)), (index, n))
    if kind == "li-coeffs":
        index, n = _index(rng, -3, 3, rng.randint(1, 3)), rng.randint(0, 100)
        float_mode = j % 2 == 1
        argv = _argv("li-coeffs", _index_arg(index), str(n), flags=("--float",) if float_mode else ())
        return ("cli", kind, argv, (index, n, float_mode))
    if kind == "li-eval":
        index, z = _index(rng, 1, 3, rng.randint(1, 2)), _li_eval_point(rng, j)
        eps = (1e-6, 1e-8, 1e-10)[j % 3]
        return ("cli", kind, _argv("li-eval", _index_arg(index), repr(z).strip("()"), repr(eps)), (index, z, eps))
    return ("cli", "malformed", _argv(*_malformed(rng, (j + CLI_PER_KIND * b) % 9)), None)


_CLI_KINDS = ("shuffle", "stuffle", "neg-li", "h-closed-form", "h-eval", "li-coeffs", "li-eval", "malformed")
CLI_PER_KIND = 6


def _cli_block(rng: random.Random, b: int) -> list[tuple]:
    block = [_cli_request(rng, kind, j, b) for j in range(CLI_PER_KIND) for kind in _CLI_KINDS]
    block += [("cli", "known-defect", d.argv, d.name) for d in defects.DEFECTS]
    rng.shuffle(block)
    return block


def _op_cli(T, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = T.call("cli", cli.main, list(argv))
        except SystemExit as exc:  # argparse usage errors exit instead of returning
            rc = exc.code
    return rc, out.getvalue()


# -- checks for cli responses ---------------------------------------------------


def _load(rc, text, want_rc=0):
    if rc != want_rc:
        raise AssertionError(f"exit code {rc}, expected {want_rc}: {text[:200]!r}")
    return json.loads(text)


def _reparsed(text: str, like):
    """The value of printed expression text, parsed one term at a time.

    Term by term, because ``cli`` evaluates a long sum recursively; that
    limit has its own known-defect request.
    """
    parts = re.split(r" ([+-]) ", text)
    total = NCPoly.zero(like.alphabet) if isinstance(like, NCPoly) else stars.X1StarPoly()
    for sign, term in zip(["+"] + parts[1::2], parts[0::2]):
        value = cli.parse_value(term if sign == "+" else "-" + term)
        if isinstance(value, cli.Scalar):
            value = total.one(like.alphabet) * value.value if isinstance(like, NCPoly) else stars.X1StarPoly({0: value.value})
        elif not isinstance(like, (NCPoly, stars.X1StarPoly)):
            return value
        total = total + value
    return total


def _letters(text: str, alphabet: str) -> tuple[int, ...]:
    if alphabet == X:
        return tuple(int(ch) for ch in text)
    return tuple(int(s) for s in text.split(",")) if text else ()


# Star results are compared through their expansions: up to x1^8 a sum of
# (k x1)* with k <= 8 is fixed by its coefficients, and up to the weight of
# its last letter a plane star is fixed by its alpha.
_STAR_LENGTH = 8


def _check_product(data: dict, node) -> None:
    """The printed shuffle/stuffle value against the oracles, and its text re-parsed."""
    _, name, left, right = node
    if left[0] == "plane":
        assert data["type"] == "planestar", data.get("type")
        alpha = tuple(Fraction(a) for a in data["alpha"])
        a, b = left[1], right[1]
        assert len(alpha) == len(a) + len(b), "the plane star's length is not the sum of its factors'"
        cap = len(alpha)
        want = oracles.product(
            oracles.plane_expand(a, cap), oracles.plane_expand(b, cap), oracles.quasi_shuffle_words, cap
        )
        assert oracles.add_into({}, oracles.plane_expand(alpha, cap)) == want, "plane star differs from the stuffle"
        got = stars.PlaneStar.make(alpha)
    elif left[0] == "sum" and left[1] == "star":
        assert data["type"] == "x1star", data.get("type")
        got_terms = {int(k): Fraction(c) for k, c in data["stars"].items()}
        cut = _STAR_LENGTH
        a, b = ({} for _ in range(2))
        for side, combination in ((left, a), (right, b)):
            for c, (_, k) in side[2]:
                oracles.add_into(combination, {k: c})
        full = oracles.product(oracles.star_expand(a, cut), oracles.star_expand(b, cut), oracles.shuffle_words)
        want = {w: c for w, c in full.items() if len(w) <= cut}
        assert oracles.star_expand(got_terms, cut) == want, "star combination differs from the shuffle"
        got = stars.X1StarPoly(got_terms)
    else:
        alphabet, want = _expected(node)
        assert data["type"] == "ncpoly" and data["alphabet"] == alphabet, data.get("type")
        terms = {_letters(w, alphabet): Fraction(c) for w, c in data["terms"].items()}
        assert terms == want, "printed terms differ from the oracle product"
        got = NCPoly(alphabet, [(word_from_text(w, alphabet), c) for w, c in data["terms"].items()])
    assert _reparsed(data["text"], got) == got, "printed text does not re-parse to the value"


def _check_cli(kind: str, expect, rc, text) -> None:
    """Raise AssertionError unless the response is right."""
    if kind in ("shuffle", "stuffle"):
        _check_product(_load(rc, text), expect)
    elif kind == "neg-li":
        data = _load(rc, text)
        assert data["index"] == list(expect)
        f = negindex.RatFuncAtOne([Fraction(c) for c in data["ratfunc"]["num"]], data["ratfunc"]["pole_order"])
        assert [str(c) for c in f.num] == data["ratfunc"]["num"], "rational function is not canonical"
        assert f.taylor_coeffs(12) == oracles.li_coeffs(expect, 12), "Taylor coefficients differ from the nested sums"
        star_form = stars.X1StarPoly({int(k): Fraction(c) for k, c in data["stars"].items()})
        assert negindex.x1star_to_ratfunc(star_form) == f, "star form differs from the rational function"
        assert _reparsed(data["stars_text"], star_form) == star_form
    elif kind == "h-closed-form":
        data = _load(rc, text)
        coeffs = [Fraction(c) for c in data["coeffs"]]
        mode, arg = expect
        if mode == "index":
            top = len(arg) + sum(-s for s in arg) + len(coeffs) + 2
            want = oracles.nested_table(arg, top)
        else:
            top = max(arg) + len(coeffs) + 2
            want = [sum(c * comb(n + k, k) for k, c in arg.items()) for n in range(top + 1)]
        assert all(oracles.eval_poly(coeffs, n) == want[n] for n in range(top + 1)), "closed form differs from the sums"
    elif kind == "h-eval":
        index, n = expect
        if all(s <= 0 for s in index):
            want = harmonic.h_negindex_closed_form(index).eval(n)
        else:
            want = oracles.nested_table(index, n)[n]
        assert Fraction(_load(rc, text)) == want, "harmonic sum differs"
    elif kind == "li-coeffs":
        index, n, float_mode = expect
        data = _load(rc, text)
        want = oracles.li_coeffs(index, n)
        assert data["mode"] == ("float" if float_mode else "exact") and len(data["coeffs"]) == n + 1
        if float_mode:
            assert all(abs(f - e) <= 1e-9 * abs(e) for f, e in zip(data["coeffs"], want)), "float coefficients"
        else:
            assert [Fraction(c) for c in data["coeffs"]] == want, "exact coefficients"
    elif kind == "li-eval":
        index, z, eps = expect
        data = _load(rc, text)
        err = abs(complex(data["re"], data["im"]) - oracles.li_value(index, z, eps))
        assert err <= eps, f"off by {err:.3g} > eps {eps}"
    elif kind == "malformed":
        data = _load(rc, text, want_rc=2)
        assert isinstance(data["error"]["code"], str) and isinstance(data["error"]["message"], str)
    else:
        raise ValueError(f"unknown request kind {kind}")


# -- the workload table ------------------------------------------------------------

_OPS = {
    "taylor-shuffle": _op_taylor_shuffle,
    "hadamard": _op_hadamard,
    "stuffle-character": _op_stuffle_character,
    "derivative": _op_derivative,
    "closed-form": _op_closed_form,
    "plane-star-stuffle": _op_plane_star_stuffle,
    "group-law": _op_group_law,
    "ykstar-exp": _op_ykstar_exp,
    "kstar-shuffle-power": _op_kstar_shuffle_power,
    "surjection": _op_surjection,
    "radford": _op_radford,
}

_BLOCKS = {"series": _series_block, "capped-products": _capped_block, "cli-requests": _cli_block}


def blocks(workload: str, seed: int):
    """Endless stream of operation blocks for a workload; the seed fixes it."""
    rng = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    b = 0
    while True:
        yield make(rng, b)
        b += 1


def kind_of(op: tuple) -> str:
    return op[1] if op[0] == "cli" else op[0]


def execute(T, op: tuple):
    """Run one operation through the library; the return value goes to ``check``."""
    if op[0] == "cli":
        return _op_cli(T, op[2])
    return _OPS[op[0]](T, *op[1:])


def check(op: tuple, result, raised: BaseException | None) -> tuple[str, str]:
    """Judge an outcome: ("ok" | "fail" | "known-defect", detail)."""
    if op[0] == "cli" and op[1] == "known-defect":
        return defects.judge(op[3], result, raised)
    if raised is not None:
        return "fail", f"raised {type(raised).__name__}: {str(raised)[:200]}"
    if op[0] != "cli":
        return ("ok", "") if result is True else ("fail", f"identity returned {result!r}")
    try:
        _check_cli(op[1], op[3], *result)
    except (AssertionError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return "fail", f"{type(exc).__name__}: {exc}"[:300]
    return "ok", ""


def _word_memos():
    for name in ("_shuffle_letters", "_stuffle_letters"):
        info = getattr(getattr(products, name, None), "cache_info", None)
        if info is not None:
            yield info()


def memo_lookups() -> tuple[int | None, int | None]:
    """Hits and misses so far in the word-product memo tables; None once they are gone."""
    infos = list(_word_memos())
    if not infos:
        return None, None
    return sum(info.hits for info in infos), sum(info.misses for info in infos)


def memo_sizes() -> dict[str, int | None]:
    """Entries held by the word-product memos and harmonic's vector cache; None once gone."""
    infos = list(_word_memos())
    cache = getattr(harmonic, "_HVEC_CACHE", None)
    return {
        "entries": sum(info.currsize for info in infos) if infos else None,
        "harmonic_entries": sum(len(v) for v in cache.values()) if isinstance(cache, dict) else None,
    }
