"""Expression parser and command-line front end.

Expression grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := '-' term | scalar ('*'? atom)? | atom
    atom   := xword | yword | 'star(' nat ')' | '[' rat (',' rat)* ']' '*'
              | func '(' expr (',' expr)* ')'
    xword  := '"' [01]+ '"'          e.g. "01" for x0 x1
    yword  := 'y' nat ('y' nat)*     e.g. y2y1
    scalar := int ('/' int)?

Functions: sh(a, b), st(a, b), conc(a, b), pix(a), piy(a), exps(a, cap).
Values are rationals, X/Y polynomials, star combinations star(k), and plane
stars [a1,...]*; scalars embed as multiples of the relevant unit.

Subcommands expose the library operations with JSON output on stdout and
nonzero exit codes carrying {"error": {code, message}} on failure.  The
``verify`` subcommand runs deterministic identity suites (seeded where
random) and exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import harmonic, negindex, polylog_num, products, stars
from .coding import pi_x, pi_y
from .nc_core import (
    NCPoly,
    PolylogError,
    Word,
    X,
    Y,
    format_terms,
    x_word,
    y_word,
)
from .stars import PlaneStar, X1StarPoly

DEFAULT_SEED = 20240
ENV_NCAP = "POLYLOG_NCAP_DEFAULT"


class ParseError(PolylogError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class ExprTypeError(PolylogError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


# -- tokens ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<xword>"[01]+")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/(),\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[Token]:
    out = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if not m:
            raise ParseError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup or ""
        if kind != "ws":
            out.append(Token(kind, m.group(), i))
        i = m.end()
    out.append(Token("eof", "", len(src)))
    return out


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True, slots=True)
class WordLit:
    word: Word
    pos: int


@dataclass(frozen=True, slots=True)
class StarLit:
    order: int
    pos: int


@dataclass(frozen=True, slots=True)
class PlaneLit:
    alpha: tuple[Fraction, ...]
    pos: int


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple
    pos: int


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int


@dataclass(frozen=True, slots=True)
class Neg:
    operand: object
    pos: int


Expr = object
_FUNCS = {"sh": 2, "st": 2, "conc": 2, "pix": 1, "piy": 1, "exps": 2}
_YWORD_RE = re.compile(r"^(?:y[1-9][0-9]*)+$")


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = BinOp(tok.text, node, rhs, tok.pos)
            else:
                return node

    def term(self) -> Expr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            return Neg(self.term(), tok.pos)
        if tok.kind == "int":
            scalar = self.scalar()
            nxt = self.peek()
            if nxt.kind == "sym" and nxt.text == "*":
                self.advance()
                return BinOp("scale", scalar, self.atom(), nxt.pos)
            if nxt.kind in ("int", "xword", "ident") or (
                nxt.kind == "sym" and nxt.text == "["
            ):
                return BinOp("scale", scalar, self.atom(), nxt.pos)
            return scalar
        return self.atom()

    def scalar(self) -> Num:
        tok = self.advance()
        value = Fraction(int(tok.text))
        nxt = self.peek()
        if nxt.kind == "sym" and nxt.text == "/":
            self.advance()
            den = self.peek()
            if den.kind != "int":
                raise ParseError("expected a denominator", den.pos)
            self.advance()
            value = Fraction(int(tok.text), int(den.text))
        return Num(value, tok.pos)

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "xword":
            self.advance()
            return WordLit(x_word(tok.text.strip('"')), tok.pos)
        if tok.kind == "sym" and tok.text == "[":
            return self.plane_literal()
        if tok.kind == "ident":
            if tok.text == "star":
                self.advance()
                self.expect_sym("(")
                order = self.peek()
                if order.kind != "int":
                    raise ParseError("star(k) needs a natural number", order.pos)
                self.advance()
                self.expect_sym(")")
                return StarLit(int(order.text), tok.pos)
            if tok.text in _FUNCS:
                self.advance()
                self.expect_sym("(")
                args = [self.expr()]
                while self.peek().kind == "sym" and self.peek().text == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_sym(")")
                if len(args) != _FUNCS[tok.text]:
                    raise ParseError(
                        f"{tok.text} takes {_FUNCS[tok.text]} argument(s), got {len(args)}",
                        tok.pos,
                    )
                return Call(tok.text, tuple(args), tok.pos)
            if _YWORD_RE.match(tok.text):
                self.advance()
                indices = [int(part) for part in tok.text.split("y") if part]
                return WordLit(y_word(*indices), tok.pos)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        raise ParseError(
            f"expected a word, star, plane star, or function, found {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def plane_literal(self) -> PlaneLit:
        start = self.expect_sym("[")
        alpha = [self.signed_rat()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            alpha.append(self.signed_rat())
        self.expect_sym("]")
        self.expect_sym("*")
        return PlaneLit(tuple(alpha), start.pos)

    def signed_rat(self) -> Fraction:
        sign = 1
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            raise ParseError("expected a rational number", tok.pos)
        return sign * self.scalar().value


def parse(src: str) -> Expr:
    """Parse an expression into its AST; errors carry source positions."""
    return _Parser(src).parse()


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Scalar:
    value: Fraction


Value = object


def _type_name(v: Value) -> str:
    if isinstance(v, Scalar):
        return "rational"
    if isinstance(v, NCPoly):
        return f"{v.alphabet}-polynomial"
    if isinstance(v, X1StarPoly):
        return "star combination"
    if isinstance(v, PlaneStar):
        return "plane star"
    return type(v).__name__


def _coerce_like(v: Value, like: Value) -> Value:
    if not isinstance(v, Scalar):
        return v
    if isinstance(like, NCPoly):
        return NCPoly.one(like.alphabet) * v.value
    if isinstance(like, X1StarPoly):
        return X1StarPoly({0: v.value})
    return v


def _add_values(a: Value, b: Value, pos: int, sign: int) -> Value:
    a, b = _coerce_like(a, b), _coerce_like(b, a)
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return Scalar(a.value + sign * b.value)
    if isinstance(a, NCPoly) and isinstance(b, NCPoly):
        if a.alphabet != b.alphabet:
            raise ExprTypeError(
                f"cannot combine a {a.alphabet}-polynomial with a {b.alphabet}-polynomial",
                pos,
            )
        return a + b * sign if sign != 1 else a + b
    if isinstance(a, X1StarPoly) and isinstance(b, X1StarPoly):
        return a + b * sign if sign != 1 else a + b
    raise ExprTypeError(
        f"cannot add {_type_name(a)} and {_type_name(b)}", pos
    )


def _scale_value(c: Fraction, v: Value, pos: int) -> Value:
    if isinstance(v, Scalar):
        return Scalar(c * v.value)
    if isinstance(v, (NCPoly, X1StarPoly)):
        return v * c
    raise ExprTypeError(f"cannot scale a {_type_name(v)}", pos)


def _as_poly(v: Value, alphabet: str, pos: int) -> NCPoly:
    if isinstance(v, Scalar):
        return NCPoly.one(alphabet) * v.value
    if isinstance(v, NCPoly):
        if v.alphabet != alphabet:
            raise ExprTypeError(
                f"expected a {alphabet}-polynomial, got a {v.alphabet}-polynomial", pos
            )
        return v
    raise ExprTypeError(f"expected a {alphabet}-polynomial, got {_type_name(v)}", pos)


def evaluate(node: Expr) -> Value:
    """Evaluate a parsed expression to a typed value."""
    if isinstance(node, Num):
        return Scalar(node.value)
    if isinstance(node, WordLit):
        return NCPoly.from_word(node.word)
    if isinstance(node, StarLit):
        return X1StarPoly({node.order: 1})
    if isinstance(node, PlaneLit):
        return PlaneStar(node.alpha)
    if isinstance(node, Neg):
        return _scale_value(Fraction(-1), evaluate(node.operand), node.pos)
    if isinstance(node, BinOp):
        if node.op == "scale":
            return _scale_value(evaluate(node.left).value, evaluate(node.right), node.pos)
        sign = 1 if node.op == "+" else -1
        return _add_values(evaluate(node.left), evaluate(node.right), node.pos, sign)
    if isinstance(node, Call):
        return _eval_call(node.func, [evaluate(a) for a in node.args], node.pos)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_call(name: str, args: list[Value], pos: int) -> Value:
    """Apply function ``name`` to evaluated arguments; ``pos`` locates errors."""
    if name == "sh":
        a, b = args
        if isinstance(a, X1StarPoly) or isinstance(b, X1StarPoly):
            a = _coerce_like(a, X1StarPoly())
            b = _coerce_like(b, X1StarPoly())
            if isinstance(a, X1StarPoly) and isinstance(b, X1StarPoly):
                return a.shuffle(b)
            raise ExprTypeError("sh mixes star combinations with other values", pos)
        alphabet = a.alphabet if isinstance(a, NCPoly) else (
            b.alphabet if isinstance(b, NCPoly) else None
        )
        if alphabet is None:
            raise ExprTypeError("sh needs polynomial or star operands", pos)
        return products.shuffle(_as_poly(a, alphabet, pos), _as_poly(b, alphabet, pos))
    if name == "st":
        a, b = args
        if isinstance(a, PlaneStar) and isinstance(b, PlaneStar):
            return stars.plane_star_stuffle(a, b)
        if isinstance(a, PlaneStar) or isinstance(b, PlaneStar):
            raise ExprTypeError("st on a plane star needs two plane stars", pos)
        return products.stuffle(_as_poly(a, Y, pos), _as_poly(b, Y, pos))
    if name == "conc":
        a, b = args
        alphabet = a.alphabet if isinstance(a, NCPoly) else (
            b.alphabet if isinstance(b, NCPoly) else None
        )
        if alphabet is None:
            raise ExprTypeError("conc needs polynomial operands", pos)
        return products.conc(_as_poly(a, alphabet, pos), _as_poly(b, alphabet, pos))
    if name == "pix":
        return pi_x(_as_poly(args[0], Y, pos))
    if name == "piy":
        return pi_y(_as_poly(args[0], X, pos))
    if name == "exps":
        cap = args[1]
        if not isinstance(cap, Scalar) or cap.value.denominator != 1 or cap.value < 0:
            raise ExprTypeError("exps(P, cap) needs a natural-number cap", pos)
        return products.exp_stuffle(_as_poly(args[0], Y, pos), int(cap.value))
    raise ExprTypeError(f"unknown function {name}", pos)


def parse_value(src: str) -> Value:
    return evaluate(parse(src))


# -- canonical printable forms ------------------------------------------------


def ncpoly_expr_text(p: NCPoly) -> str:
    """Canonical, re-parseable expression text of a polynomial."""
    parts = []
    for w, c in p.items():
        if w.is_empty:
            body = ""
        elif p.alphabet == X:
            body = f'"{w.text()}"'
        else:
            body = "".join(f"y{s}" for s in w.letters)
        parts.append((c, body))
    return format_terms(parts)


def x1star_expr_text(s: X1StarPoly) -> str:
    """Canonical, re-parseable expression text of a star combination."""
    return format_terms([(c, f"star({k})" if k else "") for k, c in s.items()])


def value_to_json(v: Value) -> dict:
    if isinstance(v, Scalar):
        return {"type": "rational", "value": str(v.value)}
    if isinstance(v, NCPoly):
        return {
            "type": "ncpoly",
            "alphabet": v.alphabet,
            "terms": v.to_terms_text(),
            "text": ncpoly_expr_text(v),
        }
    if isinstance(v, X1StarPoly):
        return {
            "type": "x1star",
            "stars": {str(k): str(c) for k, c in v.items()},
            "text": x1star_expr_text(v),
        }
    if isinstance(v, PlaneStar):
        return {
            "type": "planestar",
            "alpha": [str(a) for a in v.alpha],
            "text": str(v),
        }
    raise TypeError(f"cannot serialize {v!r}")


# -- verification suites -------------------------------------------------------


@dataclass(slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = "") -> None:
    results.append(CheckResult(name, bool(ok), detail if not ok else ""))


# The eight non-positive multi-indices with known exact forms:
# index -> (numerator coeffs ascending, pole order, star combination,
#           closed-form monomials or None)
KNOWN_NONPOSITIVE: list[tuple[tuple[int, ...], list[int], int, dict[int, str], dict[int, str] | None]] = [
    ((0,), [0, 1], 1, {1: "1", 0: "-1"}, {1: "1"}),
    ((-1,), [0, 1], 2, {2: "1", 1: "-1"}, {2: "1/2", 1: "1/2"}),
    ((0, 0), [0, 0, 1], 2, {2: "1", 1: "-2", 0: "1"}, {2: "1/2", 1: "-1/2"}),
    (
        (-2, -1),
        [0, 0, 4, 7, 1],
        5,
        {5: "12", 4: "-33", 3: "31", 2: "-11", 1: "1"},
        {5: "1/10", 4: "1/8", 3: "-1/12", 2: "-1/8", 1: "-1/60"},
    ),
    (
        (-2, -2),
        [0, 0, 4, 21, 14, 1],
        6,
        {6: "40", 5: "-132", 4: "161", 3: "-87", 2: "19", 1: "-1"},
        {6: "1/18", 5: "1/15", 4: "-5/72", 3: "-1/12", 2: "1/72", 1: "1/60"},
    ),
    (
        (-3, -3),
        [0, 0, 8, 179, 584, 424, 64, 1],
        8,
        {
            8: "1260",
            7: "-5400",
            6: "9270",
            5: "-8070",
            4: "3699",
            3: "-829",
            2: "71",
            1: "-1",
        },
        None,
    ),
    (
        (-1, 0, -2),
        [0, 0, 0, 3, 6, 1],
        6,
        {6: "10", 5: "-38", 4: "55", 3: "-37", 2: "11", 1: "-1"},
        {6: "1/72", 5: "-1/40", 4: "-1/36", 3: "1/24", 2: "1/72", 1: "-1/60"},
    ),
    (
        (-1, -2, -2),
        [0, 0, 0, 12, 100, 133, 34, 1],
        8,
        {
            8: "280",
            7: "-1312",
            6: "2497",
            5: "-2457",
            4: "1310",
            3: "-358",
            2: "41",
            1: "-1",
        },
        {
            8: "1/144",
            7: "-13/1260",
            6: "-7/240",
            5: "23/720",
            4: "1/24",
            3: "-19/720",
            2: "-7/360",
            1: "1/210",
        },
    ),
]


def suite_ex3(ncap: int = 50) -> list[CheckResult]:
    """Closed forms for the table of non-positive multi-indices."""
    results: list[CheckResult] = []
    for index, num, pole, star_map, npoly_map in KNOWN_NONPOSITIVE:
        label = ",".join(str(s) for s in index)
        f = negindex.li_nonpositive(index)
        expected_f = negindex.RatFuncAtOne(num, pole)
        _check(results, f"ratfunc[{label}]", f == expected_f, f"got {f}")
        s = negindex.ratfunc_to_x1star(f)
        expected_s = X1StarPoly(star_map)
        _check(results, f"stars[{label}]", s == expected_s, f"got {s}")
        npoly = harmonic.h_x1star_closed_form(s)
        if npoly_map is not None:
            expected_p = harmonic.NPoly.from_monomials(npoly_map)
            _check(results, f"npoly[{label}]", npoly == expected_p, f"got {npoly}")
        oracle = harmonic.h_signed_table(index, ncap)
        ok = all(npoly.eval(n) == oracle[n] for n in range(ncap + 1))
        _check(results, f"oracle[{label}] N<={ncap}", ok)
    return results


def suite_mixed(nmax: int = 40) -> list[CheckResult]:
    """Mixed-index identities against the brute-force nested sums."""
    results: list[CheckResult] = []
    for report in harmonic.verify_mixed_examples(nmax):
        _check(
            results,
            f"mixed[{report.name}] N<={nmax}",
            report.passed,
            f"first failure at N={report.first_failure_n}",
        )
    return results


def _compositions(total: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            out.append((first,) + rest)
    return out


def _y_words_up_to(weight: int) -> list[Word]:
    words = [Word((), Y)]
    for w in range(1, weight + 1):
        words.extend(Word(c, Y) for c in _compositions(w))
    return words


def _x_words_coded(max_len: int) -> list[Word]:
    # all X-words of length <= max_len ending in x1, plus the empty word
    out = [Word((), X)]
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        if 0 < len(prefix) and prefix[-1] == 1:
            out.append(Word(prefix, X))
        if len(prefix) < max_len:
            stack.append(prefix + (0,))
            stack.append(prefix + (1,))
    return out


def _random_y_word(rng: random.Random, max_weight: int) -> Word:
    weight = rng.randint(1, max_weight)
    comps = _compositions(weight)
    return Word(rng.choice(comps), Y)


def _random_signed_index(rng: random.Random, max_size: int) -> tuple[int, ...]:
    # size = depth + sum |s_i|
    while True:
        r = rng.randint(1, 3)
        index = tuple(rng.randint(-2, 2) for _ in range(r))
        if r + sum(abs(s) for s in index) <= max_size:
            return index


def _random_x_poly(rng: random.Random, max_len: int, max_terms: int = 4) -> NCPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_len)
        w = Word(tuple(rng.randint(0, 1) for _ in range(length)), X)
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms[w] = terms.get(w, Fraction(0)) + coeff
    return NCPoly(X, terms)


def suite_morphisms(ncap: int = 100, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Character identities, Taylor morphisms, regularization, numerics."""
    results: list[CheckResult] = []
    rng = random.Random(seed)

    words4 = _y_words_up_to(4)
    ok = all(
        harmonic.h_stuffle_check(u, v, 30) for u in words4 for v in words4
    )
    _check(results, "stuffle-character weight<=4 N<=30", ok)
    pairs = [
        (_random_y_word(rng, 6), _random_y_word(rng, 6)) for _ in range(200)
    ]
    ok = all(harmonic.h_stuffle_check(u, v, 30) for u, v in pairs)
    _check(results, "stuffle-character 200 random weight<=6", ok)
    _check(
        results,
        "stuffle-character Euler pair y2,y3",
        harmonic.h_stuffle_check(y_word(2), y_word(3), 30),
    )

    coded = _x_words_coded(4)
    ok = all(
        polylog_num.check_shuffle_morphism(u, v, ncap)
        for u in coded
        for v in coded
    )
    _check(results, f"shuffle-morphism len<=4 N<={ncap}", ok)

    ok = all(
        polylog_num.check_hadamard_identity(u, v, ncap)
        for u in words4
        for v in words4
    )
    _check(results, f"hadamard weight<=4 N<={ncap}", ok)

    indices = [_random_signed_index(rng, 5) for _ in range(30)]
    ok = all(polylog_num.check_derivative_recursion(s, 60) for s in indices)
    _check(results, "derivative-recursion 30 random size<=5 N<=60", ok)

    ok = True
    for _ in range(100):
        p = _random_x_poly(rng, 5)
        parts = negindex.regularize_trailing_x0(p)
        x0 = NCPoly.from_word(Word((0,), X))
        total = NCPoly.zero(X)
        for k, part in parts.items():
            total = total + products.shuffle(part, products.shuffle_pow(x0, k))
        if total != p or any(
            w.letters and w.letters[-1] != 1 for part in parts.values() for w in part.support()
        ):
            ok = False
            break
    _check(results, "radford-regularization 100 random roundtrips", ok)

    val = polylog_num.li_eval((1,), 0.5, 1e-10)
    _check(
        results,
        "numeric Li_1(1/2) = ln 2 within 1e-10",
        abs(val - 0.6931471805599453) <= 1e-10,
        f"got {val}",
    )
    h = float(harmonic.h_word_eval(y_word(2), 10_000))
    pi2_6 = 1.6449340668482264
    _check(
        results,
        "numeric H_y2(10^4) ~ pi^2/6 within 1.2e-4",
        abs(h - pi2_6) <= 1.2e-4,
        f"got {h}",
    )
    return results


def suite_stars(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Plane-star group law, star expansions, radius diagnostic."""
    results: list[CheckResult] = []
    rng = random.Random(seed)

    ok = True
    for _ in range(50):
        a = PlaneStar.make(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        )
        b = PlaneStar.make(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        )
        combined = stars.plane_star_expand(stars.plane_star_stuffle(a, b), 6)
        direct = products.stuffle(
            stars.plane_star_expand(a, 6), stars.plane_star_expand(b, 6), grade_cap=6
        )
        if combined != direct:
            ok = False
            break
    _check(results, "plane-star stuffle consistency 50 random pairs cap 6", ok)

    ok = True
    for _ in range(20):
        a = PlaneStar.make(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        )
        inv = stars.plane_star_inverse(a, 4)
        prod = stars.plane_star_stuffle(a, inv)
        if any(prod.coeff(n) != 0 for n in range(1, 5)):
            ok = False
            break
    _check(results, "plane-star group inverses up to order 4", ok)

    ok = all(
        stars.ykstar_exp_identity(k, z, 6)
        for k in (1, 2, 3)
        for z in (Fraction(1), Fraction(1, 2), Fraction(-1, 3))
    )
    _check(results, "ykstar exponential identity k<=3 cap 6", ok)

    ok = all(stars.check_kstar_shuffle_power(k, 5) for k in (1, 2, 3))
    _check(results, "kstar shuffle powers k<=3 cap 5", ok)

    ok = True
    for _ in range(10):
        t = stars.QSeriesTrunc.make(
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)]
        )
        z1 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        z2 = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        lhs = products.stuffle(
            stars.one_param_group(t, z1, 5), stars.one_param_group(t, z2, 5), grade_cap=5
        )
        rhs = stars.one_param_group(t, z1 + z2, 5)
        if lhs != rhs:
            ok = False
            break
    _check(results, "one-parameter stuffle group law cap 5", ok)

    report = polylog_num.dom_radius_demo(1, Fraction(1, 2), 60)
    _check(results, "radius diagnostic t=1 r=1/2 diverges", not report.converges)
    report = polylog_num.dom_radius_demo(1, Fraction(1, 4), 60)
    ok = (
        report.converges
        and report.closed_form == Fraction(3, 2)
        and abs(report.partial_sum - report.closed_form) <= report.tail_bound
    )
    _check(results, "radius diagnostic t=1 r=1/4 converges to 3/2", ok)
    return results


def suite_stirling() -> list[CheckResult]:
    """Surjection counts and the exponential generating function."""
    results: list[CheckResult] = []
    _check(
        results,
        "surjection lemma n<=20 m<=8",
        polylog_num.check_surjection_lemma(20, 8),
    )
    table_ok = (
        polylog_num.stirling2(3, 2) == 3
        and polylog_num.stirling2(7, 7) == 1
        and polylog_num.stirling2(5, 0) == 0
        and polylog_num.stirling2(6, 3) == 90
    )
    _check(results, "stirling2 spot values", table_ok)
    return results


SUITES = {
    "ex3": lambda ncap, seed: suite_ex3(ncap if ncap is not None else 50),
    "mixed": lambda ncap, seed: suite_mixed(ncap if ncap is not None else 40),
    "morphisms": lambda ncap, seed: suite_morphisms(
        ncap if ncap is not None else 100, seed
    ),
    "stars": lambda ncap, seed: suite_stars(seed),
    "stirling": lambda ncap, seed: suite_stirling(),
}


# -- command implementations ---------------------------------------------------


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _parse_index_arg(text: str) -> tuple[int, ...]:
    cleaned = text.strip().strip("()")
    if not cleaned:
        return ()
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:
        raise ParseError(f"bad multi-index {text!r}: {exc}", 0) from None


def _looks_like_index(text: str) -> bool:
    return bool(re.fullmatch(r"\(?\s*-?\d+(\s*,\s*-?\d+)*\s*\)?", text.strip()))


def _env_ncap(default: int) -> int:
    raw = os.environ.get(ENV_NCAP)
    if raw is None:
        return default
    try:
        value = int(raw)
        if value < 0:
            raise ValueError
        return value
    except ValueError:
        print(
            f"warning: ignoring invalid {ENV_NCAP}={raw!r}", file=sys.stderr
        )
        return default


def cmd_shuffle(args) -> int:
    result = _eval_call("sh", [parse_value(args.left), parse_value(args.right)], 0)
    _print_json(value_to_json(result))
    return 0


def cmd_stuffle(args) -> int:
    result = _eval_call("st", [parse_value(args.left), parse_value(args.right)], 0)
    _print_json(value_to_json(result))
    return 0


def cmd_neg_li(args) -> int:
    index = _parse_index_arg(args.index)
    f = negindex.li_nonpositive(index)
    s = negindex.ratfunc_to_x1star(f)
    _print_json(
        {
            "index": list(index),
            "ratfunc": f.to_json_dict(),
            "stars": {str(k): str(c) for k, c in s.items()},
            "stars_text": x1star_expr_text(s),
        }
    )
    return 0


def cmd_h_closed_form(args) -> int:
    if _looks_like_index(args.form):
        npoly = harmonic.h_negindex_closed_form(_parse_index_arg(args.form))
    else:
        value = parse_value(args.form)
        if isinstance(value, Scalar):
            value = X1StarPoly({0: value.value})
        if not isinstance(value, X1StarPoly):
            raise ExprTypeError(
                f"h-closed-form needs a star combination or a non-positive index, got {_type_name(value)}",
                0,
            )
        npoly = harmonic.h_x1star_closed_form(value)
    if args.csv:
        print("degree,coefficient")
        for degree, coeff in enumerate(npoly.coeffs):
            print(f"{degree},{coeff}")
    else:
        payload = npoly.to_json_dict()
        payload["text"] = str(npoly)
        _print_json(payload)
    return 0


def cmd_h_eval(args) -> int:
    index = _parse_index_arg(args.index)
    if args.n < 0:
        raise ValueError("N must be a natural number")
    _print_json(str(harmonic.h_signed_eval(index, args.n)))
    return 0


def cmd_li_coeffs(args) -> int:
    index = _parse_index_arg(args.index)
    ncap = args.ncap if args.ncap is not None else _env_ncap(20)
    trunc = polylog_num.li_taylor_coeffs(
        index, ncap, mode="float" if args.float_mode else "exact"
    )
    if args.csv:
        print("N,coefficient")
        for n, c in enumerate(trunc.coeffs):
            print(f"{n},{c}" if trunc.mode == "exact" else f"{n},{float(c)!r}")
    else:
        _print_json(trunc.to_json_dict())
    return 0


def cmd_li_eval(args) -> int:
    index = _parse_index_arg(args.index)
    try:
        z = complex(args.z)
    except ValueError:
        raise ValueError(f"cannot parse {args.z!r} as a complex number") from None
    value = polylog_num.li_eval(index, z, args.eps)
    _print_json({"re": value.real, "im": value.imag})
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ncap = args.ncap
    if ncap is None and os.environ.get(ENV_NCAP) is not None:
        env_value = _env_ncap(-1)
        ncap = None if env_value < 0 else env_value
    all_results: list[tuple[str, CheckResult]] = []
    for name in names:
        started = time.perf_counter()
        for result in SUITES[name](ncap, args.seed):
            all_results.append((name, result))
        elapsed = time.perf_counter() - started
        if not args.json:
            print(f"# suite {name} finished in {elapsed:.2f}s")
    failures = 0
    if args.json:
        _print_json(
            [
                {
                    "suite": suite,
                    "check": r.name,
                    "status": "pass" if r.passed else "fail",
                    "detail": r.detail,
                }
                for suite, r in all_results
            ]
        )
        failures = sum(1 for _, r in all_results if not r.passed)
    else:
        for suite, r in all_results:
            mark = "PASS" if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{mark} [{suite}] {r.name}{detail}")
            if not r.passed:
                failures += 1
        print(f"# {len(all_results) - failures}/{len(all_results)} checks passed")
    return 0 if failures == 0 else 1


# -- argument parsing ----------------------------------------------------------

# "-" followed by anything but a letter or "-" ("-2,-1", "-1/3", "-[1]*") is a positional
_NEGATIVE_INDEX_RE = re.compile(r"^-[^A-Za-z-]")


class _ArgParser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would print usage and exit; main answers with a JSON error instead
        raise argparse.ArgumentError(None, f"{self.prog}: {message}")


@cache
def _make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _ArgParser(
        prog="polylog",
        description="Exact shuffle/stuffle calculus for polylogarithms and harmonic sums.",
    )
    parser._negative_number_matcher = _NEGATIVE_INDEX_RE
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_INDEX_RE
        p.set_defaults(func=func)
        return p

    p = add("shuffle", cmd_shuffle, "shuffle product of two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = add("stuffle", cmd_stuffle, "stuffle product of two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = add(
        "neg-li",
        cmd_neg_li,
        "rational function and star form of Li at a non-positive multi-index",
    )
    p.add_argument("index", help="comma-separated indices, all <= 0, e.g. -2,-1")

    p = add(
        "h-closed-form",
        cmd_h_closed_form,
        "closed-form polynomial in N of a harmonic sum",
    )
    p.add_argument("form", help="non-positive index list or star expression")
    p.add_argument("--csv", action="store_true", help="emit degree,coefficient CSV")

    p = add("h-eval", cmd_h_eval, "exact harmonic sum at N for a signed index")
    p.add_argument("index", help="signed index list, e.g. (-2,-1)")
    p.add_argument("n", type=int)

    p = add("li-coeffs", cmd_li_coeffs, "truncated Taylor coefficients of Li")
    p.add_argument("index", help="signed index list")
    p.add_argument("ncap", type=int, nargs="?", default=None)
    p.add_argument("--csv", action="store_true", help="emit N,coefficient CSV")
    p.add_argument("--float", dest="float_mode", action="store_true")

    p = add("li-eval", cmd_li_eval, "numeric Li inside the unit disk")
    p.add_argument("index", help="signed index list")
    p.add_argument("z", help="complex point, e.g. 0.5 or 0.3+0.2j")
    p.add_argument("eps", type=float)

    p = add("verify", cmd_verify, "run identity verification suites")
    p.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
    )
    p.add_argument("--ncap", type=int, default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


def main(argv=None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        return args.func(args)
    except (PolylogError, ValueError, argparse.ArgumentError) as exc:
        _print_json({"error": {"code": type(exc).__name__, "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())
