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

A sum is one flat node, added up in one accumulation.

Subcommands expose the library operations with JSON output on stdout and
nonzero exit codes carrying {"error": {code, message}} on failure; an integer
of more than MAX_DIGITS digits is such an error.  The ``verify`` subcommand
runs the suites of :mod:`polylog.checks` and exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import checks, harmonic, negindex, polylog_num, products, stars
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

ENV_NCAP = "POLYLOG_NCAP_DEFAULT"
# the most decimal digits of an integer a result prints (CPython's int-to-str limit)
MAX_DIGITS = 100_000


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
class Scale:
    factor: Fraction
    operand: object
    pos: int


@dataclass(frozen=True, slots=True)
class Sum:
    """``first`` followed by (sign, term, position of its operator) for each later term."""

    first: object
    rest: tuple[tuple[int, object, int], ...]


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

    def accept(self, sym: str) -> Token | None:
        """The next token, consumed, if it is the symbol ``sym``; None otherwise."""
        tok = self.tokens[self.i]
        if tok.kind == "sym" and tok.text == sym:
            self.i += 1
            return tok
        return None

    def expect_sym(self, sym: str) -> Token:
        tok = self.peek()
        if not self.accept(sym):
            raise ParseError(f"expected {sym!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Expr:
        first = self.term()
        rest = []
        while (tok := self.peek()).kind == "sym" and tok.text in "+-":
            self.advance()
            rest.append((1 if tok.text == "+" else -1, self.term(), tok.pos))
        return Sum(first, tuple(rest)) if rest else first

    def term(self) -> Expr:
        if minus := self.accept("-"):
            sign = -1  # a run of signs is one node at its last sign: no recursion per sign
            while more := self.accept("-"):
                sign, minus = -sign, more
            return Scale(Fraction(sign), self.term(), minus.pos)
        if self.peek().kind != "int":
            return self.atom()
        scalar = self.scalar()
        nxt = self.peek()
        # a scalar times an atom: "2*y1", or juxtaposed as "2 y1", "2[1]*"
        if not self.accept("*") and nxt.kind not in ("int", "xword", "ident") and nxt.text != "[":
            return scalar
        return Scale(scalar.value, self.atom(), nxt.pos)

    def scalar(self) -> Num:
        tok = self.advance()
        value = Fraction(int(tok.text))
        if self.accept("/"):
            den = self.advance()
            if den.kind != "int":
                raise ParseError("expected a denominator", den.pos)
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
                while self.accept(","):
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
        while self.accept(","):
            alpha.append(self.signed_rat())
        self.expect_sym("]")
        self.expect_sym("*")
        return PlaneLit(tuple(alpha), start.pos)

    def signed_rat(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
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


def _as_stars(v: Value) -> Value:
    """A rational as the multiple of (0 x1)* = 1; any other value unchanged."""
    return X1StarPoly({0: v.value}) if isinstance(v, Scalar) else v


def _sum_type(a: Value, b: Value, pos: int) -> Value:
    """The operand whose type a + b has; raises at ``pos`` where a and b do not add."""
    if isinstance(a, Scalar) and not isinstance(b, PlaneStar):
        return b
    if isinstance(b, Scalar) and not isinstance(a, PlaneStar):
        return a
    if isinstance(a, NCPoly) and isinstance(b, NCPoly):
        if a.alphabet != b.alphabet:
            raise ExprTypeError(
                f"cannot combine a {a.alphabet}-polynomial with a {b.alphabet}-polynomial",
                pos,
            )
        return a
    if isinstance(a, X1StarPoly) and isinstance(b, X1StarPoly):
        return a
    raise ExprTypeError(f"cannot add {_type_name(a)} and {_type_name(b)}", pos)


def _eval_sum(node: Sum) -> Value:
    """The terms added up in one accumulation.

    A type clash raises at its operator, as adding left to right would.
    """
    like = evaluate(node.first)
    signed = [(1, like)]
    for sign, term, pos in node.rest:
        value = evaluate(term)
        like = _sum_type(like, value, pos)
        signed.append((sign, value))
    if isinstance(like, Scalar):
        return Scalar(sum(sign * v.value for sign, v in signed))
    unit = Word((), like.alphabet) if isinstance(like, NCPoly) else 0
    pairs = (
        (key, c if sign > 0 else -c)
        for sign, v in signed
        for key, c in ([(unit, v.value)] if isinstance(v, Scalar) else v.items())
    )
    return NCPoly(like.alphabet, pairs) if isinstance(like, NCPoly) else X1StarPoly(pairs)


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
    if isinstance(node, Scale):
        return _scale_value(node.factor, evaluate(node.operand), node.pos)
    if isinstance(node, Sum):
        return _eval_sum(node)
    if isinstance(node, Call):
        return _eval_call(node.func, [evaluate(a) for a in node.args], node.pos)
    raise TypeError(f"not an expression node: {node!r}")


def _alphabet_of(a: Value, b: Value) -> str | None:
    return next((v.alphabet for v in (a, b) if isinstance(v, NCPoly)), None)


def _eval_call(name: str, args: list[Value], pos: int) -> Value:
    """Apply function ``name`` to evaluated arguments; ``pos`` locates errors."""
    if name == "sh":
        a, b = args
        if isinstance(a, X1StarPoly) or isinstance(b, X1StarPoly):
            a, b = _as_stars(a), _as_stars(b)
            if isinstance(a, X1StarPoly) and isinstance(b, X1StarPoly):
                return a.shuffle(b)
            raise ExprTypeError("sh mixes star combinations with other values", pos)
        alphabet = _alphabet_of(a, b)
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
        alphabet = _alphabet_of(a, b)
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
            "text": str(v),
        }
    if isinstance(v, PlaneStar):
        return {
            "type": "planestar",
            "alpha": [str(a) for a in v.alpha],
            "text": str(v),
        }
    raise TypeError(f"cannot serialize {v!r}")


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


def _env_ncap(default: int | None) -> int | None:
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


def cmd_product(args) -> int:
    result = _eval_call(args.op, [parse_value(args.left), parse_value(args.right)], 0)
    _print_json(value_to_json(result))
    return 0


def cmd_neg_li(args) -> int:
    index = _parse_index_arg(args.index)
    s = negindex.li_nonpositive_stars(index)
    f = negindex.x1star_to_ratfunc(s)
    _print_json(
        {
            "index": list(index),
            "ratfunc": f.to_json_dict(),
            "stars": {str(k): str(c) for k, c in s.items()},
            "stars_text": str(s),
        }
    )
    return 0


def cmd_h_closed_form(args) -> int:
    if _looks_like_index(args.form):
        npoly = harmonic.h_negindex_closed_form(_parse_index_arg(args.form))
    else:
        value = _as_stars(parse_value(args.form))
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
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    ncap = args.ncap if args.ncap is not None else _env_ncap(None)
    results: list[tuple[str, checks.CheckResult]] = []
    for name in names:
        started = time.perf_counter()
        results += [(name, check.run()) for check in checks.SUITES[name](ncap, args.seed)]
        if not args.json:
            print(f"# suite {name} finished in {time.perf_counter() - started:.2f}s")
    failures = sum(not r.passed for _, r in results)
    if args.json:
        _print_json(
            [
                {
                    "suite": suite,
                    "check": r.name,
                    "status": "pass" if r.passed else "fail",
                    "detail": r.detail,
                    "elapsed_s": round(r.elapsed_s, 6),
                }
                for suite, r in results
            ]
        )
    else:
        for suite, r in results:
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{'PASS' if r.passed else 'FAIL'} [{suite}] {r.name}{detail}")
        print(f"# {len(results) - failures}/{len(results)} checks passed")
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

    for name, op in (("shuffle", "sh"), ("stuffle", "st")):
        p = add(name, cmd_product, f"{name} product of two expressions")
        p.set_defaults(op=op)
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
        choices=[*checks.SUITES, "all"],
        default="all",
    )
    p.add_argument("--ncap", type=int, default=None)
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    return parser


_digit_lock = threading.Lock()
_digit_requests = 0  # requests running; the first saves the caller's limit, the last restores it
_digit_saved = 0


@contextmanager
def _digit_limit():
    """The int-to-str limit is MAX_DIGITS while any request runs (the limit is process-wide)."""
    global _digit_requests, _digit_saved
    if not hasattr(sys, "set_int_max_str_digits"):  # CPython builds before 3.10.7
        yield
        return
    with _digit_lock:
        _digit_requests += 1
        if _digit_requests == 1:
            _digit_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        yield
    finally:
        with _digit_lock:
            _digit_requests -= 1
            if _digit_requests == 0:
                sys.set_int_max_str_digits(_digit_saved)


def main(argv=None) -> int:
    with _digit_limit():
        try:
            args = _make_parser().parse_args(argv)
            return args.func(args)
        except (PolylogError, ValueError, argparse.ArgumentError) as exc:
            advice = "use sys.set_int_max_str_digits() to increase the limit"  # not the CLI's
            message = str(exc).replace(advice, f"the CLI's cap is MAX_DIGITS = {MAX_DIGITS}")
            _print_json({"error": {"code": type(exc).__name__, "message": message}})
            return 2


if __name__ == "__main__":
    sys.exit(main())
