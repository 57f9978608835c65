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

Parsing and evaluation keep pending work on an explicit stack, and a sum is
one flat node added up in one accumulation: neither nesting depth nor sum
length is limited by the recursion limit, only by memory.

Subcommands expose the library operations with JSON output on stdout and
nonzero exit codes carrying {"error": {code, message}} on failure.  Inputs of
unbounded cost are such errors: an integer of more than MAX_DIGITS digits,
star(k) or a star shuffle sh(A, B) of order above MAX_STAR_ORDER (refused
before it is built) and exps(P, cap) above MAX_EXPS_CAP.  The
``verify`` subcommand runs the suites of :mod:`polylog.checks` and exits 0 iff
every check passes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from typing import NamedTuple

# harmonic, negindex and polylog_num are imported by the commands that use them,
# so that a product request starts without compiling them
from . import products, stars
from .coding import pi_x, pi_y
from .nc_core import ONE, NCPoly, PolylogError, X, Y, format_terms
from .stars import PlaneStar, X1StarPoly, star_terms_text

# the most decimal digits of an integer a result prints (CPython's int-to-str limit)
MAX_DIGITS = 100_000
# the largest order of star(k) or sh(A, B): star(k) is dense with k + 1 entries, degree k in N
MAX_STAR_ORDER = 1_000
# the largest cap of exps(P, cap): exps(y1, cap) has 2^cap words
MAX_EXPS_CAP = 14


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
    \s*(?:
    (?P<int>\d+)
  | (?P<xword>"[01]+")
  | (?P<yword>(?:y[1-9][0-9]*)+)(?![A-Za-z_0-9])
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<sym>[-+*/(),\[\]])
  | (?P<eof>\Z)
  | (?P<bad>.)
    )""",
    re.VERBOSE | re.DOTALL,
)

# A token is a tuple (kind, text, position); the kind of a symbol is the symbol.
Token = tuple[str, str, int]


def _tokenize(src: str) -> list[Token]:
    """The tokens of ``src`` in one pass, ending in an "eof" token."""
    out = []
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", m.start(kind))
        out.append((text if kind == "sym" else kind, text, m.start(kind)))
        if kind == "eof":  # after trailing whitespace, the empty match at the end would repeat it
            break
    return out


# -- AST ---------------------------------------------------------------------
#
# A node is a tuple tagged by its first entry:
#   ("num", value, pos)            a rational
#   ("word", alphabet, letters, pos)  an X- or Y-word, its letters a tuple of ints
#   ("star", order, pos)           star(k)
#   ("plane", alpha, pos)          [a1,...]*, alpha a tuple of rationals
#   ("call", name, args, pos)      a function applied to a tuple of nodes
#   ("scale", factor, node, pos)   a rational (a sign, for unary minus) times a node
#   ("sum", terms)                 (sign, node, position of its operator) per term;
#                                  the first term is (1, node, None)

Expr = tuple
_FUNCS = {"sh": 2, "st": 2, "conc": 2, "pix": 1, "piy": 1, "exps": 2}


def _run(gen):
    """The return value of ``gen``, a generator that yields a generator for each value it needs.

    Each yielded generator is run and its return value sent back; the waiting
    ones are kept on a list, not on the call stack, so depth costs only memory.
    """
    stack, value = [gen], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


class _Parser:
    """Recursive descent in form; ``expr``, ``term`` and ``call`` are generators for _run."""

    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.i = 0

    def accept(self, kind: str) -> Token | None:
        """The next token, consumed, if it is of ``kind``; None otherwise."""
        tok = self.tokens[self.i]
        if tok[0] == kind:
            self.i += 1
            return tok
        return None

    def expect(self, sym: str) -> Token:
        tok = self.tokens[self.i]
        if tok[0] != sym:
            raise ParseError(f"expected {sym!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def expr(self):
        terms = [(1, (yield from self.term()), None)]
        while (op := self.tokens[self.i])[0] in ("+", "-"):
            self.i += 1
            terms.append((1 if op[0] == "+" else -1, (yield from self.term()), op[2]))
        return ("sum", tuple(terms)) if len(terms) > 1 else terms[0][1]

    def term(self):
        if minus := self.accept("-"):
            sign = -1  # a run of signs is one node at its last sign: no recursion per sign
            while more := self.accept("-"):
                sign, minus = -sign, more
            return ("scale", Fraction(sign), (yield from self.term()), minus[2])
        if self.tokens[self.i][0] != "int":
            return self.atom() or (yield self.call())
        num = self.scalar()
        nxt = self.tokens[self.i]
        # a scalar times an atom: "2*y1", or juxtaposed as "2 y1", "2[1]*"
        if not self.accept("*") and nxt[0] not in ("int", "xword", "yword", "ident", "["):
            return num
        return ("scale", num[1], self.atom() or (yield self.call()), nxt[2])

    def scalar(self) -> Expr:
        _, text, pos = self.tokens[self.i]
        self.i += 1
        if not self.accept("/"):
            return ("num", Fraction(int(text)), pos)
        kind, den, den_pos = self.tokens[self.i]
        if kind != "int":
            raise ParseError("expected a denominator", den_pos)
        if not int(den):
            raise ParseError("zero denominator", den_pos)
        self.i += 1
        return ("num", Fraction(int(text), int(den)), pos)

    def atom(self) -> Expr | None:
        """The atom at the next token; None, consuming nothing, at a function name."""
        kind, text, pos = self.tokens[self.i]
        # the token patterns admit only valid letters: 0 and 1 in an X-word, indices >= 1 in a Y-word
        if kind == "xword":
            self.i += 1
            return ("word", X, tuple(map(int, text[1:-1])), pos)
        if kind == "yword":
            self.i += 1
            return ("word", Y, tuple(map(int, text[1:].split("y"))), pos)
        if kind == "[":
            return self.plane_literal()
        if kind == "ident":
            if text in _FUNCS:
                return None
            if text == "star":
                self.i += 1
                self.expect("(")
                order = self.tokens[self.i]
                if order[0] != "int":
                    raise ParseError("star(k) needs a natural number", order[2])
                self.i += 1
                self.expect(")")
                return ("star", int(order[1]), pos)
            raise ParseError(f"unknown name {text!r}", pos)
        raise ParseError(
            f"expected a word, star, plane star, or function, found {text or 'end of input'!r}", pos
        )

    def call(self):
        _, name, pos = self.tokens[self.i]
        self.i += 1
        self.expect("(")
        args = [(yield self.expr())]
        while self.accept(","):
            args.append((yield self.expr()))
        self.expect(")")
        if len(args) != _FUNCS[name]:
            raise ParseError(f"{name} takes {_FUNCS[name]} argument(s), got {len(args)}", pos)
        return ("call", name, tuple(args), pos)

    def plane_literal(self) -> Expr:
        start = self.expect("[")
        alpha = [self.signed_rat()]
        while self.accept(","):
            alpha.append(self.signed_rat())
        self.expect("]")
        self.expect("*")
        return ("plane", tuple(alpha), start[2])

    def signed_rat(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        kind, _, pos = self.tokens[self.i]
        if kind != "int":
            raise ParseError("expected a rational number", pos)
        return sign * self.scalar()[1]


def parse(src: str) -> Expr:
    """Parse an expression into its AST; errors carry source positions."""
    parser = _Parser(src)
    node = _run(parser.expr())
    kind, text, pos = parser.tokens[parser.i]
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return node


# -- evaluation --------------------------------------------------------------


class Scalar(NamedTuple):
    value: Fraction


Value = object
_ALPHABET_OF = {f"{alphabet}-polynomial": alphabet for alphabet in (X, Y)}


def _type_name(v: Value) -> str:
    """The type name of a value that is not a Scalar."""
    if isinstance(v, NCPoly):
        return f"{v.alphabet}-polynomial"
    if isinstance(v, X1StarPoly):
        return "star combination"
    return "plane star"


def _as_stars(v: Value) -> Value:
    """A rational as the multiple of (0 x1)* = 1; any other value unchanged."""
    return X1StarPoly({0: v.value}) if isinstance(v, Scalar) else v


def _sum_type(a: str, b: str, pos: int) -> str:
    """The type name of a + b from those of a and b; raises at ``pos`` where they do not add."""
    # no plane star adds; a rational adds to anything else, embedded as a multiple of the unit
    if "plane star" not in (a, b) and (a == b or "rational" in (a, b)):
        return b if a == "rational" else a
    if a in _ALPHABET_OF and b in _ALPHABET_OF:
        raise ExprTypeError(f"cannot combine a {a} with a {b}", pos)
    raise ExprTypeError(f"cannot add {a} and {b}", pos)


def _star_order(k: int, pos: int) -> int:
    """``k``, refused above MAX_STAR_ORDER before anything of its size is built."""
    if k > MAX_STAR_ORDER:
        raise ValueError(f"at position {pos}: star order {k} is above {MAX_STAR_ORDER = }")
    return k


def _literal_term(node: Expr) -> tuple[str, list] | None:
    """The type name and the one (key, coefficient) pair of a term c*word, c*star(k) or c.

    The key of a word is its letters and that of a rational is None; any
    other term gives None and is evaluated.
    """
    c = ONE
    while node[0] == "scale":
        c *= node[1]
        node = node[2]
    tag = node[0]
    if tag == "word":
        return f"{node[1]}-polynomial", [(node[2], c)]
    if tag == "star":
        return "star combination", [(_star_order(node[1], node[2]), c)]
    if tag == "num":
        return "rational", [(None, c * node[1])]
    return None


def _eval_sum(terms):
    """The terms added up in one accumulation; a generator run by :func:`_run`.

    A literal term adds its one pair; any other term (a call or a plane star,
    never a rational) is evaluated and added as a value.  A type clash raises
    at its operator before any later term is evaluated, as adding left to
    right would.
    """
    like, pairs, total = None, [], None
    for sign, term, pos in terms:
        typed = _literal_term(term)
        value = None if typed else (yield _eval(term))
        kind, items = typed or (_type_name(value), [])
        like = kind if like is None else _sum_type(like, kind, pos)
        pairs += items if sign > 0 else [(k, -c) for k, c in items]
        if value is not None:
            value = value if sign > 0 else -value
            total = value if total is None else total + value
    if like == "rational":
        return Scalar(sum(c for _, c in pairs))
    if like == "star combination":
        literal = X1StarPoly((0 if k is None else k, c) for k, c in pairs)
    else:
        literal = NCPoly._from_pairs(_ALPHABET_OF[like], ((() if k is None else k, c) for k, c in pairs))
    return literal if total is None else literal + total


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


def _eval(node: Expr):
    """The value of ``node``; a generator run by :func:`_run`, yielding one per operand."""
    tag = node[0]
    if tag == "sum":
        return (yield from _eval_sum(node[1]))
    if tag == "scale":
        return _scale_value(node[1], (yield _eval(node[2])), node[3])
    if tag == "call":
        args = []
        for arg in node[2]:
            args.append((yield _eval(arg)))
        return _eval_call(node[1], args, node[3])
    if tag == "num":
        return Scalar(node[1])
    if tag == "word":
        return NCPoly._from_nums(node[1], {node[2]: 1}, 1)
    if tag == "star":
        return X1StarPoly({_star_order(node[1], node[2]): 1})
    if tag == "plane":
        return PlaneStar(node[1])
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(node: Expr) -> Value:
    """Evaluate a parsed expression to a typed value."""
    return _run(_eval(node))


def _alphabet_of(a: Value, b: Value) -> str | None:
    return next((v.alphabet for v in (a, b) if isinstance(v, NCPoly)), None)


def _eval_call(name: str, args: list[Value], pos: int) -> Value:
    """Apply function ``name``, a key of ``_FUNCS``, to evaluated arguments; ``pos`` locates errors."""
    if name == "sh":
        a, b = args
        if isinstance(a, X1StarPoly) or isinstance(b, X1StarPoly):
            a, b = _as_stars(a), _as_stars(b)
            if isinstance(a, X1StarPoly) and isinstance(b, X1StarPoly):
                _star_order(a.max_order + b.max_order, pos)
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
    cap = args[1]  # exps
    if not isinstance(cap, Scalar) or cap.value.denominator != 1 or cap.value < 0:
        raise ExprTypeError("exps(P, cap) needs a natural-number cap", pos)
    if cap.value > MAX_EXPS_CAP:
        raise ValueError(f"at position {pos}: exps cap {cap.value} is above {MAX_EXPS_CAP = }")
    return products.exp_stuffle(_as_poly(args[0], Y, pos), int(cap.value))


def parse_value(src: str) -> Value:
    return evaluate(parse(src))


# -- canonical printable forms ------------------------------------------------


def _ncpoly_texts(p: NCPoly) -> tuple[dict[str, str], str]:
    """The {word text: coefficient text} terms and expression text of a polynomial."""
    terms = p.to_terms_text()
    body = (lambda k: f'"{k}"') if p.alphabet == X else (lambda k: "y" + k.replace(",", "y"))
    return terms, format_terms([(c, body(k) if k else "") for k, c in terms.items()])


def _x1star_texts(s: X1StarPoly) -> tuple[dict[str, str], str]:
    """The {order: coefficient text} stars and the expression text of a star combination."""
    texts = [(k, str(c)) for k, c in s.items()]
    return {str(k): c for k, c in texts}, star_terms_text(texts)


def ncpoly_expr_text(p: NCPoly) -> str:
    """Canonical, re-parseable expression text of a polynomial."""
    return _ncpoly_texts(p)[1]


def value_to_json(v: Value) -> dict:
    if isinstance(v, Scalar):
        return {"type": "rational", "value": str(v.value)}
    if isinstance(v, NCPoly):
        terms, text = _ncpoly_texts(v)
        return {"type": "ncpoly", "alphabet": v.alphabet, "terms": terms, "text": text}
    if isinstance(v, X1StarPoly):
        terms, text = _x1star_texts(v)
        return {"type": "x1star", "stars": terms, "text": text}
    if isinstance(v, PlaneStar):
        return {"type": "planestar", "alpha": [str(a) for a in v.alpha], "text": str(v)}
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


def cmd_product(args) -> int:
    result = _eval_call(args.op, [parse_value(args.left), parse_value(args.right)], 0)
    _print_json(value_to_json(result))
    return 0


def cmd_neg_li(args) -> int:
    from . import negindex

    index = _parse_index_arg(args.index)
    s = negindex.li_nonpositive_stars(index)
    f = negindex.x1star_to_ratfunc(s)
    ratfunc = {"num": [str(c) for c in f.num], "pole_order": f.pole_order}
    terms, text = _x1star_texts(s)
    _print_json({"index": list(index), "ratfunc": ratfunc, "stars": terms, "stars_text": text})
    return 0


def cmd_h_closed_form(args) -> int:
    from . import harmonic

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
        _print_json({"coeffs": [str(c) for c in npoly.coeffs], "text": str(npoly)})
    return 0


def cmd_h_eval(args) -> int:
    from . import harmonic

    index = _parse_index_arg(args.index)
    _print_json(str(harmonic.h_signed_eval(index, args.n)))
    return 0


def cmd_li_coeffs(args) -> int:
    from . import polylog_num

    index = _parse_index_arg(args.index)
    if args.float_mode:
        mode, coeffs = "float", polylog_num._li_float_coeffs(index, args.ncap)
    else:
        series = polylog_num.li_taylor_coeffs(index, args.ncap)
        mode, coeffs = "exact", [str(c) for c in series.coeffs]
    if args.csv:
        print("N,coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        _print_json({"mode": mode, "coeffs": coeffs})
    return 0


def cmd_li_eval(args) -> int:
    from . import polylog_num

    index = _parse_index_arg(args.index)
    try:
        z = complex(args.z)
    except ValueError:
        raise ValueError(f"cannot parse {args.z!r} as a complex number") from None
    value = polylog_num.li_eval(index, z, args.eps)
    _print_json({"re": value.real, "im": value.imag})
    return 0


def cmd_verify(args) -> int:
    from . import checks  # only verify runs the suites; other requests skip the import

    choices = [*checks.SUITES, "all"]
    if args.suite not in choices:
        valid = ", ".join(map(repr, choices))
        message = f"argument --suite: invalid choice: {args.suite!r} (choose from {valid})"
        raise argparse.ArgumentError(None, f"polylog verify: {message}")
    if args.ncap is not None and args.ncap < 0:
        message = f"argument --ncap: must be >= 0, got {args.ncap}"
        raise argparse.ArgumentError(None, f"polylog verify: {message}")
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    seed = checks.DEFAULT_SEED if args.seed is None else args.seed
    results: list[tuple[str, checks.CheckResult]] = []
    for name in names:
        started = time.perf_counter()
        results += [(name, check.run()) for check in checks.SUITES[name](args.ncap, seed)]
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
        # argparse would print usage and exit; main answers with a JSON error instead.
        # An error this parser or a subcommand's parser already named ("polylog h-eval: ...")
        # comes back here as it propagates: it keeps that one prefix.
        named = message.startswith(self.prog)
        raise argparse.ArgumentError(None, message if named else f"{self.prog}: {message}")


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
    p.add_argument("ncap", type=int, nargs="?", default=20)
    p.add_argument("--csv", action="store_true", help="emit N,coefficient CSV")
    p.add_argument("--float", dest="float_mode", action="store_true")

    p = add("li-eval", cmd_li_eval, "numeric Li inside the unit disk")
    p.add_argument("index", help="signed index list")
    p.add_argument("z", help="complex point, e.g. 0.5 or 0.3+0.2j")
    p.add_argument("eps", type=float)

    p = add("verify", cmd_verify, "run identity verification suites")
    p.add_argument("--suite", default="all", help="a suite of polylog.checks, or all")
    p.add_argument("--ncap", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
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
            args, extras = _make_parser().parse_known_args(argv)
            if extras:  # gathered after the subcommand's parser returned: name the subcommand
                message = f"polylog {args.command}: unrecognized arguments: {' '.join(extras)}"
                raise argparse.ArgumentError(None, message)
            return args.func(args)
        except (PolylogError, ValueError, argparse.ArgumentError) as exc:
            advice = "use sys.set_int_max_str_digits() to increase the limit"  # not the CLI's
            message = str(exc).replace(advice, f"the CLI's cap is MAX_DIGITS = {MAX_DIGITS}")
            _print_json({"error": {"code": type(exc).__name__, "message": message}})
            return 2


if __name__ == "__main__":
    sys.exit(main())
