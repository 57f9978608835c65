"""Expression parser and command-line front end.

Expression grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := '-'* (scalar ('*'? atom)? | atom)
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
nonzero exit codes carrying {"error": {code, message}} on failure; every JSON
answer goes through :func:`_print_json`, which writes the bytes of
``json.dumps(payload, indent=2)`` in one pass.  Inputs of
unbounded cost are such errors: an integer of more than MAX_DIGITS digits, and
each size cap of :func:`polylog.nc_core.refuse_above`.  This module runs
shuffle and stuffle; the other commands are in :mod:`polylog.commands`,
imported when one first runs.  A request builds only its command's parser, from
``_COMMANDS``; help and an unknown command build the tree of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

# A product request compiles only products and nc_core: other modules load where they are used, stars
# and coding through the package's names (polylog.X1StarPoly) once a star, plane star, pix or piy is met.
import polylog
from . import products
from .nc_core import _ANSWERED, _X_FROM_DIGITS, MAX_STAR_ORDER, ONE, NCPoly, PolylogError, X, Y, format_terms, refuse_above

# the most decimal digits of an integer a result prints (CPython's int-to-str limit)
MAX_DIGITS = 100_000
# the largest cap of exps(P, cap): exps(y1, cap) has 2^cap words
MAX_EXPS_CAP = 14


class _PositionedError(PolylogError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class ParseError(_PositionedError):
    """A malformed expression, at the position where reading it failed."""


class ExprTypeError(_PositionedError):
    """A well-formed expression whose values do not combine, at the offending operator or call."""


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
# An expression, and each argument of a call, is one node ("sum", terms).  A term is a tuple
# (coefficient, node, scale position, operator position): the coefficient folds the sign of its
# operator, its own signs and its scalar into one rational; the node is None for a rational; a
# scaled plane star is refused at the scale position, that of the token after the scalar or else of
# the last sign; a position is None where there is none.  Any other node is tagged by its first entry:
#   ("word", alphabet, letters, pos)  an X- or Y-word, its letters stored as NCPoly keys them
#   ("star", order, pos)           star(k)
#   ("plane", alpha, pos)          [a1,...]*, alpha a tuple of rationals
#   ("call", name, args, pos)      a function applied to a tuple of sum nodes

Expr = tuple
_MINUS_ONE = -ONE  # with ONE, the coefficient of a term with signs and no scalar: no Fraction built per term
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
        terms = [(yield from self.term(1, None))]
        while (op := self.tokens[self.i])[0] in ("+", "-"):
            self.i += 1
            terms.append((yield from self.term(1 if op[0] == "+" else -1, op[2])))
        return ("sum", tuple(terms))

    def term(self, sign: int, op_pos: int | None):
        pos = None
        while minus := self.accept("-"):  # a run of signs folds into the coefficient: no recursion per sign
            sign, pos = -sign, minus[2]
        if self.tokens[self.i][0] != "int":
            return (ONE if sign > 0 else _MINUS_ONE), self.atom() or (yield self.call()), pos, op_pos
        c = self.scalar() if sign > 0 else -self.scalar()
        nxt = self.tokens[self.i]
        # a scalar times an atom: "2*y1", or juxtaposed as "2 y1", "2[1]*"
        if not self.accept("*") and nxt[0] not in ("int", "xword", "yword", "ident", "["):
            return c, None, pos, op_pos
        return c, self.atom() or (yield self.call()), nxt[2], op_pos

    def scalar(self) -> Fraction:
        text = self.tokens[self.i][1]
        self.i += 1
        if not self.accept("/"):
            return Fraction(int(text))
        kind, den, den_pos = self.tokens[self.i]
        if kind != "int":
            raise ParseError("expected a denominator", den_pos)
        if not int(den):
            raise ParseError("zero denominator", den_pos)
        self.i += 1
        return Fraction(int(text), int(den))

    def atom(self) -> Expr | None:
        """The atom at the next token; None, consuming nothing, at a function name."""
        kind, text, pos = self.tokens[self.i]
        # the token patterns admit only valid letters: 0 and 1 in an X-word, indices >= 1 in a Y-word
        if kind == "xword":
            self.i += 1
            return ("word", X, text[1:-1].encode().translate(_X_FROM_DIGITS), pos)
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
        return sign * self.scalar()


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
    """The type name of a value."""
    if isinstance(v, Scalar):
        return "rational"
    if isinstance(v, NCPoly):
        return f"{v.alphabet}-polynomial"
    return "star combination" if isinstance(v, polylog.X1StarPoly) else "plane star"


def _as_stars(v: Value) -> Value:
    """A rational as the multiple of (0 x1)* = 1; any other value unchanged."""
    return polylog.X1StarPoly({0: v.value}) if isinstance(v, Scalar) else v


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
    refuse_above(k, MAX_STAR_ORDER, "MAX_STAR_ORDER", "at position {}: star order {} is", pos, k)
    return k


def _eval_sum(terms):
    """The value of a sum node's terms, added up in one accumulation; a generator run by :func:`_run`.

    A word, star(k) or rational term adds its one (key, coefficient) pair.  A call,
    evaluated operand by operand, or a plane star is a value, multiplied by its
    coefficient only once its type is known to add.  A type clash raises at its
    operator before any later term is evaluated, as adding left to right would.
    """
    like, pairs, total = None, [], None
    for c, node, scale_pos, op_pos in terms:
        value = None
        if node is None:
            kind, key = "rational", None
        elif node[0] == "word":
            kind, key = f"{node[1]}-polynomial", node[2]
        elif node[0] == "star":
            kind, key = "star combination", _star_order(node[1], node[2])
        else:
            if node[0] == "plane":
                value = polylog.PlaneStar(node[1])
            else:
                args = []
                for arg in node[2]:
                    args.append((yield _eval_sum(arg[1])))
                value = _eval_call(node[1], args, node[3])
            kind = _type_name(value)
            if kind == "plane star" and scale_pos is not None:
                raise ExprTypeError("cannot scale a plane star", scale_pos)
        like = kind if like is None else _sum_type(like, kind, op_pos)
        if value is None:
            pairs.append((key, c))
        else:
            value = value if c is ONE else value * c
            total = value if total is None else total + value
    if not pairs:
        return total
    if like == "rational":
        return Scalar(sum(c for _, c in pairs))
    if like == "star combination":
        literal = polylog.X1StarPoly((0 if k is None else k, c) for k, c in pairs)
    else:
        literal = NCPoly._from_pairs(_ALPHABET_OF[like], ((() if k is None else k, c) for k, c in pairs))
    return literal if total is None else literal + total


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
    """Evaluate a parsed expression, a sum node, to a typed value."""
    if node[0] != "sum":
        raise TypeError(f"not an expression node: {node!r}")
    return _run(_eval_sum(node[1]))


def _as_polys(a: Value, b: Value, message: str, pos: int) -> tuple[NCPoly, NCPoly]:
    """Both operands over the alphabet of the first polynomial among them; ``message`` if neither is one."""
    alphabet = next((v.alphabet for v in (a, b) if isinstance(v, NCPoly)), None)
    if alphabet is None:
        raise ExprTypeError(message, pos)
    return _as_poly(a, alphabet, pos), _as_poly(b, alphabet, pos)


def _eval_call(name: str, args: list[Value], pos: int) -> Value:
    """Apply function ``name``, a key of ``_FUNCS``, to evaluated arguments; ``pos`` locates errors."""
    if name == "sh":
        a, b = args
        kinds = {_type_name(a), _type_name(b)}
        if "star combination" in kinds:
            if not kinds <= {"star combination", "rational"}:
                raise ExprTypeError("sh mixes star combinations with other values", pos)
            a, b = _as_stars(a), _as_stars(b)
            _star_order(a.max_order + b.max_order, pos)
            return a.shuffle(b)
        return products.shuffle(*_as_polys(a, b, "sh needs polynomial or star operands", pos))
    if name == "st":
        a, b = args
        if _type_name(a) == _type_name(b) == "plane star":
            return polylog.plane_star_stuffle(a, b)
        if "plane star" in (_type_name(a), _type_name(b)):
            raise ExprTypeError("st on a plane star needs two plane stars", pos)
        return products.stuffle(_as_poly(a, Y, pos), _as_poly(b, Y, pos))
    if name == "conc":
        return products.conc(*_as_polys(*args, "conc needs polynomial operands", pos))
    if name == "pix":
        return polylog.pi_x(_as_poly(args[0], Y, pos))
    if name == "piy":
        return polylog.pi_y(_as_poly(args[0], X, pos))
    cap = args[1]  # exps
    if not isinstance(cap, Scalar) or cap.value.denominator != 1 or cap.value < 0:
        raise ExprTypeError("exps(P, cap) needs a natural-number cap", pos)
    refuse_above(cap.value, MAX_EXPS_CAP, "MAX_EXPS_CAP", "at position {}: exps cap {} is", pos, cap.value)
    return products.exp_stuffle(_as_poly(args[0], Y, pos), int(cap.value))


def parse_value(src: str) -> Value:
    return evaluate(parse(src))


# -- canonical printable forms ------------------------------------------------


def _ncpoly_texts(p: NCPoly) -> tuple[dict[str, str], str]:
    """The {word text: coefficient text} terms and expression text of a polynomial."""
    terms = p.to_terms_text()
    body = (lambda k: f'"{k}"') if p.alphabet == X else (lambda k: "y" + k.replace(",", "y"))
    return terms, format_terms([(c, body(k) if k else "") for k, c in terms.items()])


def value_to_json(v: Value) -> dict:
    if isinstance(v, Scalar):
        return {"type": "rational", "value": str(v.value)}
    if isinstance(v, NCPoly):
        terms, text = _ncpoly_texts(v)
        return {"type": "ncpoly", "alphabet": v.alphabet, "terms": terms, "text": text}
    if isinstance(v, polylog.X1StarPoly):
        terms, text = v.to_texts()
        return {"type": "x1star", "stars": terms, "text": text}
    if isinstance(v, polylog.PlaneStar):
        alpha, text = v.to_texts()
        return {"type": "planestar", "alpha": alpha, "text": text}
    raise TypeError(f"cannot serialize {v!r}")


# -- command implementations ---------------------------------------------------


def _json_chunks(o, indent: str, out: list[str]) -> None:
    """Append to ``out`` the text of ``o`` at nesting ``indent`` as ``json.dumps(o, indent=2)`` writes it; keys are strings.

    json's C encoder runs only without an indent, so this writes the same text directly, each piece once:
    strings by json's own ``encode_basestring_ascii``, dicts, lists and tuples with its separators, a
    finite float or an int by ``repr`` as json does, and any other scalar by ``json.dumps``.
    """
    if isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, (dict, list, tuple)):
        is_dict = isinstance(o, dict)
        if not o:
            out.append("{}" if is_dict else "[]")
            return
        inner = indent + "  "
        comma, sep = ",\n" + inner, "\n" + inner
        out.append("{" if is_dict else "[")
        for item in o:
            out.append(sep)
            if is_dict:
                out += (_quote(item), ": ")
                item = o[item]
            _json_chunks(item, inner, out)
            sep = comma
        out.append("\n" + indent + ("}" if is_dict else "]"))
    elif type(o) is int or type(o) is float and o - o == 0:  # o - o is NaN for an infinite or NaN float
        out.append(repr(o))
    else:
        out.append(json.dumps(o))


def _print_json(payload) -> None:
    out: list[str] = []
    _json_chunks(payload, "", out)
    print("".join(out))


def cmd_product(args) -> int:
    result = _eval_call(args.op, [parse_value(args.left), parse_value(args.right)], 0)
    _print_json(value_to_json(result))
    return 0


# -- argument parsing ----------------------------------------------------------

# "-" followed by anything but a letter or "-" ("-2,-1", "-1/3", "-[1]*") is a positional
_NEGATIVE_INDEX_RE = re.compile(r"^-[^A-Za-z-]")


class _ArgParser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse would print usage and exit; main answers with a JSON error instead.  An error that a
        # parser already named ("polylog h-eval: ...") comes back here as it propagates: it keeps that prefix.
        named = message.startswith(self.prog)
        raise argparse.ArgumentError(None, message if named else f"{self.prog}: {message}")


# each command: the function that runs it (by name where it is in polylog.commands, imported when one
# of those first runs), its help line, its arguments as (name or flag, keywords), and its defaults
_OPERANDS = (("left", {}), ("right", {}))
_COMMANDS = {
    "shuffle": (cmd_product, "shuffle product of two expressions", _OPERANDS, {"op": "sh"}),
    "stuffle": (cmd_product, "stuffle product of two expressions", _OPERANDS, {"op": "st"}),
    "neg-li": ("cmd_neg_li", "rational function and star form of Li at a non-positive multi-index", (
        ("index", {"help": "comma-separated indices, all <= 0, e.g. -2,-1"}),), {}),
    "h-closed-form": ("cmd_h_closed_form", "closed-form polynomial in N of a harmonic sum", (
        ("form", {"help": "non-positive index list or star expression"}),
        ("--csv", {"action": "store_true", "help": "emit degree,coefficient CSV"})), {}),
    "h-eval": ("cmd_h_eval", "exact harmonic sum at N for a signed index", (
        ("index", {"help": "signed index list, e.g. (-2,-1)"}), ("n", {"type": int})), {}),
    "li-coeffs": ("cmd_li_coeffs", "truncated Taylor coefficients of Li", (
        ("index", {"help": "signed index list"}), ("ncap", {"type": int, "nargs": "?", "default": 20}),
        ("--csv", {"action": "store_true", "help": "emit N,coefficient CSV"}),
        ("--float", {"dest": "float_mode", "action": "store_true"})), {}),
    "li-eval": ("cmd_li_eval", "numeric Li inside the unit disk", (
        ("index", {"help": "signed index list"}), ("z", {"help": "complex point, e.g. 0.5 or 0.3+0.2j"}),
        ("eps", {"type": float})), {}),
    "verify": ("cmd_verify", "run identity verification suites", (
        ("--suite", {"default": "all", "help": "a suite of polylog.checks, or all"}),
        ("--ncap", {"type": int, "default": None}), ("--seed", {"type": int, "default": None}),
        ("--json", {"action": "store_true", "help": "emit the report as JSON"})), {}),
}


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments and defaults of command ``name``."""
    func, _, arguments, defaults = _COMMANDS[name]
    parser._negative_number_matcher = _NEGATIVE_INDEX_RE
    parser.set_defaults(func=func, command=name, **defaults)
    for flag, keywords in arguments:
        parser.add_argument(flag, **keywords)
    return parser


@cache
def _make_parser(name: str | None) -> argparse.ArgumentParser:
    """Command ``name``'s parser, or with None the tree of all commands, which alone lists and refuses commands."""
    if name is not None:
        return _with_arguments(_ArgParser(prog=f"polylog {name}"), name)
    parser = _ArgParser(prog="polylog", description="Exact shuffle/stuffle calculus for polylogarithms and harmonic sums.")
    parser._negative_number_matcher = _NEGATIVE_INDEX_RE
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in _COMMANDS.items():
        _with_arguments(sub.add_parser(command, help=help_text), command)
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
    """Answer one request; 2 for an error answer, and 1 with nothing on stderr when stdout closes early."""
    try:
        code = _answer(argv)
        sys.stdout.flush()  # a closed reader shows here, not in the interpreter's flush at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout at exit: point it at the null device so that flush cannot raise again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1


def _answer(argv) -> int:
    with _digit_limit():
        try:
            argv = sys.argv[1:] if argv is None else argv
            name = argv[0] if argv and argv[0] in _COMMANDS else None  # a request builds its command's parser
            args, extras = _make_parser(name).parse_known_args(argv[1:] if name else argv)
            if "--" in extras and all(flag[0] == "-" for flag, _ in _COMMANDS[args.command][2]):
                extras.remove("--")  # argparse drops the first "--" only through a positional, and this has none
            if extras:  # gathered after the command's parser returned: name the command
                message = f"polylog {args.command}: unrecognized arguments: {' '.join(extras)}"
                raise argparse.ArgumentError(None, message)
            if isinstance(args.func, str):
                from . import commands

                return getattr(commands, args.func)(args)
            return args.func(args)
        except (*_ANSWERED, argparse.ArgumentError) as exc:
            advice = "use sys.set_int_max_str_digits() to increase the limit"  # not the CLI's
            message = str(exc).replace(advice, f"the CLI's cap is MAX_DIGITS = {MAX_DIGITS}")
            _print_json({"error": {"code": type(exc).__name__, "message": message}})
            return 2


if __name__ == "__main__":
    sys.modules.setdefault("polylog.cli", sys.modules[__name__])  # polylog.commands imports this module
    sys.exit(main())
