"""The CLI commands other than shuffle and stuffle: neg-li, h-closed-form, h-eval, li-coeffs, li-eval, verify.

:mod:`polylog.cli` imports this module when one of them first runs, so a product request does not compile it;
each command imports the modules it uses when it runs.
"""

from __future__ import annotations

import argparse
import re
import time

import polylog
from .cli import ExprTypeError, ParseError, _as_stars, _print_json, _type_name, parse_value


def _print_coeffs(csv: bool, key: str, coeffs, payload) -> None:
    """``coeffs`` as "key,coefficient" CSV rows, or the JSON of ``payload()``."""
    if csv:
        print(f"{key},coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:
        _print_json(payload())


def _parse_index_arg(text: str) -> tuple[int, ...]:
    """A comma list of ``int`` texts in at most one balanced pair of parentheses; "", "()" and "( )" are empty."""
    cleaned = text.strip()
    if cleaned[:1] == "(" and cleaned[-1:] == ")":
        cleaned = cleaned[1:-1].strip()
    if not cleaned:
        return ()
    try:
        return tuple(int(part) for part in cleaned.split(","))
    except ValueError as exc:
        raise ParseError(f"bad multi-index {text!r}: {exc}", 0) from None


def _looks_like_index(text: str) -> bool:
    """An index as :func:`_parse_index_arg` reads it, the empty one ("", "()", "( )") too."""
    items = r"(-?\d+(\s*,\s*-?\d+)*)?"
    return bool(re.fullmatch(rf"\(\s*{items}\s*\)|{items}", text.strip()))


def cmd_neg_li(args) -> int:
    from . import negindex

    index = _parse_index_arg(args.index)
    s = negindex.li_nonpositive_stars(index)
    f = negindex.x1star_to_ratfunc(s)
    ratfunc = {"num": f.p.texts(), "pole_order": f.pole_order}
    terms, text = s.to_texts()
    _print_json({"index": list(index), "ratfunc": ratfunc, "stars": terms, "stars_text": text})
    return 0


def cmd_h_closed_form(args) -> int:
    from . import harmonic

    if _looks_like_index(args.form):
        npoly = harmonic.h_negindex_closed_form(_parse_index_arg(args.form))
    else:
        value = _as_stars(parse_value(args.form))
        if not isinstance(value, polylog.X1StarPoly):
            message = f"h-closed-form needs a star combination or a non-positive index, got {_type_name(value)}"
            raise ExprTypeError(message, 0)
        npoly = harmonic.h_x1star_closed_form(value)
    texts, text = npoly.to_texts()
    _print_coeffs(args.csv, "degree", texts, lambda: {"coeffs": texts, "text": text})
    return 0


def cmd_h_eval(args) -> int:
    from . import harmonic

    index = _parse_index_arg(args.index)
    _print_json(str(harmonic.h_signed_eval(index, args.n)))
    return 0


def cmd_li_coeffs(args) -> int:
    from .polylog_num import PrecisionError, li_taylor_coeffs

    index = _parse_index_arg(args.index)
    series = li_taylor_coeffs(index, args.ncap)
    if args.float_mode:  # int / int is correctly rounded, and raises past the double range
        mode, coeffs = "float", [0.0] * (args.ncap + 1)
        for n, x in enumerate(series.poly.nums):
            try:
                coeffs[n] = x / series.poly.den
            except OverflowError:
                raise PrecisionError(f"float Taylor coefficients of index {index} overflow at term n={n}")
    else:
        mode, coeffs = "exact", series.poly.texts(series.n_cap)
    _print_coeffs(args.csv, "N", coeffs, lambda: {"mode": mode, "coeffs": coeffs})
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
    from .nc_core import MAX_TERMS

    choices = [*checks.SUITES, "all"]
    if args.suite not in choices:
        valid = ", ".join(map(repr, choices))
        message = f"argument --suite: invalid choice: {args.suite!r} (choose from {valid})"
        raise argparse.ArgumentError(None, f"polylog verify: {message}")
    if args.ncap is not None and not 0 <= args.ncap <= MAX_TERMS:  # refused before any suite is built
        bound = "must be >= 0" if args.ncap < 0 else f"must be at most {MAX_TERMS = }"
        raise argparse.ArgumentError(None, f"polylog verify: argument --ncap: {bound}, got {args.ncap}")
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
        _print_json([{"suite": suite, "check": r.name, "status": "pass" if r.passed else "fail", "detail": r.detail,
                      "elapsed_s": round(r.elapsed_s, 6)} for suite, r in results])
    else:
        for suite, r in results:
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{'PASS' if r.passed else 'FAIL'} [{suite}] {r.name}{detail}")
        print(f"# {len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1
