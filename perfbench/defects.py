"""Known-defect requests in the cli-requests stream, with their accepted outcomes.

Each block of cli-requests carries every request below once.  An outcome is
accepted when it is the correct value, or a JSON error with exit code 2 where
``accept`` allows one because the value cannot be represented.  ``seen`` is
the failure the request met when the benchmark was written.  That failure is
a known-defect outcome: it counts toward ``fail_ratio`` and is listed in the
result, but not as a failed operation, so the benchmark stays usable while
the defect stands.  Any other unaccepted outcome (another exception, another
refusal, a wrong value where an exception was seen) is a failed operation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import oracles

_NESTED = "pix(" + "piy(pix(" * 200 + "y2" + "))" * 200 + ")"
_LONG_X0 = '"' + "0" * 600 + '"'
_LONG_SUM = " + ".join(f"y{k}" for k in range(1, 1101))


@dataclass(frozen=True)
class Defect:
    name: str
    argv: tuple[str, ...]
    accept: tuple[str, ...]  # "value" and/or "error"
    seen: str  # the failure met when the benchmark was written, as judge() names it
    note: str


DEFECTS = (
    Defect(
        "li-eval-overflow",
        ("li-eval", "-200", "0.5", "1e-6"),
        ("error",),
        "raised OverflowError",
        "Li_{-200}(1/2) is about 1e407, beyond the float range",
    ),
    Defect(
        "li-coeffs-float-overflow",
        ("li-coeffs", "-400", "60", "--float"),
        ("error",),
        "raised OverflowError",
        "the coefficient 60^400 is beyond the float range",
    ),
    Defect(
        "deep-nesting",
        ("shuffle", _NESTED, '"1"'),
        ("value",),
        "raised RecursionError",
        "pix(piy(pix(...))) 400 calls deep is pix(y2) = x0x1; value 2*x0x1x1 + x1x0x1",
    ),
    Defect(
        "long-word",
        ("shuffle", _LONG_X0, '"1"'),
        ("value",),
        "raised RecursionError",
        "x0^600 shuffled with x1: the 601 words x0^i x1 x0^(600-i)",
    ),
    Defect(
        "long-sum",
        ("stuffle", _LONG_SUM, "1"),
        ("value",),
        "raised RecursionError",
        "a flat sum of 1100 words, the length of a printed result with over 1000 terms",
    ),
    Defect(
        "big-integer",
        ("h-eval", "(-2000)", "200"),
        ("value",),
        "refused with ValueError",
        "sum of n^2000 for n <= 200, an integer of more than 4300 digits",
    ),
    Defect(
        "li-eval-rounding",
        ("li-eval", "-3,1", "0.99", "1e-8"),
        ("value", "error"),
        "wrong value",
        "the certified bound covers truncation but not float rounding",
    ),
)

_BY_NAME = {d.name: d for d in DEFECTS}


def _check_value(name: str, data) -> None:
    if name == "deep-nesting":
        assert data["type"] == "ncpoly" and data["terms"] == {"011": "2", "101": "1"}
    elif name == "long-word":
        want = {"0" * i + "1" + "0" * (600 - i): "1" for i in range(601)}
        assert data["type"] == "ncpoly" and data["terms"] == want
    elif name == "long-sum":
        assert data["type"] == "ncpoly" and data["terms"] == {str(k): "1" for k in range(1, 1101)}
    elif name == "big-integer":
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert data == str(sum(n**2000 for n in range(1, 201)))
        finally:
            sys.set_int_max_str_digits(old)
    elif name == "li-eval-rounding":
        err = abs(complex(data["re"], data["im"]) - oracles.li_value((-3, 1), 0.99, 1e-8))
        assert err <= 1e-8, f"off by {err:.3g}"
    else:
        raise AssertionError("no value is accepted for this request")


def _outcome(name: str, result, raised: BaseException | None) -> str:
    """"ok", or the failure: "raised E", "output is not JSON", "refused with CODE" or "wrong value"."""
    if raised is not None:
        return f"raised {type(raised).__name__}"
    rc, text = result
    try:
        data = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if isinstance(data, dict) and "error" in data:
        if rc == 2 and "error" in _BY_NAME[name].accept:
            return "ok"
        return f"refused with {data['error'].get('code')}"
    try:
        assert rc == 0, f"exit code {rc} with a value"
        _check_value(name, data)
    except (AssertionError, KeyError, TypeError, ValueError):
        return "wrong value"
    return "ok"


def judge(name: str, result, raised: BaseException | None) -> tuple[str, str]:
    """("ok" | "known-defect" | "fail", detail) for one known-defect request."""
    outcome = _outcome(name, result, raised)
    if outcome == "ok":
        return "ok", ""
    if outcome == _BY_NAME[name].seen:
        return "known-defect", f"{name}: {outcome}"
    return "fail", f"{name}: {outcome}, where {_BY_NAME[name].seen} was known"
