#!/usr/bin/env python3
"""Golden CLI outputs: record them, and compare a replay with the record.

    python3 tests/golden.py        # rewrite tests/golden_outputs.json

Run from the repository root.  The record holds, for every cli-requests
request of the benchmark seeds 1 and 3 (five blocks each, as
``perfbench/workloads.py`` generates them), the argv, the exit code, and
the length and sha256 of stdout; and the output of
``verify --suite all --json`` with each check's ``elapsed_s`` masked.  The
argv are stored, not the generator, so a change to the benchmark does not
move the record.  ``tests/test_golden.py`` replays the requests through
``cli.main`` in one process.

Every answer is compared by bytes, except ``li-eval``: its answers come
from libm's pow, which may differ in the last ulp across platforms.  Their
numbers are recorded too, and when the bytes differ the numbers are compared
within one ulp.  ``li-coeffs --float`` rounds the exact coefficients
correctly, so it is compared by bytes.

A deliberate change of behaviour reruns this script; the requests whose
record changed are then listed with the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "golden_outputs.json"
SEEDS = (1, 3)
BLOCKS = 5
VERIFY_ARGV = ("verify", "--suite", "all", "--json")
FLOAT_COMMANDS = ("li-eval",)


def run(argv) -> tuple[str, str]:
    """(outcome class, stdout) of one request: "rc <code>", or the name of the exception it raised."""
    from polylog import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            outcome = f"rc {cli.main(list(argv))}"
        except Exception as exc:  # recorded by name, so a replay that raises shows as a mismatch
            outcome = type(exc).__name__
    return outcome, out.getvalue()


def _floats(text: str):
    """The numbers of a JSON ``li-eval`` value; None if the output is not one."""
    try:
        data = json.loads(text)
    except ValueError:
        return None
    if isinstance(data, dict) and "re" in data:
        return [data["re"], data["im"]]
    return None


def entry(argv) -> dict:
    """The record of one request."""
    outcome, text = run(argv)
    data = text.encode()
    out = {"argv": list(argv), "outcome": outcome, "len": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if argv[0] in FLOAT_COMMANDS and (numbers := _floats(text)) is not None:
        out["floats"] = numbers
    return out


def _within_ulp(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x == y or abs(x - y) <= math.ulp(max(abs(x), abs(y))) for x, y in zip(a, b)
    )


def mismatch(want: dict) -> str | None:
    """None if replaying ``want["argv"]`` gives the recorded answer; otherwise what differs."""
    got = entry(want["argv"])
    if got["outcome"] != want["outcome"]:
        return f"outcome {got['outcome']} where {want['outcome']} was recorded"
    if got["sha256"] == want["sha256"]:
        return None
    if "floats" in want and "floats" in got and _within_ulp(got["floats"], want["floats"]):
        return None
    return f"stdout of {got['len']} bytes differs from the recorded {want['len']} bytes"


def verify_masked() -> list:
    """``verify --suite all --json`` with each check's elapsed time masked."""
    outcome, text = run(VERIFY_ARGV)
    assert outcome == "rc 0", f"verify answered {outcome}"
    report = json.loads(text)
    for check in report:
        check["elapsed_s"] = None
    return report


def _requests():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for seed in SEEDS:
        stream = workloads.blocks("cli-requests", seed)
        for _ in range(BLOCKS):
            for op in next(stream):
                yield op[2]


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    requests = [entry(argv) for argv in _requests()]
    record = {"seeds": list(SEEDS), "blocks": BLOCKS, "requests": requests, "verify": verify_masked()}
    DATA.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(requests)} requests and {len(record['verify'])} checks to {DATA}")


if __name__ == "__main__":
    main()
