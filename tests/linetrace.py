#!/usr/bin/env python3
"""Line tracer: list the lines of ``src/polylog`` that the tests never run.

    PYTHONPATH=src python3 tests/linetrace.py [pytest arguments]

Run from the repository root.  It runs the tests (tier-1 by default) in this
process under ``sys.settrace`` and prints ``path:line: source`` for each
executable line of ``src/polylog`` that no test ran and that
``tests/linetrace_allowlist.txt`` does not list.  It exits 1 if it prints
any such line, if an allowlist entry names a line that ran or no longer
exists, or if the tests fail.

* Tracing is re-armed before each test: a ``RecursionError`` raised inside
  the trace function unsets it, and without re-arming every later test would
  run untraced.
* Threads are traced through ``threading.settrace``.
* Fresh interpreters are traced when they keep ``PYTHONPATH``: the tracer
  puts a ``sitecustomize`` module first on it (shadowing any other one), and
  each child writes the lines it ran when it exits.
* Executable lines are those where a code object of the module starts a
  line (``dis.findlinestarts``); a statement spread over several lines
  counts each line that starts an instruction.

It uses the standard library only.  Allowlist entries have the form
``path: source`` (the printed line without its line number); each entry
allows one unexecuted line with that source, and the comment lines above it
say why no test can run it.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "polylog")
ALLOWLIST = os.path.join(HERE, "linetrace_allowlist.txt")


def tracer(executed: set, prefix: str):
    """A ``sys.settrace`` function that adds (file, line) to ``executed`` for files under ``prefix``."""
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.realpath(name).startswith(prefix)
        if not keep:
            return None
        executed.add((name, frame.f_lineno))
        return local

    return on_call


def arm(trace) -> None:
    sys.settrace(trace)
    threading.settrace(trace)


def trace_child(out_dir: str) -> None:
    """Trace this interpreter and write the lines it ran to ``out_dir`` when it exits."""
    executed: set = set()
    arm(tracer(executed, SRC + os.sep))

    def dump():
        sys.settrace(None)
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{line} {name}\n" for name, line in executed)

    atexit.register(dump)


def executable_lines(path: str) -> set[int]:
    import dis
    import types

    with open(path) as source:
        stack = [compile(source.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def unexecuted(executed: set) -> list[tuple[str, int, str]]:
    """(path, line, source) of each executable line of ``src/polylog`` missing from ``executed``."""
    ran: dict[str, set[int]] = {}
    for name, line in executed:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    out = []
    for module in sorted(os.listdir(SRC)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(SRC, module)
        with open(path) as source:
            text = source.read().splitlines()
        missing = executable_lines(path) - ran.get(os.path.realpath(path), set())
        out.extend((os.path.relpath(path, ROOT), line, text[line - 1].strip()) for line in sorted(missing))
    return out


def main(pytest_args: list[str]) -> int:
    import tempfile
    from collections import Counter

    import pytest

    executed: set = set()
    trace = tracer(executed, SRC + os.sep)

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            arm(trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            arm(trace)

    with tempfile.TemporaryDirectory() as child_dir:
        with open(os.path.join(child_dir, "sitecustomize.py"), "w") as hook:
            hook.write(
                "import sys\n"
                f"sys.path.insert(0, {HERE!r})\n"
                "import linetrace\n"
                "del sys.path[0]\n"
                f"linetrace.trace_child({child_dir!r})\n"
            )
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [child_dir, os.environ.get("PYTHONPATH")]))
        arm(trace)
        status = pytest.main(pytest_args, plugins=[Rearm()])
        arm(None)
        for dump in os.listdir(child_dir):
            if dump.endswith(".txt"):
                with open(os.path.join(child_dir, dump)) as rows:
                    pairs = (row.rstrip("\n").split(" ", 1) for row in rows)
                    executed.update((name, int(line)) for line, name in pairs)

    with open(ALLOWLIST) as allow:
        allowed = Counter(line.strip() for line in allow if line.strip() and not line.startswith("#"))
    missing = []
    for path, line, source in unexecuted(executed):
        entry = f"{path}: {source}"
        if allowed[entry] > 0:
            allowed[entry] -= 1
        else:
            missing.append(f"{path}:{line}: {source}")
    stale = sorted(allowed.elements())
    print(f"\nlinetrace: {len(missing)} unexecuted lines outside {os.path.relpath(ALLOWLIST, ROOT)}")
    for row in missing:
        print(row)
    for entry in stale:
        print(f"allowlist entry names no unexecuted line, remove it: {entry}")
    if status != 0:
        print(f"linetrace: the tests exited {int(status)}")
    return 1 if missing or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", ROOT + "/tests"]))
