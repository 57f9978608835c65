#!/usr/bin/env python3
"""Benchmark for the polylog library: one closed-loop client, one thread.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the library is imported from ``src/``.

An untraced run (``--trace 0``) repeats a trial as many times as fit in
``--seconds`` at the nominal speed below (at least three; the count is
fixed by the workload and ``--seconds``), and between
trials times set-up in fresh interpreters, spread over the run.  A
trial is a fresh interpreter that drives the seed's first blocks of the
workload, so every trial does the same operations from the same empty memo
tables.  The first trial checks every outcome; later trials must reproduce
its outputs exactly.

Times are scaled to a nominal machine speed.  A fixed piece of exact
arithmetic, the reference, is timed between consecutive operations (and
after each set-up), and every measured time is multiplied by
REFERENCE_NOMINAL_S over the reference time around it.  The CPU speed of a
shared machine drifts by up to a factor of two within seconds; the scaled
times do not.  An operation's latency is then the median over its trials.

A traced run (``--trace 1``) drives the same blocks once in this process,
with spans around every library call, and reports per-layer metrics; one
untraced trial of the same blocks gives the tracing overhead.

The last line of standard output is one JSON object; the run's record,
with provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("series", "capped-products", "cli-requests")
SETUP_RUNS = 20
MIN_TRIALS = 3
REFERENCE_NOMINAL_S = 0.0005
# Blocks in a trial (and in a traced run): a few seconds of work at the seed.
TRIAL_BLOCKS = {"series": 120, "capped-products": 6, "cli-requests": 5}
# A trial's length at the nominal speed, as measured when the benchmark was
# written; an untraced run makes as many trials as these fit in --seconds.
TRIAL_NOMINAL_S = {"series": 9.0, "capped-products": 6.0, "cli-requests": 2.3}

# Set-up: a fresh interpreter imports the CLI and serves one trivial request.
_SETUP_CHILD = r"""
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import polylog.cli
import contextlib, io, json
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = polylog.cli.main(["stuffle", "y1", "y2"])
elapsed = time.perf_counter() - t0
from reference import reference
refs = sorted(reference() for _ in range(7))
print(json.dumps({"elapsed": elapsed, "reference": refs[3], "rc": rc, "out": out.getvalue()}))
"""
_SETUP_TERMS = {"1,2": "1", "2,1": "1", "3": "1"}


def setup_sample() -> float:
    """Scaled set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-s", "-c", _SETUP_CHILD, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=30, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout)
    if result["rc"] != 0 or json.loads(result["out"]).get("terms") != _SETUP_TERMS:
        raise RuntimeError(f"set-up request answered wrongly: {result}")
    return result["elapsed"] * REFERENCE_NOMINAL_S / result["reference"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, ops: int, trials: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_trial": ops,
        "trials": trials,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


def _digest(result, raised) -> str:
    text = f"raised {type(raised).__name__}" if raised is not None else repr(result)
    return hashlib.sha1(text.encode()).hexdigest()


def drive(workload: str, seed: int, n_blocks: int, trace: bool, check: bool) -> dict:
    """Run the workload's first n_blocks blocks in this process."""
    sys.path.insert(0, str(SRC))
    import workloads
    from polylog import cli
    from reference import reference
    from tracer import Tracer

    T = Tracer(trace)
    undo = []
    if trace:
        # parsing and serialization inside cli.main, as child spans of the cli layer
        for attr, name in (("parse", "cli.parse"), ("value_to_json", "cli.json"), ("_print_json", "cli.json")):
            if hasattr(cli, attr):
                undo.append(T.wrap(cli, attr, "cli", name))
    out = {"latencies": [], "references": [reference()], "digests": []}
    memo_hits = memo_misses = json_bytes = 0
    lookups_known = True
    outcomes = []  # checked after the run, so checks fill no cache the operations use
    stream = workloads.blocks(workload, seed)
    try:
        for _ in range(n_blocks):
            for op in next(stream):
                kind = workloads.kind_of(op)
                if trace:
                    hits0, misses0 = workloads.memo_lookups()
                T.begin_op(len(out["latencies"]), kind)
                result = raised = None
                t0 = time.perf_counter()
                try:
                    result = workloads.execute(T, op)
                except Exception as exc:  # an operation that raises is a counted outcome
                    raised = exc
                out["latencies"].append(time.perf_counter() - t0)
                T.end_op()
                out["references"].append(reference())
                if trace:
                    hits1, misses1 = workloads.memo_lookups()
                    if hits0 is None or hits1 is None:
                        lookups_known = False
                    else:
                        memo_hits += hits1 - hits0
                        memo_misses += misses1 - misses0
                    if op[0] == "cli" and result is not None:
                        json_bytes += len(result[1].encode())
                out["digests"].append(_digest(result, raised))
                if check:
                    outcomes.append((kind, op, result, raised))
    finally:
        for restore in undo:
            restore()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        out["tracer"] = T
        hits = memo_hits if lookups_known else None
        out["memo"] = {"hits": hits, "misses": memo_misses, **workloads.memo_sizes()}
        out["json_bytes"] = json_bytes
    out["statuses"], out["details"] = [], []
    for i, (kind, op, result, raised) in enumerate(outcomes):
        status, detail = workloads.check(op, result, raised)
        out["statuses"].append(status)
        out["details"].append(f"op {i} {kind}: {detail}" if detail else "")
    if not check:
        out["statuses"] = ["unchecked"] * len(out["digests"])
        out["details"] = [""] * len(out["digests"])
    return out


def run_trial(args, n_blocks: int, check: bool) -> dict:
    """One trial in a fresh interpreter."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--trial", "--workload", args.workload,
        "--seed", str(args.seed), "--blocks", str(n_blocks), "--check", str(int(check)),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"trial failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_latencies(trial: dict) -> list[float]:
    """Each latency scaled by the mean of the reference times either side of it."""
    refs = trial["references"]
    return [
        lat * 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1]) for i, lat in enumerate(trial["latencies"])
    ]


def combine(trials: list[dict]) -> dict:
    """Median scaled latency per operation; later trials judged against the first."""
    first = trials[0]
    scaled = [scaled_latencies(t) for t in trials]
    statuses, details = [], []
    for trial in trials:
        for i, digest in enumerate(trial["digests"]):
            if digest == first["digests"][i]:
                statuses.append(first["statuses"][i])
                details.append(first["details"][i])
            else:
                statuses.append("fail")
                details.append(f"op {i}: output differs from the first trial")
    return {
        "latencies": [statistics.median(s[i] for s in scaled) for i in range(len(first["latencies"]))],
        "failures": [d for s, d in zip(statuses, details) if s == "fail"],
        "known": [d for s, d in zip(statuses, details) if s == "known-defect"],
        "attempted": len(statuses),
        "rss_mb": statistics.median(t["rss_mb"] for t in trials),
    }


def end_to_end(run: dict, setup: float) -> dict:
    lat = sorted(run["latencies"])
    n = len(lat)
    # the highest percentile with at least ten samples beyond it
    beyond = min(10, n - 1)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": n / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_tail_ms": {
            "value": lat[n - 1 - beyond] * 1e3,
            "unit": "ms",
            "percentile": 100.0 * (n - beyond) / n,
            "samples_beyond": beyond,
            "samples": n,
        },
        "peak_rss_mb": {"value": run["rss_mb"], "unit": "MB"},
    }


def per_layer(run: dict, untraced_ops_per_s: float) -> dict:
    from tracer import LAYERS

    T = run["tracer"]
    times = T.layer_times()
    counts = T.counts
    memo = run["memo"]
    lookups = None if memo["hits"] is None else memo["hits"] + memo["misses"]
    traced_ops_per_s = len(run["latencies"]) / sum(scaled_latencies(run))
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = (times[layer]["calls"], "count")
        values[f"{layer}.busy_s"] = (times[layer]["busy_s"], "s")
    terms_out = counts.get("products.terms_out", 0)
    values.update(
        {
            "products.terms_out": (terms_out, "count"),
            "products.kept_ratio": (counts.get("products.terms_kept", 0) / terms_out if terms_out else 1.0, "ratio"),
            "products.memo_hit_ratio": (memo["hits"] / lookups if lookups else None, "ratio"),
            "products.memo_entries": (memo["entries"], "count"),
            "harmonic.cache_entries": (memo["harmonic_entries"], "count"),
            "polylog_num.coeff_mults": (counts.get("polylog_num.coeff_mults", 0), "count"),
            "polylog_num.max_coeff_bits": (counts.get("polylog_num.max_coeff_bits", 0), "bits"),
            "nc_core.max_coeff_bits": (counts.get("nc_core.max_coeff_bits", 0), "bits"),
            "stars.terms_out": (counts.get("stars.terms_out", 0), "count"),
            "cli.parse_s": (T.named_time("cli.parse"), "s"),
            "cli.json_s": (T.named_time("cli.json"), "s"),
            "cli.json_bytes": (run["json_bytes"], "B"),
            "harness.busy_s": (times["harness"]["busy_s"], "s"),
            "trace.op_time_s": (times["harness"]["op_time_s"], "s"),
            "trace.overhead": (1.0 - traced_ops_per_s / untraced_ops_per_s, "ratio"),
        }
    )
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def report(args, tag: str, metrics: dict, run: dict, extra: dict) -> None:
    attempted = run["attempted"]
    failed = len(run["failures"])
    fail_ratio = (failed + len(run["known"])) / attempted
    prov = provenance(args, len(run["latencies"]), extra.get("trials", 1))
    print(f"# polylog benchmark {tag}")
    print("# provenance " + json.dumps(prov))
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{m['percentile']:.4g}: {m['samples_beyond']} of {m['samples']} operations beyond)"
        print(f"{name:<28} {m['value']:>16.6g} {m['unit']}{note}")
    print(
        f"{'fail_ratio':<28} {fail_ratio:>16.6g} ratio  ({failed} failed + {len(run['known'])} known-defect"
        f" of {attempted} attempted)"
    )
    for line in run["failures"][:20]:
        print("FAILED " + line, file=sys.stderr)
    record = {
        "provenance": prov,
        "metrics": metrics,
        "fail_ratio": fail_ratio,
        "failures": run["failures"],
        "known_defect_failures": sorted(set(run["known"])),
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )


def run_one(args) -> int:
    n_blocks = args.blocks or TRIAL_BLOCKS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        untraced = run_trial(args, n_blocks, check=False)
        run = drive(args.workload, args.seed, n_blocks, True, True)
        combined = combine([run])
        metrics = per_layer(run, len(untraced["latencies"]) / sum(scaled_latencies(untraced)))
        run.update(combined)
        OUT.mkdir(exist_ok=True)
        run["tracer"].write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        report(args, tag, metrics, run, {})
        return 0
    setup_sample()  # the first start may compile the package to bytecode
    setups, trials = [], []
    # a fixed count, so that a slow spell of the machine does not change it
    n_trials = max(MIN_TRIALS, round(args.seconds / TRIAL_NOMINAL_S[args.workload]))
    start = time.perf_counter()
    while len(trials) < n_trials and time.perf_counter() - start < 3 * args.seconds:
        # Set-up samples are spread over the run: the machine's slow spells
        # last seconds, and one would otherwise cover all of them.
        while len(setups) < SETUP_RUNS * len(trials) / n_trials:
            setups.append(setup_sample())
        trials.append(run_trial(args, n_blocks, check=not trials))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_sample())
    setup = statistics.median(setups)
    extra = {"setup_runs_s": setups, "trials": len(trials)}
    run = combine(trials)
    report(args, tag, end_to_end(run, setup), run, extra)
    return 0


def trial_main(args) -> int:
    run = drive(args.workload, args.seed, args.blocks, False, bool(args.check))
    print(json.dumps(run))
    return 0


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1200, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"][workload] = result["metrics"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, default=None, help="blocks per trial (default: per workload)")
    parser.add_argument("--trial", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "polylog" / "__init__.py").is_file():
        print(f"error: the polylog sources are not at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.trial:
        return trial_main(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
