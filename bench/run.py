"""flagbound benchmark: time to a verified result, end to end and per layer.

    python3 bench/run.py --workload verify-n5 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the root of a checkout.  Each workload's CLI calls go through
`flagbound.cli.main(argv)` in this process, with argv as a user would type
it, and every call's output is checked.  `--trace 0` repeats the calls for
at least `--seconds` seconds and reports the end-to-end metrics as medians
over those passes; `--trace 1` makes one pass, then calls each module's
public functions in turn as timed spans and reports the per-layer metrics.
The last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the exit status is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUPS = 11


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def call_cli(cli_main, argv) -> tuple[int | None, str, float]:
    """Run one CLI call in-process: (exit status or None if it raised,
    captured stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, reported and counted
        code = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if err.getvalue():
        print(f"stderr of {' '.join(argv)}:\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), seconds


def run_pass(cli_main, workload, prepared) -> dict:
    """All of the workload's CLI calls, timed from the first to the last,
    then checked."""
    gc.collect()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    results = [call_cli(cli_main, argv) for argv in prepared.calls]
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    problems = workload.check([(code, out) for code, out, _ in results])
    for argv, msgs in zip(prepared.calls, problems):
        for msg in msgs:
            print(f"FAIL {' '.join(argv)}: {msg}")
    return {"wall": wall, "cpu": cpu, "calls": [(argv[0], r[2]) for argv, r in zip(prepared.calls, results)],
            "attempted": len(results), "failed": sum(1 for msgs in problems if msgs)}


def setup_seconds(name: str, seed: int, workdir: str) -> float:
    """One set-up, timed inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), name, str(seed), workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def run_context(name: str, seed: int, described: dict) -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"workload": name, "seed": seed, "commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines, "inputs": described}


def measure_end_to_end(cli_main, workload, name, seed, seconds, workdir) -> dict:
    """Passes until the next one would end after `seconds` (at least one),
    each on the inputs for its pass index, with set-ups timed before and
    after them so that they sample the host over the whole run."""
    setups = [setup_seconds(name, seed, workdir) for _ in range(SETUPS // 2)]
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        prepared = workload.prepare(seed, workdir, len(passes))
        passes.append(run_pass(cli_main, workload, prepared))
        print(f"pass {len(passes) - 1}: wall {passes[-1]['wall']:.4f} s, inputs {json.dumps(prepared.described)}")
    setups += [setup_seconds(name, seed, workdir) for _ in range(SETUPS - SETUPS // 2)]
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"passes: {len(passes)}  setup_s per set-up: {[round(s, 4) for s in setups]}")
    print(f"fail_ratio: {failed / attempted} ratio ({failed} of {attempted} calls failed)")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def measure_layers(cli_main, workload, prepared, seed) -> dict:
    from layers import Tracer, path_span_total, trace_layers

    one = run_pass(cli_main, workload, prepared)
    by_sub: dict[str, float] = {}
    for sub, secs in one["calls"]:
        by_sub[sub] = by_sub.get(sub, 0.0) + secs
    print("per subcommand: " + "  ".join(f"cli.{sub}_s: {secs:.4f} s" for sub, secs in by_sub.items()))
    tracer = Tracer()
    try:
        metrics, failures = trace_layers(tracer, workload, prepared, seed)
    except Exception:  # a layer that raises fails the traced run, with its traceback
        traceback.print_exc()
        return {"attempted": one["attempted"] + 1, "failed": one["failed"] + 1, "metrics": {}}
    for msg in failures:
        print(f"FAIL layer check: {msg}")
    metrics["cli.calls_s"] = (one["wall"], "s")
    metrics["cli.other_s"] = (one["wall"] - path_span_total(tracer, workload), "s")
    spans: dict[tuple, list[float]] = {}
    for s in tracer.spans:
        spans.setdefault((s["name"], s["parent"]), []).append(s["end"] - s["start"])
    print("spans: " + json.dumps([{"name": k[0], "parent": k[1], "count": len(v), "total_s": sum(v)}
                                  for k, v in spans.items()]))
    return {"attempted": one["attempted"] + 1, "failed": one["failed"] + bool(failures), "metrics": metrics}


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "flagbound", "cli.py")):
        print(f"error: no flagbound sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("FLAGBOUND_THREADS", None)
    sys.path.insert(0, SRC)
    from flagbound.cli import main as cli_main
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        prepared = workload.prepare(args.seed, workdir)
        print("context: " + json.dumps(run_context(args.workload, args.seed, prepared.described)))
        if args.trace:
            result = measure_layers(cli_main, workload, prepared, args.seed)
        else:
            result = measure_end_to_end(cli_main, workload, args.workload, args.seed,
                                        args.seconds, workdir)
    correct = result["failed"] == 0 and bool(result["metrics"])
    for key, (value, unit) in result["metrics"].items():
        print(f"{key}: {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args, workloads) -> int:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    status = 0
    rows = []
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        rows.append((name, result))
    print()
    for name, result in rows:
        if result is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key}: {m['value']:.6g} {m['unit']}")
        print(f"  fail_ratio: {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} calls failed)")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
