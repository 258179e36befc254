"""Fast self-test of the benchmark at reduced size (E_3 and a random set of
10 vectors in R^3), a few seconds in all:

    python3 bench/selftest.py

It checks that both kinds of run report every metric BENCHMARK.json names,
with its unit; that the output checks fail when an expected value or an
output is wrong; and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)

from flagbound.cli import main as cli_main  # noqa: E402
from workloads import A000609, SMALL_WORKLOADS  # noqa: E402


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def reported(result: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in result["metrics"].items()}


def test_every_metric_with_its_unit():
    for name, workload in SMALL_WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
            prepared = workload.prepare(7, workdir)
            e2e = run.measure_end_to_end(cli_main, workload, name, 7, 0, workdir)
            layers = run.measure_layers(cli_main, workload, prepared, 7)
        assert reported(e2e) == declared("end_to_end"), (name, reported(e2e))
        assert reported(layers) == declared("per_layer"), (name, reported(layers))
        assert e2e["failed"] == 0 and layers["failed"] == 0, name
        assert all(v > 0 for v, _ in e2e["metrics"].values()), e2e["metrics"]


def test_check_fails_on_wrong_expected_value():
    workload = SMALL_WORKLOADS["verify-n3"]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
        prepared = workload.prepare(7, workdir)
    code, out, _ = run.call_cli(cli_main, prepared.calls[0])
    assert workload.check([(code, out)]) == [[]]
    assert workload.check([(code, out)], {**A000609, 3: 105})[0]
    assert workload.check([(1, out)])[0]
    assert workload.check([(code, out.replace("PASS n=3 order", "FAIL n=3 order"))])[0]


def test_check_fails_on_wrong_random_set_output():
    workload = SMALL_WORKLOADS["randset-r3"]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as workdir:
        prepared = workload.prepare(7, workdir)
        outputs = [run.call_cli(cli_main, argv)[:2] for argv in prepared.calls]
    assert workload.check(outputs) == [[]] * len(outputs)
    code, out = outputs[-1]
    rank = out.split("rank: ")[1].split()[0]
    bad = outputs[:-1] + [(code, out.replace(f"rank: {rank}", f"rank: {int(rank) + 1}"))]
    assert workload.check(bad)[-1]
    code, out = outputs[0]
    assert workload.check([(code, out.replace("agree: True", "agree: False"))] + outputs[1:])[0]


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=run.ROOT) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "verify-n4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
