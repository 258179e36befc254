"""Command-line front end: reproducible verification and reporting runs.

Every numeric result is serialized exactly (decimal or a/b strings);
floats appear only in the Monte-Carlo standard error, which is labeled
approximate by nature.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, TextIO

from . import arrangement, flags, homology, threshold
from .arrangement import FlatTable, VectorSet, ensure_table, generate_sign_vectors
from .errors import GuardError
from .flags import OrderPermutation, WeightVector

__all__ = ["main"]

FAST_SWEEP_MAX_N = 3
FULL_SWEEP_MAX_N = 5
HOMOLOGY_CHECK_MAX_N = 4
FLAT_CHECK_MAX_N = 3
SAMPLING_CHECK_MAX_N = 3
SAMPLING_CHECK_COUNT = 200
MAX_RANDOM_WEIGHT_ENTRIES = 10**6
# Guard on the order walks of `lambda`, the identity walk and one per
# --order-trials, counted in cover edges.  A walk costs 0.17-0.25 µs per
# cover edge plus 17-25 µs per call.  Timed in alternating blocks of E_1
# (4 edges) and E_5 (89,878 edges) walks, the per-call cost is 90-107
# edges (2 CPUs, Python 3.11), counted as ORDER_WALK_CALL_EDGES more edges
# per walk: the limit is about 960,000 walks on E_1 and 1,110 on E_5, and
# `lambda` at either took 22 s.
MAX_ORDER_WALK_EDGES = 10**8
ORDER_WALK_CALL_EDGES = 100


def _load_set(args: argparse.Namespace) -> tuple[VectorSet, dict]:
    if args.input is not None:
        vs = arrangement.read_vector_set(args.input)
        return vs, {"input": args.input}
    vs = generate_sign_vectors(args.n)
    return vs, {"n": args.n}


def _weight_vectors(spec: str, count: int) -> list[WeightVector]:
    if spec == "uniform":
        return [WeightVector.uniform(count)]
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected random:<seed>:<count>, got {spec!r}")
        try:
            seed, k = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValueError(f"expected random:<seed>:<count>, got {spec!r}") from exc
        if k < 1:
            raise ValueError("weight vector count must be >= 1")
        if k * count > MAX_RANDOM_WEIGHT_ENTRIES:
            raise GuardError(
                "weights.random_entries", f"<= {MAX_RANDOM_WEIGHT_ENTRIES}", k * count
            )
        return [WeightVector.random(count, seed + i) for i in range(k)]
    return [flags.read_weight_vector(spec)]


def _run_gen_e(args: argparse.Namespace) -> tuple[bool, dict]:
    vs = generate_sign_vectors(args.n)
    if args.out is None:
        arrangement.write_vector_set(sys.stdout, vs)
    else:
        arrangement.write_vector_set(args.out, vs)
    return True, {
        "n": args.n,
        "count": len(vs),
        "dim": vs.ambient_dim,
        "path": args.out or "-",
    }


def _run_chambers(args: argparse.Namespace) -> tuple[bool, dict]:
    vs, source = _load_set(args)
    payload = dict(source)
    payload["chambers"] = str(arrangement.chamber_count(vs))
    ok = True
    if args.oracle:
        oracle = arrangement.chamber_count_dr(vs)
        payload["oracle"] = str(oracle)
        ok = payload["chambers"] == payload["oracle"]
        payload["agree"] = ok
    return ok, payload


def _run_lambda(args: argparse.Namespace) -> tuple[bool, dict]:
    if args.order_trials < 0:
        raise ValueError(f"--order-trials must be >= 0, got {args.order_trials}")
    vs, source = _load_set(args)
    table = FlatTable(vs)
    table.close()
    edges = sum(len(table.covers(f)) for f in range(len(table.masks)))
    work = (args.order_trials + 1) * (edges + ORDER_WALK_CALL_EDGES)
    if work > MAX_ORDER_WALK_EDGES:
        raise GuardError("lambda.order_walk_edges", f"<= {MAX_ORDER_WALK_EDGES}", work)
    base = flags.minimal_tuple_count(vs, table=table)
    values = [
        flags.minimal_tuple_count(
            vs, OrderPermutation.random(len(vs), args.order_seed + i), table
        )
        for i in range(args.order_trials)
    ]
    payload = dict(source)
    payload["identity"] = str(base)
    if args.order_trials:
        payload["orders"] = [str(v) for v in values]
    ok = all(v == base for v in values)
    payload["order_independent"] = ok
    return ok, payload


def _run_bound(args: argparse.Namespace) -> tuple[bool, dict]:
    vs = generate_sign_vectors(args.n)
    table = FlatTable(vs)
    vectors = _weight_vectors(args.weights, len(vs))
    values = [flags.flag_lower_bound(args.n, p, table) for p in vectors]
    ok = len(set(values)) == 1
    return ok, {
        "n": args.n,
        "values": [str(v) for v in values],
        "p_independent": ok,
    }


def _run_homology(args: argparse.Namespace) -> tuple[bool, dict]:
    vs, source = _load_set(args)
    degree = args.degree if args.degree is not None else vs.ambient_dim - 2
    rank = homology.homology_rank(vs, degree, args.field)
    payload = dict(source)
    payload["degree"] = degree
    payload["field"] = args.field
    payload["rank"] = str(rank)
    return True, payload


def _run_count_threshold(args: argparse.Namespace) -> tuple[bool, dict]:
    count = threshold.count_threshold_functions(args.n)
    return True, {"n": args.n, "count": str(count)}


def _run_report(args: argparse.Namespace) -> tuple[bool, dict]:
    vectors = _weight_vectors(args.weights, 1 << args.n)
    if len(vectors) != 1:
        raise ValueError(f"report takes one weight vector, {args.weights!r} gives {len(vectors)}")
    rep = threshold.bounds_report(args.n, vectors[0])
    payload: dict = {"n": rep.n}
    payload["lower_bound"] = str(rep.lower_bound)
    payload["two_lambda"] = str(rep.two_lambda)
    payload["chambers"] = str(rep.chambers)
    if rep.brute_force is not None:
        payload["brute_force"] = str(rep.brute_force)
    payload["schlafli"] = str(rep.schlafli)
    return True, payload


def _verify_one(n: int, level: str) -> list[dict]:
    full = level == "full"
    weight_trials = 10 if full else 5
    order_trials = 20 if full else 5
    vs = generate_sign_vectors(n)
    table = FlatTable(vs)
    lam = flags.minimal_tuple_count(vs, table=table)
    checks: list[dict] = []

    def add(name: str, fn: Callable[[], tuple[bool, str]]) -> None:
        ok, detail = fn()
        checks.append({"name": name, "n": n, "ok": ok, "detail": detail})

    def chambers_oracle():
        a = arrangement.chamber_count(vs, table)
        b = arrangement.chamber_count_dr(vs)
        return a == b, f"lattice {a}, oracle {b}"

    def flag_sum_constant():
        sums = {
            flags.flag_weighted_sum(vs, WeightVector.random(len(vs), s), table)
            for s in range(weight_trials)
        }
        ok = sums == {lam}
        return ok, f"{weight_trials} weight vectors -> {sorted(map(str, sums))}, tuples {lam}"

    def order_invariance():
        vals = {
            flags.minimal_tuple_count(vs, OrderPermutation.random(len(vs), s), table)
            for s in range(order_trials)
        }
        return vals == {lam}, f"{order_trials} orders -> {sorted(vals)}"

    def homology_match():
        fields = ["2", "3", "Q"] if full else ["2"]
        sl = homology.build_complex_slice(vs, n - 1, table)
        ranks = {f: homology.slice_rank(sl, f) for f in fields}
        ok = all(r == lam for r in ranks.values())
        return ok, f"ranks {ranks}, tuples {lam}"

    def mobius_flats():
        lattice = arrangement.build_lattice(vs, table)
        bad = 0
        total = 0
        for fid, mu in enumerate(lattice.mobius):
            if table.dims[fid] < 1:
                continue
            total += 1
            if homology.mobius_via_homology(table, fid, "2") != abs(mu):
                bad += 1
        return bad == 0, f"{total} flats, {bad} mismatches"

    def sampled_constancy():
        mean, err = flags.monte_carlo_expectation(
            vs, WeightVector.uniform(len(vs)), SAMPLING_CHECK_COUNT, 0, table
        )
        ok = mean == lam and err == 0.0
        return ok, f"mean {mean}, stderr {err}"

    def bound_chain():
        rep = threshold.bounds_report(n, table=table)
        parts = [str(rep.lower_bound), str(rep.chambers), str(rep.schlafli)]
        return True, " <= ".join(parts)

    add("chambers-vs-oracle", chambers_oracle)
    add("flag-sum-constant", flag_sum_constant)
    add("order-invariance", order_invariance)
    if n <= HOMOLOGY_CHECK_MAX_N:
        add("homology-rank", homology_match)
    if full and n <= FLAT_CHECK_MAX_N:
        add("mobius-by-flat", mobius_flats)
    if full and n <= SAMPLING_CHECK_MAX_N:
        add("sampled-constancy", sampled_constancy)
    add("bound-chain", bound_chain)
    return checks


def _run_verify(args: argparse.Namespace) -> tuple[bool, dict]:
    if args.n is not None:
        targets = [args.n]
    elif args.level == "full":
        targets = list(range(1, FULL_SWEEP_MAX_N + 1))
    else:
        targets = list(range(1, FAST_SWEEP_MAX_N + 1))
    checks: list[dict] = []
    for n in targets:
        checks.extend(_verify_one(n, args.level))
    ok = all(c["ok"] for c in checks)
    return ok, {"level": args.level, "checks": checks, "ok": ok}


_HANDLERS = {
    "gen-e": _run_gen_e,
    "chambers": _run_chambers,
    "lambda": _run_lambda,
    "bound": _run_bound,
    "homology": _run_homology,
    "count-threshold": _run_count_threshold,
    "verify": _run_verify,
    "report": _run_report,
}


def _render_text(subcommand: str, payload: dict, fh: TextIO) -> None:
    if subcommand == "verify":
        for c in payload["checks"]:
            mark = "PASS" if c["ok"] else "FAIL"
            fh.write(f"{mark} n={c['n']} {c['name']}: {c['detail']}\n")
        fh.write("all checks passed\n" if payload["ok"] else "failures above\n")
        return
    for key, value in payload.items():
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        fh.write(f"{key}: {value}\n")


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.subcommand == "gen-e" and args.out is None:
        return
    out: TextIO
    if args.out is not None and args.subcommand != "gen-e":
        out = open(args.out, "w", encoding="ascii")
    else:
        out = sys.stdout
    try:
        if args.fmt == "json":
            out.write(json.dumps(payload, separators=(",", ":")) + "\n")
        else:
            _render_text(args.subcommand, payload, out)
    finally:
        if out is not sys.stdout:
            out.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagbound",
        description="Exact bounds on the number of threshold functions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, n_only: bool = False) -> None:
        p.add_argument("--n", type=int, default=None, help="build the sign-vector set")
        if not n_only:
            p.add_argument("--input", default=None, help="vector-set file")
        p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output here instead of stdout")

    p = sub.add_parser("gen-e", help="write the sign-vector set")
    common(p, n_only=True)

    p = sub.add_parser("chambers", help="chamber count from the flat lattice")
    common(p)
    p.add_argument("--oracle", action="store_true", help="cross-check by deletion-restriction")

    p = sub.add_parser("lambda", help="order-minimal tuple count")
    common(p)
    p.add_argument("--order-seed", type=int, default=0)
    p.add_argument("--order-trials", type=int, default=0)

    p = sub.add_parser("bound", help="doubled weighted flag sum (lower bound)")
    common(p, n_only=True)
    p.add_argument("--weights", default="uniform", help="file, 'uniform', or random:<seed>:<count>")

    p = sub.add_parser("homology", help="reduced homology rank")
    common(p)
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--field", default="2", help="prime or Q")

    p = sub.add_parser(
        "count-threshold",
        help="census: exhaustive search over the truth-table prefix tree, "
        "pruned by exact FM feasibility",
    )
    common(p, n_only=True)

    p = sub.add_parser("verify", help="identity suite with pass/fail per check")
    common(p, n_only=True)
    p.add_argument("--level", choices=("fast", "full"), default="fast")

    p = sub.add_parser("report", help="bounds table")
    common(p, n_only=True)
    p.add_argument("--weights", default="uniform")

    return parser


def _check_source(args: argparse.Namespace) -> None:
    """The vector-set source rules the parser cannot state on its own."""
    if args.subcommand in ("chambers", "lambda", "homology"):
        if (args.n is None) == (args.input is None):
            raise ValueError("exactly one of --n and --input is required")
    elif args.subcommand != "verify" and args.n is None:
        raise ValueError("--n is required")


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Exit status 0 when every check passed, 1 when
    one failed, 2 on a usage error or a guard."""
    args = _build_parser().parse_args(argv)
    try:
        _check_source(args)
        ok, payload = _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # bounds_report raises this when a link of the bound chain fails:
        # a failed check, not a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
