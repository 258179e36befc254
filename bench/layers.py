"""The traced run: each module's public functions called in turn on a
workload's inputs, every call timed as a span, and exact work counters read
from the public data the calls leave behind.

Spans are recorded here, around the calls into each layer; the program
itself is not instrumented.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import contextmanager

import flagbound.homology
from flagbound.arrangement import FlatTable, build_lattice, chamber_count_dr
from flagbound.flags import OrderPermutation, WeightVector, flag_weighted_sum, minimal_tuple_count
from flagbound.homology import build_complex_slice, homology_rank
from flagbound.threshold import BooleanFunction, count_threshold_functions, is_threshold

from workloads import A000609, FIELDS, LATTICE_SIZES, Prepared

MORE_WEIGHT_VECTORS = 9
ORDERS = 5
THRESHOLD_SAMPLE = 2048
RANK_METRICS = {"2": "rank_gf2", "3": "rank_gfp", "Q": "rank_q"}


class Tracer:
    """Spans kept in memory: name, parent name, start and end, in seconds
    since the tracer was made."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"name": name, "parent": parent,
                               "start": start - self._t0, "end": end - self._t0})

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))


@contextmanager
def _traced_slices(tracer: Tracer):
    """Time the slice that `homology_rank` builds as a child span by
    wrapping the module attribute it looks up."""
    original = flagbound.homology.build_complex_slice

    def wrapped(*args, **kwargs):
        with tracer.span("homology.slice_in_rank"):
            return original(*args, **kwargs)

    flagbound.homology.build_complex_slice = wrapped
    try:
        yield
    finally:
        flagbound.homology.build_complex_slice = original


def _boundary_nnz(lower: tuple, upper: tuple) -> int:
    """Nonzeros of the boundary map upper -> lower, from the simplex lists."""
    index = set(lower)
    return sum(1 for s in upper for drop in range(len(s))
               if s[:drop] + s[drop + 1:] in index)


def arrangement_layer(tracer: Tracer, prepared: Prepared, check) -> tuple[dict, FlatTable]:
    vs = prepared.vectors
    table = FlatTable(vs)
    with tracer.span("arrangement.close"):
        table.close()
    with tracer.span("arrangement.mobius"):
        lattice = build_lattice(vs, table)
    with tracer.span("arrangement.dr"):
        oracle = chamber_count_dr(vs)
    chambers = lattice.chamber_count()
    check(chambers == oracle, f"lattice {chambers} vs deletion/restriction {oracle}")
    n = prepared.sign_n
    if n is not None:
        check(chambers == A000609[n], f"E_{n} chambers {chambers}, A000609 {A000609[n]}")
    flats = len(table.rows)
    edges = sum(len(table.covers(f)) for f in range(flats))
    top, T = vs.ambient_dim, len(vs)
    extends = sum(T - table.counts[f] for f in range(flats) if table.dims[f] < top)
    if n in LATTICE_SIZES:
        check((flats, edges) == LATTICE_SIZES[n],
              f"E_{n}: {flats} flats, {edges} cover edges, ROADMAP {LATTICE_SIZES[n]}")
    return {
        "arrangement.close_s": (tracer.total("arrangement.close"), "s"),
        "arrangement.mobius_s": (tracer.total("arrangement.mobius"), "s"),
        "arrangement.dr_s": (tracer.total("arrangement.dr"), "s"),
        "arrangement.flats": (flats, "count"),
        "arrangement.cover_edges": (edges, "count"),
        "arrangement.extends_per_edge": (extends / edges, "ratio"),
    }, table


def flags_layer(tracer: Tracer, prepared: Prepared, table: FlatTable, check) -> tuple[dict, int]:
    vs = prepared.vectors
    T = len(vs)
    sums = []
    with tracer.span("flags.flag_sum"):
        sums.append(flag_weighted_sum(vs, WeightVector.random(T, 0), table))
    for s in range(1, MORE_WEIGHT_VECTORS + 1):
        with tracer.span("flags.flag_sum_more"):
            sums.append(flag_weighted_sum(vs, WeightVector.random(T, s), table))
    with tracer.span("flags.lambda"):
        lam = minimal_tuple_count(vs, table=table)
    values = []
    for s in range(ORDERS):
        with tracer.span("flags.lambda_order"):
            values.append(minimal_tuple_count(vs, OrderPermutation.random(T, s), table))
    check(set(sums) == {lam}, f"flag sums {sorted(map(str, set(sums)))} vs lambda {lam}")
    check(set(values) == {lam}, f"lambda over orders {sorted(set(values))} vs {lam}")
    return {
        "flags.flag_sum_s": (tracer.total("flags.flag_sum"), "s"),
        "flags.flag_sum_more_s": (statistics.median(tracer.durations("flags.flag_sum_more")), "s"),
        "flags.lambda_s": (tracer.total("flags.lambda"), "s"),
        "flags.lambda_order_s": (statistics.median(tracer.durations("flags.lambda_order")), "s"),
    }, lam


def homology_layer(tracer: Tracer, prepared: Prepared, lam: int, check) -> dict:
    vs = prepared.homology_vectors
    if vs is not prepared.vectors:
        lam = minimal_tuple_count(vs)
    m = vs.ambient_dim - 2
    with tracer.span("homology.slice"):
        sl = build_complex_slice(vs, m)
    faces, simplices, cofaces = sl.faces, sl.simplices, sl.cofaces
    del sl
    out = {
        "homology.slice_s": (tracer.total("homology.slice"), "s"),
        "homology.faces": (len(faces), "count"),
        "homology.simplices": (len(simplices), "count"),
        "homology.cofaces": (len(cofaces), "count"),
        "homology.boundary_nnz": (_boundary_nnz(faces, simplices)
                                  + _boundary_nnz(simplices, cofaces), "count"),
        # Cells of the two dense boundary matrices, computed from the layer
        # sizes rather than measured, so it stays exact if the storage changes.
        "homology.dense_cells": (len(faces) * len(simplices)
                                 + len(simplices) * len(cofaces), "count"),
    }
    ranks = {}
    with _traced_slices(tracer):
        for fld in FIELDS:
            name = RANK_METRICS[fld]
            before = tracer.total("homology.slice_in_rank")
            with tracer.span(f"homology.{name}"):
                ranks[fld] = homology_rank(vs, m, fld)
            inner = tracer.total("homology.slice_in_rank") - before
            out[f"homology.{name}_s"] = (tracer.total(f"homology.{name}") - inner, "s")
    check(set(ranks.values()) == {lam}, f"homology ranks {ranks} vs lambda {lam}")
    return out


def threshold_layer(tracer: Tracer, census_n: int, seed: int, check) -> dict:
    with tracer.span("threshold.census"):
        count = count_threshold_functions(census_n)
    check(count == A000609[census_n], f"census {count}, A000609 {A000609[census_n]}")
    rng = random.Random(seed)
    codes = [rng.randrange(1 << (1 << census_n)) for _ in range(THRESHOLD_SAMPLE)]
    for code in codes:
        f = BooleanFunction.from_int(census_n, code)
        with tracer.span("threshold.is_threshold"):
            is_threshold(f)
    micros = [t * 1e6 for t in tracer.durations("threshold.is_threshold")]
    cuts = statistics.quantiles(micros, n=100)
    return {
        "threshold.census_s": (tracer.total("threshold.census"), "s"),
        "threshold.is_threshold_p50_us": (statistics.median(micros), "us"),
        "threshold.is_threshold_p99_us": (cuts[98], "us"),
        "threshold.threshold_share": (count / (1 << (1 << census_n)), "ratio"),
    }


def trace_layers(tracer: Tracer, workload, prepared: Prepared, seed: int) -> tuple[dict, list[str]]:
    """Every per-layer metric as {name: (value, unit)}, and the failed checks."""
    failures: list[str] = []

    def check(ok: bool, detail: str) -> None:
        if not ok:
            failures.append(detail)

    metrics, table = arrangement_layer(tracer, prepared, check)
    got, lam = flags_layer(tracer, prepared, table, check)
    metrics.update(got)
    del table
    metrics.update(homology_layer(tracer, prepared, lam, check))
    metrics.update(threshold_layer(tracer, workload.census_n, seed, check))
    return metrics, failures


# The spans of each layer that repeat work a CLI call does; the standalone
# slice and the is_threshold sample are measurements only.
PATH_SPANS = {
    "arrangement": ("arrangement.close", "arrangement.mobius", "arrangement.dr"),
    "flags": ("flags.flag_sum", "flags.flag_sum_more", "flags.lambda", "flags.lambda_order"),
    "homology": tuple(f"homology.{name}" for name in RANK_METRICS.values()),
    "threshold": ("threshold.census",),
}


def path_span_total(tracer: Tracer, workload) -> float:
    """Time of the traced spans on the layers the workload's CLI calls run."""
    return sum(tracer.total(name) for layer in workload.path_layers
               for name in PATH_SPANS[layer])
