"""Benchmark workloads: their inputs, their CLI calls and the checks on
each call's output.

A workload is built from a seed, handed to the program only as argv (and,
for the random set, one vector-set file), and every call's output is
checked against values the benchmark knows independently of the program.
"""

from __future__ import annotations

import ast
import itertools
import os
import random
import re
from dataclasses import dataclass

from flagbound.arrangement import VectorSet, generate_sign_vectors, write_vector_set
from flagbound.exactlin import rank

# Threshold functions of n variables, OEIS A000609.  These are the
# chamber counts of the sign-vector arrangement E_n.
A000609 = {1: 4, 2: 14, 3: 104, 4: 1882, 5: 94572}

# Flats and cover edges of the E_n lattice (ROADMAP baseline), checked
# against the counters of every traced run on E_n.
LATTICE_SIZES = {4: (538, 2636), 5: (12364, 89878)}

# `verify` runs its homology check only up to this n; above it the traced
# homology layer uses E_4, the largest sign-vector set the CLI checks.
VERIFY_HOMOLOGY_MAX_N = 4
# The census is guarded to n <= 4; `verify` runs it up to there, and the
# traced census runs at the workload's n up to there.
CENSUS_MAX_N = 4

VERIFY_CHECKS = ("chambers-vs-oracle", "flag-sum-constant", "order-invariance", "bound-chain")
FIELDS = ("2", "3", "Q")
ORDER_TRIALS = 3


@dataclass(frozen=True)
class Prepared:
    """A workload's inputs, ready to run: the CLI calls, the vector sets
    that the traced run hands to each layer, and n when `vectors` is E_n."""

    calls: tuple[tuple[str, ...], ...]
    vectors: VectorSet
    homology_vectors: VectorSet
    sign_n: int | None
    described: dict


@dataclass(frozen=True)
class Verify:
    """`verify --n N --level full` on the sign-vector set E_N."""

    n: int

    @property
    def census_n(self) -> int:
        return min(self.n, CENSUS_MAX_N)

    @property
    def path_layers(self) -> tuple[str, ...]:
        """The layers this workload's CLI call runs."""
        return (("arrangement", "flags")
                + ("homology",) * (self.n <= VERIFY_HOMOLOGY_MAX_N)
                + ("threshold",) * (self.n <= CENSUS_MAX_N))

    def prepare(self, seed: int, workdir: str, index: int = 0) -> Prepared:
        """The same inputs for every seed and pass index."""
        vs = generate_sign_vectors(self.n)
        hn = min(self.n, VERIFY_HOMOLOGY_MAX_N)
        return Prepared(
            calls=(("verify", "--n", str(self.n), "--level", "full"),),
            vectors=vs,
            homology_vectors=vs if hn == self.n else generate_sign_vectors(hn),
            sign_n=self.n,
            described={"set": f"E_{self.n}", "homology_set": f"E_{hn}"},
        )

    def check(self, outputs: list[tuple[int | None, str]], expected: dict = A000609) -> list[list[str]]:
        """One list of failure messages per call; empty means it passed.
        `expected` maps n to the chamber count of E_n."""
        code, out = outputs[0]
        problems = []
        if code != 0:
            problems.append(f"exit status {code}")
        lines = out.splitlines()
        if not lines or lines[-1] != "all checks passed":
            problems.append("output does not end with 'all checks passed'")
        seen = {}
        for line in lines[:-1]:
            m = re.match(r"(PASS|FAIL) n=(\d+) ([\w-]+): (.*)$", line)
            if m is None or m.group(1) != "PASS":
                problems.append(f"not a PASS line: {line!r}")
                continue
            seen[m.group(3)] = m.group(4)
        for name in VERIFY_CHECKS:
            if name not in seen:
                problems.append(f"check {name} missing")
        m = re.fullmatch(r"lattice (\d+), oracle (\d+)", seen.get("chambers-vs-oracle", ""))
        want = expected[self.n]
        if m is None or int(m.group(1)) != want or int(m.group(2)) != want:
            problems.append(f"chamber counts {seen.get('chambers-vs-oracle')!r}, expected {want}")
        if self.n <= VERIFY_HOMOLOGY_MAX_N:
            m = re.fullmatch(r"ranks (\{.*\}), tuples (\d+)", seen.get("homology-rank", ""))
            ranks = ast.literal_eval(m.group(1)) if m else {}
            if m is None or sorted(ranks) != sorted(FIELDS) or set(ranks.values()) != {int(m.group(2))}:
                problems.append(f"homology ranks {seen.get('homology-rank')!r} disagree with lambda")
        return [problems]


def primitive_ternary(dim: int) -> list[tuple[int, ...]]:
    """One vector from each +-pair of nonzero vectors in {-1,0,1}^dim: the
    (3^dim - 1) / 2 primitive directions, first nonzero entry positive."""
    out = []
    for v in itertools.product((-1, 0, 1), repeat=dim):
        nz = [x for x in v if x]
        if nz and nz[0] > 0:
            out.append(v)
    return out


def draw_random_set(seed: int, index: int, dim: int, count: int) -> VectorSet:
    """`count` of the primitive ternary vectors, drawn from `seed` and `index`
    and redrawn until they span R^dim."""
    pool = primitive_ternary(dim)
    rng = random.Random(seed * 1_000_003 + index)
    while True:
        picked = rng.sample(pool, count)
        if rank(picked) == dim:
            return VectorSet(tuple(picked), dim)


@dataclass(frozen=True)
class RandomSet:
    """Five commands on a seeded random set of primitive ternary vectors.

    Pass `index` of a run draws its own set, so a run's median is taken over
    several sets rather than resting on one draw.
    """

    dim: int
    count: int
    census_n: int
    path_layers = ("arrangement", "flags", "homology")

    def prepare(self, seed: int, workdir: str, index: int = 0) -> Prepared:
        vs = draw_random_set(seed, index, self.dim, self.count)
        path = os.path.join(workdir, f"randset-r{self.dim}-{seed}-{index}.txt")
        write_vector_set(path, vs)
        calls = (
            ("chambers", "--input", path, "--oracle"),
            ("lambda", "--input", path, "--order-trials", str(ORDER_TRIALS)),
        ) + tuple(("homology", "--input", path, "--field", f) for f in FIELDS)
        return Prepared(
            calls=calls,
            vectors=vs,
            homology_vectors=vs,
            sign_n=None,
            described={"set": f"{self.count} of {len(primitive_ternary(self.dim))} "
                              f"primitive vectors in {{-1,0,1}}^{self.dim}",
                       "seed": seed, "index": index, "vectors": [list(v) for v in vs.vectors]},
        )

    def check(self, outputs: list[tuple[int | None, str]]) -> list[list[str]]:
        """One list of failure messages per call.  A random set has no
        published chamber count, so the routes are checked against each
        other: lattice against oracle, every order and field against lambda."""
        fields = []
        problems: list[list[str]] = []
        for code, out in outputs:
            fields.append(dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln))
            problems.append([] if code == 0 else [f"exit status {code}"])
        chambers, lam = fields[0], fields[1]
        if chambers.get("agree") != "True" or chambers.get("chambers") != chambers.get("oracle"):
            problems[0].append(f"lattice {chambers.get('chambers')} and oracle "
                               f"{chambers.get('oracle')} disagree")
        orders = lam.get("orders", "").split()
        if (lam.get("order_independent") != "True" or len(orders) != ORDER_TRIALS
                or set(orders) != {lam.get("identity")}):
            problems[1].append(f"lambda not order independent: {lam}")
        for i, f in enumerate(FIELDS, start=2):
            got = fields[i]
            if got.get("field") != f or got.get("rank") != lam.get("identity"):
                problems[i].append(f"homology rank over {f} is {got.get('rank')}, "
                                   f"lambda is {lam.get('identity')}")
        return problems


# Why each workload (BENCHMARK.json says the same): verify-n5 is the lattice
# path on a set with heavy sharing, where FlatTable.close is ~90% of the time;
# verify-n4 is the census path on the default thread pool, which a lattice
# change should leave unchanged; randset-r4 is the homology path and runs the
# arrangement code on a set that is not E_n, so an E_n-tuned lattice change
# that costs generic input shows there.
WORKLOADS = {
    "verify-n5": Verify(5),
    "verify-n4": Verify(4),
    "randset-r4": RandomSet(4, 32, census_n=CENSUS_MAX_N),
}

# Reduced sizes for the benchmark's self-test.
SMALL_WORKLOADS = {
    "verify-n3": Verify(3),
    "randset-r3": RandomSet(3, 10, census_n=3),
}
