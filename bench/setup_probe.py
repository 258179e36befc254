"""Time one set-up of a workload in a fresh interpreter: importing flagbound
and building and validating the workload's inputs.  Prints the seconds.

    python3 bench/setup_probe.py <workload> <seed> <workdir>
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import flagbound  # noqa: F401
    from workloads import SMALL_WORKLOADS, WORKLOADS

    (WORKLOADS | SMALL_WORKLOADS)[name].prepare(seed, workdir)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
