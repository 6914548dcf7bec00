#!/usr/bin/env python
"""Scalability study: WiDir vs Baseline from 4 to 64 cores (Figure 10).

Runs one sharing-heavy application at increasing core counts and prints
the speedup of each protocol over the 4-core Baseline — the paper's
Figure 10 series. The expected shape: the two protocols track each other
up to ~16 cores, then diverge as wired-mesh traversal costs grow and more
lines qualify for wireless mode.

Usage::

    python examples/scalability_study.py [app] [memops_per_core]
"""

import sys
import time

from repro import baseline_config, widir_config
from repro.api import simulate


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "radiosity"
    memops = int(sys.argv[2]) if len(sys.argv) > 2 else 800
    core_counts = (4, 8, 16, 32, 64)

    print(f"Scalability of {app} ({memops} refs/core)\n")
    print(f"{'cores':>6} {'Baseline cyc':>14} {'WiDir cyc':>12} "
          f"{'Base speedup':>13} {'WiDir speedup':>14}")

    reference = None
    for cores in core_counts:
        t0 = time.time()
        base = simulate(app, config=baseline_config(num_cores=cores),
                        memops=memops, workers=1, cache=False)
        widir = simulate(app, config=widir_config(num_cores=cores),
                         memops=memops, workers=1, cache=False)
        if reference is None:
            reference = base.cycles
        print(
            f"{cores:>6} {base.cycles:>14,} {widir.cycles:>12,} "
            f"{reference / base.cycles:>13.2f} {reference / widir.cycles:>14.2f}"
            f"   [{time.time() - t0:.0f}s]"
        )

    print("\nSpeedups are relative to the 4-core Baseline (paper Figure 10).")


if __name__ == "__main__":
    main()
