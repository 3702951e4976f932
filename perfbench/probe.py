"""The host-speed probe: times two fixed pure-Python bursts until it is stopped.

Started and stopped by :class:`common.HostProbe`, never by hand::

    python perfbench/probe.py INTERVAL_S

Every ``INTERVAL_S`` it times a burst of integer arithmetic and a burst of
lookups in a 200k-entry dict and prints one line, ``<arith ms> <dict ms>``.
It runs in a process of its own so that no thread of the benchmark can hold
its interpreter lock while it times a burst.
"""

from __future__ import annotations

import random
import sys
import time


def _arith() -> None:
    total = 0
    for value in range(50_000):
        total += value * value


def main() -> int:
    interval = float(sys.argv[1])
    rng = random.Random(0)
    table = {key: key for key in range(200_000)}
    keys = [rng.randrange(200_000) for _ in range(20_000)]

    def lookups() -> None:
        total = 0
        for key in keys:
            total += table[key]

    while True:
        readings = []
        for burst in (_arith, lookups):
            started = time.perf_counter()
            burst()
            readings.append((time.perf_counter() - started) * 1000.0)
        print(f"{readings[0]:.4f} {readings[1]:.4f}", flush=True)
        time.sleep(interval)


if __name__ == "__main__":
    sys.exit(main())
