"""Host-speed probe, run as a helper process beside a measured run.

Usage: ``python3 e2ebench/probe.py`` — for each line read from stdin it
runs the probe once and writes the seconds it took, until stdin closes.

The probe makes pseudo-random reads from a list of :data:`SIZE` ints.
The reads miss the caches, and on the development host the probe's time
tracked the program's: over 20-second windows, ``run fig10`` time against
probe time had correlation 0.87-0.90 and log-log slope 0.99-1.03, where
pure-Python dispatch, object and JSON loops had slopes of 0.4-0.75. It
runs in its own process so that its list adds nothing to the memory of
the benchmark process, whose children's peak RSS is measured.
"""

from __future__ import annotations

import sys
import time

SIZE = 3_000_000
READS = 150_000


def probe(data: list) -> float:
    """Seconds :data:`READS` pseudo-random reads of ``data`` take now."""
    size = len(data)
    index = total = 0
    start = time.perf_counter()
    for _ in range(READS):
        index = (index * 1103515245 + 12345) % size
        total += data[index]
    return time.perf_counter() - start


def main() -> int:
    data = list(range(SIZE))
    for _line in sys.stdin:
        print(repr(probe(data)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
