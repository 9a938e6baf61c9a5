"""Host speed probe of the ncprob benchmark.

The reference host is a shared VM whose speed drifts by up to 2x within
minutes, and CPU time drifts with wall time, so a raw time of the same code
moves with the host.  ``run.py`` therefore runs a fixed probe between ops
(``Speed.sample``): a fresh Python process that builds a 150,000-entry list
and dict and reports how long that took.  Over eight minutes of ops
interleaved with probes on the reference host, the log of every op's time
followed the log of this probe with a slope of 0.9-1.2 and a correlation of
0.76-0.89; a warm, cache-resident loop inside ``run.py`` tracked the ops less
well.  The probe never runs ncprob code, so a change to ncprob cannot move
it.

An op's speed factor is the median time of the probes taken within
``WINDOW_S`` of it, or within its own duration when that is longer, divided
by ``REF_PROBE_S``, the probe's time on the reference host; its reported
time is the measured one divided by that factor, i.e. seconds of the
reference host.  The host's speed changes during a long op, so the probes
right after it are a poor estimate of its speed; the wider window takes in
the probes of the ops around it.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

REF_PROBE_S = 0.050
WINDOW_S = 1.0
PROBES = 1
PROBES_PER_S = 1.0
PROBE_CODE = """\
import time
start = time.perf_counter()
table = dict([(i, str(i)) for i in range(150_000)])
elapsed = time.perf_counter() - start
assert len(table) == 150_000 and table[149_999] == "149999"
print(repr(elapsed))
"""


def probe() -> float:
    """Seconds the probe process spent on its fixed work."""
    done = subprocess.run([sys.executable, "-c", PROBE_CODE], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout)


class Speed:
    """The probes of one run, as (start time, seconds)."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []

    def sample(self, after_s: float = 0.0) -> None:
        """PROBES probes, or PROBES_PER_S for each second of the op just
        timed when that is more, so a long op has a steadier factor."""
        for _ in range(max(PROBES, math.ceil(after_s * PROBES_PER_S))):
            self.probes.append((perf_counter(), probe()))

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median probe time within max(WINDOW_S, end - start) of [start, end]
        ÷ REF_PROBE_S; all probes of the run when none is that close."""
        reach = max(WINDOW_S, end - start)
        near = [t for at, t in self.probes if start - reach <= at <= end + reach]
        return statistics.median(near or [t for _, t in self.probes]) / REF_PROBE_S

    def scale(self, start: float, seconds: float) -> float:
        """A time measured from `start` in seconds of the reference host."""
        return seconds / self.factor(start, start + seconds)
