"""Machine-speed calibration: timings in reference seconds.

The benchmark's machines are shared, and the speed a process gets drifts by
tens of percent over seconds and minutes as neighbours come and go: a fixed
pure-Python loop ran 0.75x to 1.35x its median time in five-second windows
on the machine the baseline was recorded on.  Wall times alone then move
more between two runs of the same code than the bounds allow.

So every timing is paired with a fixed probe (:func:`probe_seconds`, about
2 ms of dictionary, tuple and string work, with the collector off), run
close to it in time and on the same processor:

* in process, one probe after each timed operation (:meth:`Samples.probe`);
* around other processes, a :class:`Sampler`: one probe process pinned to
  each processor this one may use, probing every :data:`INTERVAL_S`.

A timing of ``t`` seconds is reported as ``t * REFERENCE_PROBE_S / p``,
where ``p`` is the mean probe time around it (:meth:`Samples.factor`):
seconds at the speed the probe has when it takes ``REFERENCE_PROBE_S``.
Measured in process, probe and program speed tracked each other with a
correlation of 0.99 in one-second windows, and the ratio of the two varied
by 2-6 % where each alone varied by 16-30 %.

Run as a script (``python3 speed.py --cpu N``) this module is one sampler
process: it probes until its standard input closes, then prints its
samples as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

__all__ = ["REFERENCE_PROBE_S", "Samples", "Sampler", "probe_seconds"]

#: Median probe time on the machine the baseline was recorded on.
REFERENCE_PROBE_S = 2.2e-3

#: Pause between two probes of a sampler process (about 5 % of a processor).
INTERVAL_S = 0.04

#: A factor averages at least this many probes: those inside the interval,
#: or else the nearest ones to its midpoint.
NEAREST = 9

_KEYS = tuple((index % 97, index % 13) for index in range(5000))


def probe_seconds() -> float:
    """Run the probe once; return how long it took."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: dict = {}
        total = 0
        for index, key in enumerate(_KEYS):
            table[key] = table.get(key, 0) + index
            total += len(str(index))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Samples:
    """Probe times keyed by when they ran (``time.monotonic()``, which is
    system-wide, so samples of several processes share one time line)."""

    def __init__(self, points=()) -> None:
        self.points = sorted(points)

    def probe(self) -> None:
        """Probe in this process, now."""
        started = time.monotonic()
        self.points.append((started, probe_seconds()))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``."""
        times = [point[0] for point in self.points]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi - lo < NEAREST:
            middle = (start + end) / 2
            centre = bisect.bisect_left(times, middle)
            lo = max(0, min(centre - NEAREST // 2, len(times) - NEAREST))
            hi = min(len(times), lo + NEAREST)
        if hi <= lo:
            raise ValueError("no speed samples")
        return REFERENCE_PROBE_S / statistics.fmean(p[1] for p in self.points[lo:hi])

    def speed(self) -> float:
        """The run's mean speed relative to the reference (1.0: as fast)."""
        return self.factor(self.points[0][0], self.points[-1][0])


class Sampler:
    """Probe processes pinned one to each usable processor.

    Always stopped and reaped by :meth:`stop`, which returns the samples.
    """

    def __init__(self) -> None:
        self.procs = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                command = [sys.executable, str(Path(__file__).resolve()), "--cpu", str(cpu)]
                self.procs.append(
                    subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                )
        except BaseException:
            self.stop()
            raise

    def stop(self) -> Samples:
        points = []
        for proc in self.procs:
            out, _ = proc.communicate()
            if proc.returncode == 0:
                points += [tuple(point) for point in json.loads(out)]
        self.procs = []
        return Samples(points)


def _sample(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = Samples()
    while True:
        samples.probe()
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
    json.dump(samples.points, sys.stdout)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="One probe process (see the module docstring).")
    parser.add_argument("--cpu", type=int, required=True)
    _sample(parser.parse_args().cpu)
