"""Tests of the benchmark's own arithmetic and input generation.

Run with ``python3 perfbench/selftest.py`` or
``python -m pytest perfbench/selftest.py`` (the file name keeps it out of
the repository's default test collection).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _span(sid, parent, t0, t1, layer="x"):
    return Span(sid, parent, layer, t0, t1, "measure", None, None)


# -- percentiles and the sample-count rule ---------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tracing.samples_beyond(100, 0.9) == 10
    assert tracing.samples_beyond(99, 0.9) == 9
    assert tracing.percentile(list(range(100)), 0.9) == 89
    try:
        tracing.percentile(list(range(99)), 0.9)
    except ValueError:
        pass
    else:
        raise AssertionError("p90 of 99 samples must be refused")


def test_median_is_nearest_rank_and_also_needs_a_tail():
    assert tracing.percentile([5.0, 1.0, 3.0] * 10, 0.5) == 3.0
    assert tracing.percentile(list(range(20)), 0.5) == 9
    try:
        tracing.percentile(list(range(19)), 0.5)
    except ValueError:
        pass
    else:
        raise AssertionError("p50 of 19 samples has 9 beyond it and must be refused")


# -- self time ------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 5.0, 6.0)]
    own = tracing.self_times(spans)
    assert own == {1: 7.0, 2: 2.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 5.0),  # overlaps 2 (another thread of the same parent)
        _span(4, 1, 9.0, 12.0),  # outlives the parent
    ]
    assert tracing.self_times(spans)[1] == 10.0 - 4.0 - 1.0


def test_grandchildren_only_reduce_their_own_parent():
    spans = [_span(1, None, 0.0, 10.0), _span(2, 1, 2.0, 8.0), _span(3, 2, 3.0, 4.0)]
    own = tracing.self_times(spans)
    assert own == {1: 4.0, 2: 5.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_roots_follow_parents_and_treat_orphans_as_roots():
    spans = [_span(1, None, 0, 9), _span(2, 1, 1, 8), _span(3, 2, 2, 3), _span(4, 99, 4, 5)]
    roots = tracing.roots(spans)
    assert [roots[sid].sid for sid in (1, 2, 3, 4)] == [1, 1, 1, 4]


def test_covered_length_of_disjoint_and_nested_intervals():
    assert tracing.covered_length([(0, 1), (2, 3)], 0, 10) == 2
    assert tracing.covered_length([(0, 5), (1, 2)], 0, 10) == 5
    assert tracing.covered_length([(-1, 2)], 0, 1) == 1


# -- reference seconds --------------------------------------------------------------------


def test_speed_factor_averages_the_probes_inside_the_interval():
    ref = speed.REFERENCE_PROBE_S
    points = [(float(t), ref * (2 if t < 20 else 1)) for t in range(40)]
    samples = speed.Samples(points)
    assert math.isclose(samples.factor(0, 19), 0.5)  # probes twice as slow: half the seconds
    assert math.isclose(samples.factor(20, 39), 1.0)
    assert math.isclose(samples.factor(15, 24), 1 / 1.5)


def test_speed_factor_falls_back_to_the_nearest_probes():
    ref = speed.REFERENCE_PROBE_S
    samples = speed.Samples([(float(t), ref * (1 + t)) for t in range(20)])
    # No probe inside: the NEAREST closest to the midpoint (10.5) count.
    nearest = [ref * (1 + t) for t in range(7, 7 + speed.NEAREST)]
    assert math.isclose(samples.factor(10.4, 10.6), ref / (sum(nearest) / len(nearest)))
    # At the edge of the run the window shifts inwards.
    first = [ref * (1 + t) for t in range(speed.NEAREST)]
    assert math.isclose(samples.factor(-5, -4), ref / (sum(first) / len(first)))


# -- seeded, hash-salt-independent inputs ------------------------------------------------

_DIGEST_SCRIPT = """
import hashlib, sys
sys.path[:0] = [{here!r}, {src!r}]
import workloads
parts = []
for name in ("fresh-ilp", "sharded-batch"):
    batch = workloads.batch_inputs(name, {seed})
    parts.append(repr((batch.problem, batch.correct, batch.attempts)))
stream = workloads.stream_inputs({seed})
parts.append(repr((sorted(stream.correct.items()), stream.requests, sorted(stream.updates.items()))))
print(hashlib.sha256("\\n".join(parts).encode()).hexdigest())
"""


def _inputs_digest(seed: int, hash_seed: str) -> str:
    script = _DIGEST_SCRIPT.format(here=str(HERE), src=str(HERE.parent / "src"), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_inputs_are_byte_identical_under_any_hash_seed():
    assert _inputs_digest(5, "0") == _inputs_digest(5, "4242")


def test_seed_changes_the_inputs():
    assert _inputs_digest(5, "0") != _inputs_digest(6, "0")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report every failing test
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    sys.exit(1 if failed else 0)
