"""Workload runners: set-up, the measured run, output checks and metrics.

Each runner takes the generated inputs, a scratch directory inside the
checkout and an optional :class:`tracing.Tracer` (installed by the caller),
and returns a :class:`Measurement`.  The program is driven only through its
public entry points: ``BatchRepairEngine.from_store`` (in process and, with
``processes=2``, the ``ProcessBatchEngine``), the ``serve`` CLI with
``ServiceClient``, and ``ClusterStore.open_indexed`` for store updates.

Runs report their timings in reference seconds (``speed.py``): in process,
a speed probe runs after every set-up and (``fresh-ilp``) every attempt;
around worker and server processes, pinned sampler processes probe
throughout the measured run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro.clusterstore.store import ClusterStore
from repro.core.inputs import trace_passes_case
from repro.core.pipeline import Clara
from repro.core.profile import PhaseProfiler
from repro.datasets import get_problem
from repro.engine.batch import BatchAttempt, BatchRepairEngine
from repro.engine.cache import RepairCaches
from repro.interpreter.compile import default_compile_cache
from repro.interpreter.executor import execute_interpreted
from repro.model import clear_intern_table
from repro.service import ServiceClient

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 15

#: Record statuses that count as failed operations (no budget is set, so a
#: timeout is a failure, not a legitimate outcome).
ERROR_STATUSES = frozenset({"internal-error", "timeout"})

#: Per-layer metrics and units, reported on every workload (0 where a
#: workload does not exercise the layer).
PER_LAYER = {
    "ilp.solve_s": "s",
    "ilp.solves": "count",
    "ilp.nodes": "count",
    "ilp.us_per_node": "us",
    "ilp.cache_hit_frac": "frac",
    "interpreter.exec_s": "s",
    "interpreter.exec_calls": "count",
    "interpreter.exec_steps": "count",
    "frontend.parse_s": "s",
    "frontend.parse_calls": "count",
    "engine.cache.repair_hit_frac": "frac",
    "engine.cache.trace_hit_frac": "frac",
    "service.handle_s": "s",
    "service.transport_s": "s",
    "service.reload_s": "s",
    "clusterstore.open_s": "s",
    "clusterstore.page_in_s": "s",
    "clusterstore.segments_loaded": "count",
    "clusterstore.update_s": "s",
    "core.clustering.cluster_s": "s",
    "core.clustering.clusters": "count",
    "engine.parallel.shard_max_frac": "frac",
    "engine.parallel.imbalance": "ratio",
    "engine.parallel.overhead_s": "s",
    "core.localrepair.candidate_gen_s": "s",
    "core.localrepair.candidates": "count",
    "ted.distance_s": "s",
    "ted.dp_runs": "count",
    "core.repair.search_s": "s",
    "core.repair.clusters_tried": "count",
    "core.feedback.feedback_s": "s",
    "core.matching.match_s": "s",
    "core.matching.match_calls": "count",
    "core.matching.match_found_frac": "frac",
    "retrieval.rank_s": "s",
    "retrieval.matches_skipped": "count",
    "engine.batch.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}

END_TO_END = {
    "setup_s": "s",
    "attempts_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "repaired_frac": "frac",
    "rel_size_mean": "frac",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


@dataclass
class Measurement:
    """What one workload run saw: timings, per-operation outcomes, checks.

    A run repeats its work in one or more passes, each from its own set-up
    (cold caches, fresh store); ``walls`` and ``latencies`` hold one entry
    per pass.  ``attempts_per_s`` is the median over the passes, and each
    operation's latency is its median over the passes before the
    percentiles are taken.  Every pass must produce the first pass's
    outcomes.
    """

    setup_s: list[float]
    walls: list[float]
    latencies: list[list[float]]
    statuses: list[str]
    rel_sizes: list[float]
    operations: int
    errors: int
    peak_rss_mb: float
    digest: str
    #: The run's machine speed relative to the reference (``speed.py``);
    #: ``None`` where the run probed none.
    speed: float | None = None
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    def end_to_end(self) -> dict[str, float]:
        latencies = [statistics.median(each) for each in zip(*self.latencies, strict=True)]
        repaired = [size for size in self.rel_sizes if math.isfinite(size)]
        return {
            "setup_s": statistics.median(self.setup_s),
            "attempts_per_s": statistics.median(
                len(lat) / wall for wall, lat in zip(self.walls, self.latencies)
            ),
            "latency_p50_s": tracing.percentile(latencies, 0.5),
            "latency_p90_s": tracing.percentile(latencies, 0.9),
            "repaired_frac": self.statuses.count("repaired") / len(self.statuses),
            "rel_size_mean": statistics.fmean(repaired) if repaired else 0.0,
            "ok_frac": 1.0 - self.errors / self.operations,
            "peak_rss_mb": self.peak_rss_mb,
        }


# -- shared helpers ---------------------------------------------------------------


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record_row(record) -> dict:
    row = record.to_json()
    del row["elapsed"]
    return row


def _clara(problem: str, profiler: PhaseProfiler | None = None) -> Clara:
    spec = get_problem(problem)
    return Clara(
        cases=spec.cases,
        language=spec.language,
        entry=spec.entry,
        caches=RepairCaches(profiler=profiler),
    )


def build_store(directory: Path, problem: str, correct: list[str]) -> Path:
    """Parse, verify and cluster the correct pool; save it as a store."""
    clara = _clara(problem)
    clara.add_correct_sources(correct)
    return clara.save_clusters(directory / f"{problem}.json", problem=problem)


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _timed_setups(reps: int, workdir: Path, make, dispose=None, after=None, keep: int = 1):
    """Run ``make(directory, last)`` ``reps`` times and time each.

    Returns each set-up's ``(start, end)`` on ``time.monotonic()`` and the
    handles of the last ``keep`` set-ups.  ``dispose(handle)`` tears each
    earlier set-up down and ``after()`` runs after each set-up, both
    outside the timing.
    """
    intervals = []
    handles = []
    for rep in range(reps):
        directory = workdir / f"setup{rep}"
        directory.mkdir(parents=True)
        started = time.monotonic()
        handles.append(make(directory, rep == reps - 1))
        intervals.append((started, time.monotonic()))
        if after is not None:
            after()
        if len(handles) > keep:
            old = handles.pop(0)
            if dispose is not None:
                dispose(old)
    return intervals, handles


def _pass_failures(digests: list[str]) -> list[str]:
    """Every pass must repeat the first pass's outcomes exactly."""
    return [
        f"pass {index} repaired differently from pass 0"
        for index, digest in enumerate(digests)
        if digest != digests[0]
    ]


def _seconds(intervals, samples: speed.Samples | None = None) -> list[float]:
    """Interval lengths, in reference seconds when ``samples`` are given."""
    if samples is None:
        return [end - start for start, end in intervals]
    return [(end - start) * samples.factor(start, end) for start, end in intervals]


def _cold_start() -> None:
    """Empty the program's process-wide memo tables and settle the heap.

    The measured run then starts as cold as a fresh process: the expression
    intern table and the default compile cache are cleared (the engine's
    own caches are new anyway), and what generation and set-up left on the
    heap is frozen, so it no longer changes how often the measured run's own
    garbage collections come or how much they traverse.  Callers unfreeze
    when the run ends, so its garbage can be collected.
    """
    clear_intern_table()
    default_compile_cache().clear()
    gc.collect()
    gc.freeze()


def _replay_failures(outcomes, problem: str) -> list[str]:
    """Re-run every repaired program on the cases with the spec executor."""
    cases = get_problem(problem).cases
    failures = []
    for index, outcome in enumerate(outcomes):
        if outcome.status != "repaired":
            continue
        program = outcome.repair.repaired_program
        for case in cases:
            trace = execute_interpreted(program, case.memory_for(program))
            if not trace_passes_case(trace, case):
                failures.append(f"attempt-{index}: repaired program fails case {case.describe()}")
                break
    return failures


# -- per-layer numbers --------------------------------------------------------------


def span_layers(spans) -> dict[str, float]:
    """Layer self times and counts from spans (the ``check`` phase excluded)."""
    spans = [span for span in spans if span.phase != "check"]
    own = tracing.self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    totals: Counter = Counter()
    counted: Counter = Counter()
    for span in spans:
        seconds[span.layer] += own[span.sid]
        calls[span.layer] += 1
        if span.n is not None:
            totals[span.layer] += span.n
            counted[span.layer] += 1
    solve_s = seconds["ilp.solve_fast"] + seconds["ilp.solve"]
    nodes = totals["ilp.solve_fast"]
    return {
        "ilp.solve_s": solve_s,
        "ilp.solves": counted["ilp.solve_fast"],
        "ilp.nodes": nodes,
        "ilp.us_per_node": _frac(solve_s * 1e6, nodes),
        "interpreter.exec_s": seconds["interpreter.traces"] + seconds["interpreter.execute"],
        "interpreter.exec_calls": calls["interpreter.execute"],
        "interpreter.exec_steps": totals["interpreter.execute"],
        "frontend.parse_s": seconds["frontend.parse"],
        "frontend.parse_calls": calls["frontend.parse"],
        "clusterstore.open_s": seconds["clusterstore.open"],
        "clusterstore.page_in_s": seconds["clusterstore.page_in"],
        "clusterstore.update_s": seconds["clusterstore.update"],
        "core.clustering.cluster_s": seconds["core.clustering"],
        "core.clustering.clusters": totals["core.clustering"],
        "core.localrepair.candidate_gen_s": seconds["core.localrepair"],
        "core.localrepair.candidates": totals["core.localrepair"],
        "ted.distance_s": seconds["ted"],
        "ted.dp_runs": totals["ted"],
        "core.repair.search_s": seconds["core.repair"],
        "core.repair.clusters_tried": totals["core.repair"],
        "core.feedback.feedback_s": seconds["core.feedback"],
        "core.matching.match_s": seconds["core.matching"],
        "core.matching.match_calls": calls["core.matching"],
        "core.matching.match_found_frac": _frac(totals["core.matching"], calls["core.matching"]),
        "retrieval.rank_s": seconds["retrieval.rank"],
    }


#: Layers whose root spans are one attempt's work: the pipeline parses, then
#: calls ``Clara.repair_program`` (the orchestrating span, not a layer).
_ATTEMPT_ROOTS = ("frontend.parse", "engine.batch")


def unattributed(spans, elapsed_total: float) -> float:
    """Attempt time that no layer span covers (``engine.batch`` excluded)."""
    spans = [span for span in spans if span.phase == "measure"]
    own = tracing.self_times(spans)
    root = tracing.roots(spans)
    covered = sum(
        own[span.sid]
        for span in spans
        if span.layer != "engine.batch" and root[span.sid].layer in _ATTEMPT_ROOTS
    )
    return elapsed_total - covered


def _cache_fracs(stats) -> dict[str, float]:
    return {
        "engine.cache.repair_hit_frac": stats.repair_hit_rate,
        "engine.cache.trace_hit_frac": stats.trace_hit_rate,
    }


def _coverage_failures(spans, profiler: PhaseProfiler, ted_counters: dict) -> list[str]:
    """Span counts must equal the program's own counters (measured phase)."""
    measured = [span for span in spans if span.phase == "measure"]
    counters = profiler.counters()
    failures = []
    solves = [s for s in measured if s.layer == "ilp.solve_fast" and s.n is not None]
    if len(solves) != counters.get("ilp_solves", 0):
        failures.append(f"ilp.solves {len(solves)} != profiler ilp_solves {counters.get('ilp_solves', 0)}")
    nodes = sum(span.n for span in solves)
    if nodes != counters.get("ilp_nodes", 0):
        failures.append(f"ilp.nodes {nodes} != profiler ilp_nodes {counters.get('ilp_nodes', 0)}")
    steps = sum(
        span.n
        for span in measured
        if span.layer == "interpreter.traces" and span.tag == "repro.engine.cache"
    )
    if steps != counters.get("exec_steps", 0):
        failures.append(f"exec_steps {steps} != profiler exec_steps {counters.get('exec_steps', 0)}")
    matches = sum(
        1 for span in measured if span.layer == "core.matching" and span.tag == "repro.engine.cache"
    )
    if matches != counters.get("match", 0):
        failures.append(f"structural matches {matches} != profiler match {counters.get('match', 0)}")
    failures += _ted_coverage(measured, [ted_counters])
    return failures


def _ted_coverage(spans, counter_sets, *, concurrent: bool = False) -> list[str]:
    """Every ``TedCache.distance`` call bumps exactly one of its counters.

    A span's DP count is the change of ``dp_runs`` across the call, which
    other threads sharing the cache can inflate; ``concurrent`` callers
    therefore compare call counts only.
    """
    ted = [span for span in spans if span.layer == "ted"]
    expected = sum(sum(counters.values()) for counters in counter_sets)
    dp_runs = sum(counters["dp_runs"] for counters in counter_sets)
    failures = []
    if len(ted) != expected:
        failures.append(f"ted spans {len(ted)} != TedCache calls {expected}")
    if not concurrent and sum(span.n or 0 for span in ted) != dp_runs:
        failures.append(f"ted.dp_runs {sum(span.n or 0 for span in ted)} != counters {dp_runs}")
    return failures


def _parallel_layers(shards, records, wall: float) -> dict[str, float]:
    sums = [sum(records[index].elapsed for index in shard) for shard in shards]
    return {
        "engine.parallel.shard_max_frac": max(len(shard) for shard in shards) / len(records),
        "engine.parallel.imbalance": _frac(max(sums), statistics.fmean(sums)),
        "engine.parallel.overhead_s": wall - max(sums),
    }


# -- in-process workload (fresh-ilp) ---------------------------------------------------


def run_in_process(
    inputs: workloads.Batch, workdir: Path, reps: int, tracer=None, passes: int = 1
) -> Measurement:
    """Repair the attempts in this process, single-threaded, cold caches.

    Traced (one pass), a second engine on its own store runs untraced,
    attempt by attempt in alternation with the traced one, so both see the
    same process warm-up and their wall-time ratio is the tracing overhead.
    """
    profiler = PhaseProfiler() if tracer is not None else None

    def make(directory: Path, last: bool):
        store = build_store(directory, inputs.problem, inputs.correct)
        clara = _clara(inputs.problem, profiler if last else None)
        return BatchRepairEngine.from_store(store, clara, workers=1)

    items = [BatchAttempt(f"attempt-{i}", source) for i, source in enumerate(inputs.attempts)]
    if tracer is None:
        samples = speed.Samples()
        setups, engines = _timed_setups(reps, workdir, make, after=samples.probe, keep=passes)
        runs = []
        while engines:
            # A pass's engine is released before the next pass starts, so
            # the peak memory is that of one engine, as in a real process.
            runs.append(_in_process_pass(engines.pop(0), items, samples))
        setup_s = _seconds(setups, samples)
        walls = [wall for _, _, wall, _ in runs]
        latencies = [lat for _, _, _, lat in runs]
        records, outcomes = runs[0][0], runs[0][1]
        every = [record for run in runs for record in run[0]]
        digests = [_digest([_record_row(record) for record in run[0]]) for run in runs]
    else:
        tracer.enabled = False
        store = build_store(workdir, inputs.problem, inputs.correct)
        plain = BatchRepairEngine.from_store(store, _clara(inputs.problem), workers=1)
        tracer.enabled = True
        setups, (engine,) = _timed_setups(reps, workdir, make)
        setup_s = _seconds(setups)
        samples = None
        _cold_start()
        wall = plain_wall = 0.0
        records, outcomes = [], []
        for index, item in enumerate(items):
            # Whichever engine repairs an attempt first warms process-wide
            # state (the expression intern table) for the other, so the
            # order alternates.
            if index % 2 == 0:
                tracer.enabled = False
                plain_wall += plain.run([item]).wall_time
                tracer.enabled = True
            tracer.phase = "measure"
            report = engine.run([item])
            tracer.phase = "check"
            if index % 2 == 1:
                tracer.enabled = False
                plain_wall += plain.run([item]).wall_time
                tracer.enabled = True
            wall += report.wall_time
            records += report.records
            outcomes += report.outcomes
        gc.unfreeze()
        walls, latencies, every = [wall], [[record.elapsed for record in records]], records
        digests = [_digest([_record_row(record) for record in records])]
    failures = _replay_failures(outcomes, inputs.problem) + _pass_failures(digests)
    statuses = [record.status for record in every]
    measurement = Measurement(
        setup_s=setup_s,
        walls=walls,
        latencies=latencies,
        statuses=statuses,
        rel_sizes=[r.relative_size for r in every if r.status == "repaired"],
        operations=len(statuses),
        errors=sum(status in ERROR_STATUSES for status in statuses),
        peak_rss_mb=_rss_mb(resource.RUSAGE_SELF),
        digest=digests[0],
        speed=samples.speed() if samples is not None else None,
        failures=failures,
    )
    if tracer is not None:
        caches = engine.clara.caches
        layers = span_layers(tracer.spans)
        layers.update(_cache_fracs(caches.stats))
        layers.update(_parallel_layers([range(len(items))], records, wall))
        solve = caches.solve.counters()
        layers["ilp.cache_hit_frac"] = _frac(solve["hits"], solve["hits"] + solve["misses"])
        layers["clusterstore.segments_loaded"] = engine.clara.store_paging()["segments_loaded"]
        layers["retrieval.matches_skipped"] = caches.retrieval.as_dict()["matches_skipped"]
        layers["engine.batch.unattributed_s"] = unattributed(
            tracer.spans, sum(record.elapsed for record in records)
        )
        layers["trace.overhead_frac"] = wall / plain_wall - 1.0
        measurement.layers = layers
        measurement.failures += _coverage_failures(tracer.spans, profiler, caches.ted.counters())
    return measurement


def _in_process_pass(engine, items, samples: speed.Samples):
    """One cold pass, attempt by attempt, a speed probe after each.

    Returns the records, the outcomes, the wall time and the latencies,
    both in reference seconds.
    """
    _cold_start()
    records, outcomes, walls, spans = [], [], [], []
    for item in items:
        started = time.monotonic()
        report = engine.run([item])
        spans.append((started, time.monotonic()))
        samples.probe()
        walls.append(report.wall_time)
        records += report.records
        outcomes += report.outcomes
    gc.unfreeze()
    factors = [samples.factor(start, end) for start, end in spans]
    wall = sum(w * f for w, f in zip(walls, factors))
    return records, outcomes, wall, [r.elapsed * f for r, f in zip(records, factors)]


# -- sharded-batch ---------------------------------------------------------------------

#: Worker processes of ``sharded-batch``.
PROCESSES = 2


def _profile_layers(profile: dict) -> dict[str, float]:
    """Worker-side layer numbers from the merged ``BatchReport.profile``."""
    timings = profile["phases"]["timings"]
    counters = profile["phases"]["counters"]
    return {
        "ilp.solve_s": timings.get("ilp", 0.0),
        "ilp.solves": counters.get("ilp_solves", 0),
        "ilp.nodes": counters.get("ilp_nodes", 0),
        "interpreter.exec_s": timings.get("exec", 0.0),
        "interpreter.exec_calls": counters.get("exec", 0),
        "interpreter.exec_steps": counters.get("exec_steps", 0),
        "frontend.parse_s": timings.get("parse", 0.0),
        "frontend.parse_calls": counters.get("parse", 0),
        "core.matching.match_s": timings.get("match", 0.0),
        "core.matching.match_calls": counters.get("match", 0),
        "core.localrepair.candidate_gen_s": timings.get("candidate_gen", 0.0),
        "core.localrepair.candidates": counters.get("candidates_generated", 0),
        "ted.distance_s": timings.get("ted", 0.0),
        "ted.dp_runs": profile["ted"].get("dp_runs", 0),
        "clusterstore.segments_loaded": (profile["store_paging"] or {}).get("segments_loaded", 0),
        "retrieval.matches_skipped": profile["retrieval"].get("matches_skipped", 0),
    }


#: Profiler phases that do not nest (``ted`` runs inside ``candidate_gen``).
_DISJOINT_PHASES = ("parse", "exec", "match", "candidate_gen", "ilp")


def run_sharded(
    inputs: workloads.Batch,
    workdir: Path,
    reps: int,
    tracer=None,
    check: bool = True,
    passes: int = 1,
) -> Measurement:
    """Repair through ``ProcessBatchEngine``; check against an in-process engine.

    Traced (one pass), an untraced run goes first for the overhead; its
    records must equal the traced run's, which is checked against the
    reference.  The workers' speed is not observable attempt by attempt, so
    a pass's wall time and latencies share the pass's speed factor.
    """
    baseline = None
    if tracer is not None:
        tracer.enabled = False
        baseline = run_sharded(inputs, workdir / "untraced", 1, check=False)
        tracer.enabled = True
    profiler = PhaseProfiler() if tracer is not None else None
    stores = []

    def make(directory: Path, last: bool):
        store = build_store(directory, inputs.problem, inputs.correct)
        stores.append(store)
        clara = _clara(inputs.problem, profiler if last else None)
        return BatchRepairEngine.from_store(store, clara, processes=PROCESSES)

    items = [BatchAttempt(f"attempt-{i}", source) for i, source in enumerate(inputs.attempts)]
    probes = speed.Samples()
    sampler = speed.Sampler()
    runs = []
    try:
        setups, engines = _timed_setups(reps, workdir, make, after=probes.probe, keep=passes)
        for engine in engines:
            if tracer is not None:
                tracer.phase = "measure"
            _cold_start()
            started = time.monotonic()
            report = engine.run(items)
            runs.append((report, started, time.monotonic()))
            gc.unfreeze()
    finally:
        samples = sampler.stop()
    peak = _rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.phase = "check"
    report = runs[0][0]
    failures = []
    if check:
        engine = BatchRepairEngine.from_store(stores[-1], _clara(inputs.problem), workers=1)
        failures = [
            f"{got.attempt_id}: sharded ({got.status}, {got.cost}) != "
            f"in-process ({want.status}, {want.cost})"
            for got, want in zip(report.records, engine.run(items).records)
            if (got.status, got.cost) != (want.status, want.cost)
        ]
    if len(report.records) != len(items):
        failures.append(f"{len(report.records)} records for {len(items)} attempts")
    digests = [_digest([_record_row(record) for record in run.records]) for run, _, _ in runs]
    failures += _pass_failures(digests)
    factors = [samples.factor(start, end) for _, start, end in runs]
    every = [record for run, _, _ in runs for record in run.records]
    statuses = [record.status for record in every]
    measurement = Measurement(
        setup_s=_seconds(setups, probes),
        walls=[run.wall_time * factor for (run, _, _), factor in zip(runs, factors)],
        latencies=[
            [record.elapsed * factor for record in run.records]
            for (run, _, _), factor in zip(runs, factors)
        ],
        statuses=statuses,
        rel_sizes=[r.relative_size for r in every if r.status == "repaired"],
        operations=len(statuses),
        errors=sum(status in ERROR_STATUSES for status in statuses),
        peak_rss_mb=peak,
        digest=digests[0],
        speed=samples.speed(),
        failures=failures,
    )
    if tracer is not None:
        layers = span_layers(tracer.spans)
        profile = report.profile
        for name, value in _profile_layers(profile).items():
            layers[name] = layers.get(name, 0) + value
        solve = profile["solve"]
        layers["ilp.cache_hit_frac"] = _frac(solve["hits"], solve["hits"] + solve["misses"])
        layers["ilp.us_per_node"] = _frac(layers["ilp.solve_s"] * 1e6, layers["ilp.nodes"])
        layers.update(_cache_fracs(report.cache_stats))
        layers.update(_parallel_layers(tracer.shard_plans[-1], report.records, report.wall_time))
        timings = profile["phases"]["timings"]
        layers["engine.batch.unattributed_s"] = sum(r.elapsed for r in report.records) - sum(
            timings.get(phase, 0.0) for phase in _DISJOINT_PHASES
        )
        _add_overhead(measurement, layers, baseline)
    return measurement


def _add_overhead(measurement: Measurement, layers: dict, baseline: Measurement) -> None:
    """Attach the layers and the traced-over-untraced wall-time overhead."""
    layers["trace.overhead_frac"] = measurement.walls[0] / baseline.walls[0] - 1.0
    measurement.layers = layers
    if baseline.digest != measurement.digest:
        measurement.failures.append("traced and untraced runs repaired differently")


# -- resubmit-stream ---------------------------------------------------------------------

#: Client connections (and server repair threads) of ``resubmit-stream``.
CONNECTIONS = 2


class _Server:
    """One ``serve`` process; always stopped and reaped by :meth:`stop`."""

    def __init__(self, stores: list[Path], directory: Path, spans_path: Path | None) -> None:
        ready = directory / "ready"
        command = [sys.executable]
        if spans_path is None:
            command += ["-m", "repro.cli"]
        else:
            command += [str(HERE / "serve_boot.py"), "--spans", str(spans_path)]
        command += ["serve", "--port", "0", "--ready-file", str(ready)]
        command += ["--workers", str(CONNECTIONS)]
        for store in stores:
            command += ["--clusters", str(store)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(directory / "serve.log", "wb")
        self.proc = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        deadline = time.monotonic() + 60
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                self._log.close()
                raise RuntimeError(f"serve did not become ready; see {directory / 'serve.log'}")
            time.sleep(0.002)
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with ServiceClient(self.host, self.port, timeout=30) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _snapshot(store: Path, destination: Path) -> Path:
    """Copy a store (header plus segment directory) to ``destination``."""
    destination.mkdir(parents=True)
    shutil.copy2(store, destination / store.name)
    segments = store.with_name(store.name + ".segments")
    shutil.copytree(segments, destination / segments.name)
    return destination / store.name


def run_stream(
    inputs: workloads.Stream,
    workdir: Path,
    reps: int,
    tracer=None,
    check: bool = True,
    passes: int = 1,
) -> Measurement:
    """Closed loop of :data:`CONNECTIONS` clients against one ``serve``.

    Each pass drives its own server on its own stores.  Traced (one pass),
    an untraced run (plain ``serve``) goes first for the overhead, then a
    run whose server starts through ``serve_boot.py``.  As for
    ``sharded-batch``, a pass's wall time and latencies share the pass's
    speed factor.
    """
    baseline = None
    if tracer is not None:
        tracer.enabled = False
        baseline = run_stream(inputs, workdir / "untraced", 1, check=False)
        tracer.enabled = True
    spans_path = workdir / "spans.json" if tracer is not None else None
    servers: list[_Server] = []

    def make(directory: Path, last: bool):
        stores = {p: build_store(directory, p, pool) for p, pool in inputs.correct.items()}
        servers.append(_Server(list(stores.values()), directory, spans_path if last else None))
        return stores, servers[-1]

    probes = speed.Samples()
    sampler = speed.Sampler()
    runs = []
    try:
        setups, kept = _timed_setups(
            reps, workdir, make, lambda handle: handle[1].stop(), after=probes.probe, keep=passes
        )
        for index, (stores, server) in enumerate(kept):
            snapshots = workdir / "snapshots" / str(index)
            runs.append(_stream_pass(inputs, stores, server, snapshots, tracer))
    finally:
        for server in servers:
            server.stop()
        samples = sampler.stop()
    peak = _rss_mb(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.phase = "check"

    requests = inputs.requests
    first = runs[0]
    failures = _stream_reference_failures(requests, first.responses, first.snapshots) if check else []
    digests = [_digest(_stream_rows(requests, run.responses)) for run in runs]
    failures += _pass_failures(digests)
    responses = [resp for run in runs for resp in run.responses]
    statuses = [resp.get("status", "error") if resp.get("ok") else "error" for resp in responses]
    errors = sum(
        (not resp.get("ok")) or resp.get("status") in ERROR_STATUSES for resp in responses
    )
    factors = [samples.factor(run.started, run.finished) for run in runs]
    measurement = Measurement(
        setup_s=_seconds(setups, probes),
        walls=[(run.finished - run.started) * f for run, f in zip(runs, factors)],
        latencies=[[latency * f for latency in run.latencies] for run, f in zip(runs, factors)],
        statuses=statuses,
        rel_sizes=[
            resp["relative_size"] for resp in responses if resp.get("status") == "repaired"
        ],
        operations=len(responses) + sum(len(run.reload_times) for run in runs),
        errors=errors + sum(run.reload_errors for run in runs),
        peak_rss_mb=peak,
        digest=digests[0],
        speed=samples.speed(),
        failures=failures,
    )
    if tracer is not None:
        served = tracing.load_spans(spans_path)
        layers = _stream_layers(
            tracer.spans, served, first.stats, first.responses, first.latencies, first.reload_times
        )
        measurement.failures += _ted_coverage(
            served, [p["ted"] for p in first.stats["problems"].values()], concurrent=True
        )
        _add_overhead(measurement, layers, baseline)
    return measurement


@dataclass
class _StreamPass:
    """What one pass of ``resubmit-stream`` saw (times on ``time.monotonic()``)."""

    responses: list[dict]
    latencies: list[float]
    reload_times: list[float]
    reload_errors: int
    #: ``(problem, revision)`` -> a copy of that store generation.
    snapshots: dict[tuple[str, int], Path]
    started: float
    finished: float
    stats: dict | None


def _stream_pass(inputs: workloads.Stream, stores, server: _Server, snapshot_dir: Path, tracer):
    """Send the request stream, with its store updates, to ``server``; stop it."""
    snapshots = {
        (problem, 0): _snapshot(store, snapshot_dir / problem / "0")
        for problem, store in stores.items()
    }
    requests = inputs.requests
    responses: list[dict | None] = [None] * len(requests)
    latencies: list[float] = [0.0] * len(requests)
    reload_times: list[float] = []
    reload_errors = 0
    clients = [ServiceClient(server.host, server.port, timeout=120) for _ in range(CONNECTIONS)]
    bounds = sorted(set(inputs.updates) | {0, len(requests)})
    if tracer is not None:
        tracer.phase = "measure"
    started = time.monotonic()
    for start, end in zip(bounds, bounds[1:]):
        if start in inputs.updates:
            problem, source = inputs.updates[start]
            handle = ClusterStore.open_indexed(stores[problem], get_problem(problem).cases)
            handle.add_correct_source(source)
            handle.save()
            sent = time.perf_counter()
            answer = clients[0].reload(problem)
            reload_times.append(time.perf_counter() - sent)
            if not answer.get("ok"):
                reload_errors += 1
            else:
                key = (problem, answer["revision"])
                snapshots[key] = _snapshot(
                    stores[problem], snapshot_dir / problem / str(answer["revision"])
                )
        _drive(clients, requests, start, end, responses, latencies)
    finished = time.monotonic()
    stats = clients[0].stats() if tracer is not None else None
    for client in clients:
        client.close()
    server.stop()
    return _StreamPass(
        responses, latencies, reload_times, reload_errors, snapshots, started, finished, stats
    )


def _stream_rows(requests, responses) -> list:
    """The digest rows of one pass: each response without its timing."""
    return [
        [index, problem]
        + [resp.get(key) for key in ("revision", "status", "cost", "relative_size", "num_modified", "feedback")]
        for index, ((problem, _), resp) in enumerate(zip(requests, responses))
    ]


def _drive(clients, requests, start, end, responses, latencies) -> None:
    """Send requests ``start..end-1`` over all connections, closed loop."""
    lock = threading.Lock()
    cursor = [start]

    def loop(client: ServiceClient) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= end:
                    return
                cursor[0] += 1
            problem, source = requests[index]
            sent = time.perf_counter()
            try:
                responses[index] = client.repair(source, problem=problem, request_id=index)
            except (OSError, ValueError) as exc:
                responses[index] = {"ok": False, "error": {"code": "lost-connection", "message": str(exc)}}
            latencies[index] = time.perf_counter() - sent

    threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _stream_reference_failures(requests, responses, snapshots) -> list[str]:
    """Each response's (status, cost) against an in-process engine on the
    store generation (revision) that answered it."""
    groups: dict[tuple[str, int], set[str]] = defaultdict(set)
    for (problem, source), resp in zip(requests, responses):
        if resp.get("ok"):
            groups[(problem, resp["revision"])].add(source)
    expected = {}
    for (problem, revision), sources in sorted(groups.items()):
        ordered = sorted(sources)
        engine = BatchRepairEngine.from_store(snapshots[(problem, revision)], _clara(problem), workers=1)
        for source, record in zip(ordered, engine.run(ordered).records):
            expected[(problem, revision, source)] = (record.status, record.cost)
    failures = []
    for index, ((problem, source), resp) in enumerate(zip(requests, responses)):
        if not resp.get("ok"):
            failures.append(f"request {index}: {resp.get('error')}")
            continue
        want = expected[(problem, resp["revision"], source)]
        if (resp["status"], resp["cost"]) != want:
            failures.append(f"request {index}: served ({resp['status']}, {resp['cost']}) != in-process {want}")
    return failures


#: Added to server span ids so they cannot collide with the client's.
_SERVER_IDS = 1 << 40


def _stream_layers(client_spans, spans, stats, responses, latencies, reload_times) -> dict[str, float]:
    """Server-side spans, the client's set-up and store updates, and the
    client's view of the round trips."""
    shifted = [
        span._replace(
            sid=span.sid + _SERVER_IDS,
            parent=None if span.parent is None else span.parent + _SERVER_IDS,
        )
        for span in spans
    ]
    layers = span_layers(list(client_spans) + shifted)
    handles = [span for span in spans if span.layer == "service.handle"]
    first = min(span.t0 for span in handles)
    handled = sum(span.t1 - span.t0 for span in handles if span.tag in ("repair", "reload"))
    pooled = sum(
        span.t1 - span.t0
        for span in spans
        if span.parent is None and span.layer != "service.handle" and span.t0 >= first
    )
    layers["service.handle_s"] = sum(span.t1 - span.t0 for span in handles) - pooled
    layers["service.transport_s"] = sum(latencies) + sum(reload_times) - handled
    layers["service.reload_s"] = sum(span.t1 - span.t0 for span in handles if span.tag == "reload")
    problems = list(stats["problems"].values())
    hits = {key: sum(p["cache"][key] for p in problems) for key in problems[0]["cache"]}
    layers["engine.cache.repair_hit_frac"] = _frac(
        hits["repair_hits"], hits["repair_hits"] + hits["repair_misses"]
    )
    layers["engine.cache.trace_hit_frac"] = _frac(
        hits["trace_hits"], hits["trace_hits"] + hits["trace_misses"]
    )
    solve_hits = sum(p["solve"]["hits"] for p in problems)
    solve_misses = sum(p["solve"]["misses"] for p in problems)
    layers["ilp.cache_hit_frac"] = _frac(solve_hits, solve_hits + solve_misses)
    layers["clusterstore.segments_loaded"] = sum(
        (p["store_paging"] or {}).get("segments_loaded", 0) for p in problems
    )
    layers["retrieval.matches_skipped"] = sum(p["retrieval"]["matches_skipped"] for p in problems)
    # Per-call DP deltas overlap across the two repair threads; the caches'
    # own counter is exact.
    layers["ted.dp_runs"] = sum(p["ted"]["dp_runs"] for p in problems)
    served = sum(resp.get("elapsed", 0.0) for resp in responses if resp.get("ok"))
    layers["engine.batch.unattributed_s"] = unattributed(
        [span._replace(phase="measure") for span in spans], served
    )
    return layers
