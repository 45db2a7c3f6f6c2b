"""Benchmark — the execution fast path vs the interpreted reference executor.

Executes every program of a seeded corpus (correct pool + incorrect
attempts) on every test case twice:

* the **baseline**: :func:`repro.interpreter.executor.execute_interpreted`
  — every expression re-walked through the recursive evaluator on every
  visit, the full memory dict copied twice per step (the pre-fast-path
  behaviour, kept as the executable specification of Def. 3.5);
* the **fast path**: :func:`repro.interpreter.executor.execute` — update
  expressions compiled to closures once per program through a shared
  :class:`~repro.interpreter.compile.CompileCache`, copy-on-write trace
  memories recording only the variables each location wrote.

Traces must be field-identical between the two paths (location sequences,
aborted flags, every pre/post memory).  The fast path must write at most half the dict
entries the baseline copies (in practice far fewer: a location writes one
or two of a dozen live variables).  All committed metrics are counters —
deterministic for the seeded corpus, independent of hash seed and machine
— written to ``results/exec_throughput.json``; wall-clock timings go to
the gitignored ``results/local/exec_throughput_timings.json``.
"""

from __future__ import annotations

import json
import time

from repro.datasets import generate_corpus, get_problem
from repro.frontend import parse_python_source
from repro.interpreter.compile import CompileCache
from repro.interpreter.executor import ExecutionPlan, execute, execute_interpreted

#: Reduction gate: the fast path must write at most
#: 1/COPY_REDUCTION_THRESHOLD of the dict entries the baseline copies.
COPY_REDUCTION_THRESHOLD = 2.0


def _assert_traces_identical(fast, reference):
    assert fast.aborted == reference.aborted
    assert fast.location_sequence == reference.location_sequence
    for fast_step, ref_step in zip(fast.steps, reference.steps):
        assert dict(fast_step.pre) == dict(ref_step.pre)
        assert dict(fast_step.post) == dict(ref_step.post)


def test_exec_throughput(benchmark, results_dir, local_results_dir):
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 16, 10, seed=2018)
    sources = corpus.correct_sources + corpus.incorrect_sources
    programs = [parse_python_source(source) for source in sources]
    cases = problem.cases

    # Baseline pass: interpreted evaluation, full dict snapshots.
    interpreted_started = time.perf_counter()
    interpreted_traces = [
        [execute_interpreted(program, case.memory_for(program)) for case in cases]
        for program in programs
    ]
    interpreted_elapsed = time.perf_counter() - interpreted_started

    # Fast-path pass: one shared compile cache, one plan per program.  The
    # cold pass pays one-time compilation; the warm pass (plans prebuilt,
    # cache hot) is the steady state a long-lived engine runs in.
    compile_cache = CompileCache()
    compiled_started = time.perf_counter()
    plans = [
        ExecutionPlan.for_program(program, cache=compile_cache)
        for program in programs
    ]
    compiled_traces = [
        [execute(program, case.memory_for(program), plan=plan) for case in cases]
        for program, plan in zip(programs, plans)
    ]
    compiled_cold_elapsed = time.perf_counter() - compiled_started
    warm_started = time.perf_counter()
    for program, plan in zip(programs, plans):
        for case in cases:
            execute(program, case.memory_for(program), plan=plan)
    compiled_warm_elapsed = time.perf_counter() - warm_started

    # Equivalence: every trace of every program on every case, field for field.
    steps_executed = 0
    entries_copied_baseline = 0
    entries_written_fastpath = 0
    for per_program_fast, per_program_ref in zip(compiled_traces, interpreted_traces):
        for fast, reference in zip(per_program_fast, per_program_ref):
            _assert_traces_identical(fast, reference)
            steps_executed += len(fast)
            universe = len(dict(fast.steps[0].pre)) if fast.steps else 0
            # The baseline snapshots the whole memory twice per step
            # (pre = dict(memory); post = dict(memory)).
            entries_copied_baseline += 2 * universe * len(fast)
            entries_written_fastpath += sum(
                len(step.written_vars) for step in fast.steps
            )

    assert entries_copied_baseline > 0
    copy_reduction = entries_copied_baseline / max(1, entries_written_fastpath)
    assert copy_reduction >= COPY_REDUCTION_THRESHOLD, (
        f"fast path wrote {entries_written_fastpath} entries vs "
        f"{entries_copied_baseline} baseline copies "
        f"({copy_reduction:.2f}x < {COPY_REDUCTION_THRESHOLD}x reduction)"
    )
    # Compile once, execute many: far fewer compilations than evaluations.
    compile_counters = compile_cache.counters()
    assert compile_counters["misses"] > 0
    assert compile_counters["hits"] > compile_counters["misses"]

    # Committed artifact: counters only — deterministic for the seeded corpus
    # and identical on every machine and hash seed.
    payload = {
        "problem": problem.name,
        "programs": len(programs),
        "cases": len(cases),
        "copy_reduction_threshold": COPY_REDUCTION_THRESHOLD,
        "steps_executed": steps_executed,
        "entries_copied_baseline": entries_copied_baseline,
        "entries_written_fastpath": entries_written_fastpath,
        "entries_copy_reduction": round(copy_reduction, 2),
        "compile": compile_counters,
    }
    (results_dir / "exec_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    timings = {
        "interpreted_pass_seconds": round(interpreted_elapsed, 6),
        "compiled_cold_pass_seconds": round(compiled_cold_elapsed, 6),
        "compiled_warm_pass_seconds": round(compiled_warm_elapsed, 6),
        "warm_speedup": round(
            interpreted_elapsed / max(compiled_warm_elapsed, 1e-9), 2
        ),
    }
    (local_results_dir / "exec_throughput_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n"
    )

    # Benchmarked unit: one full corpus-program execution over all cases with
    # a warm compile cache (the steady-state cost a batch run pays per
    # trace-cache miss).
    program, plan = programs[0], plans[0]
    benchmark(
        lambda: [execute(program, case.memory_for(program), plan=plan) for case in cases]
    )
