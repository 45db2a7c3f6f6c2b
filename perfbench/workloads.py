"""Seeded inputs for the three workloads.

Every generator is a pure function of its arguments: randomness comes from
:func:`rng_for`, which mixes the stream name in with CRC-32 rather than the
salted ``hash()``, so the same seed gives byte-identical sources under any
``PYTHONHASHSEED``.  The program under test only ever receives the source
strings built here.

Which mistakes the students make is a fixed plan per workload (drawn with
:data:`PLAN_SEED`); the workload seed renames every attempt's identifiers
and sets the order of submission (for ``resubmit-stream``, of the
resubmissions).  Renaming keeps the mistakes, so every seed does nearly
the same repair work and the spread between seeds is mostly the
machine's, not the inputs'.

Incorrect attempts are the dataset's own (``generate_corpus``: fault-injected
variants of the correct pool), kept only if they are distinct and the spec
interpreter (``execute_interpreted``, bounded at :data:`PROBE_STEPS` steps)
shows they terminate on every case.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass

from repro.core.inputs import trace_passes_case
from repro.datasets import generate_corpus, get_problem
from repro.datasets.variants import rename_c_variables, rename_python_variables
from repro.frontend import FrontendError, parse_source
from repro.interpreter.executor import ExecutionLimits, execute_interpreted

__all__ = [
    "Batch",
    "Stream",
    "rng_for",
    "batch_inputs",
    "stream_inputs",
    "extra_correct",
]

#: Step bound of the generator's termination probe; the test inputs need a
#: few dozen steps, so anything reaching it loops.
PROBE_STEPS = 500

#: Attempts of ``fresh-ilp`` and ``sharded-batch``: 100, so that p90 has
#: ten samples beyond it.
ATTEMPTS = 100

#: Correct-pool size of ``fresh-ilp`` and ``sharded-batch``: small enough
#: that a run fits its budget (``sharded-batch`` repairs its attempts once
#: more, in process, as its check), large enough that the ILP dominates.
DERIVATIVES_POOL = 10

#: Problems of ``resubmit-stream``, with their correct-pool size and their
#: unique attempts.
STREAM_PROBLEMS = (
    ("derivatives", DERIVATIVES_POOL, 24),
    ("special_number", 8, 20),
    ("reverse_difference", 8, 20),
)

#: Times (rounds) each unique ``resubmit-stream`` attempt is sent.  With
#: the re-computations the two store updates force, 108 of 512 requests miss
#: the repair memo, so p90 falls among the misses.  A hit running next to a
#: miss on the other connection waits for the GIL; with misses this rare,
#: most hits run alone and set p50.
RESUBMITS = 8


def rng_for(seed: int, stream: str) -> random.Random:
    """A generator seeded by ``seed`` and a stream name, hash-salt free."""
    return random.Random(seed * 1_000_003 + zlib.crc32(stream.encode("utf-8")))


#: Seed of the correct pools and of the mistake plans.  The pools are the
#: course's fixed set of correct solutions.
POOL_SEED = 0
PLAN_SEED = 0


def correct_pool(problem: str, count: int, seed: int = POOL_SEED) -> list[str]:
    """``count`` verified-correct solutions (the references come first)."""
    return generate_corpus(get_problem(problem), count, 0, seed=seed).correct_sources


def extra_correct(problem: str, pool: list[str]) -> str:
    """A correct solution that is not in ``pool``, for a store update.

    It is the same for every seed: which solution a store gains decides
    the cost of the repairs after it.
    """
    known = set(pool)
    for source in correct_pool(problem, len(pool) + 20, POOL_SEED + 1):
        if source not in known:
            return source
    raise RuntimeError(f"no fresh correct solution for {problem}")


def _verdict(problem, source: str) -> str:
    """``unparsable``, ``correct``, ``incorrect`` or ``runaway``."""
    try:
        program = parse_source(source, language=problem.language, entry=problem.entry)
    except FrontendError:
        return "unparsable"
    passed = True
    limits = ExecutionLimits(max_steps=PROBE_STEPS)
    for case in problem.cases:
        try:
            trace = execute_interpreted(program, case.memory_for(program), limits)
        except Exception:  # noqa: BLE001 - a crashing attempt is just incorrect
            return "incorrect"
        if trace.aborted:
            return "runaway"
        passed = passed and trace_passes_case(trace, case)
    return "correct" if passed else "incorrect"


def incorrect_attempts(problem_name: str, pool: int, count: int) -> list[str]:
    """The first ``count`` distinct, terminating attempts of the dataset's
    incorrect pool (``generate_corpus`` with :data:`PLAN_SEED`).

    The pool includes the empty and the unsupported-feature attempt
    (legitimate ``no-structural-match`` / ``unsupported`` outcomes).  It
    repeats itself on a small correct pool, so more is drawn than needed;
    a larger draw extends a smaller one, so the attempts kept do not depend
    on how much was drawn.
    """
    problem = get_problem(problem_name)
    drawn = 2 * count
    while True:
        corpus = generate_corpus(problem, pool, drawn, seed=PLAN_SEED)
        chosen = list(dict.fromkeys(corpus.incorrect_sources))
        chosen = [source for source in chosen if _verdict(problem, source) != "runaway"]
        if len(chosen) >= count:
            return chosen[:count]
        if drawn >= 32 * count:
            raise RuntimeError(f"{problem_name}: {len(chosen)} distinct attempts, {count} needed")
        drawn *= 2


def renamed(problem_name: str, sources: list[str], rng: random.Random) -> list[str]:
    """Rename each source's identifiers; behaviour and order are unchanged.

    A renaming that would change an attempt's verdict (a fresh name that
    shadows a parameter) or duplicate another attempt is retried, and after
    five tries the attempt keeps its names.
    """
    problem = get_problem(problem_name)
    rename = rename_python_variables if problem.language == "python" else rename_c_variables
    chosen: list[str] = []
    taken: set[str] = set()
    for source in sources:
        verdict = _verdict(problem, source)
        pick = source
        for _ in range(5):
            candidate = rename(source, rng)
            if candidate not in taken and _verdict(problem, candidate) == verdict:
                pick = candidate
                break
        if pick in taken:
            raise RuntimeError(f"cannot keep the {problem_name} attempts distinct")
        taken.add(pick)
        chosen.append(pick)
    return chosen


@dataclass(frozen=True)
class Batch:
    """Inputs of a batch workload: one problem, a correct pool, attempts."""

    problem: str
    correct: list[str]
    attempts: list[str]


@dataclass(frozen=True)
class Stream:
    """Inputs of ``resubmit-stream``.

    ``correct`` maps each problem to its pool; ``requests`` is the seeded
    interleave of ``(problem, source)``; before request ordinal ``k`` in
    ``updates`` every connection is idle and the client adds
    ``updates[k] = (problem, source)`` to that problem's store and reloads
    it.
    """

    correct: dict[str, list[str]]
    requests: list[tuple[str, str]]
    updates: dict[int, tuple[str, str]]


def batch_inputs(workload: str, seed: int) -> Batch:
    """Inputs of ``fresh-ilp`` or ``sharded-batch``.

    Both get the same attempts for the same seed, so their
    ``attempts_per_s`` ratio is the process engine's speed-up over one
    in-process thread.
    """
    if workload in ("fresh-ilp", "sharded-batch"):
        correct = correct_pool("derivatives", DERIVATIVES_POOL)
        rng = rng_for(seed, "derivatives")
        attempts = renamed("derivatives", incorrect_attempts("derivatives", DERIVATIVES_POOL, ATTEMPTS), rng)
        rng.shuffle(attempts)
        return Batch("derivatives", correct, attempts)
    raise ValueError(f"not a batch workload: {workload}")


def stream_inputs(seed: int) -> Stream:
    """Inputs of ``resubmit-stream``: unique attempts, each sent repeatedly.

    The stream is :data:`RESUBMITS` rounds; each round sends every unique
    attempt once.  Before rounds 2 and 3 the first two problems each get a
    store update, which invalidates their repair memos.  So round 1 and the
    updated problem's share of rounds 2 and 3 miss the memo, and every
    other request hits it — the same split for every seed.

    Rounds 1-3, which hold the misses, go in one fixed order that takes the
    problems in turn, so which misses overlap on the two connections (and
    with it p90) is the same for every seed; each later round goes in its
    own seeded order.
    """
    rng = rng_for(seed, "resubmit-stream")
    correct = {}
    by_problem = []
    for problem, pool_size, unique in STREAM_PROBLEMS:
        correct[problem] = correct_pool(problem, pool_size)
        attempts = incorrect_attempts(problem, pool_size, unique)
        by_problem.append([(problem, source) for source in renamed(problem, attempts, rng)])
    uniques = [item for row in itertools.zip_longest(*by_problem) for item in row if item]
    updated = STREAM_PROBLEMS[:2]
    requests = []
    for index in range(RESUBMITS):
        requests += uniques if index <= len(updated) else rng.sample(uniques, len(uniques))
    updates = {}
    for index, (problem, _, _) in enumerate(updated):
        ordinal = (index + 1) * len(uniques)
        updates[ordinal] = (problem, extra_correct(problem, correct[problem]))
    return Stream(correct, requests, updates)
