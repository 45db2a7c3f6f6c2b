"""Batch repair engine: resource-aware corpus processing on top of the core.

The core (:mod:`repro.core`) reproduces the paper's per-attempt pipeline;
this package scales it to corpora.  It contributes three pieces:

* :mod:`repro.engine.cache` — :class:`RepairCaches`, the shared memoization
  of traces, correctness checks, structural matches and whole repairs;
* :mod:`repro.engine.batch` — :class:`BatchRepairEngine` and
  :class:`BatchReport`, repair of many attempts on the calling thread with
  per-attempt budgets and aggregate statistics;
* :mod:`repro.engine.parallel` — :class:`ProcessBatchEngine`, the
  multi-core path: distinct sources dealt round-robin across fleet worker
  subprocesses (:class:`repro.fleet.WorkerSupervisor`), with the workers'
  counters merged by deterministic sums.

The dependency direction is ``engine → core``; the one place the core calls
back (``Clara.repair_source`` delegating to a batch of size 1) imports this
package lazily to keep the layering acyclic.  The engine's one call upward,
:mod:`repro.engine.parallel` driving the fleet supervisor, is lazy too.
"""

from .batch import BatchAttempt, BatchRecord, BatchRepairEngine, BatchReport
from .cache import CacheStats, RepairCaches, case_set_key, freeze_key
from .parallel import ProcessBatchEngine

__all__ = [
    "BatchAttempt",
    "BatchRecord",
    "BatchRepairEngine",
    "BatchReport",
    "CacheStats",
    "ProcessBatchEngine",
    "RepairCaches",
    "case_set_key",
    "freeze_key",
]
