"""The reference the process-parallel batch engine's counters must equal.

:class:`repro.engine.ProcessBatchEngine` repairs each shard in a fresh
worker process, one request at a time, in shard order.  Its merged
``--profile`` counter sections must therefore equal the key-wise sum of
in-process runs, one per shard, each over that shard's attempts in shard
order with fresh caches and one thread.  At one process that sum is the
single-process run itself.

The sums here are written out, not taken from the engine's merge
functions, so the reference does not share code with what it checks.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.pipeline import Clara
from repro.core.profile import PhaseProfiler
from repro.engine import BatchRepairEngine
from repro.engine.cache import CacheStats, RepairCaches
from repro.engine.parallel import shard_plan

#: Flat counter sections of ``Clara.counters_payload`` summed key by key.
SUMMED_SECTIONS = ("retrieval", "ted", "compile", "solve", "cache_entries")


def counter_sections(cache_stats, payload):
    """Every deterministic counter section of one run, by name.

    ``payload`` is a ``Clara.counters_payload()`` dict (or a process
    report's ``profile``); only the phase timings are left out.
    """
    return {
        "phases": payload["phases"]["counters"],
        "cache": cache_stats.as_dict(),
        "store_paging": payload["store_paging"],
        **{name: payload[name] for name in SUMMED_SECTIONS},
    }


def in_process_run(problem, path, attempts):
    """One in-process engine over ``attempts``: one thread, fresh caches."""
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        caches=RepairCaches(profiler=PhaseProfiler()),
    )
    report = BatchRepairEngine.from_store(path, clara, workers=1).run(attempts)
    return report, counter_sections(report.cache_stats, clara.counters_payload())


def per_shard_sums(problem, path, attempts, processes):
    """The counter sections ``processes`` worker processes must report."""
    runs = [
        in_process_run(problem, path, [attempts[index] for index in members])[1]
        for members in shard_plan(attempts, processes)
        if members
    ]
    cache = CacheStats(
        **{
            field.name: sum(run["cache"][field.name] for run in runs)
            for field in fields(CacheStats)
        }
    )
    first = runs[0]["store_paging"]
    return {
        "phases": _key_sum(run["phases"] for run in runs),
        "cache": cache.as_dict(),
        "store_paging": {
            **_key_sum(run["store_paging"] for run in runs),
            "segments_total": first["segments_total"],
            "clusters_total": first["clusters_total"],
        },
        **{name: _key_sum(run[name] for run in runs) for name in SUMMED_SECTIONS},
    }


def _key_sum(sections):
    total: dict = {}
    for section in sections:
        for name, value in section.items():
            total[name] = total.get(name, 0) + value
    return total
