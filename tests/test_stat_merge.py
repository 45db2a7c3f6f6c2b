"""Unit tests for the one counter merge (``sum_counters`` / ``merge_phases``).

The process-parallel batch engine and the fleet router fold per-worker
counter payloads into one report by plain key-wise sums; these tests pin
the laws that merge correctness rests on — commutativity, ``{}`` as the
identity, canonical phase order whatever order shards report in — and the
:class:`CacheStats` payload round trip that recomputes derived hit rates.
"""

from __future__ import annotations

import json

from repro.core.profile import PhaseProfiler, merge_phases, sum_counters
from repro.engine.cache import CacheStats
from repro.retrieval.index import RetrievalStats


# -- sum_counters --------------------------------------------------------------------


def test_sum_counters_is_commutative_with_empty_identity():
    a = {"hits": 3, "misses": 1}
    b = {"misses": 4, "entries": 2}
    assert sum_counters([a, b]) == sum_counters([b, a]) == {
        "hits": 3,
        "misses": 5,
        "entries": 2,
    }
    assert sum_counters([a, {}]) == sum_counters([{}, a]) == a
    assert sum_counters([]) == {}
    # Keys keep their first-seen order; neither operand is mutated.
    assert list(sum_counters([a, b])) == ["hits", "misses", "entries"]
    assert a == {"hits": 3, "misses": 1}


def test_retrieval_counters_sum_fieldwise_in_payload_order():
    a = RetrievalStats(candidates_ranked=10, matches_attempted=4, fallbacks=1)
    b = RetrievalStats(candidates_ranked=5, matches_skipped=6)
    merged = sum_counters([a.as_dict(), b.as_dict()])
    assert json.dumps(merged) == json.dumps(
        {
            "candidates_ranked": 15,
            "matches_attempted": 4,
            "matches_skipped": 6,
            "fallbacks": 1,
        }
    )


# -- merge_phases --------------------------------------------------------------------


def _profiler(**phases: int) -> PhaseProfiler:
    profiler = PhaseProfiler()
    for phase, calls in phases.items():
        profiler.add(phase, seconds=0.25 * calls, calls=calls)
    return profiler


def test_profiler_merge_sums_counters_and_timings():
    a = _profiler(parse=2, exec=5)
    b = _profiler(exec=3, ilp=1)
    merged = merge_phases([a.as_dict(), b.as_dict()])
    assert merged == {
        "counters": {"parse": 2, "exec": 8, "ilp": 1},
        "timings": {"parse": 0.5, "exec": 2.0, "ilp": 0.25},
    }
    # Neither operand is mutated.
    assert a.counters() == {"parse": 2, "exec": 5}
    assert b.counters() == {"exec": 3, "ilp": 1}


def test_profiler_merge_is_commutative_with_empty_identity():
    a = _profiler(parse=2, ted=7).as_dict()
    b = _profiler(ted=1, match=4).as_dict()
    empty = PhaseProfiler().as_dict()
    assert json.dumps(merge_phases([a, b])) == json.dumps(merge_phases([b, a]))
    assert merge_phases([a, empty]) == merge_phases([empty, a]) == a
    assert merge_phases([]) == empty


def test_merge_phases_orders_phases_canonically():
    ilp_shard = _profiler(ilp=1)
    ilp_shard.count("zeta_counter", 2)
    parse_shard = PhaseProfiler()
    parse_shard.count("exec_steps", 40)
    parse_shard.add("parse", seconds=0.5)
    parse_shard.count("alpha_counter", 1)
    for shards in ([ilp_shard, parse_shard], [parse_shard, ilp_shard]):
        merged = merge_phases(shard.as_dict() for shard in shards)
        # PHASES order first, then any other counter sorted by name.
        assert list(merged["counters"]) == [
            "parse",
            "ilp",
            "alpha_counter",
            "exec_steps",
            "zeta_counter",
        ]
        assert list(merged["timings"]) == ["parse", "ilp"]


def test_profiler_counter_only_phases_survive_the_round_trip():
    profiler = PhaseProfiler()
    profiler.add("exec", seconds=0.5, calls=2)
    profiler.count("exec_steps", 40)  # counted, never timed
    other = PhaseProfiler()
    other.count("exec_steps", 2)
    other.count("ilp_nodes", 7)
    assert merge_phases([profiler.as_dict()]) == profiler.as_dict()
    merged = merge_phases([profiler.as_dict(), other.as_dict()])
    assert merged["counters"] == {"exec": 2, "exec_steps": 42, "ilp_nodes": 7}
    assert merged["timings"] == {"exec": 0.5}


def test_merge_phases_rounds_summed_timings():
    a = PhaseProfiler()
    a.add("ted", seconds=0.1)
    b = PhaseProfiler()
    b.add("ted", seconds=0.2)
    # 0.1 + 0.2 is 0.30000000000000004 in binary floating point.
    assert merge_phases([a.as_dict(), b.as_dict()])["timings"] == {"ted": 0.3}


# -- CacheStats ----------------------------------------------------------------------


def test_cache_stats_merge_and_diff_are_fieldwise():
    a = CacheStats(
        trace_hits=3, trace_misses=1, match_hits=5, repair_misses=2, site_hits=9
    )
    b = CacheStats(
        trace_hits=1, match_misses=4, repair_hits=6, repair_misses=1, site_misses=3
    )
    # The payloads carry derived hit rates, which sum to nonsense; from_dict
    # ignores them and recomputes the rates from the summed counters.
    merged = CacheStats.from_dict(sum_counters([a.as_dict(), b.as_dict()]))
    expected = CacheStats(
        trace_hits=4,
        trace_misses=1,
        match_hits=5,
        match_misses=4,
        repair_hits=6,
        repair_misses=3,
        site_hits=9,
        site_misses=3,
    )
    assert merged.as_dict() == expected.as_dict()
    assert merged.trace_hit_rate == 0.8
    assert merged.repair_hit_rate == 6 / 9
    assert merged.site_hit_rate == 0.75
    assert merged.diff(b).as_dict() == a.as_dict()


def test_cache_stats_from_dict_round_trips():
    stats = CacheStats(trace_hits=7, match_misses=2, repair_hits=1, site_hits=4, site_misses=1)
    assert CacheStats.from_dict(stats.as_dict()).as_dict() == stats.as_dict()
    assert list(stats.as_dict())[-3:] == ["site_hits", "site_misses", "site_hit_rate"]
    assert CacheStats.from_dict({}).as_dict() == CacheStats().as_dict()


def test_snapshots_are_independent_copies():
    stats = CacheStats(trace_hits=1)
    frozen = stats.snapshot()
    stats.trace_hits += 5
    assert frozen.trace_hits == 1
    assert stats.trace_hits == 6
