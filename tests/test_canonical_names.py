"""The repair search works in the attempt's canonical names (``#i`` by
position in ``variables_for_matching``) from candidate generation through
the ILP, and renames back only in the decoder.

Pinned here on the baseline derivatives corpus
(``generate_corpus(derivatives, 30, 20, seed=7)``):

* an attempt and its renamed twin build the same repair ILP, variable for
  variable and row for row, so the solve memo may answer one with the
  other's solution;
* a twin's repair is field-identical with the caches on and off, and no
  canonical name leaks into a repair;
* the records of the corpus hash to :data:`RECORDS_DIGEST`.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from helpers.differential import outcome_fields, repair_fields

from repro.core.clustering import cluster_programs
from repro.core.localrepair import generate_local_repairs
from repro.core.matching import structural_match, variables_for_matching
from repro.core.pipeline import Clara
from repro.core.repair import _build_ilp, find_best_repair
from repro.datasets import generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.frontend import parse_python_source

#: sha256 of the canonical form of every record of the corpus (status,
#: ``Repair.comparable_fields()``, feedback text, detail), computed before
#: the search moved to canonical names; renaming must not change a record.
RECORDS_DIGEST = "c465ee0ba1134e3f62eedbc4d31eff146f1f7beb2125f4ead425b122c22652ac"


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(get_problem("derivatives"), 30, 20, seed=7)


@pytest.fixture(scope="module")
def clusters(corpus):
    correct = [parse_python_source(source) for source in corpus.correct_sources]
    return cluster_programs(correct, corpus.problem.cases).clusters


def _attempts_and_twins(corpus):
    """Each parsable attempt with a seeded random injective renaming of its
    matching variables (fresh names, so nothing collides)."""
    rng = random.Random(7)
    pairs = []
    for source in corpus.incorrect_sources:
        try:
            attempt = parse_python_source(source)
        except Exception:
            continue
        names = [f"v{k}" for k in range(100)]
        rng.shuffle(names)
        mapping = dict(zip(variables_for_matching(attempt), names))
        pairs.append((attempt, attempt.rename_variables(mapping)))
    return pairs


def _problem_rows(problem):
    return (
        problem.minimize,
        problem.variables,
        list(problem.objective.items()),
        problem.constraints,
    )


def test_renamed_twins_build_the_same_ilp_in_order(corpus, clusters):
    pairs = _attempts_and_twins(corpus)
    assert len(pairs) >= 15
    built = 0
    for attempt, twin in pairs:
        for cluster in clusters:
            location_map = structural_match(attempt, cluster.representative)
            if location_map is None:
                continue
            twin_map = structural_match(twin, cluster.representative)
            assert twin_map == location_map
            problems = []
            for program in (attempt, twin):
                candidates = generate_local_repairs(
                    program, cluster, location_map, caches=RepairCaches(enabled=False)
                )
                problems.append(_problem_rows(_build_ilp(program, cluster, candidates)[0]))
            assert problems[0] == problems[1]
            built += 1
    assert built >= 20


def _names_in(repair) -> set[str]:
    names = set(repair.variable_map) | set(repair.variable_map.values())
    names |= set(repair.added_vars) | set(repair.added_vars.values())
    names |= set(repair.deleted_vars)
    for action in repair.actions:
        names.add(action.var)
        for expr in (action.old_expr, action.new_expr):
            if expr is not None:
                names |= expr.variables()
    names |= set(repair.repaired_program.variables)
    return names


def test_twin_repairs_match_uncached_and_leak_no_canonical_name(corpus, clusters):
    cached = RepairCaches()
    repaired = 0
    for attempt, twin in _attempts_and_twins(corpus):
        for program in (attempt, twin):
            repair = find_best_repair(program, clusters, caches=cached)
            uncached = find_best_repair(
                program, clusters, caches=RepairCaches(enabled=False)
            )
            assert repair_fields(repair) == repair_fields(uncached)
            if repair is not None:
                repaired += 1
                assert not any(name.startswith("#") for name in _names_in(repair))
    assert repaired >= 20
    assert cached.solve.hits > 0, "twins must share solve-memo entries"


def _canonical(value):
    """A hash-seed-independent text form: dict items and sets sorted."""
    if isinstance(value, dict):
        items = (f"{_canonical(key)}:{_canonical(item)}" for key, item in value.items())
        return "{" + ",".join(sorted(items)) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return repr(value)


def test_corpus_records_are_pinned(corpus):
    clara = Clara(corpus.problem.cases)
    clara.add_correct_sources(corpus.correct_sources)
    rows = [outcome_fields(clara.repair_source(source)) for source in corpus.incorrect_sources]
    digest = hashlib.sha256(_canonical(rows).encode()).hexdigest()
    assert digest == RECORDS_DIGEST
