"""Field-identity assertions shared by the on-vs-off differential tests.

Several fast-path features (compiled execution, ILP solve memoization,
lazy segment paging, retrieval prefiltering) promise the same contract:
with the optimisation on or off, repair outcomes are *field-identical* —
same status, same repair fields, same feedback text.  These helpers give
every such test one comparison vocabulary instead of a per-file copy.
"""

from __future__ import annotations


def repair_fields(repair):
    """Comparable projection of a ``Repair`` (``None`` passes through).

    ``comparable_fields()`` excludes volatile members (timings, cache
    handles) so two repairs computed along different fast paths compare
    equal exactly when they are semantically the same repair.
    """
    return repair.comparable_fields() if repair is not None else None


def outcome_fields(outcome):
    """Comparable projection of a pipeline ``RepairOutcome``.

    Captures everything user-visible — status, repair fields, rendered
    feedback text, and the failure detail — but not ``elapsed``.
    """
    return (
        outcome.status,
        repair_fields(outcome.repair),
        outcome.feedback.text() if outcome.feedback is not None else None,
        outcome.detail,
    )


def report_rows(report):
    """Comparable projection of a ``BatchReport``: one row per record.

    Rows carry the user-visible fields of each record (status, repair
    cost metrics, feedback) and drop wall-clock timings.
    """
    return [
        (record.status, record.cost, record.relative_size, record.num_modified, record.feedback)
        for record in report.records
    ]


def candidate_fields(candidates):
    """Comparable projection of ``generate_local_repairs`` output.

    Sites in their order, each with its candidates in order and field for
    field; the ILP numbers its variables in this order, so order is part of
    the contract.  Candidates carry no site of their own (they are shared
    by every site with the same canonical form); the site key is compared.
    """
    return [
        (
            site,
            [
                (c.rep_var, c.omega, c.new_expr, c.cost, c.provenance)
                for c in site_candidates
            ],
        )
        for site, site_candidates in candidates.items()
    ]


def assert_repairs_field_identical(actual, baseline):
    """Assert two sequences of repairs are pairwise field-identical."""
    assert [repair_fields(r) for r in actual] == [repair_fields(r) for r in baseline]


def assert_outcomes_field_identical(actual, baseline):
    """Assert two sequences of ``RepairOutcome`` are pairwise field-identical."""
    assert [outcome_fields(o) for o in actual] == [outcome_fields(o) for o in baseline]
