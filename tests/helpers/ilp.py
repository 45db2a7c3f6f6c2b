"""A brute-force feasibility reference for 0-1 ILP tests.

:class:`repro.ilp.IlpProblem` keeps only the rows the solver searches, so a
check that read those rows would pass whatever the row builder got wrong.
:class:`RecordedProblem` also keeps every constraint as it was given,
``(coeffs, sense, rhs)``, and :func:`satisfies` checks an assignment
against those records alone.
"""

from __future__ import annotations

from typing import Mapping

from repro.ilp import IlpProblem


class RecordedProblem(IlpProblem):
    """An :class:`IlpProblem` that records each constraint as given."""

    def __init__(self, *, minimize: bool = True) -> None:
        super().__init__(minimize=minimize)
        self.records: list[tuple[list[tuple[str, float]], str, float]] = []

    def add_constraint(self, coeffs, sense, rhs) -> None:
        coeffs = list(coeffs.items()) if isinstance(coeffs, Mapping) else list(coeffs)
        super().add_constraint(coeffs, sense, rhs)
        self.records.append((coeffs, sense, float(rhs)))


def satisfies(problem: RecordedProblem, values: Mapping[str, int]) -> bool:
    """Whether ``values`` meets every recorded constraint of ``problem``."""
    # Every row must have been added through the recording path.
    assert len(problem.records) == len(problem.row_terms)
    for coeffs, sense, rhs in problem.records:
        total = sum(coeff * values.get(var, 0) for var, coeff in coeffs)
        if sense == "==" and abs(total - rhs) > 1e-9:
            return False
        if sense == ">=" and total < rhs - 1e-9:
            return False
        if sense == "<=" and total > rhs + 1e-9:
            return False
    return True
