"""Shared fixtures for the benchmark suite.

Each benchmark file regenerates one table or figure of the paper.  The heavy
experiments are run once per session (module fixtures below) at a reduced
scale; the ``benchmark`` fixture then times a representative unit of work
(one clustering pass, one repair, one rendering) so that pytest-benchmark's
statistics remain meaningful without re-running multi-minute experiments.

Scale can be increased via environment variables::

    REPRO_BENCH_CORRECT=120 REPRO_BENCH_INCORRECT=60 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# The test helpers (``helpers.repair_ilp``'s enumeration oracle), also when
# the benchmarks run without the test suite.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.evalharness import run_experiment, run_user_study  # noqa: E402


def bench_scale() -> tuple[int, int]:
    """(correct, incorrect) pool sizes per problem for benchmark runs."""
    correct = int(os.environ.get("REPRO_BENCH_CORRECT", "18"))
    incorrect = int(os.environ.get("REPRO_BENCH_INCORRECT", "10"))
    return correct, incorrect


RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Committed artifacts: deterministic, machine-independent metrics only.

    Wall-clock timings churn on every machine and load level, so they are
    never written here — see :func:`local_results_dir`.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def local_results_dir() -> Path:
    """Local-only (gitignored) report directory for wall-clock timings."""
    local = RESULTS_DIR / "local"
    local.mkdir(parents=True, exist_ok=True)
    return local


@pytest.fixture(scope="session")
def mooc_results():
    """Table 1 / Fig. 6 / Fig. 7 experiment: the three MOOC problems, with the
    AutoGrader baseline, at benchmark scale."""
    correct, incorrect = bench_scale()
    return run_experiment(
        ["derivatives", "oddTuples", "polynomials"],
        n_correct=correct,
        n_incorrect=incorrect,
        seed=2018,
        run_autograder=True,
    )


@pytest.fixture(scope="session")
def user_study_rows():
    """Table 2 experiment: the six C user-study problems."""
    correct, incorrect = bench_scale()
    return run_user_study(
        n_correct=max(8, correct // 2),
        n_incorrect=max(5, incorrect // 2),
        seed=2018,
    )
