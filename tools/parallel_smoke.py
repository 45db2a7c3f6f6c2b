#!/usr/bin/env python
"""Smoke-check ``batch --processes``: merged counters must equal one process.

Drives the real CLI end to end (the same entry points an operator uses):

1. ``cluster build`` a small derivatives store;
2. ``batch --processes 1 --workers 1 --profile`` over a smoke corpus that
   spans two CFG-skeleton families plus a duplicate and a non-ASCII
   attempt;
3. ``batch --processes 2 --profile`` over the same corpus;
4. assert the two runs' JSONL reports are identical modulo per-attempt
   wall-clock, and that the deterministic counter sections of
   ``results/local/batch_profile.json`` — phase counters, trace/match/
   repair cache counters, retrieval counters, store paging — are *equal*,
   key order included: the profile's sections come in the same order and
   each compared section serialises to the same ``json.dumps`` text;
5. assert the one-process run reused candidate sites
   (``cache["site_hits"] > 0``): the non-ASCII attempt writes the
   single-loop attempt's expressions under another variable name.  With
   step 4, this pins that the site counters do not depend on sharding;
6. run ``batch --budget 0`` with 1 and 2 processes over the smoke corpus
   plus one unparseable and one already-correct attempt, and assert the
   two reports are identical modulo wall-clock, that the searched
   attempts time out and that the other two keep their statuses: the
   workers apply the budget to the cluster search alone, as in process.

Exit code 0 on identity, 1 with a section-by-section diff on divergence.
Used by the ``batch-parallel-smoke`` CI job and ``make
batch-parallel-smoke``; everything runs in a temp directory, nothing in
the repository is touched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Sections of the profile payload that must be equal, not merely summed.
#: (ted/compile/cache_entries may differ: expression-level memos can share
#: entries across skeleton classes inside one process.)
IDENTICAL_SECTIONS = ("cache", "retrieval", "store_paging")

TWO_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

SINGLE_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for e in range(len(poly)):\n"
    "        result.append(float(poly[e]*e))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

NON_ASCII = (
    "def computeDeriv(poly):\n"
    "    # dérivée du polynôme\n"
    "    rés = []\n"
    "    for i in range(len(poly)):\n"
    "        rés.append(float(i*poly[i]))\n"
    "    if rés == []:\n"
    "        return [0.0]\n"
    "    return rés\n"
)

UNPARSEABLE = "def computeDeriv(poly:\n    return\n"

ALREADY_CORRECT = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for e in range(1, len(poly)):\n"
    "        result.append(float(poly[e]*e))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

#: Statuses of the extra attempts of the ``--budget 0`` pass, settled
#: before the cluster search.
SETTLED = {"e-unparseable.py": "parse-error", "f-correct.py": "already-correct"}

#: Statuses the cluster search decides; a zero budget turns them into
#: ``timeout``.
SEARCHED = ("repaired", "no-repair")


def _cli(workdir: Path, *arguments: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=workdir,
        env=env,
        check=True,
    )


def _batch(workdir: Path, attempts: Path, store: Path, processes: int, *extra: str) -> list[dict]:
    """One ``batch`` run over ``attempts``; its report rows."""
    report_path = workdir / f"report-p{processes}.jsonl"
    _cli(
        workdir, "batch",
        "--problem", "derivatives",
        "--attempts", str(attempts),
        "--clusters", str(store),
        "--workers", "1",
        "--processes", str(processes),
        "--output", str(report_path),
        *extra,
    )
    return _rows(report_path)


def _rows(report_path: Path) -> list[dict]:
    rows = []
    for line in report_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "summary" in record:
            continue
        record.pop("elapsed", None)
        rows.append(record)
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="parallel-smoke-") as tmp:
        workdir = Path(tmp)
        store = workdir / "derivatives.json"
        _cli(workdir, "cluster", "build", "--problem", "derivatives",
             "--correct", "12", "--output", str(store))

        attempts = workdir / "attempts"
        attempts.mkdir()
        (attempts / "a-single.py").write_text(SINGLE_LOOP_BROKEN, encoding="utf-8")
        (attempts / "b-duplicate.py").write_text(SINGLE_LOOP_BROKEN, encoding="utf-8")
        (attempts / "c-two-loop.py").write_text(TWO_LOOP_BROKEN, encoding="utf-8")
        (attempts / "d-unicode.py").write_text(NON_ASCII, encoding="utf-8")

        profiles: dict[int, dict] = {}
        reports: dict[int, list[dict]] = {}
        for processes in (1, 2):
            reports[processes] = _batch(workdir, attempts, store, processes, "--profile")
            profiles[processes] = json.loads(
                (workdir / "results" / "local" / "batch_profile.json").read_text(
                    encoding="utf-8"
                )
            )

        (attempts / "e-unparseable.py").write_text(UNPARSEABLE, encoding="utf-8")
        (attempts / "f-correct.py").write_text(ALREADY_CORRECT, encoding="utf-8")
        budgeted = {
            processes: _batch(workdir, attempts, store, processes, "--budget", "0")
            for processes in (1, 2)
        }

        failures = []
        if not profiles[1]["cache"]["site_hits"] > 0:
            failures.append(
                "--processes 1 reused no candidate site: "
                f"{json.dumps(profiles[1]['cache'])}"
            )
        if reports[1] != reports[2]:
            failures.append(
                "JSONL report rows diverged:\n"
                f"  --processes 1: {json.dumps(reports[1])}\n"
                f"  --processes 2: {json.dumps(reports[2])}"
            )
        if budgeted[1] != budgeted[2]:
            failures.append(
                "--budget 0 report rows diverged:\n"
                f"  --processes 1: {json.dumps(budgeted[1])}\n"
                f"  --processes 2: {json.dumps(budgeted[2])}"
            )
        unbudgeted = {row["attempt_id"]: row["status"] for row in reports[1]}
        unbudgeted.update(SETTLED)
        for row in budgeted[1]:
            expected = unbudgeted[row["attempt_id"]]
            if expected in SEARCHED:
                expected = "timeout"
            if row["status"] != expected:
                failures.append(
                    f"--budget 0 gave {row['attempt_id']} status {row['status']!r}, "
                    f"expected {expected!r}"
                )
        if list(profiles[1]) != list(profiles[2]):
            failures.append(
                "profile section order diverged:\n"
                f"  --processes 1: {list(profiles[1])}\n"
                f"  --processes 2: {list(profiles[2])}"
            )
        single = dict(profiles[1], phases=profiles[1]["phases"]["counters"])
        merged = dict(profiles[2], phases=profiles[2]["phases"]["counters"])
        for section in ("phases",) + IDENTICAL_SECTIONS:
            # Compared as serialised text, which is stricter than dict
            # equality: the merge must also reproduce the key order.
            single_text = json.dumps(single[section])
            merged_text = json.dumps(merged[section])
            if single_text != merged_text:
                failures.append(
                    f"profile section {section!r} diverged:\n"
                    f"  --processes 1: {single_text}\n"
                    f"  --processes 2: {merged_text}"
                )

        if failures:
            print("batch --processes smoke FAILED:", file=sys.stderr)
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
        checked = ", ".join(("phases",) + IDENTICAL_SECTIONS)
        print(
            f"batch --processes smoke OK: {len(reports[1])} records and "
            f"counter sections [{checked}] identical across 1 and 2 processes; "
            f"{len(budgeted[1])} --budget 0 records identical too"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
