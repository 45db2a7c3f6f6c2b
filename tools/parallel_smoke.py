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
   step 4, this pins that the site counters do not depend on sharding.

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


def _cli(workdir: Path, *arguments: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=workdir,
        env=env,
        check=True,
    )


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
            report_path = workdir / f"report-p{processes}.jsonl"
            _cli(
                workdir, "batch",
                "--problem", "derivatives",
                "--attempts", str(attempts),
                "--clusters", str(store),
                "--workers", "1",
                "--processes", str(processes),
                "--profile",
                "--output", str(report_path),
            )
            payload = json.loads(
                (workdir / "results" / "local" / "batch_profile.json").read_text(
                    encoding="utf-8"
                )
            )
            profiles[processes] = payload
            reports[processes] = _rows(report_path)

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
            f"counter sections [{checked}] identical across 1 and 2 processes"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
