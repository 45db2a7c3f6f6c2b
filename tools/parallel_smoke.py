#!/usr/bin/env python
"""Smoke-check ``batch --processes``: merged counters must equal per-shard runs.

Drives the real CLI end to end (the same entry points an operator uses):

1. ``cluster build`` a small derivatives store;
2. ``batch --profile`` with 1 and 2 processes, and ``batch`` with 4,
   over a smoke corpus that spans two CFG-skeleton families plus a
   duplicate, a non-ASCII attempt and a second single-loop attempt;
3. ``batch --processes 1 --profile`` over each shard's
   sub-corpus: the distinct sources dealt round-robin, each repeat with
   its first copy (:func:`shard_of`, written out here rather than
   imported, so the smoke also pins the plan);
4. assert the JSONL reports are identical at 1, 2 and 4 processes
   modulo per-attempt wall-clock, and that every counter section of the
   ``--processes 2`` ``results/local/batch_profile.json`` — phase
   counters, trace/match/repair/site cache counters, retrieval, store
   paging, the TED/compile/solve memo counters and cache entries —
   *equals* the key-wise sum of the per-shard ``--processes 1`` sections
   (store totals are the store's, hit rates are recomputed from the
   summed counts); the fixed-key sections are compared as serialised
   text, key order included, and the profile's sections come in the same
   order;
5. assert the one-process run reused candidate sites
   (``cache["site_hits"] > 0``): the non-ASCII attempt writes the
   single-loop attempt's expressions under another variable name;
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
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Profile sections with a fixed key order, compared as serialised text.
TEXT_SECTIONS = ("cache", "retrieval", "store_paging")

#: Profile sections compared as dicts (a phase a shard never ran is absent
#: from that shard's section, so the order of a plain sum can differ).
DICT_SECTIONS = ("phases", "ted", "compile", "solve", "cache_entries")

#: The cache counters whose ratio each ``*_hit_rate`` is.
CACHE_KINDS = ("trace", "match", "repair", "site")

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

#: A second single-loop attempt: dealt to the other shard than the first,
#: where sharding by CFG skeleton would keep the two together.
VARIANT = SINGLE_LOOP_BROKEN.replace("float(poly[e]*e)", "float(poly[e]+e)")

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
    report_path = workdir / f"report-{attempts.name}-p{processes}.jsonl"
    _cli(
        workdir, "batch",
        "--problem", "derivatives",
        "--attempts", str(attempts),
        "--clusters", str(store),
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


def _profile(workdir: Path) -> dict:
    """The profile the last ``--profile`` run wrote, phase timings dropped."""
    profile = json.loads(
        (workdir / "results" / "local" / "batch_profile.json").read_text(encoding="utf-8")
    )
    profile["phases"] = profile["phases"]["counters"]
    return profile


def shard_of(files: list[Path], processes: int) -> list[list[Path]]:
    """Deal distinct sources round-robin; a repeat follows its first copy."""
    shards: list[list[Path]] = [[] for _ in range(processes)]
    assignment: dict[str, int] = {}
    for path in files:
        source = path.read_text(encoding="utf-8")
        if source not in assignment:
            assignment[source] = len(assignment) % processes
        shards[assignment[source]].append(path)
    return shards


def _key_sum(sections: list[dict]) -> dict:
    total: dict = {}
    for section in sections:
        for name, value in section.items():
            total[name] = total.get(name, 0) + value
    return total


def per_shard_sum(profiles: list[dict]) -> dict:
    """The sections ``--processes N`` must report, from N per-shard runs."""
    expected = {
        section: _key_sum([profile[section] for profile in profiles])
        for section in ("retrieval",) + DICT_SECTIONS
    }
    counts = _key_sum([profile["cache"] for profile in profiles])
    expected["cache"] = {}
    for name in profiles[0]["cache"]:
        if name.endswith("_hit_rate"):
            kind = name[: -len("_hit_rate")]
            looked_up = counts[f"{kind}_hits"] + counts[f"{kind}_misses"]
            expected["cache"][name] = counts[f"{kind}_hits"] / looked_up if looked_up else 0.0
        else:
            expected["cache"][name] = counts[name]
    paging = [profile["store_paging"] for profile in profiles]
    expected["store_paging"] = {
        name: paging[0][name] if name.endswith("_total") else sum(p[name] for p in paging)
        for name in paging[0]
    }
    return expected


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
        (attempts / "d-variant.py").write_text(VARIANT, encoding="utf-8")

        reports, profiles = {}, {}
        for processes in (1, 2):
            reports[processes] = _batch(workdir, attempts, store, processes, "--profile")
            profiles[processes] = _profile(workdir)
        reports[4] = _batch(workdir, attempts, store, 4)
        single, merged = profiles[1], profiles[2]
        shard_profiles = []
        for index, members in enumerate(shard_of(sorted(attempts.iterdir()), 2)):
            shard_dir = workdir / f"shard-{index}"
            shard_dir.mkdir()
            for path in members:
                shutil.copy(path, shard_dir / path.name)
            _batch(workdir, shard_dir, store, 1, "--profile")
            shard_profiles.append(_profile(workdir))
        expected = per_shard_sum(shard_profiles)

        (attempts / "e-unparseable.py").write_text(UNPARSEABLE, encoding="utf-8")
        (attempts / "f-correct.py").write_text(ALREADY_CORRECT, encoding="utf-8")
        budgeted = {
            processes: _batch(workdir, attempts, store, processes, "--budget", "0")
            for processes in (1, 2)
        }

        failures = []
        if not single["cache"]["site_hits"] > 0:
            failures.append(
                "--processes 1 reused no candidate site: "
                f"{json.dumps(single['cache'])}"
            )
        for processes in (2, 4):
            if reports[processes] != reports[1]:
                failures.append(
                    "JSONL report rows diverged:\n"
                    f"  --processes 1: {json.dumps(reports[1])}\n"
                    f"  --processes {processes}: {json.dumps(reports[processes])}"
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
            want = unbudgeted[row["attempt_id"]]
            if want in SEARCHED:
                want = "timeout"
            if row["status"] != want:
                failures.append(
                    f"--budget 0 gave {row['attempt_id']} status {row['status']!r}, "
                    f"expected {want!r}"
                )
        if list(single) != list(merged):
            failures.append(
                "profile section order diverged:\n"
                f"  --processes 1: {list(single)}\n"
                f"  --processes 2: {list(merged)}"
            )
        for section in DICT_SECTIONS + TEXT_SECTIONS:
            if section in TEXT_SECTIONS:
                # Compared as serialised text, which is stricter than dict
                # equality: the merge must also reproduce the key order.
                same = json.dumps(expected[section]) == json.dumps(merged[section])
            else:
                same = expected[section] == merged[section]
            if not same:
                failures.append(
                    f"profile section {section!r} diverged:\n"
                    f"  sum of per-shard --processes 1 runs: {json.dumps(expected[section])}\n"
                    f"  --processes 2: {json.dumps(merged[section])}"
                )

        if failures:
            print("batch --processes smoke FAILED:", file=sys.stderr)
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
        checked = ", ".join(DICT_SECTIONS + TEXT_SECTIONS)
        print(
            f"batch --processes smoke OK: {len(reports[1])} records identical at "
            f"1, 2 and 4 processes; --processes 2 counter sections [{checked}] "
            f"equal the sum of per-shard --processes 1 runs; "
            f"{len(budgeted[1])} --budget 0 records identical at 1 and 2 processes"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
