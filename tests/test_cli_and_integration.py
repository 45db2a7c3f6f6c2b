"""CLI tests and cross-module integration tests."""

from __future__ import annotations

import pytest

from repro import Clara, InputCase, parse_source
from repro.cli import build_parser, main
from repro.core.inputs import is_correct


def test_cli_list_problems(capsys):
    assert main(["list-problems"]) == 0
    output = capsys.readouterr().out
    assert "derivatives" in output and "rhombus" in output


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("table1", "table2", "fig6", "repair", "batch", "list-problems"):
        assert command in text


def test_cli_repair_command(tmp_path, capsys):
    attempt = tmp_path / "attempt.py"
    attempt.write_text(
        "def computeDeriv(poly):\n"
        "    result = []\n"
        "    for e in range(len(poly)):\n"
        "        result.append(float(poly[e]*e))\n"
        "    if result == []:\n"
        "        return [0.0]\n"
        "    return result\n"
    )
    code = main(
        ["repair", "--problem", "derivatives", "--file", str(attempt), "--correct", "6"]
    )
    output = capsys.readouterr().out
    assert code == 0
    assert "status: repaired" in output
    assert "change" in output or "Add" in output


def test_cli_repair_unknown_problem_exits_2(tmp_path, capsys):
    attempt = tmp_path / "attempt.py"
    attempt.write_text("def computeDeriv(poly):\n    return poly\n")
    code = main(["repair", "--problem", "no-such-problem", "--file", str(attempt)])
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.strip().splitlines()) == 1  # one line, no traceback
    assert "unknown problem 'no-such-problem'" in captured.err


def test_cli_repair_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.py"
    code = main(["repair", "--problem", "derivatives", "--file", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == f"no such file: {missing}"


def test_cli_batch_command(tmp_path, capsys):
    import json

    broken = (
        "def computeDeriv(poly):\n"
        "    result = []\n"
        "    for e in range(len(poly)):\n"
        "        result.append(float(poly[e]*e))\n"
        "    if result == []:\n"
        "        return [0.0]\n"
        "    return result\n"
    )
    attempts = tmp_path / "attempts"
    attempts.mkdir()
    (attempts / "alice.py").write_text(broken)
    (attempts / "bob.py").write_text(broken)  # duplicate submission
    # A third duplicate guarantees a trace-cache hit even when the first two
    # race on the 2-worker pool and both miss concurrently.
    (attempts / "carol.py").write_text(broken)
    report_path = tmp_path / "report.jsonl"

    code = main(
        [
            "batch",
            "--problem",
            "derivatives",
            "--attempts",
            str(attempts),
            "--correct",
            "6",
            "--workers",
            "2",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in report_path.read_text().splitlines()]
    assert len(lines) == 4  # three records + summary trailer
    assert [line["attempt_id"] for line in lines[:3]] == [
        "alice.py",
        "bob.py",
        "carol.py",
    ]
    assert all(line["status"] == "repaired" for line in lines[:3])
    summary = lines[3]["summary"]
    assert summary["attempts"] == 3
    assert summary["cache"]["trace_hits"] >= 1  # a duplicate hit the cache


def test_cli_batch_reads_jsonl(tmp_path, capsys):
    import json

    source = "def computeDeriv(poly):\n    return poly\n"
    attempts = tmp_path / "attempts.jsonl"
    attempts.write_text(json.dumps({"id": "s1", "source": source}) + "\n")
    code = main(
        ["batch", "--problem", "derivatives", "--attempts", str(attempts), "--correct", "4"]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    first = json.loads(stdout.splitlines()[0])
    assert first["attempt_id"] == "s1"


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


# -- integration: the library applied to a brand-new assignment ----------------------


def test_full_workflow_on_custom_problem():
    cases = [
        InputCase(args=(values,), expected_return=max(values) if values else 0)
        for values in ([], [3], [1, 5, 2], [7, 7], [2, 9, 4, 9])
    ]
    correct = [
        """
def largest(values):
    best = 0
    for v in values:
        if v > best:
            best = v
    return best
""",
        """
def largest(values):
    m = 0
    i = 0
    while i < len(values):
        if values[i] > m:
            m = values[i]
        i += 1
    return m
""",
    ]
    broken = """
def largest(values):
    best = 0
    for v in values:
        if v < best:
            best = v
    return best
"""
    clara = Clara(cases)
    clustering = clara.add_correct_sources(correct)
    assert clustering.cluster_count == clara.cluster_count >= 1
    outcome = clara.repair_source(broken)
    assert outcome.succeeded
    assert is_correct(outcome.repair.repaired_program, cases)
    assert outcome.feedback is not None and outcome.feedback.items


def test_python_and_c_models_are_interoperable():
    # The same assignment expressed in Python and C lowers to comparable
    # models: both read inputs, loop, and produce observable output/return.
    python_program = parse_source(
        "def f(n):\n    s = 0\n    for i in range(n):\n        s += i\n    return s\n"
    )
    c_program = parse_source(
        r"""
        int main() {
            int n, s = 0, i;
            scanf("%d", &n);
            for (i = 0; i < n; i++) { s = s + i; }
            printf("%d\n", s);
            return 0;
        }
        """,
        language="c",
    )
    assert len(python_program.locations) == len(c_program.locations) == 4
    assert python_program.language == "python" and c_program.language == "c"


def test_cli_batch_profile_writes_phase_breakdown(tmp_path, capsys, monkeypatch):
    import json

    broken = (
        "def computeDeriv(poly):\n"
        "    result = []\n"
        "    for e in range(len(poly)):\n"
        "        result.append(float(poly[e]*e))\n"
        "    if result == []:\n"
        "        return [0.0]\n"
        "    return result\n"
    )
    attempts = tmp_path / "attempts"
    attempts.mkdir()
    (attempts / "a.py").write_text(broken)
    report_path = tmp_path / "report.jsonl"
    monkeypatch.chdir(tmp_path)  # the profile lands in ./results/local/

    code = main(
        [
            "batch",
            "--problem",
            "derivatives",
            "--attempts",
            str(attempts),
            "--correct",
            "6",
            "--workers",
            "1",
            "--output",
            str(report_path),
            "--profile",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "profile" in err

    profile_path = tmp_path / "results" / "local" / "batch_profile.json"
    assert profile_path.exists()
    payload = json.loads(profile_path.read_text())
    counters = payload["phases"]["counters"]
    # Counter-only assertions (timings are machine-dependent): every phase
    # that must have run is counted.
    assert counters["parse"] == 1
    assert counters["exec"] >= 1
    assert counters["exec_steps"] >= 1
    assert counters["match"] >= 1
    assert counters["candidate_gen"] >= 1
    assert counters["ted"] >= 1
    assert counters["ilp"] >= 1
    # Timed phases are a subset of counted ones: counter-only entries
    # (exec_steps) carry no timing row.
    assert set(payload["phases"]["timings"]) <= set(counters)
    assert "exec_steps" not in payload["phases"]["timings"]
    assert payload["ted"]["dp_runs"] >= 0
    assert payload["ted"]["dp_runs"] + payload["ted"]["lb_prunes"] >= 1
    assert payload["compile"]["misses"] >= 1
    assert payload["attempts"] == 1

    # Profiling must not change outcomes.
    record = json.loads(report_path.read_text().splitlines()[0])
    assert record["status"] == "repaired"


def test_cli_batch_report_utf8_round_trips_non_ascii_sources(tmp_path):
    import json

    # Non-ASCII identifiers, comments and (on failure paths) detail strings
    # must survive attempt loading and report writing byte-exactly on any
    # locale — both sides are explicit UTF-8.
    source = (
        "def computeDeriv(poly):\n"
        "    # dérivée du polynôme — café ☕\n"
        "    rés = []\n"
        "    for i in range(1, len(poly)):\n"
        "        rés.append(float(i*poly[i]))\n"
        "    if rés == []:\n"
        "        return [0.0]\n"
        "    return rés\n"
    )
    attempts = tmp_path / "attempts.jsonl"
    attempts.write_text(
        json.dumps({"id": "élève-1", "source": source}, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "rapport.jsonl"
    code = main(
        [
            "batch",
            "--problem",
            "derivatives",
            "--attempts",
            str(attempts),
            "--correct",
            "4",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    # The report decodes as UTF-8 (an exception here is the regression this
    # test guards against) and the non-ASCII attempt id round-trips.
    lines = report_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    assert record["attempt_id"] == "élève-1"
    assert record["status"] in ("repaired", "already-correct")


@pytest.mark.parametrize("budget", ["nan", "inf", "-0.5"])
def test_cli_batch_exits_2_on_out_of_range_budget(tmp_path, capsys, budget):
    """A NaN budget would never expire in the search; it is refused up front,
    like any negative or infinite one."""
    attempt = tmp_path / "attempt.py"
    attempt.write_text("def computeDeriv(poly):\n    return poly\n")
    code = main(
        ["batch", "--problem", "derivatives", "--attempts", str(attempt),
         "--correct", "4", "--budget", budget]
    )
    assert code == 2
    assert "--budget must be a finite, non-negative" in capsys.readouterr().err


#: Statuses decided by the cluster search; every other status is settled
#: before it (parse, correctness check, structural gate).
_SEARCH_STATUSES = ("repaired", "no-repair")


@pytest.mark.parametrize("mode", ["correct", "clusters", "processes-2"])
def test_cli_batch_budget_zero_times_out_every_searched_attempt(tmp_path, capsys, mode):
    """``batch --budget 0`` reaches the search of every attempt: each attempt
    that is repaired or refuted without a budget comes back ``timeout``, and
    the attempts settled before the search keep their status.  Worker
    processes apply the budget to the search alone, as in process."""
    import json

    from repro.datasets import generate_corpus, get_problem

    corpus = generate_corpus(get_problem("derivatives"), 4, 8, seed=5)
    sources = list(corpus.incorrect_sources) + [
        corpus.correct_sources[0],
        "def computeDeriv(poly:\n    return\n",
    ]
    attempts = tmp_path / "attempts.jsonl"
    attempts.write_text(
        "".join(
            json.dumps({"id": f"a{index}", "source": source}) + "\n"
            for index, source in enumerate(sources)
        )
    )
    store = tmp_path / "clusters.json"
    args = ["--correct", "10"]
    if mode != "correct":
        assert main(
            ["cluster", "build", "--problem", "derivatives", "--correct", "10",
             "--output", str(store)]
        ) == 0
        args = ["--clusters", str(store)]
    if mode == "processes-2":
        args += ["--processes", "2"]

    def statuses(*budget):
        report = tmp_path / "report.jsonl"
        code = main(
            ["batch", "--problem", "derivatives", "--attempts", str(attempts),
             "--workers", "1", "--output", str(report), *args, *budget]
        )
        assert code == 0
        lines = report.read_text().splitlines()[:-1]  # the summary trailer
        return [json.loads(line)["status"] for line in lines]

    unbudgeted = statuses()
    budgeted = statuses("--budget", "0")
    capsys.readouterr()
    assert len(budgeted) == len(sources)
    searched = [status in _SEARCH_STATUSES for status in unbudgeted]
    assert sum(searched) >= 5 and not all(searched)
    for before, after, reaches in zip(unbudgeted, budgeted, searched):
        if reaches:
            assert after == "timeout"
        else:
            assert after == before


@pytest.mark.parametrize("processes", ["1", "2"])
def test_cli_batch_rejects_a_store_built_for_another_problem(tmp_path, capsys, processes):
    """A store built for derivatives cannot serve ``--problem oddTuples``: both
    the in-process and the worker-process path exit 2 with one message,
    before any repair (or worker) runs."""
    store = tmp_path / "derivatives.json"
    assert main(
        ["cluster", "build", "--problem", "derivatives", "--correct", "4",
         "--output", str(store)]
    ) == 0
    attempt = tmp_path / "attempt.py"
    attempt.write_text("def oddTuples(aTup):\n    return aTup\n")
    capsys.readouterr()
    report = tmp_path / "report.jsonl"
    code = main(
        ["batch", "--problem", "oddTuples", "--attempts", str(attempt),
         "--clusters", str(store), "--processes", processes, "--output", str(report)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == (
        f"cluster store {store} was built against a different test-case set; "
        "clusters are only valid for the inputs they were clustered on — "
        "rebuild the store for these cases"
    )
    assert not report.exists()
