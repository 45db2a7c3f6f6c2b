"""Command-line interface.

Examples::

    repro-clara table1 --correct 40 --incorrect 20
    repro-clara table2 --correct 30 --incorrect 15
    repro-clara fig6
    repro-clara repair --problem derivatives --file attempt.py
    repro-clara cluster build --problem derivatives --correct 60 \
        --output clusters.json
    repro-clara cluster info clusters.json
    repro-clara cluster export clusters.json --output clusters-v2.json
    repro-clara cluster import clusters-v2.json --output clusters.json
    repro-clara batch --problem derivatives --attempts submissions/ \
        --clusters clusters.json --output report.jsonl
    repro-clara batch --problem derivatives --attempts submissions/ \
        --clusters clusters.json --processes 4 --profile
    repro-clara serve --clusters clusters.json --port 9172
    repro-clara serve --clusters a.json --clusters b.json --fleet 2
    repro-clara list-problems
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
from pathlib import Path

from .clusterstore import (
    FORMAT_VERSION,
    V2_FORMAT_VERSION,
    ClusterStoreError,
    export_clusters,
    import_clusters,
    read_store_header,
)
from .core.pipeline import Clara
from .datasets import all_problems, generate_corpus, get_problem
from .engine import BatchAttempt, BatchRepairEngine
from .evalharness import (
    format_failure_breakdown,
    format_table1,
    format_table2,
    render_fig6,
    render_fig7a,
    render_fig7b,
    run_experiment,
    run_user_study,
)

__all__ = ["main"]


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--correct", type=int, default=None, help="correct attempts per problem")
    parser.add_argument("--incorrect", type=int, default=None, help="incorrect attempts per problem")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_table1(args: argparse.Namespace) -> int:
    problems = [spec.name for spec in all_problems(experiment="mooc")]
    results = run_experiment(
        problems,
        n_correct=args.correct,
        n_incorrect=args.incorrect,
        seed=args.seed,
        run_autograder=not args.no_autograder,
    )
    print(format_table1(results, with_autograder=not args.no_autograder))
    print()
    print(format_failure_breakdown(results))
    if not args.no_autograder:
        print()
        print(render_fig7a(results))
        print()
        print(render_fig7b(results))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    problems = [spec.name for spec in all_problems(experiment="mooc")]
    results = run_experiment(
        problems,
        n_correct=args.correct,
        n_incorrect=args.incorrect,
        seed=args.seed,
        run_autograder=False,
    )
    print(render_fig6(results))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    rows = run_user_study(
        n_correct=args.correct, n_incorrect=args.incorrect, seed=args.seed
    )
    print(format_table2(rows))
    return 0


def _cmd_list_problems(_args: argparse.Namespace) -> int:
    for spec in all_problems():
        print(f"{spec.name:<20} [{spec.language}] {spec.experiment:<11} {spec.description}")
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    try:
        spec = get_problem(args.problem)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        source = Path(args.file).read_text(encoding="utf-8")
    except FileNotFoundError:
        print(f"no such file: {args.file}", file=sys.stderr)
        return 2
    corpus = generate_corpus(spec, args.correct, 0, seed=args.seed)
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(corpus.correct_sources)
    outcome = clara.repair_source(source)
    print(f"status: {outcome.status}  ({outcome.elapsed:.2f}s, {clara.cluster_count} clusters)")
    if outcome.feedback is not None:
        print(outcome.feedback.text())
    return 0 if outcome.succeeded else 1


def _load_attempts(path: Path, language: str) -> list[BatchAttempt]:
    """Load a batch of attempts from a directory, a JSONL file or one file.

    * directory — every ``*.py`` (or ``*.c`` for C problems) file, sorted by
      name; the file name becomes the attempt id;
    * ``*.jsonl`` file — one JSON object per line with a ``source`` field and
      an optional ``id``;
    * any other file — a single attempt.

    All reads are explicit UTF-8 (student sources routinely carry
    non-ASCII identifiers, string literals and comments); relying on the
    platform default encoding would corrupt them on non-UTF-8 locales.
    """
    if path.is_dir():
        pattern = "*.c" if language == "c" else "*.py"
        return [
            BatchAttempt(attempt_id=entry.name, source=entry.read_text(encoding="utf-8"))
            for entry in sorted(path.glob(pattern))
        ]
    if path.suffix == ".jsonl":
        attempts: list[BatchAttempt] = []
        for index, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
            if not line.strip():
                continue
            record = json.loads(line)
            if not isinstance(record, dict) or not isinstance(record.get("source"), str):
                raise ValueError(
                    f"line {index + 1}: expected an object with a string 'source' field"
                )
            attempts.append(
                BatchAttempt(
                    attempt_id=str(record.get("id", f"attempt-{index}")),
                    source=record["source"],
                )
            )
        return attempts
    return [BatchAttempt(attempt_id=path.name, source=path.read_text(encoding="utf-8"))]


def _cmd_cluster_build(args: argparse.Namespace) -> int:
    try:
        spec = get_problem(args.problem)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    corpus = generate_corpus(spec, args.correct, 0, seed=args.seed)
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    result = clara.add_correct_sources(corpus.correct_sources)
    try:
        path = clara.save_clusters(args.output, problem=spec.name)
    except OSError as exc:
        print(f"cannot write cluster store {args.output}: {exc}", file=sys.stderr)
        return 2
    stats = result.stats
    print(
        f"built {clara.cluster_count} clusters from {stats.programs} correct "
        f"solutions ({stats.buckets} fingerprint buckets, "
        f"{stats.full_matches} full matches) -> {path}",
        file=sys.stderr,
    )
    for index, reason in result.failures:
        print(f"  failed to cluster correct[{index}]: {reason}", file=sys.stderr)
    return 0


def _cmd_cluster_info(args: argparse.Namespace) -> int:
    # The header is read leniently — a store of any format version still
    # identifies itself (version, revision, problem), so operators can tell
    # a current store from a stale one without hitting the strict loader's
    # rebuild-hint error.
    try:
        header = read_store_header(args.store)
    except ClusterStoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    current = "" if header.is_current else f" (stale; this build reads {FORMAT_VERSION})"
    print(f"cluster store: {args.store}")
    print(f"format version: {header.format_version}{current}")
    print(f"revision:       {header.revision}")
    print(f"problem:        {header.problem or '(unknown)'}")
    print(f"language:       {header.language}")
    print(f"case signature: {header.case_signature[:16]}…")
    print(f"clusters:       {header.cluster_count}")
    print(f"members:        {header.total_members}")
    if not header.is_current:
        if header.format_version == V2_FORMAT_VERSION:
            print(
                "segment statistics need a current-format store; migrate this "
                f"one in place with 'repro-clara cluster import {args.store} "
                f"--output {args.store}'"
            )
        else:
            print(
                "segment statistics need a current-format store; rebuild with "
                "'repro-clara cluster build' to serve from this one"
            )
        return 0
    # A current (v3) store reports entirely from the header's segment index —
    # no segment file is opened, so 'info' stays O(header) even on stores
    # whose clusters would take seconds to decode.
    print(f"segments:       {len(header.segments)} ({header.segment_bytes()} bytes)")
    # Retrieval-vector coverage: headers written before the prefilter
    # existed carry no vectors and still serve fine — the prefilter just
    # stays off (and counts fallbacks) for the affected candidates.
    from .retrieval import decode_retrieval_payload

    covered = 0
    for entry in header.segments:
        decoded = decode_retrieval_payload(entry.retrieval)
        if decoded:
            covered += len(decoded)
    if covered and covered >= header.cluster_count:
        retrieval_status = f"vectors for all {header.cluster_count} clusters"
    elif covered:
        retrieval_status = (
            f"vectors for {covered}/{header.cluster_count} clusters "
            f"(partial; prefilter falls back where absent)"
        )
    else:
        retrieval_status = (
            "no vectors (store predates retrieval; prefilter disabled, "
            "exact matching only)"
        )
    print(f"retrieval:      {retrieval_status}")
    for entry in header.segments:
        fingerprint = (entry.fingerprint or "")[:12] or "-"
        skeleton = (entry.skeleton or "")[:12] or "-"
        vectors = decode_retrieval_payload(entry.retrieval)
        print(
            f"  {entry.segment}: clusters={entry.clusters} "
            f"members={entry.members} bytes={entry.bytes} "
            f"fingerprint={fingerprint} skeleton={skeleton} "
            f"vectors={'yes' if vectors else 'no'}"
        )
    return 0


def _cmd_cluster_export(args: argparse.Namespace) -> int:
    try:
        path = export_clusters(args.store, args.output)
    except ClusterStoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot export cluster store {args.store}: {exc}", file=sys.stderr)
        return 2
    print(f"exported {args.store} -> {path} (format version {V2_FORMAT_VERSION})", file=sys.stderr)
    return 0


def _cmd_cluster_import(args: argparse.Namespace) -> int:
    try:
        path = import_clusters(args.source, args.output)
    except ClusterStoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot import cluster document {args.source}: {exc}", file=sys.stderr)
        return 2
    print(f"imported {args.source} -> {path} (format version {FORMAT_VERSION})", file=sys.stderr)
    return 0


def _bad_seconds(flag: str, value: float | None) -> bool:
    """Report a NaN, infinite or negative seconds flag; True when it is one."""
    bad = value is not None and not 0 <= value < math.inf
    if bad:
        print(f"{flag} must be a finite, non-negative number of seconds", file=sys.stderr)
    return bad


def _cmd_batch(args: argparse.Namespace) -> int:
    if _bad_seconds("--budget", args.budget):
        return 2
    if args.processes < 1:
        print(f"--processes must be >= 1, got {args.processes}", file=sys.stderr)
        return 2
    if args.processes > 1 and not args.clusters:
        # Worker subprocesses rebuild their pipelines from the store header's
        # problem name; there is no way to ship a freshly generated pool.
        print("--processes > 1 requires --clusters", file=sys.stderr)
        return 2
    try:
        spec = get_problem(args.problem)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        attempts = _load_attempts(Path(args.attempts), spec.language)
    except FileNotFoundError:
        print(f"no such file or directory: {args.attempts}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # json.JSONDecodeError is a ValueError subclass.
        print(f"malformed attempts file {args.attempts}: {exc}", file=sys.stderr)
        return 2
    if not attempts:
        print(f"no attempts found at {args.attempts}", file=sys.stderr)
        return 1
    clara = Clara(
        cases=spec.cases,
        language=spec.language,
        entry=spec.entry,
        retrieval_prefilter=not args.no_prefilter,
    )
    if args.profile:
        from .core.profile import PhaseProfiler

        clara.caches.profiler = PhaseProfiler()
    if args.clusters:
        try:
            engine = BatchRepairEngine.from_store(args.clusters, clara, processes=args.processes)
        except (ClusterStoreError, KeyError, ValueError) as exc:
            # KeyError/ValueError: --processes > 1 against a store that
            # names no or an unregistered problem (workers could not rebuild
            # their pipelines) or whose language contradicts --problem's.
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        corpus = generate_corpus(spec, args.correct, 0, seed=args.seed)
        clara.add_correct_sources(corpus.correct_sources)
        engine = BatchRepairEngine(clara)
    report = engine.run(attempts, budget=args.budget)
    if args.output:
        report.write_jsonl(args.output)
    else:
        print(report.to_jsonl(), end="")
    summary = report.summary()
    histogram = ", ".join(
        f"{status}={count}" for status, count in summary["status_histogram"].items()
    )
    processes = f", {args.processes} processes" if args.processes > 1 else ""
    print(
        f"batch: {summary['attempts']} attempts in {summary['wall_time']:.2f}s "
        f"({summary['attempts_per_second']:.2f}/s{processes})",
        file=sys.stderr,
    )
    print(f"statuses: {histogram}", file=sys.stderr)
    cache = summary["cache"]
    print(
        "cache: "
        + ", ".join(
            f"{table} {cache[f'{table}_hits']}/"
            f"{cache[f'{table}_hits'] + cache[f'{table}_misses']}"
            + (" hits" if table == "trace" else "")
            for table in ("trace", "match", "repair", "site")
        ),
        file=sys.stderr,
    )
    if args.profile:
        # Process runs attach their merged sections to the report; in-process
        # runs read them off the live pipeline.  Same payload shape either
        # way (Clara.counters_payload), which is what lets the CI smoke job
        # diff the two files section by section.
        sections = report.profile if report.profile is not None else clara.counters_payload()
        profile_path = _write_batch_profile(args, spec, report, sections)
        breakdown = ", ".join(
            f"{phase}={seconds:.3f}s"
            for phase, seconds in sections["phases"]["timings"].items()
        )
        print(f"profile: {breakdown or '(no instrumented work ran)'}", file=sys.stderr)
        print(f"profile report -> {profile_path}", file=sys.stderr)
    return 0


def _write_batch_profile(args, spec, report, sections) -> Path:
    """Write the per-phase timing/counter breakdown to ``results/local/``.

    ``sections`` is a :meth:`repro.core.pipeline.Clara.counters_payload`
    dict — from the live pipeline for in-process runs, or the merged
    per-worker payload (``report.profile``) for ``--processes > 1``.
    Timings are machine-dependent, so the report goes to the gitignored
    local results directory (created relative to the working directory when
    run outside the repository).
    """
    payload = {
        "problem": spec.name,
        "attempts": len(report.records),
        "processes": args.processes,
        **sections,
        "cache": report.cache_stats.as_dict(),
    }
    directory = Path("results") / "local"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "batch_profile.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def _build_serve_service(args: argparse.Namespace):
    """Build the single-process service or the fleet router for ``serve``.

    Returns ``(service, description)`` or raises the store/problem errors
    the caller already maps to exit code 2.
    """
    if args.fleet is not None:
        from .fleet import FleetService

        fleet_kwargs = {}
        if args.kill_after is not None:
            # None means "use the supervisor default" here; FleetService's
            # own None means "disable the kill watchdog".
            fleet_kwargs["kill_after"] = args.kill_after
        service = FleetService(
            args.clusters,
            fleet_size=args.fleet,
            default_deadline=args.deadline,
            fault_plan_path=args.fault_plan,
            **fleet_kwargs,
        )
        if not service.wait_ready(60.0):
            # Shards that never came up answer with structured retriable
            # errors; serving the healthy ones beats refusing to start.
            print("warning: not every fleet shard reached serving", file=sys.stderr)
        for shard, names in enumerate(service._shard_problems):
            print(f"fleet shard {shard}: {', '.join(names)}", file=sys.stderr)
        description = f"{len(service.problems())} problems, fleet of {service.fleet_size}"
        return service, description

    from .service import RepairService

    service = RepairService(
        queue_size=args.queue_size,
        workers=args.workers,
        default_deadline=args.deadline,
    )
    for store_path in args.clusters:
        runtime = service.add_problem(store_path)
        print(
            f"loaded problem {runtime.name!r} from {store_path} "
            f"(revision {runtime.revision}, "
            f"{runtime.snapshot().engine.clara.cluster_count} clusters)",
            file=sys.stderr,
        )
    description = (
        f"{len(service.problems())} problems, queue {args.queue_size}, "
        f"{args.workers} workers"
    )
    return service, description


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import RepairServer

    if args.fault_plan and args.fleet is None:
        print("--fault-plan requires --fleet (faults are injected in workers)", file=sys.stderr)
        return 2
    if _bad_seconds("--deadline", args.deadline):
        return 2
    try:
        service, description = _build_serve_service(args)
    except (ClusterStoreError, KeyError, ValueError) as exc:
        # The constructors own the bounds (queue_size/workers/fleet >= 1)
        # and the store check; surface their messages.
        print(exc.args[0], file=sys.stderr)
        return 2
    server = RepairServer(
        service, host=args.host, port=args.port, drain_timeout=args.drain_timeout
    )

    def announce(bound: "RepairServer") -> None:
        print(
            f"repro-clara service listening on {bound.host}:{bound.port} ({description})",
            file=sys.stderr,
        )
        if args.ready_file:
            # Readiness notification: supervisors (and the CI smoke job)
            # poll this file to learn the bound address — essential with
            # --port 0, where the kernel picks the port.  Written via a
            # temp file + rename so a poller racing the write never reads
            # an empty (created-but-unwritten) file.
            ready = Path(args.ready_file)
            tmp = ready.with_name(ready.name + ".tmp")
            tmp.write_text(f"{bound.host} {bound.port}\n")
            os.replace(tmp, ready)

    try:
        # SIGTERM/SIGINT trigger the same graceful drain as the shutdown
        # op: stop admitting, answer stragglers with retriable "draining"
        # errors, give in-flight repairs --drain-timeout seconds.
        asyncio.run(server.serve(on_ready=announce, handle_signals=True))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        if args.ready_file:
            # A stale ready file would hand the next run's pollers a dead
            # (or, with --port 0, wrong) address.  unlink runs on *every*
            # exit path — clean drain, Ctrl-C, or a serve() crash.
            Path(args.ready_file).unlink(missing_ok=True)
    print("service stopped", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-clara",
        description="Clara (PLDI 2018) reproduction: clustering and repair of student programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser("table1", help="reproduce Table 1 (MOOC evaluation)")
    _add_scale_arguments(p_table1)
    p_table1.add_argument("--no-autograder", action="store_true")
    p_table1.set_defaults(func=_cmd_table1)

    p_fig6 = sub.add_parser("fig6", help="reproduce Figure 6 (relative repair sizes)")
    _add_scale_arguments(p_fig6)
    p_fig6.set_defaults(func=_cmd_fig6)

    p_table2 = sub.add_parser("table2", help="reproduce Table 2 (user study)")
    _add_scale_arguments(p_table2)
    p_table2.set_defaults(func=_cmd_table2)

    p_list = sub.add_parser("list-problems", help="list the nine assignments")
    p_list.set_defaults(func=_cmd_list_problems)

    p_repair = sub.add_parser("repair", help="repair a single attempt from a file")
    p_repair.add_argument("--problem", required=True)
    p_repair.add_argument("--file", required=True)
    _add_scale_arguments(p_repair)
    p_repair.set_defaults(func=_cmd_repair)

    p_cluster = sub.add_parser(
        "cluster",
        help="build, persist and inspect cluster stores",
        description="Cluster a correct pool once and persist it, so batch "
        "runs skip re-clustering (see 'batch --clusters').",
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    p_cluster_build = cluster_sub.add_parser(
        "build", help="cluster a generated correct pool and save the store"
    )
    p_cluster_build.add_argument("--problem", required=True)
    p_cluster_build.add_argument(
        "--output", required=True, help="cluster store path (JSON)"
    )
    p_cluster_build.add_argument(
        "--correct", type=int, default=None, help="correct attempts to cluster"
    )
    p_cluster_build.add_argument("--seed", type=int, default=0)
    p_cluster_build.set_defaults(func=_cmd_cluster_build)

    p_cluster_info = cluster_sub.add_parser(
        "info", help="print header metadata and segment-index statistics of a store"
    )
    p_cluster_info.add_argument("store", help="cluster store file")
    p_cluster_info.set_defaults(func=_cmd_cluster_info)

    p_cluster_export = cluster_sub.add_parser(
        "export",
        help="export a store to the single-file v2 interchange document",
        description="Write the store's clusters as one self-contained format-2 "
        "JSON document — the byte-stable interchange form for archiving and "
        "diffing (a store migrated from v2 exports byte-identically to its "
        "original file; see docs/STORAGE.md).",
    )
    p_cluster_export.add_argument("store", help="cluster store file (format 3)")
    p_cluster_export.add_argument(
        "--output", required=True, help="v2 interchange document path"
    )
    p_cluster_export.set_defaults(func=_cmd_cluster_export)

    p_cluster_import = cluster_sub.add_parser(
        "import",
        help="import a v2 interchange document as an indexed (v3) store",
        description="Convert a format-2 single-file store or an 'export' "
        "document into the current indexed layout. Passing the same path as "
        "source and --output migrates a v2 store in place.",
    )
    p_cluster_import.add_argument("source", help="v2 store or interchange document")
    p_cluster_import.add_argument(
        "--output", required=True, help="indexed (v3) store path"
    )
    p_cluster_import.set_defaults(func=_cmd_cluster_import)

    p_batch = sub.add_parser(
        "batch",
        help="repair a corpus of attempts, emit a JSONL report",
        description="Repair a corpus of attempts and emit a JSONL "
        "report (one line per attempt plus a summary trailer). Exit codes: "
        "0 = report produced (per-attempt statuses, including failures, are "
        "in the report), 1 = no attempts found, 2 = usage error.",
    )
    p_batch.add_argument("--problem", required=True)
    p_batch.add_argument(
        "--attempts",
        required=True,
        help="directory of attempt files, a JSONL file with {id, source} lines, "
        "or a single source file",
    )
    p_batch.add_argument(
        "--processes",
        type=int,
        default=1,
        metavar="N",
        help="deal the corpus's distinct sources round-robin across N worker "
        "subprocesses (repeats follow their first copy), each repairing its "
        "shard single-threaded with its own caches; the merged report is "
        "identical to a single-process run, and the --profile counters are "
        "the sum of one in-process run per shard (requires --clusters). "
        "Default 1 = repair in this process.",
    )
    p_batch.add_argument(
        "--budget", type=float, default=None, help="per-attempt budget in seconds"
    )
    p_batch.add_argument(
        "--output", default=None, help="JSONL report path (default: stdout)"
    )
    p_batch.add_argument(
        "--correct", type=int, default=None, help="correct attempts for clustering"
    )
    p_batch.add_argument(
        "--clusters",
        default=None,
        help="load clusters from a store built by 'cluster build' instead of "
        "re-clustering a generated pool (--correct/--seed are ignored)",
    )
    p_batch.add_argument("--seed", type=int, default=0)
    p_batch.add_argument(
        "--profile",
        action="store_true",
        help="emit a per-phase timing/counter breakdown (parse, exec, match, "
        "candidate-gen, TED, ILP) to results/local/batch_profile.json",
    )
    p_batch.add_argument(
        "--no-prefilter",
        action="store_true",
        help="disable the nearest-cluster retrieval prefilter (escape hatch; "
        "repairs are field-identical either way, only match counts differ)",
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident repair service (newline-delimited JSON over TCP)",
        description="Serve repair requests from warm per-problem engines. Each "
        "--clusters store names its problem; requests are one JSON object per "
        "line (see docs/SERVICE.md). Exit codes: 0 = clean shutdown (via the "
        "'shutdown' op or Ctrl-C), 2 = a store is missing, stale or names an "
        "unknown problem.",
    )
    p_serve.add_argument(
        "--clusters",
        action="append",
        required=True,
        help="cluster store built by 'cluster build'; repeat to serve several problems",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=9172, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="max repairs in flight before requests are rejected as overloaded",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="repair worker threads of in-process serving (not used with --fleet)",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="default per-request deadline in seconds (requests may override); "
        "it is also each repair's search budget",
    )
    p_serve.add_argument(
        "--ready-file",
        default=None,
        help="write 'host port' to this file once the socket is bound "
        "(readiness signal for supervisors; resolves --port 0)",
    )
    p_serve.add_argument(
        "--fleet",
        type=int,
        default=None,
        metavar="N",
        help="serve through N supervised worker subprocesses (crash-isolated "
        "shards, one warm engine set per worker, each answering its requests "
        "one at a time) instead of in-process (see docs/SERVICE.md)",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-injection plan handed to every fleet worker "
        "(tests and soak benchmarks only; requires --fleet)",
    )
    p_serve.add_argument(
        "--kill-after",
        type=float,
        default=None,
        help="fleet only: kill a worker whose current request has been "
        "processing this many seconds (default 60)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds in-flight requests get to finish on SIGTERM/SIGINT/"
        "shutdown before connections are closed",
    )
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
