"""The repository benchmark: three repair workloads, one command.

    python3 perfbench/run.py --workload fresh-ilp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with span wrappers installed, and prints
the per-layer metrics (including the tracing overhead).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the records digest,
which is identical across commits that repair field-identically.  The exit
code is 1 when an output check fails and 2 on a usage or set-up error.

``--seconds`` sets the work, not a deadline: every :data:`PASS_SECONDS` of
it is one pass over the workload's inputs (at least one pass), each from
its own set-up, and the timing metrics are medians over the passes (for
latencies, each operation's median).  The inputs are fixed per seed, so
two commits of a comparison repair identical inputs.
See ``perfbench/README.md`` for the workloads, metrics and baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("fresh-ilp", "sharded-batch", "resubmit-stream")

#: Timed seconds of one pass, in reference seconds (``speed.py``): 100
#: attempts (``fresh-ilp`` 12 s, ``sharded-batch`` 11 s) or 512 requests
#: (``resubmit-stream`` 10 s).
PASS_SECONDS = 10


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print one line per workload."""
    worst = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"{workload}: {lines[-1] if lines else done.stderr.strip()}")
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))

    import bench
    import tracing
    import workloads

    passes = max(1, round(args.seconds / PASS_SECONDS))
    if args.workload == "resubmit-stream":
        inputs = workloads.stream_inputs(args.seed)
        runner = bench.run_stream
    else:
        inputs = workloads.batch_inputs(args.workload, args.seed)
        runner = bench.run_sharded if args.workload == "sharded-batch" else bench.run_in_process

    scratch = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            measurement = runner(inputs, scratch, 1, tracer)
            layers = {name: 0.0 for name in bench.PER_LAYER}
            layers.update(measurement.layers)
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in bench.PER_LAYER.items()}
        else:
            measurement = runner(inputs, scratch, bench.SETUP_REPS, passes=passes)
            values = measurement.end_to_end()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in bench.END_TO_END.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    for failure in measurement.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    correct = not measurement.failures and measurement.errors == 0
    print(
        f"records {args.workload} seed={args.seed} passes={len(measurement.walls)} "
        f"timed={len(measurement.latencies[0])} speed={measurement.speed or 0:.3f} "
        f"digest={measurement.digest}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": measurement.operations,
                "failed": measurement.errors,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
