#!/usr/bin/env python3
"""pgstkit benchmark: one client drives the real CLI in a closed loop.

    python3 perfbench/run.py --workload certify_batch --seed 1 --seconds 30 --trace 0

Each run is a fresh interpreter. It generates the workload's question
stream from the seed, writes the graph files, then calls
``pgstkit.cli.main(argv)`` in-process with stdout captured, one question
after the other, until ``--seconds`` have passed. No question repeats
within a run, so no cross-call cache can help, as it cannot for a CLI
user. Outputs are checked after the loop, outside the timed spans.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the workload's fixed traced prefix with every layer
wrapped (see layers.py), replays the same prefix untraced in a fresh
interpreter for the overhead ratio, and prints the per-layer metrics.

The last stdout line is the result object; the line before it is the run
record (versions, thread caps, reuse share, reference-loop times, failed
questions with their causes).
"""

from __future__ import annotations

import os
import sys

# The BLAS thread cap must be in place before numpy is first imported.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Questions generated per untraced run; far more than a run answers today,
# so a much faster program still sees fresh questions until the deadline.
STREAM_LIMIT = 600
SETUP_REPEATS = 7
SETUP_CODE = (
    "import contextlib, io, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pgstkit.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        pgstkit.cli.main(['--help'])\n"
    "    except SystemExit:\n"
    "        pass\n"
    "print(time.perf_counter() - t0)\n"
)
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--questions",
        type=int,
        help="stop after this many questions (sets the traced prefix with --trace 1)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pgstkit" / "cli.py").is_file():
        print(f"error: no pgstkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ref_before = reference_loop()
    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_REPEATS)]
    if args.trace:
        limit = args.questions or workload.trace_questions
    else:
        limit = args.questions or STREAM_LIMIT
    questions = workloads.generate(workload, args.seed, limit)
    goldens = load_goldens(args.workload)

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    tracer = None
    try:
        paths = write_graph_files(questions, tmp)
        import pgstkit.cli as cli

        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        deadline = None if args.trace else args.seconds
        try:
            results, loop_wall = closed_loop(cli, questions, paths, deadline, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ref_after = reference_loop()

    failures = evaluate(questions, results, goldens)
    latencies = [r["latency_s"] for r in results]
    attempted = len(results)
    correct = attempted - len(failures)
    record = run_record(args, workload, questions[:attempted], latencies, failures, goldens)
    record.update(
        loop_wall_s=loop_wall,
        reference_loop_s={"before": ref_before, "after": ref_after},
        stream_exhausted=limit == STREAM_LIMIT and attempted == limit,
    )

    if args.trace:
        values = tracer.metrics()
        untraced = replay_untraced(args, attempted)
        values["trace.overhead_ratio"] = loop_wall / untraced
        record["trace"] = {"traced_wall_s": loop_wall, "untraced_wall_s": untraced}
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans_{args.workload}_{args.seed}.jsonl")
        declared = spec["per_layer"]
    else:
        pct = workload.tail_percentile
        values = {
            "questions_per_s": correct / loop_wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": percentile(latencies, pct),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        record.update(
            failed_ratio=len(failures) / attempted,
            latency_tail_percentile=pct,
            latency_tail_beyond=attempted - math.ceil(pct / 100 * attempted),
            setup_samples_s=setup,
        )
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def reference_loop() -> float:
    """Fixed pure-Python work, timed beside each run to show machine-speed
    drift. It adjusts no metric."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 50001):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return time.perf_counter() - t0


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import pgstkit.cli and build its
    parser (``--help`` builds it and exits)."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip())


def load_goldens(workload: str) -> dict:
    path = HERE / "goldens" / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def write_graph_files(questions, tmp: Path) -> list[str | None]:
    paths: list[str | None] = []
    for q in questions:
        if q.graph_text is None:
            paths.append(None)
            continue
        path = tmp / f"q{q.index}.txt"
        path.write_text(q.graph_text)
        paths.append(str(path))
    return paths


def closed_loop(cli, questions, paths, seconds, tracer):
    """Ask the questions one after the other; stop once ``seconds`` have
    passed (never, when None). Returns per-question results and the wall
    time of the loop."""
    results = []
    start = time.perf_counter()
    for q, path in zip(questions, paths):
        argv = q.resolved_argv(path)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.question = q.index
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                err.write(traceback.format_exc())
        t1 = time.perf_counter()
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "latency_s": t1 - t0})
        if seconds is not None and t1 - start >= seconds:
            break
    return results, time.perf_counter() - start


def evaluate(questions, results, goldens) -> list[dict]:
    from check import CheckFailed, check

    failures = []
    for q, r in zip(questions, results):
        try:
            check(q, r["rc"], r["stdout"], r["stderr"], goldens.get(q.key()))
        except (CheckFailed, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            failures.append({"question": q.index, "slot": q.slot, "argv": q.argv, "cause": f"{type(exc).__name__}: {exc}"})
    return failures


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def run_record(args, workload, asked, latencies, failures, goldens) -> dict:
    import numpy

    seen: set[str] = set()
    reused = 0
    for q in asked:
        reused += q.base in seen
        seen.add(q.base)
    slots: dict[str, list[float]] = {}
    for q, t in zip(asked, latencies):
        slots.setdefault(q.slot, []).append(t)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "questions": len(asked),
        "base_graph_reuse_share": reused / len(asked),
        "golden_checked": sum(q.key() in goldens for q in asked),
        "slot_median_s": {k: statistics.median(v) for k, v in sorted(slots.items())},
        "failures": failures,
    }


def replay_untraced(args, count: int) -> float:
    """Loop wall time of the same question prefix, untraced, in a fresh
    interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", "1e9",
            "--trace", "0",
            "--questions", str(count),
        ],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-2])["run_record"]
    return record["loop_wall_s"]


if __name__ == "__main__":
    sys.exit(main())
