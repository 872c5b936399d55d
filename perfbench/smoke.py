#!/usr/bin/env python3
"""The benchmark's own smoke test, at a tiny size (about a minute).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit on every workload, traced and untraced; that traced counts repeat
exactly across two traced runs; that a corrupted golden counts as a
failed question; and that the benchmark exits non-zero, without a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads
from workloads import WORKLOADS, generate

COUNT_SUFFIXES = (".calls", ".count", ".dim_sum", ".grid_points")


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"FAIL benchmark exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            res = result_of(bench("--workload", name, "--seed", "1", "--seconds", "60", "--trace", str(trace), "--questions", "2"))
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(units == declared[trace], f"{name} trace={trace}: every declared metric printed with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] == 2, f"{name} trace={trace}: answers correct")
        again = result_of(bench("--workload", name, "--seed", "1", "--seconds", "60", "--trace", "1", "--questions", "2"))
        counts = {k: v["value"] for k, v in res["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        repeat = {k: v["value"] for k, v in again["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        expect(counts == repeat, f"{name}: traced counts repeat exactly")

    check_corrupted_golden()

    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(dir=work)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "certify_batch", "--seed", "1", "--seconds", "1", cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


def check_corrupted_golden() -> None:
    """A golden that disagrees with the output fails the question."""
    sys.path.insert(0, str(run.SRC))
    import pgstkit.cli as cli
    from check import golden_entry, parse_report

    for name in ("certify_batch", "numeric_scan"):
        q = generate(WORKLOADS[name], 1, 1)[0]
        work = run.ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(dir=work)
        try:
            paths = run.write_graph_files([q], Path(tmp))
            results, _ = run.closed_loop(cli, [q], paths, None, None)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        good = golden_entry(parse_report(results[0]["stdout"]))
        expect(not run.evaluate([q], results, {q.key(): good}), f"{name}: output matches its own golden")
        for field in good:
            bad = dict(good)
            bad[field] = "0" * 64 if field == "exact_sha256" else good[field] + 1e-3
            failures = run.evaluate([q], results, {q.key(): bad})
            expect(len(failures) == 1, f"{name}: corrupted golden {field} counts as a failed question")


if __name__ == "__main__":
    sys.exit(main())
