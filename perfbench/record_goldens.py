#!/usr/bin/env python3
"""Record goldens for the benchmark's output checks.

    python3 perfbench/record_goldens.py --workload certify_batch --seeds 0-10 --count 200

Runs the first ``--count`` questions of each seed's stream once, untimed,
requires every golden-free check to pass, and stores each question's
golden entry (see check.golden_entry) under its path-independent key in
``goldens/<workload>.json``. Questions that already have an entry (the
fixture questions recur across seeds) are not run again.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread cap before numpy loads
from check import check, golden_entry, parse_report
from workloads import WORKLOADS, generate


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", required=True, help="inclusive range such as 0-10")
    p.add_argument("--count", type=int, required=True)
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))

    sys.path.insert(0, str(run.SRC))
    import pgstkit.cli as cli

    path = run.HERE / "goldens" / f"{args.workload}.json"
    goldens = json.loads(path.read_text()) if path.is_file() else {}
    work = run.ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for seed in range(lo, hi + 1):
        questions = [q for q in generate(WORKLOADS[args.workload], seed, args.count) if q.key() not in goldens]
        tmp = tempfile.mkdtemp(dir=work)
        try:
            paths = run.write_graph_files(questions, Path(tmp))
            results, _ = run.closed_loop(cli, questions, paths, None, None)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        for q, r in zip(questions, results):
            check(q, r["rc"], r["stdout"], r["stderr"], None)
            goldens[q.key()] = golden_entry(parse_report(r["stdout"]))
        print(f"{args.workload} seed {seed}: {len(questions)} new questions, {len(goldens)} goldens", flush=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
