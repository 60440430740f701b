#!/usr/bin/env python3
"""Exit codes of tools/bench_diff.py on crafted BENCH documents.

0 = pass, 1 = a shared metric failed (timing regression or --exact
mismatch, also when one-sided entries are present), 2 = the only
failures are entries on one side. The advisory CI micro compare warns
"regressed" only on 1; every exact gate fails on either nonzero code.

Usage: bench_diff_test.py <path to tools/bench_diff.py>
"""

import json
import os
import subprocess
import sys
import tempfile


def doc(entries):
    return {"bench": "micro", "schema": "lsqca-bench-v1",
            "entries": [{"name": name, "metrics": metrics}
                        for name, metrics in entries.items()]}


def kernel(ns, cpi=1.5):
    return {"wall_seconds": 0.5, "ns_per_unit": ns, "cpi": cpi}


def main():
    tool = sys.argv[1]
    base = {"a": kernel(100.0), "b": kernel(200.0)}
    cases = [
        # (name, candidate entries, extra args, expected exit, stdout must contain)
        ("identical", dict(base), [], 0, None),
        ("within threshold", {"a": kernel(105.0), "b": kernel(200.0)}, [],
         0, None),
        ("timing regression", {"a": kernel(150.0), "b": kernel(200.0)}, [],
         1, None),
        ("exact mismatch", {"a": kernel(100.0, cpi=1.6), "b": kernel(200.0)},
         ["--exact", "cpi"], 1, None),
        ("kernel added", dict(base, c=kernel(50.0)), [], 2,
         "only in candidate: c"),
        ("kernel removed", {"a": kernel(100.0)}, [], 2,
         "only in baseline: b"),
        ("added and removed", {"a": kernel(100.0), "c": kernel(50.0)}, [],
         2, "only in baseline: b"),
        ("regression and added", {"a": kernel(150.0), "b": kernel(200.0),
                                   "c": kernel(50.0)}, [], 1,
         "only in candidate: c"),
        ("no shared entries", {"c": kernel(50.0)}, [], 1, None),
    ]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        with open(base_path, "w") as fh:
            json.dump(doc(base), fh)
        for name, cand, extra, expected, needle in cases:
            cand_path = os.path.join(tmp, "cand.json")
            with open(cand_path, "w") as fh:
                json.dump(doc(cand), fh)
            run = subprocess.run(
                [sys.executable, tool, *extra, base_path, cand_path],
                capture_output=True, text=True)
            ok = run.returncode == expected and (
                needle is None or needle in run.stdout)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {run.returncode}"
                  f" (expected {expected})")
            if not ok:
                failed += 1
                print(run.stdout + run.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
