#!/usr/bin/env python3
"""Check sweep BENCH documents against a perfbench reference.

perfbench/reference/<workload>.json records every job's simulated
fields at the commit that defined the repository benchmark, keyed by
"<sweep>|<job name>". This check requires every entry of every BENCH
document given to exist in the reference, with cpi, exec_beats,
memory_beats, magic_stall_beats and density exactly equal. Reference
jobs no document names are fine: a reference covers every incremental
point the benchmark may add. Timing fields are never compared, so a
timed run checks as well as a --no-timing one.

The reference is the simulator's own earlier output, not a validated
model; the check pins results across changes that must not alter them.
A change that means to alter simulated results regenerates the
references (perfbench/README.md) in the same change.

Usage:
  tools/reference_check.py REFERENCE BENCH...
  tools/reference_check.py perfbench/reference/figures.json \\
      fig14/BENCH_fig14.json ablation/BENCH_ablation.json

Exit status 0 when every entry matches, 1 otherwise (naming up to 20
missing or differing entries).
"""

import argparse
import json
import sys

REFERENCE_SCHEMA = "perfbench-reference-v1"
BENCH_SCHEMAS = ("lsqca-bench-v1", "lsqca-bench-v2")
CHECKED = ("cpi", "exec_beats", "memory_beats", "magic_stall_beats",
           "density")
SHOWN = 20


def load_reference(path):
    """{"<sweep>|<name>": {field: value}} over the CHECKED fields."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != REFERENCE_SCHEMA:
        sys.exit(f"reference_check: {path}: schema "
                 f"{doc.get('schema')!r}, expected {REFERENCE_SCHEMA!r}")
    fields = doc["fields"]
    missing = [f for f in CHECKED if f not in fields]
    if missing:
        sys.exit(f"reference_check: {path}: no field {missing[0]!r}")
    columns = {f: fields.index(f) for f in CHECKED}
    return {key: {f: row[i] for f, i in columns.items()}
            for key, row in doc["jobs"].items()}


def check(reference, path):
    """Problems with one BENCH document, and how many entries it has."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") not in BENCH_SCHEMAS:
        sys.exit(f"reference_check: {path}: schema {doc.get('schema')!r}, "
                 f"expected one of {', '.join(BENCH_SCHEMAS)}")
    entries = doc.get("entries", [])
    if not entries:
        return [f"{path}: no entries"], 0
    problems = []
    for entry in entries:
        key = f"{doc['bench']}|{entry['name']}"
        want = reference.get(key)
        if want is None:
            problems.append(f"{key}: not in the reference")
            continue
        for field in CHECKED:
            got = entry["metrics"].get(field)
            if got != want[field]:
                problems.append(f"{key}: {field} {got!r}, "
                                f"reference {want[field]!r}")
    return problems, len(entries)


def main():
    parser = argparse.ArgumentParser(
        description="Require every BENCH entry to equal its perfbench "
                    "reference job.")
    parser.add_argument("reference", help="perfbench/reference/*.json")
    parser.add_argument("bench", nargs="+", help="BENCH_*.json documents")
    args = parser.parse_args()

    reference = load_reference(args.reference)
    problems = []
    checked = 0
    for path in args.bench:
        found, entries = check(reference, path)
        problems += found
        checked += entries
    if problems:
        for problem in problems[:SHOWN]:
            print(f"reference_check: {problem}")
        if len(problems) > SHOWN:
            print(f"reference_check: ... {len(problems) - SHOWN} more")
        print(f"reference_check: FAIL against {args.reference}")
        return 1
    print(f"reference_check: {checked} entries in {len(args.bench)} "
          f"documents equal {args.reference}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
