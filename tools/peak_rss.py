#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a bound.

Usage:
    peak_rss.py --max-mib N -- CMD [ARG...]

Runs CMD, then prints its peak RSS (the largest ru_maxrss of any
waited-for descendant, from getrusage(RUSAGE_CHILDREN); Linux reports
KiB) in MiB on stderr, so CMD's own stdout stays as it was. Exits with
CMD's status when CMD fails (128 + S when signal S killed it), 1 when
the peak exceeds N MiB, else 0.

The child's high-water mark includes the interpreter image it was
forked from, so readings have a floor of this script's own RSS (about
14 MiB); gate only commands that peak well above it.
"""

import argparse
import resource
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run a command and gate its peak RSS.")
    parser.add_argument("--max-mib", type=float, required=True,
                        help="largest allowed peak RSS, in MiB")
    parser.add_argument("command", nargs="+",
                        help="the command to run (after --)")
    args = parser.parse_args()

    status = subprocess.run(args.command).returncode
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss: {peak_mib:.1f} MiB (limit {args.max_mib:g} MiB): "
          f"{' '.join(args.command)}", file=sys.stderr)
    if status != 0:
        print(f"peak_rss: command exited with status {status}",
              file=sys.stderr)
        return status if status > 0 else 128 - status  # killed by -status
    if peak_mib > args.max_mib:
        print(f"peak_rss: FAIL: {peak_mib:.1f} MiB exceeds "
              f"{args.max_mib:g} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
