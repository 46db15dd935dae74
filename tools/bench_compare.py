#!/usr/bin/env python3
"""Compare two bench_json.hpp JSON files and flag regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold 0.10]

Records are matched on (bench, k, N, variant); for each match the
ns_per_solve delta is reported, and the exit status is nonzero when any
matched record regressed by more than the threshold (default 10% slower
than baseline). Records present on only one side are listed but never fail
the run — benches gain and lose cases across PRs — and two files with no
keys in common (different kernel variant, a filtered CI run) skip the
comparison entirely with exit 0.

Timings from two machines say nothing about the code, so both files must
carry one and the same `host` stamp (bench_json.hpp); otherwise the tool
prints both stamps and exits 2 without comparing.

This is the gate CI runs against the committed BENCH_*.json trajectory
files at the repo root (see docs/kernel.md for how those are produced).
"""

import argparse
import json
import sys


def key(rec):
    return (rec["bench"], rec.get("args", ""), rec.get("k", 0),
            rec.get("N", 0), rec.get("variant", ""))


def load(path):
    with open(path) as f:
        records = json.load(f)
    table = {}
    for rec in records:
        # Last record wins on duplicate keys (e.g. repeated runs appended
        # to one file); deliberate, so re-runs supersede.
        table[key(rec)] = rec
    hosts = sorted({rec.get("host", "(no host stamp)") for rec in records})
    return table, hosts


def fmt_key(k):
    bench, args, kk, n, variant = k
    slash = "/" if args else ""
    return f"{bench}{slash}{args} k={kk:g} N={n:g} [{variant}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional ns_per_solve growth "
                         "(default 0.10 = 10%%)")
    args = ap.parse_args()

    base, base_hosts = load(args.baseline)
    cand, cand_hosts = load(args.candidate)
    if (len(base_hosts) != 1 or base_hosts != cand_hosts
            or base_hosts[0] == "(no host stamp)"):
        print("bench_compare: refusing to compare records from different "
              "or unknown hosts", file=sys.stderr)
        print(f"  baseline  {args.baseline}: {'; '.join(base_hosts)}",
              file=sys.stderr)
        print(f"  candidate {args.candidate}: {'; '.join(cand_hosts)}",
              file=sys.stderr)
        return 2

    regressions = []
    common = sorted(set(base) & set(cand))
    if not common:
        # Disjoint key sets are a configuration difference (different
        # kernel variant, a filtered CI run), not a perf signal: list the
        # one-sided records and succeed rather than fail the gate.
        print("bench_compare: no records in common — skipping comparison",
              file=sys.stderr)
        width = max(len(fmt_key(k)) for k in set(base) | set(cand))
        for k in sorted(base):
            print(f"{fmt_key(k):<{width}}  only in baseline")
        for k in sorted(cand):
            print(f"{fmt_key(k):<{width}}  only in candidate")
        return 0

    width = max(len(fmt_key(k)) for k in common)
    for k in common:
        b = base[k]["ns_per_solve"]
        c = cand[k]["ns_per_solve"]
        if b <= 0:
            continue
        delta = (c - b) / b
        mark = ""
        if delta > args.threshold:
            mark = "  << REGRESSION"
            regressions.append((k, delta))
        elif delta < -args.threshold:
            mark = "  (improved)"
        print(f"{fmt_key(k):<{width}}  {b:>14,.0f} ns -> {c:>14,.0f} ns  "
              f"{delta:+7.1%}{mark}")

    for k in sorted(set(base) - set(cand)):
        print(f"{fmt_key(k):<{width}}  only in baseline")
    for k in sorted(set(cand) - set(base)):
        print(f"{fmt_key(k):<{width}}  only in candidate")

    if regressions:
        print(f"\n{len(regressions)} regression(s) over "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for k, delta in regressions:
            print(f"  {fmt_key(k)}: {delta:+.1%}", file=sys.stderr)
        return 1
    print(f"\nOK: {len(common)} records within {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
