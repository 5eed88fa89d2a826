#!/usr/bin/env python3
"""Compares two saved perfbench results, refusing when their provenance differs.

    python3 perfbench/compare.py BASE.json CHANGE.json

The files are the ones perfbench/run.py saves under .bench_build/results/.
Results are comparable only when workload, seed, trace mode, CPU count,
worker threads, build type and compiler all match; otherwise this exits 2.
"""
import json
import sys

PROVENANCE_KEYS = ("workload", "seed", "trace", "nproc", "threads", "build_type", "compiler")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, change = (json.load(open(path)) for path in sys.argv[1:])
    base_prov = base.get("provenance") or {}
    change_prov = change.get("provenance") or {}
    differs = [key for key in PROVENANCE_KEYS if base_prov.get(key) != change_prov.get(key)]
    for key in differs:
        print("provenance differs in %s: %r vs %r" % (key, base_prov.get(key),
                                                     change_prov.get(key)), file=sys.stderr)
    if differs:
        print("refusing to compare", file=sys.stderr)
        return 2
    base_metrics = base["result"]["metrics"]
    change_metrics = change["result"]["metrics"]
    for name in sorted(set(base_metrics) | set(change_metrics)):
        a = base_metrics.get(name, {}).get("value")
        b = change_metrics.get(name, {}).get("value")
        unit = (base_metrics.get(name) or change_metrics.get(name))["unit"]
        ratio = "%.4f" % (b / a) if a and b is not None else "-"
        print("%-40s %16s %16s %8s  %s" % (name, a, b, ratio, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
