#!/usr/bin/env python3
"""Self-test for scripts/bench_compare.py row pairing.

Runs the comparator on small synthetic artifacts and checks its verdict
(exit code) and its drift notes:

  - kernel rows ({"primitive": <name>, ...}) pair by name: dropping a
    middle row is drift, not a regression of every later row against its
    predecessor's baseline; reordering rows changes nothing; a named row
    that regressed is still caught;
  - dropping a row that has a speedup floor is a FLOOR failure, with or
    without --ratios-only;
  - lists without names keep pairing by index.

Registered as the tier-1 `bench_compare_selftest` ctest.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "scripts" / "bench_compare.py"


def rows(*pairs):
    return {"primitives": [{"primitive": name, "speedup": speedup}
                           for name, speedup in pairs]}


BASELINE = rows(("dist_row", 2.0), ("leaf_scan", 6.0), ("consecutive", 1.5))

# (name, baseline, new, expected exit code, text the output must contain,
#  optional list of extra bench_compare flags)
CASES = [
    ("dropped middle row is drift",
     BASELINE, rows(("dist_row", 2.0), ("consecutive", 1.5)),
     0, "primitives[leaf_scan]: only in baseline"),
    ("reordered rows pair by name",
     BASELINE,
     rows(("consecutive", 1.5), ("leaf_scan", 6.0), ("dist_row", 2.0)),
     0, "bench_compare: OK (3 metric(s)"),
    ("added row is drift",
     BASELINE, rows(("dist_row", 2.0), ("leaf_scan", 6.0),
                    ("consecutive", 1.5), ("point_to_many", 3.0)),
     0, "primitives[point_to_many]: only in new"),
    ("named regression after a dropped row is caught",
     BASELINE, rows(("dist_row", 2.0), ("consecutive", 1.0)),
     1, "primitives[consecutive].speedup: 1.5 -> 1"),
    ("unnamed lists pair by index",
     {"rows": [{"seconds": 1.0}, {"seconds": 2.0}]},
     {"rows": [{"seconds": 1.0}, {"seconds": 3.0}]},
     1, "rows[1].seconds: 2 -> 3"),
    ("dropped floored row fails its floor",
     rows(("dist_row", 2.0), ("frechet_row", 2.8)), rows(("dist_row", 2.0)),
     1, "FLOOR new: floored primitive 'frechet_row' is in the baseline"),
    ("dropped floored row fails its floor under --ratios-only",
     rows(("dist_row", 2.0), ("frechet_row", 2.8)), rows(("dist_row", 2.0)),
     1, "FLOOR new: floored primitive 'frechet_row' is in the baseline",
     ["--ratios-only"]),
]


def main():
    failures = []
    with tempfile.TemporaryDirectory() as td:
        for i, (name, base, new, want_rc, want_text, *flags) in \
                enumerate(CASES):
            base_path = Path(td) / f"base{i}.json"
            new_path = Path(td) / f"new{i}.json"
            base_path.write_text(json.dumps(base), encoding="utf-8")
            new_path.write_text(json.dumps(new), encoding="utf-8")
            proc = subprocess.run(
                [sys.executable, str(COMPARE), str(base_path),
                 str(new_path), *(flags[0] if flags else [])],
                capture_output=True, text=True)
            output = proc.stdout + proc.stderr
            if proc.returncode != want_rc:
                failures.append(f"{name}: exit {proc.returncode}, "
                                f"want {want_rc}\n{output}")
            elif want_text not in output:
                failures.append(f"{name}: output lacks {want_text!r}\n"
                                f"{output}")

    if failures:
        for f in failures:
            print(f"bench-compare-selftest: FAIL: {f}", file=sys.stderr)
        return 1
    print(f"bench-compare-selftest: OK ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
