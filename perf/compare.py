"""Compare two result files of ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of the same
commit), B the candidate.  Per workload × end-to-end metric it prints
both readings, the ratio B/A, the metric's bound and a verdict.  A
reading is what ``run.py`` reports, the best repeat (see
``run.reading`` for why); the noise a verdict allows for is judged on
the better half of each set's repeats, the ones near that floor.

- ``improved``   every B repeat reads better than every A repeat, and
                 the readings differ by more than A's own quartile
                 distance;
- ``regressed``  B's reading is worse than A's by more than the bound;
- ``unresolved`` the repeats of A and B interleave and the spread
                 within a set is wider than the bound, so neither
                 ``unchanged`` nor ``regressed`` can be told from noise;
- ``unchanged``  otherwise.

Counts that must repeat exactly (units and ops per call, ops failed,
``spill_bytes``, digests) are compared for equality when both files
used one seed.  Exit status is 1 if any row is ``regressed`` or ``unresolved`` or any
exact value differs — this tool checks "no regression"; a claimed gain
still needs the paired runs the choosing-metrics guide asks for.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List

EXACT = ("units", "ops_per_call", "ops_failed", "spill_bytes", "digests")


def better_half(values: List[float], better: str) -> List[float]:
    """The better half of a metric's repeats, best first."""
    ordered = sorted(values, reverse=better == "higher")
    return ordered[: (len(ordered) + 1) // 2]


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: dict, b: dict) -> str:
    """``a`` and ``b`` are one metric's rows (``values``, ``better``,
    ``bound``) from the base and the candidate."""
    lower = a["better"] == "lower"
    va = better_half(a["values"], a["better"])
    vb = better_half(b["values"], b["better"])
    base, cand = va[0], vb[0]
    worse_by = (cand - base) / base * (1.0 if lower else -1.0)
    if lower:
        all_better, all_worse = max(vb) < min(va), min(vb) > max(va)
    else:
        all_better, all_worse = min(vb) > max(va), max(vb) < min(va)
    if all_better and abs(cand - base) > spread(va) * base:
        return "improved"
    noisy = max(spread(va), spread(vb)) > a["bound"]
    if noisy and not (all_better or all_worse):
        return "unresolved"
    return "regressed" if worse_by > a["bound"] else "unchanged"


def compare(a: dict, b: dict) -> int:
    bad = 0
    same_seed = a["environment"]["seed"] == b["environment"]["seed"]
    print(f"{'workload':<19}{'metric':<18}{'A':>14}{'B':>14}"
          f"{'B/A':>8}  {'bound':>6}  verdict")
    for name, base in a["workloads"].items():
        cand = b["workloads"].get(name)
        if cand is None:
            print(f"{name:<19}missing from B")
            bad += 1
            continue
        for metric, row_a in base["end_to_end"].items():
            row_b = cand["end_to_end"][metric]
            if not row_a["values"] or not row_b["values"]:
                print(f"{name:<19}{metric:<18}no successful repeat")
                bad += 1
                continue
            outcome = verdict(row_a, row_b)
            bad += outcome in ("regressed", "unresolved")
            print(
                f"{name:<19}{metric:<18}{row_a['value']:>14.4f}"
                f"{row_b['value']:>14.4f}"
                f"{row_b['value'] / row_a['value']:>8.3f}"
                f"  {row_a['bound']:>6.0%}  {outcome}"
            )
        if same_seed:
            for key in EXACT:
                if base.get(key) != cand.get(key):
                    print(f"{name:<19}{key}: A {base.get(key)} != "
                          f"B {cand.get(key)}  (must be exactly equal)")
                    bad += 1
    print("B/A is the candidate's reading over the base's (base = A).")
    return 1 if bad else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        return compare(json.load(fa), json.load(fb))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
