"""Summarize or compare result sets written by ``run.py --record``.

    python3 bench/compare.py A.jsonl            # medians, quartiles, spread
    python3 bench/compare.py A.jsonl B.jsonl    # B against A, per workload

For every workload and end-to-end metric it prints the median and the
quartiles over the untraced runs (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and, with two files, the change
of B's median against A's, judged by the metric's bound in
BENCHMARK.json: "worse" past the bound, "unresolved" when either set
spreads wider than the bound.  Stage timings have no bound and are
listed for reading only.  The share of failed operations must match.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {metric: [values]}} plus failed and attempted totals, untraced runs."""
    values = defaultdict(lambda: defaultdict(list))
    for line in open(path):
        rec = json.loads(line)
        if rec["trace"]:
            continue
        box = values[rec["workload"]]
        for name, value in {**rec["end_to_end"], **rec["stages"]}.items():
            if value is not None:
                box[name].append(value)
        box["_failed"].append(rec["failed"])
        box["_attempted"].append(rec["attempted"])
    return values


def summary(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(p) for p in argv]
    worse = False
    for workload in sorted(sets[0]):
        print(workload)
        for name in sorted(sets[0][workload]):
            if name.startswith("_"):
                continue
            rows = [summary(s[workload][name]) for s in sets if s[workload][name]]
            m = bounds.get(name)
            text = "  ".join(f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                             for med, q1, q3, sp in rows)
            verdict = ""
            if m is None:
                verdict = "(no bound)"
            elif len(rows) == 2:
                change = rows[1][0] / rows[0][0] - 1.0
                if m["better"] == "higher":
                    change = -change
                if max(rows[0][3], rows[1][3]) > m["bound"]:
                    verdict = f"unresolved, worse by {change:+.3f}"
                elif change > m["bound"]:
                    verdict = f"WORSE by {change:+.3f} > bound {m['bound']}"
                    worse = True
                else:
                    verdict = f"change {change:+.3f} within bound {m['bound']}"
            else:
                ok = rows[0][3] <= m["bound"] / 3.0
                verdict = f"bound {m['bound']}: spread {'below' if ok else 'ABOVE'} bound/3"
            print(f"  {name:20s} {text}  {verdict}")
        shares = [sum(s[workload]["_failed"]) / max(sum(s[workload]["_attempted"]), 1)
                  for s in sets if workload in s]
        print(f"  failed share: {'  '.join(f'{x:.6f}' for x in shares)}"
              + ("  DIFFERENT" if len(set(shares)) > 1 else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
