"""Compare the results of two commits.

    python3 perfbench/compare.py <base results dir> <new results dir>

Each directory holds the untraced result files that run.py wrote
(<workload>-s<seed>-t0.json), one per seed, for one commit.  For every
workload and end-to-end metric the tool prints each side's median and
quartiles, how many same-seed pairs the new side won, and a verdict against
the metric's bound in BENCHMARK.json:

    better      the new side won at least 9 of 10 pairs and the medians
                differ by more than the base's quartile distance
    same        the new median is not worse than the base's by more than
                the bound
    worse       the new median is worse by more than the bound
    unresolved  a side's quartile distance exceeds the bound, so a change
                of that size cannot be told from noise (unless every new
                run beats every base run, which reads "better")
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: result}} from the untraced result files."""
    out = {}
    for path in sorted(directory.glob("*-t0.json")):
        res = json.loads(path.read_text())
        out.setdefault(res["workload"], {})[res["seed"]] = res
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list, new: list, pairs: list, better: str, bound: float) -> tuple:
    """(verdict, pairs won by the new side) for one metric."""
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    won = sum(1 for b, n in pairs if sign * (n - b) < 0)
    worse = sign * (nm - bm) / abs(bm)
    if max(sign * n for n in new) < min(sign * b for b in base):
        return "better", won           # every new run beats every base run
    if max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm)) > bound:
        return "unresolved", won
    if worse > bound:
        return "worse", won
    if pairs and won >= 0.9 * len(pairs) and abs(nm - bm) > b3 - b1 and worse < 0:
        return "better", won
    return "same", won


def compare(base: dict, new: dict, spec: dict) -> list:
    """One row per workload and end-to-end metric."""
    rows = []
    for wl in sorted(set(base) & set(new)):
        seeds = sorted(set(base[wl]) & set(new[wl]))
        for m in spec["end_to_end"]:
            name = m["name"]
            if any(name not in r["metrics"]
                   for side in (base, new) for r in side[wl].values()):
                print(f"{wl} {name}: missing from some results, skipped")
                continue
            b = [r["metrics"][name]["value"] for r in base[wl].values()]
            n = [r["metrics"][name]["value"] for r in new[wl].values()]
            pairs = [(base[wl][s]["metrics"][name]["value"],
                      new[wl][s]["metrics"][name]["value"]) for s in seeds]
            v, won = verdict(b, n, pairs, m["better"], m["bound"])
            rows.append({"workload": wl, "metric": name, "unit": m["unit"],
                         "base": quartiles(b), "new": quartiles(n),
                         "pairs": len(pairs), "won": won, "bound": m["bound"],
                         "verdict": v})
    return rows


def _failed_share(results: dict) -> str:
    att = sum(r["attempted"] for r in results.values())
    fail = sum(r["failed"] for r in results.values())
    return f"{fail}/{att}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base, new = load(args.base), load(args.new)
    if not set(base) & set(new):
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    for wl in sorted(set(base) & set(new)):
        print(f"{wl}: failed base {_failed_share(base[wl])}, new {_failed_share(new[wl])}")
    print(f"{'workload':18} {'metric':12} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'won':>7} {'bound':>5}  verdict")
    for r in compare(base, new, spec):
        print(f"{r['workload']:18} {r['metric']:12} {fmt(r['base']) + ' ' + r['unit']:34} "
              f"{fmt(r['new']) + ' ' + r['unit']:34} {r['won']:>3}/{r['pairs']:<3} "
              f"{r['bound']:>5}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
