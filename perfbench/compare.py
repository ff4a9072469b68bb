"""Compare two sets of benchmark results, or report the spread of one set.

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py compare DIR_A DIR_B

DIR holds result files written by run.py (perfbench/out/results/*.json).
In ``compare`` A is the parent (or run A) and B the change (or run B).
Runs are paired by seed where both sides ran the same seeds, otherwise in
order. For each workload and metric the verdict is:

* improved    B wins at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than A's interquartile range;
* regressed   B's median is worse than A's by more than the metric's bound
              (per-layer metrics, which have no bound: A wins 9/10 of the
              pairs and the medians differ by more than A's IQR);
* unresolved  neither, and the spread of either side exceeds the bound,
              unless every run of B reads better than every run of A;
* unchanged   otherwise.

The failed/attempted ratio of each side is printed next to the verdicts.
``compare`` exits 1 when any end-to-end metric regressed. ``spread`` prints
each metric's interquartile range as a share of its median next to a
third of its bound, the steadiness target.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: dict(m, trace=0) for m in spec["end_to_end"]}
    metrics.update({m["name"]: dict(m, trace=1) for m in spec["per_layer"]})
    return metrics


def load_runs(directory: str) -> dict:
    """{(workload, trace): [record, ...]} sorted by seed."""
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["environment"]["seed"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def pairs(a: list[dict], b: list[dict], name: str) -> list[tuple[float, float]]:
    seeds_a = [r["environment"]["seed"] for r in a]
    seeds_b = [r["environment"]["seed"] for r in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = {r["environment"]["seed"]: r for r in b}
        b = [by_seed[s] for s in seeds_a]
    return list(zip(values(a, name), values(b, name)))


def verdict(a_records, b_records, name: str, spec: dict) -> tuple[str, dict]:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    a, b = values(a_records, name), values(b_records, name)
    q1a, med_a, q3a = quartiles(a)
    med_b = quartiles(b)[1]
    pr = pairs(a_records, b_records, name)
    b_wins = sum(sign * (y - x) > 0 for x, y in pr)
    a_wins = sum(sign * (y - x) < 0 for x, y in pr)
    apart = abs(med_b - med_a) > (q3a - q1a)
    gain = sign * (med_b - med_a)
    worse_share = -gain / abs(med_a) if med_a else (0.0 if gain >= 0 else float("inf"))
    bound = spec.get("bound")
    info = {"a": med_a, "b": med_b, "pairs": len(pr), "b_wins": b_wins, "a_wins": a_wins,
            "worse_share": worse_share}
    if pr and b_wins >= 0.9 * len(pr) and apart and gain > 0:
        return "improved", info
    if bound is None:
        if pr and a_wins >= 0.9 * len(pr) and apart and gain < 0:
            return "regressed", info
        return ("unchanged" if not apart else "unresolved"), info
    if worse_share > bound:
        return "regressed", info
    every_b_better = min(sign * y for y in b) > max(sign * x for x in a)
    if max(relative_iqr(a), relative_iqr(b)) > bound and not every_b_better:
        return "unresolved", info
    return "unchanged", info


def fail_ratio(records: list[dict]) -> str:
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    return f"{failed}/{attempted} = {failed / attempted:.4f}" if attempted else "n/a"


def cmd_compare(dir_a: str, dir_b: str) -> int:
    spec = load_spec()
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    regressed = False
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, trace = key
        a, b = runs_a[key], runs_b[key]
        print(f"\n{workload} ({'traced, per-layer' if trace else 'end-to-end'}): "
              f"{len(a)} runs A, {len(b)} runs B")
        print(f"  fail_ratio  A {fail_ratio(a)}   B {fail_ratio(b)}")
        for name, m in spec.items():
            if m["trace"] != trace or not values(a, name) or not values(b, name):
                continue
            v, info = verdict(a, b, name, m)
            regressed |= v == "regressed" and not trace
            print(f"  {name:34s} A {info['a']:12.6g}  B {info['b']:12.6g} {m['unit']:7s}"
                  f" worse by {100 * info['worse_share']:7.2f}%"
                  f"  wins B/A {info['b_wins']}/{info['a_wins']} of {info['pairs']}"
                  f"  {v}")
    only = set(runs_a) ^ set(runs_b)
    if only:
        print(f"\nnot on both sides: {sorted(only)}")
    return 1 if regressed else 0


def cmd_spread(directory: str) -> int:
    spec = load_spec()
    for (workload, trace), records in sorted(load_runs(directory).items()):
        seeds = [r["environment"]["seed"] for r in records]
        print(f"\n{workload} ({'traced' if trace else 'end-to-end'}): {len(records)} runs,"
              f" seeds {seeds}, fail_ratio {fail_ratio(records)}")
        for name, m in spec.items():
            vals = values(records, name)
            if m["trace"] != trace or not vals:
                continue
            med = quartiles(vals)[1]
            spread = relative_iqr(vals)
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                mark = f"bound/3 {bound / 3:.4f} " + ("ok" if spread < bound / 3 else "HIGH")
                if name == "setup_s":
                    mark += " (not gated)"
            print(f"  {name:34s} median {med:12.6g} {m['unit']:7s} IQR/median {spread:.4f} {mark}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "spread":
        return cmd_spread(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return cmd_compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
