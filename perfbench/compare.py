"""Summarise one set of benchmark results, or compare two.

    python3 perfbench/compare.py BASE_DIR            # medians and spreads
    python3 perfbench/compare.py BASE_DIR HEAD_DIR   # change per workload and metric

A set is a directory of result files written by run.py (`--results-dir`).
For each workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median). When comparing, a change
worse than the metric's bound is flagged REGRESSION. Where either side's
spread is wider than the bound, the metric is reported as unresolved
rather than unchanged, unless every head run is better than every base
run. Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

# End-to-end metrics that only some workloads report, so BENCHMARK.json
# cannot gate them; their bounds live here.
EXTRA_END_TO_END = {
    "eval_queries_per_s": ("higher", 0.25),
    "eval_filtered_queries_per_s": ("higher", 0.25),
    "neighbors_p50_ms": ("lower", 0.25),
    "neighbors_p90_ms": ("lower", 0.25),
    "proximity_s": ("lower", 0.25),
    "expansion_records_per_s": ("higher", 0.25),
    "error_rate": ("lower", 0.0),
}
HIGHER_IS_BETTER_LAYER = ("kept_ratio",)


def load(directory: Path) -> dict[tuple[str, str, str], list[float]]:
    """(workload, section, metric) -> values over the set's runs."""
    values: dict[tuple[str, str, str], list[float]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for section in ("end_to_end", "per_layer"):
            for name, m in result.get(section, {}).items():
                if section == "end_to_end" and result["trace"]:
                    continue  # end-to-end figures come from untraced runs only
                values[(result["workload"], section, name)].append(m["value"])
    return values


def summary(xs: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / |median|."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], xs[0], xs[0])
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def rules(root: Path) -> dict[str, tuple[str, float | None]]:
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out: dict[str, tuple[str, float | None]] = dict(EXTRA_END_TO_END)
    for d in declared["end_to_end"]:
        out[d["name"]] = (d["better"], d["bound"])
    for d in declared["per_layer"]:
        out[d["name"]] = (d["better"], None)
    return out


def direction(name: str, known: dict) -> tuple[str, float | None]:
    if name in known:
        return known[name]
    return ("higher" if name.endswith(HIGHER_IS_BETTER_LAYER) else "lower"), None


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    known = rules(Path.cwd())
    base = load(Path(argv[0]))
    head = load(Path(argv[1])) if len(argv) == 2 else None
    regressions = 0
    for key in sorted(base):
        workload, section, name = key
        better, bound = direction(name, known)
        med, q1, q3, spread = summary(base[key])
        row = f"{workload:10s} {name:46s} n={len(base[key]):<3d} median={med:<12.6g} " \
              f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:6.2%}"
        if head is None or key not in head:
            flag = "" if bound is None or spread <= bound else "  spread exceeds bound"
            print(row + (f" bound={bound:.0%}" if bound is not None else "") + flag)
            continue
        h_med, _, _, h_spread = summary(head[key])
        sign = 1.0 if better == "lower" else -1.0
        worse = sign * (h_med - med) / abs(med) if med else sign * (h_med - med)
        all_better = all(sign * (h - b) < 0 for h in head[key] for b in base[key])
        if bound is None:
            verdict = "no bound"
        elif max(spread, h_spread) > bound and not all_better:
            verdict = "unresolved (spread wider than bound)"
        elif worse > bound:
            verdict = "REGRESSION"
            regressions += 1
        elif all_better or -worse > max(spread, h_spread):
            verdict = "better"
        else:
            verdict = "within bound"
        print(f"{workload:10s} {name:46s} base={med:<12.6g} head={h_med:<12.6g} "
              f"worse_by={worse:+7.2%} spread={max(spread, h_spread):6.2%} {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
