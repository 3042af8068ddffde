"""patkg benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload fit-1x --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds `src/patkg` and
`BENCHMARK.json`. The benchmark generates the workload's inputs from the
seed (untimed), then runs the workload in a fresh Python process that
drives the CLI in-process through `patkg.cli.main`: one closed-loop
client, `workers=1`, BLAS/OpenMP threads pinned to 1. With `--trace 0`
it reports the end-to-end metrics of untraced passes; with `--trace 1`
it alternates untraced and traced passes, reports per-layer figures from
the trace and the microbenchmarks, and the tracing overhead.

Every metric is printed with its unit and sample count, the full result
(machine, counts, digests of every output file) is written to
`.perfbench/results/`, and the last stdout line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. The exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import os

THREAD_VARS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_VARS)  # before numpy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("fit-1x", "rank-1x", "study-5x")
CHILD_TIMEOUT_S = 170.0
PROCESSES = 3  # sessions an untraced run aims for
SETUP_SECONDS = 4.0  # ingest repeats for set-up time, per run

# The layers each workload is built to stress, as shares of its traced pass.
STRESS = {
    "fit-1x": ("layer.trainer.self_share", "layer.models.self_share"),
    "rank-1x": ("layer.evaluator.self_share", "layer.graph.sample_corrupt.self_share"),
    "study-5x": ("layer.expansion.self_share", "layer.ingestion.self_share"),
}


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read through its own API."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    src_lines = sum(p.read_text(encoding="utf-8").count("\n")
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": src_lines,
    }


def generate(workload: str, seed: int, work: Path, trace: bool) -> dict:
    import inputs

    if workload == "study-5x":
        gen = inputs.study_records(work, seed)
        micro = gen
    else:
        gen = inputs.accept_graph(work, seed)
        micro = None
        if trace:
            (work / "micro").mkdir()
            micro = inputs.study_records(work / "micro", seed)
    spec = {"raw_triples": str(gen.raw_triples), "n_lines": gen.n_lines, "n_noise": gen.n_noise,
            "patents": gen.patents, "inventors": gen.inventors}
    if workload == "study-5x":
        spec.update(records=str(gen.records), universe=str(gen.universe),
                    eligible_records=gen.eligible_records)
    if micro is not None:
        spec.update(micro_records=str(micro.records), micro_universe=str(micro.universe))
    return spec


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _scaled(c: dict) -> float:
    """A command's seconds at the nominal host speed (see session.Probe)."""
    from session import REF_S

    return c["seconds"] * REF_S / c["ref_s"]


def end_to_end(session: dict, peak_rss_mb: float) -> dict:
    """Metrics of the untraced passes (tracing off), in seconds scaled to the probe."""
    passes = [p for p in session["passes"] if not p["traced"]]
    cmds = [c for p in passes for c in p["commands"]]
    ingests = [c for c in session["setup"] + cmds if c["kind"] == "ingest"]

    def of(kind: str) -> list[dict]:
        return [c for c in cmds if c["kind"] == kind]

    def rate(kind: str, unit: str) -> dict:
        xs = of(kind)
        return _metric(sum(c["work"] for c in xs) / sum(_scaled(c) for c in xs), unit, len(xs))

    m = {
        "setup_s": _metric(statistics.median(_scaled(c) for c in ingests), "s", len(ingests)),
        "pipeline_s": _metric(statistics.median(sum(_scaled(c) for c in p["commands"])
                                                for p in passes), "s", len(passes)),
        "train_triples_per_s": rate("train", "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
        "setup_wall_s": _metric(statistics.median(c["seconds"] for c in ingests), "s",
                                len(ingests)),
        "pipeline_wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s",
                                   len(passes)),
        "host.probe_ms": _metric(statistics.median(c["ref_s"] for c in cmds) * 1e3, "ms",
                                 len(cmds)),
    }
    if of("eval"):
        m["eval_queries_per_s"] = rate("eval", "1/s")
    if of("eval_filtered"):
        m["eval_filtered_queries_per_s"] = rate("eval_filtered", "1/s")
    if of("neighbors"):
        ms = [_scaled(c) * 1e3 for c in of("neighbors")]
        m["neighbors_p50_ms"] = _metric(statistics.median(ms), "ms", len(ms))
        m["neighbors_p90_ms"] = _metric(_p90(ms), "ms", len(ms))
    if of("proximity"):
        xs = [_scaled(c) for c in of("proximity")]
        m["proximity_s"] = _metric(statistics.median(xs), "s", len(xs))
    if of("expansion"):
        m["expansion_records_per_s"] = rate("expansion", "1/s")
    attempted = session["attempted"]
    m["error_rate"] = _metric(len(session["errors"]) / attempted, "ratio", attempted)
    return m


def per_layer(session: dict, facts: dict) -> dict:
    """Per-layer figures: traced passes, log counts, microbenchmarks, overhead."""
    traced = [p for p in session["passes"] if p["traced"]]
    plain = [p for p in session["passes"] if not p["traced"]]
    m: dict[str, dict] = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        unit = "ratio" if "share" in name else "count" if name == "trace.spans" else "s"
        m[name] = _metric(statistics.median(values), unit, len(values))
    base = statistics.median(sum(_scaled(c) for c in p["commands"]) for p in plain)
    over = statistics.median(sum(_scaled(c) for c in p["commands"]) for p in traced)
    m["trace.overhead_share"] = _metric((over - base) / base, "ratio", len(traced) + len(plain))
    counts: dict[str, int] = {}
    queries = 0.0
    for c in plain[0]["commands"]:
        for k, v in c["counts"].items():
            counts[k] = counts.get(k, 0) + v
        if c["kind"].startswith("eval"):
            queries += c["work"]
    m["ingestion.dropped"] = _metric(counts.get("ingestion.dropped", 0), "count", 1)
    m["ingestion.kept_ratio"] = _metric(facts["triples"] / facts["n_lines"], "ratio", 1)
    if queries:
        for key in ("evaluator.clamped", "evaluator.skipped"):
            m[key] = _metric(counts.get(key, 0), "count", 1)
        m["evaluator.clamped_ratio"] = _metric(counts.get("evaluator.clamped", 0) / queries,
                                               "ratio", 1)
    if any(c["kind"] == "expansion" for c in plain[0]["commands"]):
        m["expansion.skipped_emissions"] = _metric(
            counts.get("expansion.skipped_emissions", 0), "count", 1)
    for name, value in session.get("micro", {}).items():
        m[name] = _metric(value, _unit(name), 1)
    return m


def _unit(name: str) -> str:
    """Unit spelled in a microbenchmark metric's name: `.ms`, `.ns_per_row.x`, ..."""
    if name.endswith("bytes_per_triple"):
        return "B"
    for part in reversed(name.split(".")):
        head = part.split("_per_")[0]
        if head in ("ns", "us", "ms", "s"):
            return head
    raise ValueError(f"no unit in metric name {name!r}")


def run_sessions(spec: dict, seconds: float, started: float) -> dict:
    """Run the workload in fresh processes until `seconds` are spent; merge what they measured.

    An untraced run pools several short sessions, so that neither one
    process's memory layout nor one stretch of host load sets its
    figures. A traced run is one session.
    """
    from session import OVERRUN

    env = {k: v for k, v in os.environ.items() if k != "SOURCE_DATE_EPOCH"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")]).rstrip(
        os.pathsep)
    share = 1 if spec["trace"] else PROCESSES
    spec = dict(spec, seconds=seconds / share, setup_seconds=SETUP_SECONDS / share)
    work = Path(spec["work_dir"])
    merged: dict = {"setup": [], "passes": [], "attempted": 0, "errors": [], "digests": {}}
    t0 = time.perf_counter()
    last = 0.0
    k = 0
    while k == 0 or (not spec["trace"] and time.perf_counter() - t0 + last <= seconds * OVERRUN):
        spec_path, out_path = work / f"session{k}_in.json", work / f"session{k}_out.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        t = time.perf_counter()
        try:
            child = subprocess.run(
                [sys.executable, str(BENCH / "session.py"), str(spec_path), str(out_path)],
                env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S - (time.time() - started))
        except subprocess.TimeoutExpired:
            raise RuntimeError("workload session timed out") from None
        if child.returncode != 0:
            sys.stderr.write(child.stderr[-4000:])
            raise RuntimeError(f"workload session exited {child.returncode}")
        last = time.perf_counter() - t
        session = json.loads(out_path.read_text(encoding="utf-8"))
        for key in ("setup", "passes", "errors"):
            merged[key] += session[key]
        merged["attempted"] += session["attempted"]
        for name, digest in session["digests"].items():
            if merged["digests"].setdefault(name, digest) != digest:
                merged["errors"].append(f"{name}: output bytes differ between sessions")
        if "micro" in session:
            merged["micro"] = session["micro"]
        k += 1
    merged["sessions"] = k
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=".perfbench/results")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "patkg" / "cli.py").is_file():
        print(f"error: no patkg sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    declared = json.loads(spec_file.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    started = time.time()
    load_start = os.getloadavg()
    work = ROOT / ".perfbench" / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = generate(args.workload, args.seed, work, bool(args.trace))
    spec = {"workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
            "work_dir": str(work), "inputs": inputs}
    try:
        session = run_sessions(spec, args.seconds, started)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    facts = {"triples": inputs["n_lines"] - inputs["n_noise"], "n_lines": inputs["n_lines"]}
    e2e = end_to_end(session, peak_rss_mb)
    layers = per_layer(session, facts) if args.trace else {}
    closure = layers.get("trace.closure_max_s", {"value": 0.0})["value"]
    errors = list(session["errors"])
    if closure > 1e-6:
        errors.append(f"trace: self times miss a command's duration by {closure:.3g}s")
    stress = None
    if args.trace:
        stress = sum(layers[k]["value"] for k in STRESS[args.workload])
        layers["trace.stress_share"] = _metric(stress, "ratio", 1)

    wanted = "per_layer" if args.trace else "end_to_end"
    measured = layers if args.trace else e2e
    missing = [d["name"] for d in declared[wanted] if d["name"] not in measured]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "load_average": {"start": load_start, "end": os.getloadavg()},
        "wall_s": time.time() - started, "sessions": session["sessions"],
        "attempted": session["attempted"], "failed": len(session["errors"]),
        "errors": errors, "end_to_end": e2e, "per_layer": layers,
        "digests": session["digests"],
    }
    results = ROOT / args.results_dir
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")

    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        for name, m in sorted(metrics.items()):
            print(f"{section:10s} {name:48s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    if stress is not None:
        print(f"stress     {'+'.join(STRESS[args.workload])}: {stress:.3f} of the traced pass")
    for e in errors:
        print(f"FAILED     {e}")
    correct = not errors
    line = {
        "correct": correct, "attempted": session["attempted"],
        "failed": max(len(session["errors"]), 0 if correct else 1),
        "metrics": {d["name"]: {"value": measured[d["name"]]["value"], "unit": d["unit"]}
                    for d in declared[wanted] if d["name"] in measured},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
