"""One workload session in a fresh process: set-up, passes, trace, microbenchmarks.

Started by run.py with the generated inputs described in a JSON file. It
drives the CLI in-process through `patkg.cli.main`, one command after the
other (a closed loop with one client), and writes what it measured as
JSON for run.py to summarise:

    python3 perfbench/session.py <inputs.json> <out.json>
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import MODULES, LogCounter, Tracer
from workloads import CheckFailed, build, check, digest

SETUP_MAX = 15
OVERRUN = 1.25  # a pass may end this far past the run time, never further
PROBE_LOOPS = 200_000
PROBE_EVERY_S = 0.5
REF_S = 0.02  # nominal probe time that scaled seconds refer to


class Probe:
    """Host-speed probe: a fixed pure-Python loop timed between commands.

    On a shared host the CPU speed drifts by tens of percent over tens of
    seconds. A command's time is scaled by REF_S over the probe time
    around it, which cancels most of that drift (see README.md).
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end time, seconds)

    def tick(self, force: bool = False) -> None:
        if force or not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            s = 0
            for i in range(PROBE_LOOPS):
                s += i * i
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def around(self, start: float, end: float) -> float:
        """Mean of the last probe before `start` and the first after `end`."""
        before = [dt for t, dt in self.samples if t <= start][-1:]
        after = [dt for t, dt in self.samples if t - dt >= end][:1]
        picks = before + after
        return sum(picks) / len(picks)


class Session:
    def __init__(self, spec: dict) -> None:
        from patkg import cli

        self.main = cli.main
        self.work = Path(spec["work_dir"])
        self.wl = build(spec["workload"], spec["inputs"], self.work)
        self.counter = LogCounter()
        self.counter.attach()
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.probe = Probe()

    def run(self, cmd, tracer: Tracer | None = None) -> dict:
        """Run one CLI command, check its outputs; returns its timing record."""
        self.counter.counts.clear()
        out, err = io.StringIO(), io.StringIO()
        rc: object = None
        command = cmd.argv[0]
        self.probe.tick()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = self.main(cmd.argv)
                else:
                    with tracer.span(f"cli.{command}"):
                        rc = self.main(cmd.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        self.attempted += 1
        record = {"kind": cmd.kind, "name": cmd.name, "start": t0, "end": t1,
                  "seconds": t1 - t0, "work": 0.0,
                  "counts": dict(self.counter.counts), "ok": False}
        try:
            if rc != 0:
                raise CheckFailed(f"exit {rc}: {err.getvalue().strip()[-300:]}")
            record["work"] = check(cmd, out.getvalue(), self.wl.facts, self.counter.counts)
            d = digest(cmd.outputs)
            if self.digests.setdefault(cmd.name, d) != d:
                raise CheckFailed("output bytes differ from the first pass")
            record["ok"] = True
        except Exception as exc:  # any failed check is one failed operation
            self.errors.append(f"{cmd.name}: {type(exc).__name__}: {exc}")
        return record

    def scale(self, records: list[dict]) -> None:
        """Give each record the probe time around it (`ref_s`)."""
        self.probe.tick(force=True)
        for r in records:
            r["ref_s"] = self.probe.around(r.pop("start"), r.pop("end"))

    def setup(self, seconds: float) -> list[dict]:
        from patkg.graph import Vocabulary

        records = []
        start = time.perf_counter()
        while not records or (
                len(records) < SETUP_MAX and time.perf_counter() - start < seconds):
            records.append(self.run(self.wl.ingest))
        self.scale(records)
        sidecar = Path(f"{self.wl.facts['store']}.vocab")
        self.wl.facts["fingerprint"] = Vocabulary.from_lines(
            sidecar.read_text(encoding="utf-8").splitlines()).fingerprint()
        return records

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        out = []
        start = time.perf_counter()
        while not out or (trace and len(out) < 2) or (
                time.perf_counter() - start + out[-1]["wall_s"] <= seconds * OVERRUN):
            traced = trace and len(out) % 2 == 1
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                cmds = [self.run(c, tracer) for c in [self.wl.ingest, *self.wl.commands]]
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.scale(cmds)
            entry = {"traced": traced, "commands": cmds,
                     "wall_s": sum(c["seconds"] for c in cmds)}
            if tracer is not None:
                entry["layers"] = layer_metrics(tracer)
            out.append(entry)
        return out


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    selfs = tracer.self_times()
    by_name: dict[tuple[str, str], list[tuple[float, float, float]]] = defaultdict(list)
    module_self: dict[str, float] = defaultdict(float)
    total = 0.0
    for (name, parent, start, end, label, work), own in zip(tracer.spans, selfs):
        by_name[(name, label)].append((end - start, own, work))
        module_self[name.split(".")[0]] += own
        if parent < 0:
            total += end - start
    m: dict[str, float] = {}

    def calls(name: str) -> list[tuple[float, float, float]]:
        return [x for (n, _), xs in by_name.items() if n == name for x in xs]

    for name in ("ingestion.parse_triples_file", "ingestion.load_store",
                 "ingestion.write_triples_file", "graph.split", "graph.triple_arrays",
                 "reports.write_text"):
        if calls(name):
            m[f"{name}.s"] = _median([d for d, _, _ in calls(name)])
    for (name, label), xs in by_name.items():
        if name == "trainer.train":
            m[f"trainer.train.s_per_epoch.{label}"] = _median([d / w for d, _, w in xs])
            m[f"trainer.train.self_s.{label}"] = _median([s for _, s, _ in xs])
        elif name == "evaluator.evaluate":
            m[f"evaluator.evaluate.self_s.{label}"] = _median([s for _, s, _ in xs])
        elif name == "expansion.run_study":
            m["expansion.run_study.self_s"] = _median([s for _, s, _ in xs])
        elif name.startswith("cli."):
            m[f"{name}.self_s"] = _median([s for _, s, _ in xs])
    for module in MODULES:
        m[f"layer.{module}.self_s"] = module_self.get(module, 0.0)
        m[f"layer.{module}.self_share"] = module_self.get(module, 0.0) / total
    sample_self = sum(s for _, s, _ in calls("graph.sample_corrupt"))
    m["layer.graph.sample_corrupt.self_share"] = sample_self / total
    m["trace.spans"] = float(len(tracer.spans))
    m["trace.closure_max_s"] = tracer.roots_closure()
    return m


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    session = Session(spec)
    setup = session.setup(spec["setup_seconds"])
    passes = session.passes(spec["seconds"], spec["trace"])
    result = {"setup": setup, "passes": passes}
    if spec["trace"]:
        import microbench

        inputs = spec["inputs"]
        result["micro"] = microbench.run(
            Path(session.wl.facts["store"]), session.work / "transe_l2.kge",
            Path(inputs["micro_records"]), Path(inputs["micro_universe"]),
            inputs["inventors"], inputs["patents"], session.work, spec["seed"])
    result["attempted"] = session.attempted
    result["errors"] = session.errors
    result["digests"] = session.digests
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
