"""Spans around the calls one patkg module makes into another, plus log counters.

The tracer replaces public functions in the patkg module namespaces with
wrappers that record (name, parent, start, end, label, work) in memory.
Nothing under src/ changes: `install` patches the attributes and
`uninstall` puts the originals back. A span's self time is its duration
minus the part covered by its child spans.
"""

from __future__ import annotations

import importlib
import logging
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("cli", "ingestion", "graph", "models", "trainer", "evaluator",
           "archive", "proximity", "expansion", "reports")

# Public functions traced, by defining module. Each one is patched in every
# patkg namespace that refers to it, so calls through `from .x import f`
# names are traced too.
TARGETS = {
    "ingestion": ("parse_triples_file", "write_triples_file", "load_store",
                  "parse_patent_records", "load_portfolios", "load_universe"),
    "graph": ("split", "sample_corrupt"),
    "models": ("scores", "weighted_gradients", "init_params"),
    "trainer": ("train",),
    "evaluator": ("evaluate", "rank_target"),
    "archive": ("save_archive", "load_archive", "check_fingerprint"),
    "proximity": ("nearest_neighbors", "pairwise_matrix"),
    "expansion": ("run_study", "group_proximity_matrix", "profile_from_phi", "percentiles"),
    "reports": ("write_text", "eval_report_text", "train_report_text", "neighbors_tsv",
                "matrix_tsv", "expansion_report_text", "expansion_cdf_csv",
                "expansion_profiles_csv"),
}


def _describe(name: str, args: tuple, kwargs: dict) -> tuple[str, float]:
    """(label, work) recorded with a span: the model and its row or epoch count."""
    if name in ("models.scores", "models.weighted_gradients"):
        return args[0].kind.value, float(len(args[1]))
    if name == "trainer.train":
        return args[1].value, float(args[2].epochs)
    if name == "evaluator.evaluate":
        config = args[3] if len(args) > 3 else kwargs.get("config")
        return ("filtered" if config is not None and config.filtered else "raw"), float(len(args[1]))
    if name == "graph.sample_corrupt":
        return ("filtered" if kwargs.get("filtered") else "raw"), 1.0
    if name == "expansion.profile_from_phi":
        return "", float(len(args[1]))
    return "", 1.0


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, start, end, label, work]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, label: str = "", work: float = 1.0):
        idx = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, label, work]
        self.spans.append(record)
        self._stack.append(idx)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            label, work = _describe(name, args, kwargs)
            with tracer.span(name, label, work):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from patkg.graph import TripleStore

        modules = {m: importlib.import_module(f"patkg.{m}") for m in MODULES}
        originals = {}
        for owner, names in TARGETS.items():
            for attr in names:
                fn = getattr(modules[owner], attr)
                originals[id(fn)] = (fn, self._wrap(f"{owner}.{attr}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        method = TripleStore.triple_arrays
        self._patched.append((TripleStore, "triple_arrays", method))
        TripleStore.triple_arrays = self._wrap("graph.triple_arrays", method)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]

    def roots_closure(self) -> float:
        """Largest gap between a root span's duration and the self times under it."""
        selfs = self.self_times()
        root_of = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s[1] < 0 else root_of[s[1]])
        totals: dict[int, float] = defaultdict(float)
        for i, st in enumerate(selfs):
            totals[root_of[i]] += st
        return max((abs(totals[i] - (s[3] - s[2])) for i, s in enumerate(self.spans) if s[1] < 0),
                   default=0.0)


class LogCounter(logging.Handler):
    """Turns patkg's log-only events into counts.

    Counts: triples dropped by ingest, eval queries clamped and skipped,
    and expansion emissions skipped for lack of targets.
    """

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.counts: dict[str, int] = defaultdict(int)

    def emit(self, record: logging.LogRecord) -> None:
        msg, args = record.msg, record.args
        if record.name == "patkg.ingestion" and msg.startswith("%s: dropped"):
            self.counts["ingestion.dropped"] += sum(args[1:4])
        elif record.name == "patkg.evaluator" and msg.startswith("skipped"):
            self.counts["evaluator.skipped"] += args[0]
        elif record.name == "patkg.evaluator" and msg.startswith("K=%d exceeded"):
            self.counts["evaluator.clamped"] += args[1]
        elif record.name == "patkg.expansion" and "skipping percentile emission" in msg:
            self.counts["expansion.skipped_emissions"] += 1

    def attach(self) -> None:
        logger = logging.getLogger("patkg")
        logger.setLevel(logging.INFO)
        logger.propagate = False
        logger.addHandler(self)
