"""The patkg names the benchmark's tracer and microbenchmarks call, checked without running either.

`perfbench/tracer.py` patches its `TARGETS` by name, and `perfbench/microbench.py` calls the
expansion functions in fixed shapes. A rename or a new signature fails here, not in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from patkg import expansion, ingestion
from patkg.graph import EntityKind, Vocabulary
from patkg.models import ModelKind, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(tracer):
    for owner, names in tracer.TARGETS.items():
        module = importlib.import_module(f"patkg.{owner}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"patkg.{owner} lacks {missing}"


def test_microbench_expansion_calls_run_traced(tracer, tmp_path):
    # the calls `microbench.run` makes on the study records, on a tiny input, with the tracer installed
    records, universe = tmp_path / "records.tsv", tmp_path / "universe.txt"
    records.write_text("p1\t1999-01-01\tA01A\ti1,i2\ta1\np2\t1998-01-01\tA01A,B01B\ti1\t\n"
                       "p3\t2000-01-01\tC01C\ti1\ta1\np4\t2000-01-01\tD01D\ti2\ta1\n", encoding="utf-8")
    universe.write_text("A01A\nB01B\nC01C\nD01D\n", encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        codes = ingestion.load_universe(universe)
        portfolios = ingestion.load_portfolios(records, EntityKind.INVENTOR)
        longest = max(portfolios, key=lambda p: (len(p), p.agent_id))
        group_vocab = Vocabulary()
        for code in codes:
            group_vocab.add(EntityKind.GROUP, code)
        group_params = init_params(ModelKind.TRANSE_L2, len(group_vocab), 32, 1)
        phi = expansion.group_proximity_matrix(group_params, group_vocab, codes)
        profile = expansion.profile_from_phi(phi, longest, codes)
        values = [(code, float(p)) for code, p in zip(codes[1:], phi[0, 1:])]
        expansion.percentiles(values)
    finally:
        spans.uninstall()
    assert (longest.agent_id, longest.patent_ids, len(profile)) == ("i1", ["p2", "p1", "p3"], 1)
    work = {name: work for name, _, _, _, _, work in spans.spans}
    assert work["expansion.profile_from_phi"] == len(longest)
    assert {"ingestion.load_universe", "ingestion.load_portfolios", "ingestion.parse_patent_records",
            "expansion.group_proximity_matrix", "proximity.pairwise_matrix", "expansion.percentiles"} <= set(work)
