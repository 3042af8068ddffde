"""The three workloads: the CLI commands of one pass, and the check of each output.

A run first repeats the workload's `ingest` to time set-up, then repeats
whole passes (ingest included) until the run's seconds are spent. Every
command's outputs are checked after every pass and digested, so a pass
whose bytes differ from the first pass counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from patkg.archive import load_archive

MODELS = ("transe_l1", "transe_l2", "transr", "rescal", "distmult", "complex", "rotate")


class CheckFailed(Exception):
    pass


@dataclass
class Cmd:
    kind: str  # ingest | train | eval | eval_filtered | neighbors | proximity | expansion
    argv: list[str]
    outputs: list[Path]
    params: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.params.get('label', '')}"


@dataclass
class Workload:
    ingest: Cmd
    commands: list[Cmd]  # one pass after the ingest
    facts: dict


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def _train(store: Path, model: str, out: Path, *extra: str, dim: int, epochs: int,
           batch: int = 512) -> Cmd:
    archive = out / f"{model}.kge"
    report = out / f"{model}.train.txt"
    argv = ["train", str(store), model, str(archive), "--dim", str(dim), "--epochs", str(epochs),
            "--batch-size", str(batch), "--negatives", "4", "--seed", "7", "--report", str(report),
            *extra]
    return Cmd("train", argv, [archive, report],
               {"label": model, "epochs": epochs})


def build(name: str, inputs: dict, work: Path) -> Workload:
    store = work / "store.tsv"
    ingest = Cmd("ingest", ["ingest", inputs["raw_triples"], str(store)],
                 [store, Path(f"{store}.vocab")], {"label": "store"})
    facts = {"store": str(store), "triples": inputs["n_lines"] - inputs["n_noise"],
             "dropped": inputs["n_noise"]}
    if name == "fit-1x":
        cmds = [_train(store, m, work, dim=50, epochs=1) for m in MODELS]
    elif name == "rank-1x":
        split = ["--test-fraction", "0.03"]
        facts["test_fraction"] = 0.03
        cmds = [_train(store, m, work, *split, dim=50, epochs=1, batch=2048)
                for m in ("transe_l2", "rescal")]
        for model, filtered in (("transe_l2", False), ("rescal", False), ("transe_l2", True)):
            kind = "eval_filtered" if filtered else "eval"
            report = work / f"{model}.{kind}.txt"
            argv = ["eval", str(work / f"{model}.kge"), str(store), str(report), "-K", "100",
                    "--seed", "3", *split] + (["--filtered"] if filtered else [])
            cmds.append(Cmd(kind, argv, [report], {"label": model, "K": 100}))
        for inv in inputs["inventors"][:20]:
            out = work / f"nb_{inv}.tsv"
            argv = ["neighbors", str(work / "transe_l2.kge"), f"inventor:{inv}", str(out),
                    "-k", "10", "--kind-filter", "patent"]
            cmds.append(Cmd("neighbors", argv, [out], {"label": inv, "k": 10}))
        entities = work / "entities.txt"
        entities.write_text("".join(f"patent:{p}\n" for p in inputs["patents"][:330]),
                            encoding="utf-8")
        matrix = work / "matrix.tsv"
        cmds.append(Cmd("proximity", ["proximity", str(work / "transe_l2.kge"), str(entities),
                                      "patent", str(matrix)], [matrix],
                        {"label": "patents", "n": 330}))
    elif name == "study-5x":
        models = ("transe_l2", "distmult")
        cmds = [_train(store, m, work, "--train-on-all", dim=32, epochs=1, batch=2048)
                for m in models]
        report = work / "expansion.txt"
        outputs = [report] + [work / f"expansion_inventor_{s}.csv" for s in ("cdf", "profiles")]
        argv = ["expansion", *(str(work / f"{m}.kge") for m in models), inputs["records"],
                inputs["universe"], str(report), "--agent-kind", "inventor", "--min-patents", "30"]
        cmds.append(Cmd("expansion", argv, outputs,
                        {"label": "inventor", "records": inputs["eligible_records"] * len(models),
                         "models": len(models)}))
    else:
        raise KeyError(name)
    return Workload(ingest, cmds, facts)


# ---- output checks ------------------------------------------------------------

def _field(text: str, key: str) -> str:
    m = re.search(rf"^{re.escape(key)}: (\S+)$", text, re.M)
    if m is None:
        raise CheckFailed(f"report lacks {key!r}")
    return m.group(1)


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check(cmd: Cmd, stdout: str, facts: dict, counts: dict) -> float:
    """Check one command's outputs; return the work it did (triples, queries, ...)."""
    for p in cmd.outputs:
        _need(p.exists(), f"missing output {p.name}")
    if cmd.kind == "ingest":
        m = re.match(r"ingested (\d+) triples, (\d+) entities", stdout)
        _need(m is not None and int(m.group(1)) == facts["triples"], f"ingest kept {stdout!r}")
        _need(counts.get("ingestion.dropped", 0) == facts["dropped"], "ingest drop count")
        vocab_lines = cmd.outputs[1].read_text(encoding="utf-8").count("\n")
        _need(vocab_lines == int(m.group(2)), "vocab sidecar size")
        return float(m.group(1))
    if cmd.kind == "train":
        params, vocab = load_archive(cmd.outputs[0])
        _need(vocab is not None and vocab.fingerprint() == params.vocab_fingerprint
              == facts["fingerprint"], "archive vocabulary fingerprint")
        _need(bool(np.isfinite(params.entities).all()) and all(
            np.isfinite(b).all() for blocks in params.relations.values() for b in blocks.values()),
            "archive holds non-finite values")
        losses = cmd.outputs[1].read_text(encoding="utf-8").split("epoch_mean_loss:\n")[1].split()
        _need(len(losses) == 2 * cmd.params["epochs"]
              and all(math.isfinite(float(x)) for x in losses[1::2]), "train report losses")
        m = re.search(r" on (\d+) triples", stdout)
        _need(m is not None, "train triple count")
        return float(m.group(1)) * cmd.params["epochs"]
    if cmd.kind in ("eval", "eval_filtered"):
        text = cmd.outputs[0].read_text(encoding="utf-8")
        queries = int(_field(text, "queries"))
        mr, mrr = float(_field(text, "mr")), float(_field(text, "mrr"))
        hits = [float(_field(text, f"hits@{k}")) for k in (1, 3, 10)]
        n_test = round(facts["test_fraction"] * facts["triples"])
        _need(1.0 <= mr <= cmd.params["K"] + 1, f"MR {mr} outside [1, K+1]")
        _need(0.0 < mrr <= 1.0, f"MRR {mrr}")
        _need(hits[0] <= hits[1] <= hits[2] <= 1.0, f"hits not monotone {hits}")
        _need(queries == 2 * n_test - counts.get("evaluator.skipped", 0), "query count")
        return float(queries)
    if cmd.kind == "neighbors":
        lines = cmd.outputs[0].read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        prox = [float(r[3]) for r in rows]
        _need(len(rows) == cmd.params["k"], f"{len(rows)} neighbor rows")
        _need(all(a >= b for a, b in zip(prox, prox[1:])), "neighbors not in descending order")
        _need(all(r[2] == "patent" for r in rows), "neighbor kind filter")
        return 1.0
    if cmd.kind == "proximity":
        lines = cmd.outputs[0].read_text(encoding="utf-8").splitlines()
        matrix = np.array([[float(v) for v in line.split("\t")[1:]] for line in lines[1:]])
        n = cmd.params["n"]
        _need(matrix.shape == (n, n), f"matrix shape {matrix.shape}")
        _need(bool((matrix == matrix.T).all()), "matrix not symmetric")
        _need(bool((np.diag(matrix) == 1.0).all()), "matrix diagonal not 1")
        return float(n * n)
    if cmd.kind == "expansion":
        text = cmd.outputs[0].read_text(encoding="utf-8")
        table = text.split("profile_entries\n")[1].splitlines()
        rows = [line.split("\t") for line in table if line]
        _need(len(rows) == cmd.params["models"], "expansion model rows")
        aucs = [float(r[1]) for r in rows]
        shares = [float(r[2]) for r in rows]
        _need(all(0.0 <= a <= 1.0 for a in aucs), f"AUC outside [0,1]: {aucs}")
        _need(abs(sum(shares) - 1.0) < 1e-9, f"explainability sums to {sum(shares)}")
        _need(int(_field(text, "agents")) > 0, "no eligible agents")
        return float(cmd.params["records"])
    raise CheckFailed(f"unknown command kind {cmd.kind}")
