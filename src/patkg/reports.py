"""Structured text / TSV / CSV exports with stable ordering.

Builders return lines; `write_text` alone ends them with `\\n` and writes UTF-8.
Keys come in a fixed order and floats as `repr`-faithful 12-significant-digit
text, so identical inputs produce byte-identical files and diffs stay meaningful.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import repeat
from typing import get_type_hints

import numpy as np

from .evaluator import EvalReport, HITS_CUTOFFS
from .expansion import ExpansionReport, cumulative_distribution
from .graph import KINDS, EntityKind, RelationKind, Vocabulary
from .models import ModelParams
from .proximity import NeighborHit
from .trainer import TrainReport


_FLOAT = ".12g"  # the format of every number a report writes


def fnum(x: float) -> str:
    return format(float(x), _FLOAT)


def _fnums(values: list[float]) -> str:
    """`fnum` of each Python float, tab-joined: `%` formatting writes the bytes `format` does, in one call."""
    return "\t".join(repeat("%" + _FLOAT, len(values))) % tuple(values)


# How a config field is written, by its declared type; a field of any other type is an Enum.
_CONFIG_FORMATS = {bool: lambda value: str(value).lower(), float: fnum, int: str}


def _config_fields(config) -> list[tuple[str, str]]:
    """(name, text) of each field of a config dataclass, in declaration order."""
    types = get_type_hints(type(config))
    return [(f.name, _CONFIG_FORMATS.get(types[f.name], lambda enum: enum.value)(getattr(config, f.name)))
            for f in fields(config)]


def eval_report_text(report: EvalReport, model_name: str) -> list[str]:
    lines = [
        "patkg eval-report",
        f"model: {model_name}",
        f"queries: {report.n_queries}",
        f"mr: {fnum(report.mr)}",
        f"mrr: {fnum(report.mrr)}",
    ]
    lines += [f"hits@{k}: {fnum(report.hits[k])}" for k in HITS_CUTOFFS]
    short = {"corruptions_per_side": "K", "tie_rule": "tie"}  # the names on the `config:` line
    config = " ".join(f"{short.get(name, name)}={text}" for name, text in _config_fields(report.config))
    lines.append(f"config: {config}")
    lines.append("per-relation:")
    lines.append("relation\tqueries\tmr\tmrr\t" + "\t".join(f"hits@{k}" for k in HITS_CUTOFFS))
    for rel in RelationKind:
        metrics = report.per_relation.get(rel)
        if metrics is None:
            continue
        lines.append("\t".join([rel.value, str(metrics.queries), fnum(metrics.mr), fnum(metrics.mrr)]
                               + [fnum(metrics.hits[k]) for k in HITS_CUTOFFS]))
    return lines


def train_report_text(report: TrainReport) -> list[str]:
    lines = ["patkg train-report", f"model: {report.kind.value}"]
    lines += [f"{name}: {text}" for name, text in _config_fields(report.config)]
    lines.append("epoch_mean_loss:")
    lines += [f"{i + 1}\t{fnum(loss)}" for i, loss in enumerate(report.epoch_losses)]
    return lines


def neighbors_tsv(hits: list[NeighborHit]) -> list[str]:
    lines = ["rank\tentity\tkind\tproximity"]
    for rank, hit in enumerate(hits, start=1):
        kind = hit.entity.kind.value
        lines.append(f"{rank}\t{kind}:{hit.entity.source_id}\t{kind}\t{fnum(hit.proximity)}")
    return lines


def matrix_tsv(labels: list[str], matrix: np.ndarray) -> list[str]:
    header = "entity\t" + "\t".join(labels)
    return [header] + [label + "\t" + _fnums(row.tolist()) for label, row in zip(labels, matrix)]


def embeddings_tsv(params: ModelParams, vocab: Vocabulary,
                   kind_filter: set[EntityKind] | None = None) -> list[str]:
    return [
        f"{label}\t" + _fnums(params.entities[ordinal].tolist())
        for label, ordinal in vocab.ordinals.items() if not kind_filter or KINDS[vocab.kinds[ordinal]] in kind_filter
    ]


def expansion_report_text(report: ExpansionReport) -> list[str]:
    lines = ["patkg expansion-report", f"min_patents: {report.min_patents}"]
    if report.agent_ids:
        lines.append(f"agent_class: {report.agent_kind.value}")
        lines.append(f"agents: {len(report.agent_ids)}")
        lines.append("model\tcombined_auc\texplainability\tprofile_entries")
        for name in sorted(report.combined_auc):
            lines.append(f"{name}\t{fnum(report.combined_auc[name])}\t{fnum(report.explainability[name])}\t"
                         f"{len(report.combined_profiles[name])}")
    return lines


def expansion_cdf_csv(report: ExpansionReport) -> list[str]:
    """`model,x,proportion` rows of each model's combined-profile CDF."""
    lines = ["model,x,proportion"]
    for name in sorted(report.combined_profiles):
        for x, proportion in cumulative_distribution(report.combined_profiles[name]):
            lines.append(f"{name},{fnum(x)},{fnum(proportion)}")
    return lines


def expansion_profiles_csv(report: ExpansionReport) -> list[str]:
    """`model,position,percentile` rows of each model's combined profile."""
    lines = ["model,position,percentile"]
    for name in sorted(report.combined_profiles):
        for i, pp in enumerate(report.combined_profiles[name].entries, start=1):
            lines.append(f"{name},{i},{fnum(pp)}")
    return lines


def write_text(path, lines: list[str]) -> None:
    """Write `lines` as UTF-8, each ended with `\\n`; an empty list writes an empty file."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(line + "\n" for line in lines)
