"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and writes plain files the
CLI reads; the program under test receives only these files. A few noise
lines (duplicate facts, self-citations, lines with an empty endpoint) are
mixed into each raw triple file so that ingest has something to drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

# Same planted graph as the acceptance criteria use (tests/conftest.py,
# ACCEPT_GRAPH_ARGS), with the seed taken from the benchmark instead.
ACCEPT_GRAPH_ARGS = dict(
    communities=5,
    patents_per_community=330,
    inventors_per_community=60,
    assignees_per_community=12,
    intra_cite_prob=0.023,
    inter_cite_prob=0.0004,
)

# study-5x shape: 130 subsections x 5 groups, Zipf-skewed agents.
STUDY_RECORDS = 10_000
STUDY_SUBSECTIONS = 130
STUDY_GROUPS_PER_SUBSECTION = 5
STUDY_INVENTORS = 2_000
STUDY_ASSIGNEES = 500
STUDY_CITES_PER_PATENT = 5.0
STUDY_MIN_PATENTS = 30

NOISE_SHARE = 0.005  # of each kind: duplicates, self-citations, empty endpoints


@dataclass(frozen=True)
class GraphInputs:
    raw_triples: Path
    n_lines: int
    n_noise: int
    patents: list[str]
    inventors: list[str]


@dataclass(frozen=True)
class StudyInputs(GraphInputs):
    records: Path
    universe: Path
    groups: list[str]
    eligible_records: int  # records of inventors holding >= STUDY_MIN_PATENTS


def _write_raw(path: Path, lines: list[str], patents: list[str], rng) -> int:
    """Write `lines` with seeded noise lines spliced in; returns the noise count."""
    n = max(1, int(NOISE_SHARE * len(lines)))
    dup = [lines[i] for i in rng.integers(0, len(lines), size=n)]
    self_cite = [f"patent:{p}\tcite\tpatent:{p}" for p in rng.choice(patents, size=n)]
    empty = [f"inventor:\twrite\tpatent:{p}" for p in rng.choice(patents, size=n)]
    noise = dup + self_cite + empty
    positions = np.sort(rng.integers(0, len(lines) + 1, size=len(noise)))
    out: list[str] = ["# benchmark input"]
    j = 0
    for i, line in enumerate(lines):
        while j < len(noise) and positions[j] == i:
            out.append(noise[j])
            j += 1
        out.append(line)
    out.extend(noise[j:])
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return len(noise)


def accept_graph(out_dir: Path, seed: int) -> GraphInputs:
    """The planted acceptance graph (~19.9k triples, 2,017 entities)."""
    from patkg.graph import EntityKind, generate_synthetic

    store = generate_synthetic(**ACCEPT_GRAPH_ARGS, seed=seed)
    refs = store.vocab.refs
    lines = [
        f"{refs[t.head].kind.value}:{refs[t.head].source_id}\t{t.relation.value}\t"
        f"{refs[t.tail].kind.value}:{refs[t.tail].source_id}"
        for t in store.triples
    ]
    patents = [refs[o].source_id for o in store.vocab.ordinals_of_kind(EntityKind.PATENT)]
    inventors = [refs[o].source_id for o in store.vocab.ordinals_of_kind(EntityKind.INVENTOR)]
    path = out_dir / "raw_triples.tsv"
    rng = np.random.default_rng(seed + 1)
    n_noise = _write_raw(path, lines, patents, rng)
    return GraphInputs(path, len(lines) + n_noise, n_noise, patents, inventors)


def _zipf_weights(n: int, s: float, offset: float) -> np.ndarray:
    w = 1.0 / (np.arange(n) + offset) ** s
    return w / w.sum()


def study_records(out_dir: Path, seed: int) -> StudyInputs:
    """Patent records, group universe and raw triples at 5x the acceptance graph.

    Each inventor drifts through the group universe, so its portfolio
    enters new groups near the ones it already holds; patents cite about
    five earlier patents, half of them in the same group.
    """
    rng = np.random.default_rng(seed)
    subsections = [f"{chr(65 + s // 20)}{s % 20:02d}" for s in range(STUDY_SUBSECTIONS)]
    groups = [f"{sub}{chr(65 + g)}" for sub in subsections for g in range(STUDY_GROUPS_PER_SUBSECTION)]
    n_groups = len(groups)

    inv_w = _zipf_weights(STUDY_INVENTORS, 0.4, 10.0)
    asg_of_inventor = rng.choice(STUDY_ASSIGNEES, size=STUDY_INVENTORS,
                                 p=_zipf_weights(STUDY_ASSIGNEES, 1.0, 4.0))
    position = rng.integers(0, n_groups, size=STUDY_INVENTORS)
    leads = rng.choice(STUDY_INVENTORS, size=STUDY_RECORDS, p=inv_w)
    co = rng.choice(STUDY_INVENTORS, size=(STUDY_RECORDS, 2), p=inv_w)
    n_co = rng.integers(0, 3, size=STUDY_RECORDS)
    n_extra_groups = rng.integers(0, 3, size=STUDY_RECORDS)
    n_cites = rng.poisson(STUDY_CITES_PER_PATENT, size=STUDY_RECORDS)
    start = date(2000, 1, 3)

    record_lines: list[str] = []
    triple_lines: list[str] = [
        f"subsection:{g[:3]}\tcomprise\tgroup:{g}" for g in groups
    ]
    patents = [f"{seed % 1000:03d}{i:07d}" for i in range(STUDY_RECORDS)]
    by_group: list[list[int]] = [[] for _ in range(n_groups)]
    held = np.zeros(STUDY_INVENTORS, dtype=np.int64)
    for i, pid in enumerate(patents):
        lead = int(leads[i])
        if rng.random() < 0.3:
            position[lead] = (position[lead] + rng.integers(-12, 13)) % n_groups
        pos = int(position[lead])
        grp = {pos} | {int((pos + d) % n_groups) for d in rng.integers(-6, 7, size=n_extra_groups[i])}
        inventors = {lead} | {int(c) for c in co[i, : n_co[i]]}
        held[list(inventors)] += 1
        assignee = int(asg_of_inventor[lead]) if rng.random() < 0.9 else None
        day = start + timedelta(days=i * 7300 // STUDY_RECORDS)
        codes = sorted(groups[g] for g in grp)
        inv_ids = sorted(f"i{v:05d}" for v in inventors)
        asg_ids = [f"a{assignee:04d}"] if assignee is not None else []
        record_lines.append(
            f"{pid}\t{day.isoformat()}\t{','.join(codes)}\t{','.join(inv_ids)}\t{','.join(asg_ids)}"
        )
        triple_lines += [f"group:{c}\tcontain\tpatent:{pid}" for c in codes]
        triple_lines += [f"inventor:{v}\twrite\tpatent:{pid}" for v in inv_ids]
        triple_lines += [f"assignee:{a}\town\tpatent:{pid}" for a in asg_ids]
        if i:
            local = by_group[pos]
            cited: set[int] = set()
            for _ in range(int(n_cites[i])):
                if local and rng.random() < 0.5:
                    cited.add(local[int(rng.integers(0, len(local)))])
                else:
                    cited.add(int(rng.integers(0, i)))
            triple_lines += [f"patent:{pid}\tcite\tpatent:{patents[j]}" for j in sorted(cited)]
        by_group[pos].append(i)

    records = out_dir / "records.tsv"
    records.write_text("\n".join(record_lines) + "\n", encoding="utf-8")
    universe = out_dir / "universe.txt"
    universe.write_text("\n".join(groups) + "\n", encoding="utf-8")
    raw = out_dir / "raw_triples.tsv"
    n_noise = _write_raw(raw, triple_lines, patents, np.random.default_rng(seed + 1))
    inventors = [f"i{v:05d}" for v in np.nonzero(held)[0]]
    eligible = int(held[held >= STUDY_MIN_PATENTS].sum())
    return StudyInputs(raw, len(triple_lines) + n_noise, n_noise, patents, inventors,
                       records, universe, groups, eligible)
