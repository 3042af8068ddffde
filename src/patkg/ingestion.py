"""File parsers: triple files, patent-record files, group universes.

Triple file, one fact per line, tab-separated:

    <head_kind>:<head_id>\t<relation>\t<tail_kind>:<tail_id>

e.g. ``inventor:4074775\twrite\tpatent:5252504``. Kind and relation
tokens are lowercase and exact; lines starting with `#` are comments.
Ingestion deduplicates repeated facts silently and drops self-citations
and lines with missing endpoints, logging the counts; anything else
malformed raises ParseError with the line number.

Patent-record file, tab-separated:

    patent_id\tYYYY-MM-DD\tgroup1,group2,...\tinventor1,...\tassignee1,...

Empty inventor/assignee fields are allowed; such records are simply
excluded from that agent kind's portfolios.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import MalformedCode, ParseError, SchemaViolation
from .graph import RELATION_INDEX, RELATIONS, EntityKind, RelationKind, Triple, TripleStore, Vocabulary
from .graph import pack_keys, parse_label

log = logging.getLogger(__name__)

_RELATION_CODES = {r.value: i for i, r in enumerate(RELATIONS)}
_GROUP_PREFIX = re.compile(r"^[A-Za-z][0-9][0-9][A-Za-z]")


def parse_triples_file(path, vocab: Vocabulary | None = None) -> TripleStore:
    """Parse a triple file into a store, assigning ordinals first-seen.

    Passing a pre-built vocabulary (e.g. from a `.vocab` sidecar) pins
    the ordinal assignment regardless of triple order. The earliest bad
    line raises: a schema error wins over a ParseError on a later line.
    """
    store = TripleStore(vocab)
    known, add = store.vocab.ordinals, store.vocab.add_label
    rows = array("q")  # head, relation code, tail, line number per fact line
    missing = 0
    error = None
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ParseError(f"line {line_no}: expected 3 tab-separated fields, got {len(fields)}")
                head, rel, tail = known.get(fields[0]), _RELATION_CODES.get(fields[1]), known.get(fields[2])
                if head is None or rel is None or tail is None:  # unseen: the token checks, in order
                    _, head_id = parse_label(fields[0], f"line {line_no}: ")
                    if rel is None:
                        raise ParseError(f"line {line_no}: unknown relation {fields[1]!r}")
                    _, tail_id = parse_label(fields[2], f"line {line_no}: ")
                    if not head_id or not tail_id:
                        missing += 1
                        continue
                    head, tail = add(fields[0]), add(fields[2])
                rows.extend((head, rel, tail, line_no))
    except ParseError as exc:
        error = exc  # raised once the lines before it are checked
    heads, rels, tails, line_nos = np.frombuffer(rows, dtype=np.int64).reshape(-1, 4).T
    # a pinned vocabulary may hold `kind:` labels, whose empty ids count as missing endpoints
    blanks = [known[f"{k.value}:"] for k in EntityKind if f"{k.value}:" in known]
    blank = np.isin(heads, blanks) | np.isin(tails, blanks)
    self_cite = ~blank & (rels == RELATION_INDEX[RelationKind.CITE]) & (heads == tails)
    kept = np.flatnonzero(~(blank | self_cite))
    first = kept[np.sort(np.unique(pack_keys(heads[kept], rels[kept], tails[kept]), return_index=True)[1])]
    try:
        store.add_triples(heads[first], rels[first], tails[first])
    except SchemaViolation as exc:
        raise SchemaViolation(f"line {line_nos[first[exc.row]]}: {exc}") from None
    if error is not None:
        raise error
    dropped = (int(self_cite.sum()), missing + int(blank.sum()), len(kept) - len(first))
    if any(dropped):
        log.info("%s: dropped %d self-citations, %d missing-endpoint lines, %d duplicates", path, *dropped)
    return store


def subsection_of(group_code: str) -> str:
    """Parent subsection code: the first 3 characters of the group code."""
    if len(group_code) < 4:
        raise MalformedCode(f"group code {group_code!r} shorter than 4 characters")
    return group_code[:3]


def derive_comprise(store: TripleStore, groups: set[str]) -> list[Triple]:
    """Add one <subsection, comprise, group> triple per group code.

    Subsection entities are created on demand; already-present triples
    are skipped, so the derivation is idempotent.
    """
    added: list[Triple] = []
    for code in sorted(groups):
        sub = store.add_entity(EntityKind.SUBSECTION, subsection_of(code))
        grp = store.add_entity(EntityKind.GROUP, code)
        triple = Triple(sub.ordinal, RelationKind.COMPRISE, grp.ordinal)
        if triple not in store:
            added.append(triple)
    store.add_triples([t.head for t in added], RELATION_INDEX[RelationKind.COMPRISE], [t.tail for t in added])
    return added


@dataclass(frozen=True, slots=True)
class PatentRecord:
    patent_id: str
    application_date: date
    groups: frozenset[str]
    inventors: frozenset[str]
    assignees: frozenset[str]


@dataclass(slots=True)
class AgentPortfolio:
    """Chronologically ordered patent events of one inventor or assignee."""

    agent_id: str
    agent_kind: EntityKind
    records: list[PatentRecord]

    def __len__(self) -> int:
        return len(self.records)


def _validate_group_code(code: str, line_no: int) -> str:
    if len(code) < 4 or not _GROUP_PREFIX.match(code):
        raise ParseError(
            f"line {line_no}: group code {code!r} must be >=4 chars "
            "with a letter-digit-digit-letter prefix"
        )
    return code


def parse_patent_records(path) -> list[PatentRecord]:
    """Parse a patent-record file, first occurrence winning on duplicate ids."""
    records: list[PatentRecord] = []
    seen: set[str] = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"line {line_no}: expected 5 tab-separated fields, got {len(parts)}")
            patent_id, date_text, groups_text, inventors_text, assignees_text = parts
            if not patent_id:
                raise ParseError(f"line {line_no}: empty patent id")
            try:
                application_date = date.fromisoformat(date_text)
            except ValueError:
                raise ParseError(f"line {line_no}: bad date {date_text!r}") from None
            groups = [g for g in groups_text.split(",") if g]
            if not groups:
                raise ParseError(f"line {line_no}: patent {patent_id} has no groups")
            for g in groups:
                _validate_group_code(g, line_no)
            if patent_id in seen:
                duplicates += 1
                continue
            seen.add(patent_id)
            records.append(
                PatentRecord(
                    patent_id=patent_id,
                    application_date=application_date,
                    groups=frozenset(groups),
                    inventors=frozenset(i for i in inventors_text.split(",") if i),
                    assignees=frozenset(a for a in assignees_text.split(",") if a),
                )
            )
    if duplicates:
        log.info("%s: skipped %d duplicate patent ids", path, duplicates)
    return records


def load_portfolios(path, agent_kind: EntityKind) -> list[AgentPortfolio]:
    """One portfolio per agent named in any record; `expansion.run_study` applies `min_patents`.

    Events are sorted by application date, ties broken by patent id, so
    the ordering is a total order and re-sorting is a no-op. Portfolios
    come back sorted by agent id.
    """
    if agent_kind not in (EntityKind.INVENTOR, EntityKind.ASSIGNEE):
        raise ValueError("agent_kind must be INVENTOR or ASSIGNEE")
    records = parse_patent_records(path)
    by_agent: dict[str, list[PatentRecord]] = {}
    for record in records:
        agents = record.inventors if agent_kind is EntityKind.INVENTOR else record.assignees
        for agent_id in agents:
            by_agent.setdefault(agent_id, []).append(record)
    portfolios = []
    for agent_id in sorted(by_agent):
        events = sorted(by_agent[agent_id], key=lambda r: (r.application_date, r.patent_id))
        portfolios.append(AgentPortfolio(agent_id, agent_kind, events))
    return portfolios


def load_universe(path) -> list[str]:
    """Ordered, unique group codes admissible in the expansion study."""
    codes: list[str] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            code = line.strip()
            if not code or code.startswith("#"):
                continue
            _validate_group_code(code, line_no)
            if code in seen:
                raise ParseError(f"line {line_no}: duplicate group code {code!r}")
            seen.add(code)
            codes.append(code)
    return codes


def write_triples_file(store: TripleStore, path) -> None:
    """Canonical TSV export in stored order plus a `.vocab` sidecar."""
    label = list(store.vocab.ordinals)
    columns = zip(store.heads.tolist(), store.rels.tolist(), store.tails.tolist())
    lines = [f"{label[h]}\t{RELATIONS[r].value}\t{label[t]}\n" for h, r, t in columns]
    Path(path).write_text("".join(lines), encoding="utf-8")
    Path(f"{path}.vocab").write_text(store.vocab.export_text(), encoding="utf-8")


def load_store(path) -> TripleStore:
    """Read a triple file, honouring a `.vocab` sidecar when present."""
    sidecar = Path(f"{path}.vocab")
    vocab = None
    if sidecar.exists():
        with open(sidecar, encoding="utf-8") as fh:  # not splitlines(): it also breaks inside ids
            vocab = Vocabulary.from_lines(fh)
    return parse_triples_file(path, vocab)
