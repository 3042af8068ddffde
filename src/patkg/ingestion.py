"""File parsers: triple files, patent-record files, entity lists and group universes.

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
excluded from that agent kind's portfolios. Records stream, one per line
read; `load_portfolios` keeps of each only its date text, patent id, group
set and one kind's agent ids.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import re
from collections.abc import Iterator
from itertools import compress, repeat
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, ParseError, PatkgError, SchemaViolation
from .graph import RELATION_INDEX, RELATIONS, EntityKind, RelationKind, TripleStore, Vocabulary
from .graph import first_rows, label_kinds, pack_keys, parse_label

log = logging.getLogger(__name__)

_RELATION_CODES = {r.value: i for i, r in enumerate(RELATIONS)}
_BLOCK = 1 << 16  # characters read at a time, which bounds the strings a parse holds at once
_BLOCK_ROWS = 1 << 11  # lines written at a time
_EMPTY_IDS = {f"{kind.value}:" for kind in EntityKind}  # the labels `parse_label` accepts with an empty id
_GROUP_PREFIX = re.compile(r"^[A-Za-z][0-9][0-9][A-Za-z]")  # the rule for every group code
_GROUP_RULE = "must be >=4 chars with a letter-digit-digit-letter prefix"
_COLUMNS_MAGIC = b"patkg-columns 1\n"
_DIGESTS = ("store_sha256", "vocab_sha256", "columns_sha256")  # store, sidecar and payload, in manifest order


def parse_triples_file(path, vocab: Vocabulary | None = None) -> TripleStore:
    """Parse a triple file into a store, assigning ordinals first-seen.

    Passing a pre-built vocabulary (e.g. from a `.vocab` sidecar) pins
    the ordinal assignment regardless of triple order. The earliest bad
    line raises: a schema error wins over a ParseError on a later line.
    """
    store = TripleStore(vocab)
    blocks, error, line_no = [(np.zeros((4, 0), dtype=np.int64), 0)], None, 0
    with open(path, encoding="utf-8") as fh:
        while error is None and (lines := fh.readlines(_BLOCK)):
            block = _read_lines(lines, line_no, store.vocab)
            if block is None:  # the lines before the first bad one are read; it raises once they are checked
                end, error = _first_error(lines, line_no)
                block = _read_lines(lines[:end], line_no, store.vocab)
            blocks.append(block)
            line_no += len(lines)
    rows, missing = zip(*blocks)
    heads, rels, tails, line_nos = np.concatenate(rows, axis=1)
    self_cite = (rels == RELATION_INDEX[RelationKind.CITE]) & (heads == tails)
    kept = np.flatnonzero(~self_cite)
    first = kept[first_rows(pack_keys(heads[kept], rels[kept], tails[kept]))[0]]
    try:
        store.add_triples(heads[first], rels[first], tails[first])
    except SchemaViolation as exc:
        raise SchemaViolation(f"line {line_nos[first[exc.row]]}: {exc}") from None
    if error is not None:
        raise error
    dropped = (int(self_cite.sum()), sum(missing), len(kept) - len(first))
    if any(dropped):
        log.info("%s: dropped %d self-citations, %d missing-endpoint lines, %d duplicates", path, *dropped)
    return store


def _read_lines(lines: list[str], line_no: int, vocab: Vocabulary) -> tuple[np.ndarray, int] | None:
    """(head, relation code, tail, line number) rows of the fact lines among `lines`, the lines
    after line `line_no`, less those with an empty id `vocab` does not hold, which are counted; their
    new labels are registered, head then tail, in line order. None, with nothing registered, if a
    line is bad."""
    text, fact = "".join(lines), np.ones(len(lines), dtype=bool)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines))
    if "#" in text or (tabs != 2).any():  # maybe a comment or blank line, which holds no tab
        fact = ~np.fromiter(map(str.startswith, lines, repeat(("#", "\n"))), bool, len(lines))
        if (tabs[fact] != 2).any():
            return None
        text = "".join(compress(lines, fact))
    fields, known = text.replace("\n", "\t").split("\t")[:3 * int(fact.sum())], vocab.ordinals
    rels = np.fromiter(map(_RELATION_CODES.get, fields[1::3], repeat(-1)), np.int64, len(fields) // 3)
    del fields[1::3]  # head and tail labels, interleaved
    ends = np.fromiter(map(known.get, fields, repeat(-1)), np.int64, len(fields))
    if (rels < 0).any():
        return None
    unseen, empty = ends < 0, np.zeros(len(fields) // 2, dtype=bool)
    if unseen.any():  # a `.vocab` sidecar written with the store leaves no label unseen
        new, empty_ids = [*compress(fields, unseen.tolist())], np.zeros(len(fields), dtype=bool)
        # lines with an empty id the vocabulary does not hold: their unseen labels are checked, but not registered
        empty_ids[unseen] = np.fromiter(map(_EMPTY_IDS.__contains__, new), bool, len(new))
        empty = empty_ids.reshape(-1, 2).any(axis=1)
        if (None in label_kinds(compress(fields, (unseen & np.repeat(empty, 2)).tolist()))
                or not vocab.add_labels(compress(fields, (unseen & np.repeat(~empty, 2)).tolist()))):
            return None
        ends[unseen] = list(map(known.get, new, repeat(-1)))
    return np.stack([ends[0::2], rels, ends[1::2], np.flatnonzero(fact) + line_no + 1])[:, ~empty], int(empty.sum())


def _first_error(lines: list[str], line_no: int) -> tuple[int, ParseError]:
    """Index among `lines`, the lines after line `line_no`, of the first bad line, and its error."""
    for i, line in enumerate(lines):
        if line.startswith(("#", "\n")):  # a comment or blank line; no line is ""
            continue
        where, fields = f"line {line_no + i + 1}: ", line.rstrip("\n").split("\t")
        try:
            if len(fields) != 3:
                raise ParseError(f"{where}expected 3 tab-separated fields, got {len(fields)}")
            parse_label(fields[0], where)
            if fields[1] not in _RELATION_CODES:
                raise ParseError(f"{where}unknown relation {fields[1]!r}")
            parse_label(fields[2], where)
        except ParseError as exc:
            return i, exc


@dataclass(slots=True)
class AgentPortfolio:
    """One inventor's or assignee's patents in (application date, patent id) order: ids and group-code sets."""

    agent_id: str
    agent_kind: EntityKind
    patent_ids: list[str]
    groups: list[frozenset[str]]

    def __len__(self) -> int:
        return len(self.patent_ids)


def _validate_group_code(code: str, line_no: int) -> None:
    if not _GROUP_PREFIX.match(code):
        raise ParseError(f"line {line_no}: group code {code!r} {_GROUP_RULE}")


def parse_patent_records(path) -> Iterator[tuple[str, str, frozenset[str], frozenset[str], frozenset[str]]]:
    """(patent id, date text, groups, inventors, assignees) per record, yielded in file order as each line is
    read, first occurrence winning on duplicate ids; a bad line raises once the records before it are yielded.
    Each distinct date text and group code is checked once, and each distinct date text is kept as one string,
    which the records of a file share."""
    seen: set[str] = set()
    dates: dict[str, str] = {}
    codes: set[str] = set()
    duplicates = 0
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.startswith(("#", "\n")):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 5:
                raise ParseError(f"line {line_no}: expected 5 tab-separated fields, got {len(parts)}")
            patent_id, date_text, groups_text, inventors_text, assignees_text = parts
            if not patent_id:
                raise ParseError(f"line {line_no}: empty patent id")
            day = dates.get(date_text)
            if day is None:
                try:  # fromisoformat also reads forms such as 20200101 and 2020-W01-1
                    if date.fromisoformat(date_text).isoformat() != date_text:
                        raise ValueError(date_text)
                except ValueError:
                    raise ParseError(f"line {line_no}: bad date {date_text!r}") from None
                day = dates[date_text] = date_text
            groups = [g for g in groups_text.split(",") if g]
            if not groups:
                raise ParseError(f"line {line_no}: patent {patent_id} has no groups")
            for g in groups:
                if g not in codes:
                    _validate_group_code(g, line_no)
                    codes.add(g)
            if patent_id in seen:
                duplicates += 1
                continue
            seen.add(patent_id)
            yield (patent_id, day, frozenset(groups), frozenset(inventors_text.split(",")) - {""},
                   frozenset(assignees_text.split(",")) - {""})
    if duplicates:
        log.info("%s: skipped %d duplicate patent ids", path, duplicates)


def load_portfolios(path, agent_kind: EntityKind) -> list[AgentPortfolio]:
    """One portfolio per agent named in any record, sorted by agent id; `expansion.run_study` applies
    `min_patents`. Of each record streamed from `parse_patent_records` that names an agent of `agent_kind`,
    only (date text, patent id, groups, agent ids) is kept. These are sorted once by (date text, patent id),
    a total order in which exact `YYYY-MM-DD` texts sort as their dates do, and each record's patent id and
    groups are appended to each of its agents' portfolios."""
    if agent_kind not in (EntityKind.INVENTOR, EntityKind.ASSIGNEE):
        raise InvalidConfig(f"agent_kind must be INVENTOR or ASSIGNEE, got {agent_kind}")
    column = 3 if agent_kind is EntityKind.INVENTOR else 4
    by_agent: dict[str, AgentPortfolio] = {}
    collecting = gc.isenabled()
    gc.disable()  # the parse builds many containers and no cycles; collections there only cost time
    try:
        kept = [(record[1], record[0], record[2], tuple(record[column]))
                for record in parse_patent_records(path) if record[column]]
        kept.sort()  # patent ids are unique, so no comparison reaches the groups
        for _, patent_id, groups, agent_ids in kept:
            for agent_id in agent_ids:
                portfolio = by_agent.get(agent_id)
                if portfolio is None:
                    portfolio = by_agent[agent_id] = AgentPortfolio(agent_id, agent_kind, [], [])
                portfolio.patent_ids.append(patent_id)
                portfolio.groups.append(groups)
    finally:
        if collecting:
            gc.enable()
    return [by_agent[agent_id] for agent_id in sorted(by_agent)]


def load_list(path) -> dict[int, str]:
    """Line number -> line of an entity list or group universe, split as triple files are (not by splitlines()):
    a line loses only its newline, as an id may end in whitespace; blank lines and `#` after blanks are skipped."""
    with open(path, encoding="utf-8") as fh:
        return {line_no: line.rstrip("\n") for line_no, line in enumerate(fh, start=1)
                if line.strip() and not line.lstrip().startswith("#")}


def load_universe(path) -> list[str]:
    """Ordered, unique group codes admissible in the expansion study, one per `load_list` line."""
    codes: dict[str, int] = {}  # code -> line number, in file order
    for line_no, code in load_list(path).items():
        _validate_group_code(code, line_no)
        if codes.setdefault(code, line_no) != line_no:
            raise ParseError(f"line {line_no}: duplicate group code {code!r}")
    return list(codes)


def write_triples_file(store: TripleStore, path) -> None:
    """Canonical TSV export in stored order, written `_BLOCK_ROWS` lines at a time and hashed as written, plus
    a `.vocab` sidecar, the vocabulary's export text in one piece, then a `.cols` column file. It holds a magic
    line, a sorted-keys JSON manifest (`rows`, and the SHA-256 of the store, the sidecar and the payload),
    then heads, relation codes and tails as little-endian int64, each written through a memoryview.
    """
    label, middle = store.vocab.labels, [f"\t{r.value}\t" for r in RELATIONS]
    store_digest, vocab_digest, columns_digest = (hashlib.sha256() for _ in _DIGESTS)
    with open(path, "wb") as fh:
        for start in range(0, len(store), _BLOCK_ROWS):
            heads, rels, tails = (column[start:start + _BLOCK_ROWS].tolist() for column in store.triple_arrays())
            pieces = ["\n"] * (4 * len(heads))  # head, "\t<relation>\t", tail, "\n" per line
            pieces[0::4], pieces[1::4] = map(label.__getitem__, heads), map(middle.__getitem__, rels)
            pieces[2::4] = map(label.__getitem__, tails)
            fh.write(block := "".join(pieces).encode("utf-8"))
            store_digest.update(block)
    with open(f"{path}.vocab", "wb") as fh:
        fh.write(sidecar := store.vocab.export_text().encode("utf-8"))
        vocab_digest.update(sidecar)  # the fingerprint, without building the text a second time
    columns = [np.ascontiguousarray(c, dtype="<i8") for c in store.triple_arrays()]  # views on little-endian hosts
    for column in columns:
        columns_digest.update(column)
    with open(f"{path}.cols", "wb") as fh:
        fh.write(_columns_header(len(store), [d.hexdigest() for d in (store_digest, vocab_digest, columns_digest)]))
        fh.writelines(map(memoryview, columns))


def _columns_header(rows: int, digests: list[str]) -> bytes:
    """The column file's magic line and manifest line, with the `_DIGESTS` hex digests in order."""
    manifest = {"rows": rows} | dict(zip(_DIGESTS, digests))
    return _COLUMNS_MAGIC + json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def load_store(path) -> TripleStore:
    """Read a triple file, honouring a `.vocab` sidecar when present, and then its `.cols` column file if the
    file's length and manifest match its payload, the store's bytes and the vocabulary's fingerprint (the
    SHA-256 of the sidecar as written); its rows still pass `add_triples`. On any mismatch or read error the
    TSV is parsed: the store is the same either way, and deleting the column file only costs load time."""
    sidecar = Path(f"{path}.vocab")
    if not sidecar.exists():
        return parse_triples_file(path)
    with open(sidecar, encoding="utf-8") as fh:  # not splitlines(): it also breaks inside ids
        vocab = Vocabulary.from_lines(fh)
    store = _read_columns(path, vocab)
    return parse_triples_file(path, vocab) if store is None else store


def _read_columns(path, vocab: Vocabulary) -> TripleStore | None:
    """The store the column file beside `path` holds under `vocab`, or None if it cannot be used."""
    try:
        with open(f"{path}.cols", "rb") as fh:
            header = fh.readline(len(_COLUMNS_MAGIC)) + fh.readline(1 << 10)
            rows, odd = divmod(os.fstat(fh.fileno()).st_size - len(header), 24)
            columns = np.empty((3, rows), dtype="<i8")
            if odd or fh.readinto(columns) != columns.nbytes:
                return None
        store_digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(_BLOCK):
                store_digest.update(block)
        digests = [store_digest.hexdigest(), vocab.fingerprint(), hashlib.sha256(columns).hexdigest()]
        if header != _columns_header(rows, digests):
            return None
        store = TripleStore(vocab)
        store.add_triples(*columns)
        return store
    except (OSError, ValueError, PatkgError):  # unreadable, shorter than its header, or rows the store refuses
        return None
