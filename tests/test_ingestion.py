"""Triple-file parsing, portfolios and universes."""

import gc
import hashlib
import json
import logging
import re
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patkg.errors import InvalidConfig, ParseError, PatkgError, SchemaViolation
from patkg import ingestion
from patkg.graph import (
    RELATION_INDEX,
    RELATION_SCHEMA,
    EntityKind,
    RelationKind,
    TripleStore,
    Vocabulary,
    generate_synthetic,
    pack_keys,
)
from patkg.ingestion import (
    load_portfolios,
    load_store,
    load_universe,
    parse_patent_records,
    parse_triples_file,
    write_triples_file,
)

MINIMAL_GRAPH = """\
inventor:4074775\twrite\tpatent:5252504
assignee:336083\town\tpatent:5252504
group:H01L\tcontain\tpatent:5252504
subsection:H01\tcomprise\tgroup:H01L
"""

# the illustrative micro-graph: one patent with its metadata plus citations
FIGURE_GRAPH = MINIMAL_GRAPH + """\
patent:5252504\tcite\tpatent:4879255
patent:5252504\tcite\tpatent:5654220
patent:5654220\tcite\tpatent:5252504
"""


class TestParseTriples:
    def test_minimal_graph(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(MINIMAL_GRAPH)
        store = parse_triples_file(path)
        assert len(store) == 4
        assert len(store.vocab) == 5

    def test_micro_graph_seven_triples(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text(FIGURE_GRAPH)
        store = parse_triples_file(path)
        assert len(store) == 7
        assert len(store.vocab) == 7

    def test_schema_violation_carries_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("patent:1\twrite\tinventor:2\n")
        with pytest.raises(SchemaViolation) as err:
            parse_triples_file(path)
        assert "line 1" in str(err.value)

    def test_bad_relation_token(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("patent:1\tCITE\tpatent:2\n")
        with pytest.raises(ParseError):
            parse_triples_file(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("patent:1\tcite\n")
        with pytest.raises(ParseError) as err:
            parse_triples_file(path)
        assert "line 1" in str(err.value)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\n" + MINIMAL_GRAPH)
        assert len(parse_triples_file(path)) == 4

    def test_duplicates_dropped_silently(self, tmp_path, caplog):
        path = tmp_path / "t.tsv"
        path.write_text(MINIMAL_GRAPH + MINIMAL_GRAPH)
        once = tmp_path / "once.tsv"
        once.write_text(MINIMAL_GRAPH)
        with caplog.at_level(logging.INFO, logger="patkg.ingestion"):
            store = parse_triples_file(path)
        assert store.triples == parse_triples_file(once).triples  # first copies, file order
        assert "dropped 0 self-citations, 0 missing-endpoint lines, 4 duplicates" in caplog.text

    def test_self_citation_dropped(self, tmp_path):
        path = tmp_path / "t.tsv"
        # a self-citation is dropped before the schema check, even between non-patents
        path.write_text("patent:1\tcite\tpatent:1\npatent:1\tcite\tpatent:2\n"
                        "inventor:x\tcite\tinventor:x\n")
        store = parse_triples_file(path)
        assert len(store) == 1

    def test_missing_endpoint_dropped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("patent:\tcite\tpatent:2\n" + MINIMAL_GRAPH)
        assert len(parse_triples_file(path)) == 4

    @pytest.mark.parametrize("columns", [True, False], ids=["with-columns", "without-columns"])
    def test_round_trip(self, tmp_path, columns):
        src = tmp_path / "src.tsv"
        src.write_text(FIGURE_GRAPH)
        store = parse_triples_file(src)
        out = tmp_path / "out.tsv"
        write_triples_file(store, out)
        if not columns:
            (tmp_path / "out.tsv.cols").unlink()
        clone = load_store(out)
        assert clone.triples == store.triples
        assert clone.vocab.fingerprint() == store.vocab.fingerprint()

    @pytest.mark.parametrize("text", ["", FIGURE_GRAPH + "inventor:a\x0c \twrite\tpatent:b\x85\n"])
    def test_files_are_their_lines_each_ended_by_a_newline(self, tmp_path, monkeypatch, text):
        # the bytes the line-list writer gave: lines joined by "\n" plus a last "\n", or nothing
        src, out = tmp_path / "src.tsv", tmp_path / "out.tsv"
        src.write_text(text, encoding="utf-8")
        store = parse_triples_file(src)
        labels = list(store.vocab.ordinals)
        triple_lines = [f"{labels[t.head]}\t{t.relation.value}\t{labels[t.tail]}" for t in store.triples]
        vocab_lines = [f"{ordinal}\t{label}" for ordinal, label in enumerate(labels)]
        for rows in (ingestion._BLOCK_ROWS, 3):  # one write block, then several
            monkeypatch.setattr(ingestion, "_BLOCK_ROWS", rows)
            write_triples_file(store, out)
            assert out.read_bytes() == "".join(line + "\n" for line in triple_lines).encode()
            sidecar = (tmp_path / "out.tsv.vocab").read_bytes()
            assert sidecar == "".join(line + "\n" for line in vocab_lines).encode()
            assert sidecar == store.vocab.export_text().encode()

    def test_writer_transient_does_not_grow_with_the_store(self, tmp_path):
        def transient(communities):
            # about 2.3k triples a community: the smaller store already spans several write blocks
            store = generate_synthetic(communities, 250, 40, 8, 0.02, 0.0004, seed=3)
            assert len(store) > 4 * ingestion._BLOCK_ROWS
            tracemalloc.start()
            try:
                write_triples_file(store, tmp_path / "t.tsv")
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - current  # what the write allocated and gave back before it returned

        assert transient(16) < 1.5 * transient(4)


RECORDS = """\
p100\t1999-01-01\tH04L\tinv1,inv2\tasg1
p200\t1998-01-01\tH04L,H04N\tinv1\tasg1,asg2
p300\t1999-01-01\tG06F\tinv2\t
"""


class TestPatentRecords:
    def test_parse(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        records = list(parse_patent_records(path))
        assert len(records) == 3
        assert records[0] == ("p100", "1999-01-01", {"H04L"}, {"inv1", "inv2"}, {"asg1"})
        assert records[2][4] == frozenset()

    def test_bad_date(self, tmp_path):
        path = tmp_path / "r.tsv"
        # date.fromisoformat also reads the basic and week forms; 2020-W01-1 is 2019-12-30
        for text in ("1999-13-01", "20200101", "2020-W01-1", "2020-1-01", "２０２０-01-01"):
            path.write_text(f"p0\t2020-01-01\tH04L\ti\ta\np1\t{text}\tH04L\ti\ta\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f"^line 2: bad date {text!r}$"):
                list(parse_patent_records(path))

    def test_empty_groups(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("p1\t1999-01-01\t\ti\ta\n")
        with pytest.raises(ParseError):
            list(parse_patent_records(path))

    def test_bad_group_shape(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("p1\t1999-01-01\t04LX\ti\ta\n")
        with pytest.raises(ParseError):
            list(parse_patent_records(path))

    def test_records_stream_up_to_a_bad_line(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS.replace("p300\t1999-01-01", "p300\t1999-13-01"))
        stream = parse_patent_records(path)
        assert [next(stream)[0], next(stream)[0]] == ["p100", "p200"]
        with pytest.raises(ParseError, match="^line 3: bad date '1999-13-01'$"):
            next(stream)

    def test_equal_dates_are_one_string(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        records = list(parse_patent_records(path))
        assert records[0][1] is records[2][1]


class TestPortfolios:
    def test_sorted_by_date(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        portfolios = load_portfolios(path, EntityKind.INVENTOR)
        inv1 = next(p for p in portfolios if p.agent_id == "inv1")
        assert inv1.patent_ids == ["p200", "p100"]
        assert inv1.groups == [{"H04L", "H04N"}, {"H04L"}]

    def test_date_tie_broken_by_patent_id(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(
            "200\t1999-01-01\tH04L\ti\ta\n"
            "100\t1999-01-01\tH04N\ti\ta\n"
        )
        (portfolio,) = load_portfolios(path, EntityKind.INVENTOR)
        assert portfolio.patent_ids == ["100", "200"]

    def test_agent_kind_selects_column(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        assignee_ids = {p.agent_id for p in load_portfolios(path, EntityKind.ASSIGNEE)}
        assert assignee_ids == {"asg1", "asg2"}

    @pytest.mark.parametrize("kind", [EntityKind.PATENT, EntityKind.GROUP, EntityKind.SUBSECTION])
    def test_other_agent_kinds_are_invalid_config(self, tmp_path, kind):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        with pytest.raises(InvalidConfig, match=f"^agent_kind must be INVENTOR or ASSIGNEE, got {kind}$"):
            load_portfolios(path, kind)

    def test_resort_is_noop(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text(RECORDS)
        dates = {record[0]: record[1] for record in parse_patent_records(path)}
        for portfolio in load_portfolios(path, EntityKind.INVENTOR):
            resorted = sorted(portfolio.patent_ids, key=lambda pid: (dates[pid], pid))
            assert resorted == portfolio.patent_ids

    def test_portfolios_peak_below_the_parsed_records(self, tmp_path):
        # only four fields of each record naming an agent of the kind are held while the records sort
        rng = np.random.default_rng(5)
        codes = [f"{chr(65 + c // 100)}{c % 100:02d}{chr(65 + c % 7)}" for c in range(650)]
        path = tmp_path / "r.tsv"
        path.write_text("".join(
            f"{i:07d}\t{2000 + i // 400}-{1 + i // 40 % 10:02d}-{1 + i % 28:02d}\t"
            f"{','.join(codes[c] for c in rng.choice(650, rng.integers(1, 4)))}\t"
            f"{','.join(f'i{v:04d}' for v in rng.choice(400, rng.integers(1, 4)))}\t"
            f"{f'a{rng.integers(100):03d}' if rng.random() < 0.9 else ''}\n" for i in range(2000)))
        tracemalloc.start()
        try:
            records = list(parse_patent_records(path))
            parsed = tracemalloc.get_traced_memory()[0]
            assert len(records) == 2000
            del records
            for kind in (EntityKind.INVENTOR, EntityKind.ASSIGNEE):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                portfolios = load_portfolios(path, kind)
                assert tracemalloc.get_traced_memory()[1] - before < parsed
                del portfolios
        finally:
            tracemalloc.stop()

    def test_collector_state_is_restored(self, tmp_path):
        # the parse runs with the cyclic collector off; its prior state comes back, also after an error
        good, bad = tmp_path / "r.tsv", tmp_path / "bad.tsv"
        good.write_text(RECORDS)
        bad.write_text("p1\t1999-13-01\tH04L\ti\ta\n")
        was = gc.isenabled()
        try:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                load_portfolios(good, EntityKind.INVENTOR)
                assert gc.isenabled() is state
                with pytest.raises(ParseError):
                    load_portfolios(bad, EntityKind.INVENTOR)
                assert gc.isenabled() is state
        finally:
            (gc.enable if was else gc.disable)()


# -- patent records: the one-sort loader against the per-record parser and per-agent sort it replaced --

def parse_patent_records_oracle(path):
    """The parser `parse_patent_records` replaced: every check on each line, a `date` per record."""
    records = []
    seen = set()
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
                if application_date.isoformat() != date_text:
                    raise ValueError(date_text)
            except ValueError:
                raise ParseError(f"line {line_no}: bad date {date_text!r}") from None
            groups = [g for g in groups_text.split(",") if g]
            if not groups:
                raise ParseError(f"line {line_no}: patent {patent_id} has no groups")
            for g in groups:
                if not re.match(r"^[A-Za-z][0-9][0-9][A-Za-z]", g):
                    raise ParseError(f"line {line_no}: group code {g!r} "
                                     "must be >=4 chars with a letter-digit-digit-letter prefix")
            if patent_id in seen:
                duplicates += 1
                continue
            seen.add(patent_id)
            records.append((patent_id, application_date, frozenset(groups),
                            frozenset(i for i in inventors_text.split(",") if i),
                            frozenset(a for a in assignees_text.split(",") if a)))
    if duplicates:
        logging.getLogger("patkg.ingestion").info("%s: skipped %d duplicate patent ids", path, duplicates)
    return records


def load_portfolios_oracle(path, agent_kind):
    """(agent id, patent ids, group sets) per agent, each agent's records sorted on their own."""
    by_agent = {}
    for record in parse_patent_records_oracle(path):
        for agent_id in record[3] if agent_kind is EntityKind.INVENTOR else record[4]:
            by_agent.setdefault(agent_id, []).append(record)
    portfolios = []
    for agent_id in sorted(by_agent):
        events = sorted(by_agent[agent_id], key=lambda r: (r[1], r[0]))
        portfolios.append((agent_id, [r[0] for r in events], [r[2] for r in events]))
    return portfolios


def logged_outcome(call, *args):
    """`call(*args)` and its log lines, or the error's type and message."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("patkg.ingestion")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        result = call(*args)
    except PatkgError as exc:
        return type(exc), str(exc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return result, [r.getMessage() for r in records]


def load_portfolio_tuples(path, agent_kind):
    portfolios = load_portfolios(path, agent_kind)
    assert all(p.agent_kind is agent_kind for p in portfolios)
    return [(p.agent_id, p.patent_ids, p.groups) for p in portfolios]


def read_patent_records(path):
    return list(parse_patent_records(path))


def parse_records_oracle_text(path):
    return [(pid, d.isoformat(), *rest) for pid, d, *rest in parse_patent_records_oracle(path)]


GOOD_DATES = ["1999-01-01", "1998-12-31", "2000-02-29", "0001-01-01", "9999-12-31"]
BAD_DATES = ["1999-02-29", "20200101", "2020-W01-1", "1999-1-01", "\uff12\uff10\uff12\uff10-01-01", ""]
GOOD_CODES = ["H04L", "H04N", "G06F", "a01b", "H04L\x0c"]
BAD_CODES = ["04LX", "H0", " H04L", "HO4L", ""]


def record_lines(ids, dates, codes):
    return st.tuples(st.sampled_from(ids), st.sampled_from(dates),
                     st.lists(st.sampled_from(codes), min_size=1, max_size=3).map(",".join),
                     st.lists(st.sampled_from(["i1", "i2", "i3", ""]), max_size=3).map(",".join),
                     st.lists(st.sampled_from(["a1", "a2"]), max_size=2).map(",".join)).map("\t".join)


# ids from a small pool, so that duplicates are common
GOOD_RECORDS = record_lines(["p1", "p2", "p3", "p10", "9"], GOOD_DATES, GOOD_CODES)
OTHER_RECORDS = record_lines(["p1", "p4", ""], GOOD_DATES + BAD_DATES, GOOD_CODES + BAD_CODES) | st.sampled_from(
    ["", "# comment\twith\ttabs\tin\tit", "p1\t1999-01-01\tH04L\ti1", "p1\t1999-01-01\t,\ti1\ta1",
     "p1\t1999-01-01\tH04L\ti1\ta1\tx", "#"])


@st.composite
def record_texts(draw):
    """Good record lines plus up to three others anywhere: bad dates, codes, ids and field counts,
    comments and blanks. Each line ends with `\\n`, `\\r\\n` or a lone `\\r`; the last may end with none."""
    lines = draw(st.lists(GOOD_RECORDS, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(OTHER_RECORDS))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@given(text=record_texts())
@example(text="p2\t1999-01-01\tH04L\ti1\ta1\np1\t1999-01-01\tG06F\ti1\t\np2\t1998-01-01\tH04N\ti1\ta1\n")
@example(text="p1\t1999-01-01\tH04L\ti1\ta1\np2\t1999-02-29\t04LX\ti1\ta1\np3\t1999-01-01\tH0\ti1\ta1\n")
@example(text="p1\t1999-01-01\tH04L,04LX,H0\ti1\ta1\n")  # the first bad code in listed order
@example(text="p1\t1999-01-01\tH04L\ti1\ta1\np1\t1999-01-01\tH04L\ti1\ta1\np2\t1999-1-01\tH04L\ti1\t\n")
def test_portfolios_match_per_agent_sort_oracle(fuzz_file, text):
    # dates compared as text order records as dates do; a duplicate line is still checked in full
    fuzz_file.write_bytes(text.encode("utf-8"))
    assert logged_outcome(read_patent_records, fuzz_file) == logged_outcome(parse_records_oracle_text, fuzz_file)
    for kind in (EntityKind.INVENTOR, EntityKind.ASSIGNEE):
        assert logged_outcome(load_portfolio_tuples, fuzz_file, kind) == logged_outcome(
            load_portfolios_oracle, fuzz_file, kind)


class TestUniverse:
    def test_load(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("# codes\nH04L\nH04N\nG06F\n")
        assert load_universe(path) == ["H04L", "H04N", "G06F"]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("H04L\nH04L\n")
        with pytest.raises(ParseError):
            load_universe(path)

    def test_lines_lose_only_their_newline(self, tmp_path):
        # read as entity lists are: a code may end in whitespace, `  # c` is a comment,
        # and a leading blank is part of the code, which the group rule then refuses
        path = tmp_path / "u.txt"
        path.write_text("A00A\x0c\n  # c\n\nH04L \n", encoding="utf-8")
        assert load_universe(path) == ["A00A\x0c", "H04L "]
        path.write_text("H04L\n A00B\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"^line 2: group code ' A00B' "):
            load_universe(path)

    def test_malformed_code(self, tmp_path):
        # "1234" is long enough but lacks the letter-digit-digit-letter prefix
        path = tmp_path / "u.txt"
        for code in ("X1", "1234", "H0AL"):
            path.write_text(f"H04L\n{code}\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f"^line 2: group code '{code}' must be >=4 chars with a "
                                                 "letter-digit-digit-letter prefix$"):
                load_universe(path)


# -- fuzzing: any text yields a result or a PatkgError -----------------------

TOKENS = ["patent:1", "patent:2", "inventor:x", "group:H01L", "subsection:H01", "patent:", ":",
          "cite", "write", "own", "contain", "comprise", "bogus:2", "0", "1", "x", "#",
          "1990-01-02", "H01L", "A01B,H01L", "H0", "inv1", ""]
FIELDS = st.sampled_from(TOKENS) | st.text(max_size=8)
LINES = st.lists(FIELDS, max_size=6).map("\t".join) | st.text(max_size=30)
TEXTS = st.lists(LINES, max_size=8).map("\n".join)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@pytest.mark.parametrize("parser", [parse_triples_file, pytest.param(read_patent_records, id="parse_patent_records"),
                                    load_universe], ids=lambda f: f.__name__)
@given(text=TEXTS)
def test_file_parsers_return_or_raise_patkg_error(parser, fuzz_file, text):
    fuzz_file.write_text(text, encoding="utf-8")
    try:
        parser(fuzz_file)
    except PatkgError:
        pass


@given(lines=st.lists(LINES, max_size=8))
def test_vocabulary_from_lines_returns_or_raises_patkg_error(lines):
    try:
        Vocabulary.from_lines(lines)
    except PatkgError:
        pass


# -- the per-line parser as the oracle for parse_triples_file ----------------

def _oracle_entity_token(token, line_no):
    kind_text, sep, source_id = token.partition(":")
    if not sep:
        raise ParseError(f"line {line_no}: entity token {token!r} lacks ':'")
    kinds = {k.value: k for k in EntityKind}
    if kind_text not in kinds:
        raise ParseError(f"line {line_no}: unknown entity kind {kind_text!r}")
    return kinds[kind_text], source_id


def parse_triples_file_oracle(path, vocab=None):
    """The line-by-line parser `parse_triples_file` replaced: every check on each line in turn. A line
    with an empty id (`patent:`) is dropped unless the vocabulary holds that label."""
    store = TripleStore(vocab)
    dropped_self_cites = 0
    dropped_missing = 0
    rows = []
    relations = {r.value: r for r in RelationKind}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"line {line_no}: expected 3 tab-separated fields, got {len(parts)}")
            head_kind, head_id = _oracle_entity_token(parts[0], line_no)
            relation = relations.get(parts[1])
            if relation is None:
                raise ParseError(f"line {line_no}: unknown relation {parts[1]!r}")
            tail_kind, tail_id = _oracle_entity_token(parts[2], line_no)
            if any(not source_id and token not in store.vocab.ordinals
                   for source_id, token in ((head_id, parts[0]), (tail_id, parts[2]))):
                dropped_missing += 1
                continue
            head = store.add_entity(head_kind, head_id).ordinal
            tail = store.add_entity(tail_kind, tail_id).ordinal
            if relation is RelationKind.CITE and head == tail:
                dropped_self_cites += 1
                continue
            want = RELATION_SCHEMA[relation]
            if (head_kind, tail_kind) != want:
                raise SchemaViolation(
                    f"line {line_no}: {relation.value} requires {want[0].value}->{want[1].value}, "
                    f"got {head_kind.value}->{tail_kind.value}"
                )
            rows.append((head, RELATION_INDEX[relation], tail))
    heads, rels, tails = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    first = np.sort(np.unique(pack_keys(heads, rels, tails), return_index=True)[1])
    store.add_triples(heads[first], rels[first], tails[first])
    duplicates = len(rows) - len(first)
    if dropped_self_cites or dropped_missing or duplicates:
        logging.getLogger("patkg.ingestion").info(
            "%s: dropped %d self-citations, %d missing-endpoint lines, %d duplicates",
            path, dropped_self_cites, dropped_missing, duplicates,
        )
    return store


def run_parser(parser, path, vocab_lines):
    """Columns, vocabulary lines and log lines of one parse, or the error's type and message."""
    records = []
    handler = logging.Handler(logging.INFO)
    handler.emit = records.append
    logger = logging.getLogger("patkg.ingestion")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        store = parser(path, None if vocab_lines is None else Vocabulary.from_lines(vocab_lines))
    except PatkgError as exc:
        return type(exc), str(exc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return [c.tolist() for c in store.triple_arrays()], store.vocab.export_text(), [r.getMessage() for r in records]


# labels of every kind, empty ids (`patent:`), ids holding characters `str.splitlines` breaks on
# but a text-mode file does not, and malformed tokens
LABELS = ["patent:1", "patent:2", "patent:3", "inventor:x", "inventor:y", "assignee:a", "group:H01L",
          "group:G06F", "subsection:H01", "patent:", "inventor:", "group:", "assignee:", "patent:4\x0c",
          "inventor:\x85z", "assignee:b\u2028c"]
BAD_LABELS = ["bogus:2", "patent", ":", "Patent:1", ""]
RELATION_TOKENS = [r.value for r in RelationKind]
SCHEMA_LINES = [
    f"{h}\t{r.value}\t{t}"
    for r, (hk, tk) in RELATION_SCHEMA.items()
    for h in LABELS if h.startswith(hk.value + ":")
    for t in LABELS if t.startswith(tk.value + ":")
]
# a 5-field line then a 1-field line: as many tabs as two good lines, and good fields in between
SHIFTED_LINES = ["patent:1\tcite\tpatent:2\tpatent:3\tcite", "patent:1"]
OTHER_LINES = st.one_of(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(RELATION_TOKENS), st.sampled_from(LABELS)).map("\t".join),
    st.tuples(st.sampled_from(LABELS + BAD_LABELS), st.sampled_from(RELATION_TOKENS + ["CITE", ""]),
              st.sampled_from(LABELS + BAD_LABELS)).map("\t".join),
    st.sampled_from(["", "# comment", "patent:1\tcite", "patent:1\tcite\tpatent:2\tx"]),
).map(lambda line: [line]) | st.just(SHIFTED_LINES)


@st.composite
def triple_texts(draw):
    """Lines that fit the schema (or are self-citations or have an empty id), plus up to two
    others anywhere: schema violations, malformed lines, comments and blanks. Each line ends
    with `\\n`, `\\r\\n` or a lone `\\r`; the last may end with none."""
    lines = draw(st.lists(st.sampled_from(SCHEMA_LINES), max_size=16))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(OTHER_LINES)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


PINNED = st.none() | st.lists(st.sampled_from(LABELS), unique=True).map(
    lambda labels: [f"{i}\t{label}" for i, label in enumerate(labels)])


@given(text=triple_texts(), vocab_lines=PINNED)
@example(text="group:H01L\tcite\tpatent:1\nbogus:1\tcite\tpatent:2\n", vocab_lines=None)
@example(text="patent:1\tcite\tpatent:2\ninventor:x\twrite\tpatent:\npatent:\tcite\tpatent:1\n",
         vocab_lines=["0\tpatent:", "1\tinventor:", "2\tpatent:1"])
@example(text="\n".join(SHIFTED_LINES), vocab_lines=None)
@example(text="patent:1\x0c\tcite\tpatent:\u2028\r\n:\tcite\tpatent:2\rpatent:\x85\tcite\tpatent:",
         vocab_lines=None)
@example(text="patent:1#2\tcite\tpatent:3\n", vocab_lines=None)  # a `#` inside an id
@example(text="patent:1\tcite\tpatent:2\n# a\tcomment\tline\npatent:2\tcite\tpatent:3\n", vocab_lines=None)
@example(text="patent:1\tcite\tpatent:2\n\npatent:2\tcite\tpatent:3\n",  # a blank line; no label unseen
         vocab_lines=["0\tpatent:1", "1\tpatent:2", "2\tpatent:3"])
def test_parse_triples_file_matches_line_by_line_oracle(fuzz_file, text, vocab_lines):
    fuzz_file.write_bytes(text.encode("utf-8"))
    assert run_parser(parse_triples_file, fuzz_file, vocab_lines) == run_parser(
        parse_triples_file_oracle, fuzz_file, vocab_lines)


@given(text=triple_texts(), vocab_lines=PINNED, block=st.integers(1, 48))
@example(text="patent:1\twrite\tpatent:2\nbogus\n", vocab_lines=None, block=1)  # schema error, then ParseError
def test_parse_triples_file_matches_oracle_across_blocks(fuzz_file, text, vocab_lines, block):
    # blocks of a few characters: a file spans many, and its first bad line can sit in a later one
    fuzz_file.write_bytes(text.encode("utf-8"))
    with mock.patch.object(ingestion, "_BLOCK", block):
        got = run_parser(parse_triples_file, fuzz_file, vocab_lines)
    assert got == run_parser(parse_triples_file_oracle, fuzz_file, vocab_lines)


# -- the column file: a store loads from it exactly as from its TSV ----------

def load_outcome(load, path):
    """Columns, vocabulary text, fingerprint and sorted keys of the store one load gives, or the
    error's type and message."""
    try:
        store = load(path)
    except (PatkgError, OSError) as exc:
        return type(exc), str(exc)
    return ([c.tolist() for c in store.triple_arrays()], store.vocab.export_text(), store.vocab.fingerprint(),
            store._keys.tolist())


def parse_with_sidecar(path):
    """The TSV parse under the sidecar's vocabulary: what `load_store` gives without a column file."""
    with open(f"{path}.vocab", encoding="utf-8") as fh:
        return parse_triples_file(path, Vocabulary.from_lines(fh))


def load_counting_parses(path):
    """`load_outcome(load_store, path)`, and whether the load parsed the TSV."""
    with mock.patch.object(ingestion, "parse_triples_file", wraps=parse_triples_file) as parse:
        outcome = load_outcome(load_store, path)
    return outcome, parse.called


@given(text=triple_texts(), vocab_lines=PINNED)
@example(text="patent:1\tcite\tpatent:2\n", vocab_lines=["0\tpatent:", "1\tpatent:1", "2\tpatent:2"])
def test_load_store_reads_the_column_file_as_the_tsv_parse(fuzz_file, text, vocab_lines):
    fuzz_file.write_bytes(text.encode("utf-8"))
    try:
        store = parse_triples_file(fuzz_file, None if vocab_lines is None else Vocabulary.from_lines(vocab_lines))
    except PatkgError:
        return
    out = fuzz_file.with_name("store.tsv")
    write_triples_file(store, out)
    assert Path(f"{out}.cols").exists()
    outcome, parsed = load_counting_parses(out)
    assert not parsed
    assert outcome == load_outcome(parse_with_sidecar, out) == load_outcome(lambda _: store, out)


def _swap_first_two_patents(sidecar):
    lines = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
    i, j = [n for n, line in enumerate(lines) if "\tpatent:" in line][:2]
    labels = [line.partition("\t")[2] for line in lines]
    lines[i], lines[j] = f"{i}\t{labels[j]}", f"{j}\t{labels[i]}"
    sidecar.write_text("".join(lines), encoding="utf-8")


def damage_store_files(out, damage):
    """Apply one of `DAMAGES` to the store `out`, its sidecar or its column file."""
    sidecar, cols = Path(f"{out}.vocab"), Path(f"{out}.cols")
    store_data, sidecar_data, cols_data = out.read_bytes(), sidecar.read_bytes(), cols.read_bytes()
    payload = cols_data.index(b"\n", cols_data.index(b"\n") + 1) + 1  # where the payload starts
    if damage == "store-line-dropped":
        out.write_bytes(store_data[:store_data.rindex(b"\n", 0, -1) + 1])
    elif damage == "store-bad-relation":
        out.write_bytes(store_data.replace(b"\tcite\t", b"\tCITE\t", 1))
    elif damage == "sidecar-labels-swapped":
        _swap_first_two_patents(sidecar)
    elif damage == "sidecar-label-added":
        sidecar.write_bytes(sidecar_data + b"%d\tpatent:new\n" % sidecar_data.count(b"\n"))
    elif damage == "sidecar-bad-line":
        sidecar.write_bytes(b"x\n" + sidecar_data)
    elif damage == "sidecar-crlf":
        sidecar.write_bytes(sidecar_data.replace(b"\n", b"\r\n"))
    elif damage == "payload-cut-by-a-byte":
        cols.write_bytes(cols_data[:-1])
    elif damage == "payload-cut-by-a-row":
        cols.write_bytes(cols_data[:-24])
    elif damage == "payload-byte-flipped":
        cols.write_bytes(cols_data[:payload + 9] + bytes([cols_data[payload + 9] ^ 1]) + cols_data[payload + 10:])
    elif damage == "payload-extended":
        cols.write_bytes(cols_data + bytes(24))
    elif damage == "magic":
        cols.write_bytes(cols_data.replace(b"patkg-columns 1", b"patkg-columns 2", 1))
    elif damage == "manifest-not-json":
        cols.write_bytes(cols_data.replace(b'{"columns', b'["columns', 1))
    elif damage == "manifest-digest":
        at = cols_data.index(b"store_sha256") + 16
        cols.write_bytes(cols_data[:at] + bytes([cols_data[at] ^ 1]) + cols_data[at + 1:])
    elif damage == "manifest-rows":
        cols.write_bytes(cols_data.replace(b'"rows":', b'"rows":1', 1))
    elif damage == "manifest-line-unended":
        cols.write_bytes(cols_data.replace(b'"}\n', b'"} ', 1))
    elif damage == "empty":
        cols.write_bytes(b"")
    else:
        cols.unlink()
        if damage == "directory":
            cols.mkdir()


# damage -> (whether the load still reads the column file, None if the sidecar is refused before
# either file is read; whether the load still gives the store that was written)
DAMAGES = {
    "store-line-dropped": (False, False), "store-bad-relation": (False, False),
    "sidecar-labels-swapped": (False, False), "sidecar-label-added": (False, False),
    "sidecar-bad-line": (None, False),
    "sidecar-crlf": (True, True),  # CRLF endings read as the same vocabulary, whose fingerprint still matches
    **{damage: (False, True) for damage in (
        "payload-cut-by-a-byte", "payload-cut-by-a-row", "payload-byte-flipped", "payload-extended", "magic",
        "manifest-not-json", "manifest-digest", "manifest-rows", "manifest-line-unended", "empty", "missing",
        "directory")},
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_column_file_loads_as_the_tsv_parse(tmp_path, damage):
    out = tmp_path / "s.tsv"
    store = generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=4)
    write_triples_file(store, out)
    before = [p.read_bytes() for p in (out, tmp_path / "s.tsv.vocab", tmp_path / "s.tsv.cols")]
    damage_store_files(out, damage)
    assert before != [p.read_bytes() if p.is_file() else None
                      for p in (out, tmp_path / "s.tsv.vocab", tmp_path / "s.tsv.cols")]
    reads_columns, same_store = DAMAGES[damage]
    outcome, parsed = load_counting_parses(out)
    if reads_columns is not None:
        assert parsed != reads_columns
    assert outcome == load_outcome(parse_with_sidecar, out)
    assert (outcome == load_outcome(lambda _: store, out)) == same_store


@pytest.mark.parametrize("label", ["patent:a\tb", "patent:a\rb", "patent:a\nb", "patent:a\r\nb", "patent:"],
                         ids=["tab", "cr", "lf", "crlf", "empty-id"])
def test_a_store_that_does_not_read_back_gets_no_column_file(tmp_path, label):
    """No such store can be built any more. A label holding a tab or line break is refused at intake,
    and a store holding an empty id reads back as itself, with its column file or without it."""
    out, cols = tmp_path / "s.tsv", tmp_path / "s.tsv.cols"
    store = TripleStore()
    if label != "patent:":
        with pytest.raises(ParseError, match="holds a tab or line break"):
            store.vocab.add_label(label)
        with pytest.raises(ParseError, match="holds a tab or line break"):
            store.add_entity(EntityKind.PATENT, label.partition(":")[2])
        assert not store.vocab.add_labels(["patent:2", label])
        with pytest.raises(ParseError):
            Vocabulary.from_lines(["0\tpatent:2", f"1\t{label}"])
        assert len(store.vocab) == 0
        return
    inventor, patent, other = (store.vocab.add_label(x) for x in ("inventor:i1", label, "patent:2"))
    store.add_triples([inventor, patent], [RELATION_INDEX[RelationKind.WRITE], RELATION_INDEX[RelationKind.CITE]],
                      [patent, other])
    write_triples_file(store, out)
    assert cols.exists()
    with_columns = load_outcome(load_store, out)
    cols.unlink()
    assert with_columns == load_outcome(load_store, out) == load_outcome(lambda _: store, out)
    assert len(with_columns[0][0]) == 2


def test_column_file_layout_and_bytes_are_a_function_of_the_store(tmp_path):
    store = generate_synthetic(2, 8, 3, 2, 0.3, 0.05, seed=4)
    write_triples_file(store, tmp_path / "a.tsv")
    write_triples_file(load_store(tmp_path / "a.tsv"), tmp_path / "b.tsv")
    data = (tmp_path / "a.tsv.cols").read_bytes()
    assert (tmp_path / "b.tsv.cols").read_bytes() == data
    magic, manifest, payload = data.split(b"\n", 2)
    assert magic == b"patkg-columns 1"
    fields = json.loads(manifest)
    assert manifest.decode() == json.dumps(fields, sort_keys=True, separators=(",", ":"))
    assert fields == {"rows": len(store),
                      "store_sha256": hashlib.sha256((tmp_path / "a.tsv").read_bytes()).hexdigest(),
                      "vocab_sha256": hashlib.sha256((tmp_path / "a.tsv.vocab").read_bytes()).hexdigest(),
                      "columns_sha256": hashlib.sha256(payload).hexdigest()}
    assert payload == np.stack(store.triple_arrays()).astype("<i8").tobytes()
