"""Command-line surface.

Subcommands: ingest, train, eval, neighbors, proximity, expansion,
export-embeddings. The commands that involve randomness (train, eval)
take --seed, and every command is a pure function of its inputs and
flags. Usage errors exit 2 (argparse); data errors exit 1 after printing
one `error: <Kind>: <reason>` line to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import sys
from pathlib import Path

from . import archive, evaluator, expansion, ingestion, proximity, reports, trainer
from .errors import PatkgError
from .evaluator import EvalConfig, Sides, TieRule
from .graph import CandidatePool, EntityKind, SplitSpec, split
from .models import ModelKind
from .trainer import LossKind, TrainConfig


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test-fraction", type=float, default=0.10,
                   help="held-out fraction; recomputed identically by train and eval")
    p.add_argument("--split-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patkg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse a triple file into a canonical store")
    p.add_argument("triples_path")
    p.add_argument("out_store_path")

    p = sub.add_parser("train", help="train one embedding model on a store")
    p.add_argument("store_path")
    p.add_argument("model_kind", choices=[k.value for k in ModelKind])
    p.add_argument("out_archive_path")
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--negatives", type=int, default=4)
    p.add_argument("--lr", type=float, default=None, help="default per model family")
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--loss", choices=[l.value for l in LossKind], default=None)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--normalize", dest="normalize", action="store_true", default=None)
    p.add_argument("--no-normalize", dest="normalize", action="store_false")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoding", choices=["float32", "float64"], default="float32")
    p.add_argument("--report", default=None, help="optional path for the training report")
    _add_split_flags(p)
    p.add_argument("--train-on-all", action="store_true",
                   help="skip the split and train on every triple")

    p = sub.add_parser("eval", help="rank held-out triples against corruptions")
    p.add_argument("archive_path")
    p.add_argument("store_path")
    p.add_argument("out_report_path")
    p.add_argument("-K", "--corruptions", type=int, default=100)
    p.add_argument("--sides", choices=[s.value for s in Sides], default="both")
    p.add_argument("--pool", choices=[c.value for c in CandidatePool], default="same_kind")
    p.add_argument("--filtered", action="store_true")
    p.add_argument("--tie-rule", choices=[t.value for t in TieRule], default="midpoint")
    p.add_argument("--seed", type=int, default=0)
    _add_split_flags(p)

    p = sub.add_parser("neighbors", help="nearest neighborhood of a focal entity")
    p.add_argument("archive_path")
    p.add_argument("focal", help="entity label kind:id")
    p.add_argument("out_path")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--kind-filter", nargs="*", choices=[k.value for k in EntityKind], default=None)
    p.add_argument("--mode", choices=[m.value for m in proximity.TransformMode],
                   default="translation_algebra")

    p = sub.add_parser("proximity", help="pairwise proximity matrix over listed entities")
    p.add_argument("archive_path")
    p.add_argument("entities_path", help="file of kind:id labels, one per line")
    p.add_argument("common_kind", choices=[k.value for k in EntityKind])
    p.add_argument("out_matrix_path")
    p.add_argument("--mode", choices=[m.value for m in proximity.TransformMode],
                   default="translation_algebra")

    p = sub.add_parser("expansion", help="domain-expansion study over one or more models")
    p.add_argument("archive_paths", nargs="+")
    p.add_argument("portfolios_path")
    p.add_argument("universe_path")
    p.add_argument("out_report_path")
    p.add_argument("--agent-kind", choices=["inventor", "assignee"], required=True)
    p.add_argument("--min-patents", type=int, default=30)
    p.add_argument("--raw-cosine", action="store_true",
                   help="use raw cosines instead of flooring negatives at 0")

    p = sub.add_parser("export-embeddings", help="dump entity embeddings as TSV")
    p.add_argument("archive_path")
    p.add_argument("out_tsv_path")
    p.add_argument("--kind-filter", nargs="*", choices=[k.value for k in EntityKind], default=None)

    return parser


def _pin_malloc_thresholds() -> None:
    """Start glibc's malloc at the end state of its dynamic thresholds.

    glibc raises the mmap threshold toward 32 MiB, trim at twice that, as
    large blocks are freed. A process that has only parsed text starts
    low, so the trainer's 0.5-5 MB numpy temporaries go back to the kernel
    after every batch and page-fault in again on the next one. Both values
    are set: either alone stops the dynamic rule for both. A C library
    without `mallopt` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _train_config(args: argparse.Namespace, kind: ModelKind) -> TrainConfig:
    """The model's default config with the flags given on the command line."""
    given = {"learning_rate": args.lr, "margin": args.margin, "l2_coefficient": args.l2,
             "normalize_entities": args.normalize, "loss": None if args.loss is None else LossKind(args.loss)}
    return dataclasses.replace(
        trainer.default_config(kind),
        epochs=args.epochs, batch_size=args.batch_size, negatives_per_positive=args.negatives,
        seed=args.seed, dim=args.dim, **{name: value for name, value in given.items() if value is not None},
    )


def _kind_filter(args: argparse.Namespace) -> set[EntityKind] | None:
    """The `--kind-filter` kinds, or None when the flag names none."""
    return {EntityKind(k) for k in args.kind_filter} if args.kind_filter else None


def _cmd_ingest(args) -> int:
    store = ingestion.parse_triples_file(args.triples_path)
    ingestion.write_triples_file(store, args.out_store_path)
    print(f"ingested {len(store)} triples, {len(store.vocab)} entities -> {args.out_store_path}")
    return 0


def _cmd_train(args) -> int:
    spec = SplitSpec(args.test_fraction, args.split_seed)  # checked with or without --train-on-all
    store = ingestion.load_store(args.store_path)
    train_store = store if args.train_on_all else split(store, spec)[0]
    kind = ModelKind(args.model_kind)
    params, report = trainer.train(train_store, kind, _train_config(args, kind))
    archive.save_archive(args.out_archive_path, params, vocab=store.vocab, encoding=args.encoding)
    if args.report:
        reports.write_text(args.report, reports.train_report_text(report))
    print(
        f"trained {args.model_kind} on {len(train_store)} triples "
        f"({report.wall_time_s:.1f}s) -> {args.out_archive_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    params, _ = archive.load_archive(args.archive_path)
    store = ingestion.load_store(args.store_path)
    _, test = split(store, SplitSpec(args.test_fraction, args.split_seed))
    config = EvalConfig(
        corruptions_per_side=args.corruptions,
        sides=Sides(args.sides),
        pool=CandidatePool(args.pool),
        filtered=args.filtered,
        seed=args.seed,
        tie_rule=TieRule(args.tie_rule),
    )
    report = evaluator.evaluate(params, test, store, config)
    reports.write_text(args.out_report_path, reports.eval_report_text(report, params.kind.value))
    print(f"mrr={report.mrr:.4f} mr={report.mr:.2f} hits@10={report.hits[10]:.4f}")
    return 0


def _cmd_neighbors(args) -> int:
    params, vocab = archive.load_archive(args.archive_path)
    focal = vocab.ref(vocab.ordinal_of_label(args.focal))
    hits = proximity.nearest_neighbors(
        params, vocab, focal, args.k, _kind_filter(args), proximity.TransformMode(args.mode)
    )
    reports.write_text(args.out_path, reports.neighbors_tsv(hits))
    print(f"wrote {len(hits)} neighbors of {args.focal} -> {args.out_path}")
    return 0


def _cmd_proximity(args) -> int:
    params, vocab = archive.load_archive(args.archive_path)
    labels = list(ingestion.load_list(args.entities_path).values())
    refs = [vocab.ref(vocab.ordinal_of_label(label)) for label in labels]
    matrix = proximity.pairwise_matrix(
        params, vocab, refs, EntityKind(args.common_kind), proximity.TransformMode(args.mode)
    )
    reports.write_text(args.out_matrix_path, reports.matrix_tsv(labels, matrix))
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} matrix -> {args.out_matrix_path}")
    return 0


def _cmd_expansion(args) -> int:
    agent_kind = EntityKind(args.agent_kind)
    portfolios = ingestion.load_portfolios(args.portfolios_path, agent_kind)
    universe = ingestion.load_universe(args.universe_path)
    models, vocab = {}, None
    for path in args.archive_paths:
        params, arc_vocab = archive.load_archive(path)
        vocab = vocab or arc_vocab
        name = params.kind.value
        if name in models:
            name = f"{name}#{len(models)}"
        models[name] = params
    report = expansion.run_study(
        vocab, portfolios, universe, models,
        min_patents=args.min_patents, floor_negative=not args.raw_cosine,
    )
    reports.write_text(args.out_report_path, reports.expansion_report_text(report))
    out = Path(args.out_report_path)
    if report.agent_ids:
        stem = f"{out.stem}_{report.agent_kind.value}"
        reports.write_text(out.with_name(f"{stem}_cdf.csv"), reports.expansion_cdf_csv(report))
        reports.write_text(out.with_name(f"{stem}_profiles.csv"), reports.expansion_profiles_csv(report))
    print(f"expansion study over {len(models)} model(s) -> {args.out_report_path}")
    return 0


def _cmd_export_embeddings(args) -> int:
    params, vocab = archive.load_archive(args.archive_path)
    reports.write_text(args.out_tsv_path, reports.embeddings_tsv(params, vocab, _kind_filter(args)))
    print(f"exported embeddings -> {args.out_tsv_path}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "neighbors": _cmd_neighbors,
    "proximity": _cmd_proximity,
    "expansion": _cmd_expansion,
    "export-embeddings": _cmd_export_embeddings,
}


def main(argv: list[str] | None = None) -> int:
    _pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PatkgError, OSError, UnicodeDecodeError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
