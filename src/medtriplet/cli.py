"""Command-line interface.

Subcommands: extract, score, mine, train, eval-retrieval, eval-classify,
synth, run, dump-ontology. Exit codes: 0 success, 1 usage error, 2
data/validation error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from pathlib import Path

from .alignment import DegenerateEmbeddingError
from .corpus import DataError
from .evaluation import MATCH_MODES
from .extraction import MetaEntities
from .ontology import OntologyError, load_ontology, save_ontology, serialize_ontology
from .pipeline import (
    SETTINGS,
    STAGES,
    PipelineError,
    RunConfig,
    config_from_file,
    evaluate_classification,
    evaluate_retrieval_tasks,
    load_heads,
    run_pipeline,
    stage_seed,
    with_settings,
)
from .scoring import DEFAULT_SEMANTICS, SEMANTICS, GammaWeights, score
from .synthetic import SyntheticSpec, synthesize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _path(text: str) -> Path:
    if not text:  # Path("") would be the current directory
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


_HELP = {
    "seed": "global seed (overrides config)",
    "out": "output directory (overrides config)",
    "ontology": "ontology file (default: embedded)",
    "corpus": "corpus jsonl file",
}


def _add_settings(parser: argparse.ArgumentParser, section: str, *keys: str) -> None:
    """A flag per ``SETTINGS[section]`` key: the key with dashes, parsed to the key's type."""
    for key in keys:
        kind = SETTINGS[section][key]
        parser.add_argument(f"--{key.replace('_', '-')}", type=_path if kind is Path else kind, help=_HELP.get(key))


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = config_from_file(args.config) if args.config else RunConfig()
    # A command-line value overrides the config file's; only ``mine`` has [miner] flags.
    for section in ("run", "miner"):
        values = {key: value for key in SETTINGS[section] if (value := getattr(args, key, None)) is not None}
        cfg = with_settings(cfg, section, values)
    return cfg


def _load_meta_record(path: Path) -> MetaEntities:
    """A meta-entity record, or its bare entries list, from a JSON file; errors name the file."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(record, dict):
            record = {"entries": record}
        return MetaEntities.from_record(record)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise DataError(f"{path}: {exc}") from None


def _cmd_score(args: argparse.Namespace) -> int:
    weights = GammaWeights(args.gamma0, args.gamma1, args.gamma2)
    mi = _load_meta_record(args.first)
    mj = _load_meta_record(args.second)
    breakdown = score(mi, mj, weights, args.semantics)
    shared = [term._asdict() for term in breakdown.shared_diseases]
    print(json.dumps({"total": breakdown.total, "prefactor": breakdown.prefactor, "shared_diseases": shared}, indent=2))
    return EXIT_OK


def _cmd_stages(args: argparse.Namespace) -> int:
    """``extract``, ``mine``, ``train`` and ``run``: the named stages through ``run_pipeline``."""
    cfg = _build_config(args)
    stages = tuple(args.stages or STAGES) if args.command == "run" else (args.command,)
    for stage, path in run_pipeline(cfg, stages=stages, force=args.force).items():
        print(f"{stage}: {path}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    """``eval-retrieval`` and ``eval-classify``: print one report for an eval corpus."""
    cfg = _build_config(args)
    _, heads = load_heads(args.heads or (cfg.out / "heads.ckpt"), cfg)
    eval_corpus = cfg.eval_corpus or cfg.corpus
    if eval_corpus is None:
        raise PipelineError(f"{args.command} needs --eval-corpus or a config with one")
    if args.command == "eval-retrieval":
        report = evaluate_retrieval_tasks(cfg, heads, eval_corpus, args.match_mode)
    else:
        report = evaluate_classification(cfg, heads, eval_corpus)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    spec = SyntheticSpec(
        n_classes=args.classes,
        per_class=args.per_class,
        image_size=args.image_size,
        overlap_rate=args.overlap,
        seed=stage_seed(cfg.seed, "synth"),
        id_prefix=args.id_prefix,
    )
    result = synthesize(spec, cfg.out)
    print(f"wrote {result.records} records -> {result.corpus_path}")
    return EXIT_OK


def _cmd_dump_ontology(args: argparse.Namespace) -> int:
    ont = load_ontology(args.ontology)
    if args.output:
        save_ontology(ont, args.output)
        print(f"wrote ontology -> {args.output}")
    else:
        print(serialize_ontology(ont), end="")
    return EXIT_OK


def _run_command(sub, name: str, help_text: str, func, *keys: str) -> argparse.ArgumentParser:
    """A subcommand that builds a RunConfig: ``--config``, ``--force`` if it runs stages, and [run] flags."""
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(func=func)
    p.add_argument("--config", type=_path, help="sectioned config file")
    _add_settings(p, "run", "seed", "out", *keys)
    if func is _cmd_stages:
        p.add_argument("--force", action="store_true", help="rerun stages even if up to date")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="medtriplet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _run_command(sub, "extract", "extract entities from a corpus", _cmd_stages, "ontology", "corpus")

    p = sub.add_parser("score", help="score two meta-entity records")
    p.add_argument("first", type=_path)
    p.add_argument("second", type=_path)
    for i, default in enumerate((GammaWeights.g0, GammaWeights.g1, GammaWeights.g2)):
        p.add_argument(f"--gamma{i}", type=float, default=default)
    p.add_argument("--semantics", choices=SEMANTICS, default=DEFAULT_SEMANTICS)
    p.set_defaults(func=_cmd_score)

    p = _run_command(sub, "mine", "mine triplets from <out>/entities.jsonl", _cmd_stages)
    _add_settings(p, "miner", "batch_size", "target", "tau_min", "tau_max")

    _run_command(sub, "train", "train projection heads on mined triplets", _cmd_stages, "corpus")

    p = _run_command(sub, "eval-retrieval", "retrieval P@R over an eval corpus", _cmd_eval, "ontology", "corpus",
                     "eval_corpus")
    p.add_argument("--heads", type=_path, help="heads checkpoint (default: <out>/heads.ckpt)")
    p.add_argument("--match-mode", choices=MATCH_MODES, default="mean")

    p = _run_command(sub, "eval-classify", "zero-shot classification over an eval corpus", _cmd_eval, "ontology",
                     "corpus", "eval_corpus")
    p.add_argument("--heads", type=_path)

    p = _run_command(sub, "synth", "generate a synthetic corpus", _cmd_synth)
    p.add_argument("--classes", type=int, default=SyntheticSpec.n_classes)
    p.add_argument("--per-class", type=int, default=SyntheticSpec.per_class, dest="per_class")
    p.add_argument("--image-size", type=int, default=SyntheticSpec.image_size, dest="image_size")
    p.add_argument("--overlap", type=float, default=SyntheticSpec.overlap_rate)
    p.add_argument("--id-prefix", default=SyntheticSpec.id_prefix, dest="id_prefix")

    p = _run_command(sub, "run", "run pipeline stages", _cmd_stages, "ontology", "corpus", "eval_corpus")
    p.add_argument("--stages", nargs="+", choices=STAGES)

    p = sub.add_parser("dump-ontology", help="print or save the active ontology")
    _add_settings(p, "run", "ontology")
    p.add_argument("--output", type=_path)
    p.set_defaults(func=_cmd_dump_ontology)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, OntologyError, PipelineError, DegenerateEmbeddingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
