"""Pipeline orchestration: staged runs with reproducible manifests.

Stages (extract, mine, train, eval) execute in order inside a locked
output directory. Every artifact gets a sibling ``<name>.manifest.json``
recording the tool version, the stage seed, the effective stage config
(plus its hash), and the content hashes of all inputs. A re-run skips
any stage whose manifest still matches, unless forced. Manifests carry
no timestamps, so identical inputs and config produce byte-identical
artifact trees.

The single global seed fans out to per-stage seeds as
``seed + 1000 * stage_index`` with stage indices synth=1, extract=2,
mine=3, train=4, eval=5. Encoder weight initialization uses the global
seed directly so train and eval see identical trunks.
"""

from __future__ import annotations

import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import LossConfig, OptimizerConfig, train_heads, write_loss_curve
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import CorpusRecord, ingest, read_entities, write_entities
from .encoder import (
    IMAGE,
    TEXT,
    EncoderConfig,
    Embedding,
    init_head,
    init_image_trunk,
    init_text_trunk,
    tokenize_text,
    trunk_encode,
)
from .evaluation import (
    Gallery,
    GalleryEntry,
    classification_metrics,
    prompt_text,
    retrieval_report,
    zero_shot_classify,
)
from .extraction import MetaEntities, extract
from .images import load_image
from .mining import MinerConfig, mine_corpus, read_triplets
from .ontology import Ontology, default_ontology, load_ontology
from .scoring import GammaWeights

logger = logging.getLogger(__name__)

STAGES = ("extract", "mine", "train", "eval")
_STAGE_INDEX = {"synth": 1, "extract": 2, "mine": 3, "train": 4, "eval": 5}


class PipelineError(RuntimeError):
    """Missing dependency artifact, stale input, or locked output dir."""


def stage_seed(global_seed: int, stage: str) -> int:
    return global_seed + 1000 * _STAGE_INDEX[stage]


@dataclass(frozen=True)
class MiningSettings:
    batch_size: int = 64
    target: int = 1000
    pass_limit: int = 100
    tau_min: float = 0.25
    tau_max: float = 0.60
    tie_policy: str = "lowest-id"


@dataclass(frozen=True)
class RunConfig:
    out: Path = Path("run")
    seed: int = 0
    ontology: Path | None = None
    corpus: Path | None = None
    eval_corpus: Path | None = None
    gammas: GammaWeights = field(default_factory=GammaWeights)
    semantics: str = "union"
    mining: MiningSettings = field(default_factory=MiningSettings)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    r_values: tuple[int, ...] = (1, 10, 20, 50)

    def load_ontology(self) -> Ontology:
        return default_ontology() if self.ontology is None else load_ontology(self.ontology)

    def miner_config(self) -> MinerConfig:
        return MinerConfig(
            tau_min=self.mining.tau_min,
            tau_max=self.mining.tau_max,
            gammas=self.gammas,
            semantics=self.semantics,
            tie_policy=self.mining.tie_policy,
            seed=stage_seed(self.seed, "mine"),
        )


def read_sectioned_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse ``[section]`` / ``key = value`` text into nested dicts."""
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise PipelineError(f"{path}:{lineno}: expected '[section]' or 'key = value'")
        key, _, value = line.partition("=")
        sections[current][key.strip().lower()] = value.strip()
    return sections


def _coerce(dataclass_obj, section: dict[str, str]):
    """Overlay string key/values from a config section onto a dataclass."""
    updates = {}
    for key, raw in section.items():
        if not hasattr(dataclass_obj, key):
            raise PipelineError(f"unknown config key {key!r} for {type(dataclass_obj).__name__}")
        current = getattr(dataclass_obj, key)
        if isinstance(current, bool):
            updates[key] = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            updates[key] = int(raw)
        elif isinstance(current, float):
            updates[key] = float(raw)
        else:
            updates[key] = raw
    return replace(dataclass_obj, **updates)


_RUN_KEYS = ("out", "seed", "ontology", "corpus", "eval_corpus")
_SCORING_KEYS = ("gamma0", "gamma1", "gamma2", "semantics")
# Sections overlaid onto a RunConfig dataclass field: section name -> field name.
_DATACLASS_SECTIONS = {"miner": "mining", "encoder": "encoder", "loss": "loss", "optimizer": "optimizer"}


def _reject_unknown(what: str, names, allowed) -> None:
    unknown = sorted(set(names) - set(allowed))
    if unknown:
        raise PipelineError(f"unknown {what} {unknown[0]!r}; expected one of: {', '.join(allowed)}")


def config_from_file(path: str | Path) -> RunConfig:
    sections = read_sectioned_config(path)
    _reject_unknown("config section", sections, ("run", "scoring", *_DATACLASS_SECTIONS))
    run = sections.get("run", {})
    _reject_unknown("config key in [run]", run, _RUN_KEYS)
    cfg = RunConfig(
        out=Path(run.get("out", "run")),
        seed=int(run.get("seed", "0")),
        ontology=Path(run["ontology"]) if "ontology" in run else None,
        corpus=Path(run["corpus"]) if "corpus" in run else None,
        eval_corpus=Path(run["eval_corpus"]) if "eval_corpus" in run else None,
    )
    scoring = sections.get("scoring", {})
    _reject_unknown("config key in [scoring]", scoring, _SCORING_KEYS)
    if scoring:
        gammas = GammaWeights(
            float(scoring.get("gamma0", cfg.gammas.g0)),
            float(scoring.get("gamma1", cfg.gammas.g1)),
            float(scoring.get("gamma2", cfg.gammas.g2)),
        )
        cfg = replace(cfg, gammas=gammas, semantics=scoring.get("semantics", cfg.semantics))
    for section, name in _DATACLASS_SECTIONS.items():
        if section in sections:
            cfg = replace(cfg, **{name: _coerce(getattr(cfg, name), sections[section])})
    return cfg


def with_seed_defaults(cfg: RunConfig) -> RunConfig:
    """Fan the global seed out to nested configs that still carry defaults."""
    encoder = replace(cfg.encoder, seed=cfg.seed)
    optimizer = replace(cfg.optimizer, seed=stage_seed(cfg.seed, "train"))
    return replace(cfg, encoder=encoder, optimizer=optimizer)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _manifest_path(artifact: Path) -> Path:
    return artifact.with_name(artifact.name + ".manifest.json")


def _write_manifest(artifact: Path, stage: str, seed: int, cfg_payload: dict, inputs: dict[str, Path]) -> None:
    manifest = {
        "artifact": artifact.name,
        "tool": "medtriplet",
        "version": __version__,
        "stage": stage,
        "seed": seed,
        "config": json.loads(json.dumps(cfg_payload, default=str)),
        "config_hash": _config_hash(cfg_payload),
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
        "output_hash": sha256_file(artifact),
    }
    _manifest_path(artifact).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _up_to_date(artifact: Path, cfg_payload: dict, inputs: dict[str, Path]) -> bool:
    manifest_path = _manifest_path(artifact)
    if not (artifact.exists() and manifest_path.exists()):
        return False
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return False
    if manifest.get("config_hash") != _config_hash(cfg_payload):
        return False
    if manifest.get("output_hash") != sha256_file(artifact):
        return False
    recorded = manifest.get("inputs", {})
    if set(recorded) != set(inputs):
        return False
    return all(recorded[name] == sha256_file(path) for name, path in inputs.items())


@contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = lock.open("x")
    except FileExistsError:
        raise PipelineError(
            f"output directory {out_dir} is locked by another run (remove {lock} if stale)"
        ) from None
    try:
        fd.write("medtriplet\n")
        fd.close()
        yield
    finally:
        lock.unlink(missing_ok=True)


class FrozenTrunks:
    """Both frozen encoder trunks, built once; encodes records into trunk matrices."""

    def __init__(self, cfg: EncoderConfig) -> None:
        self.cfg = cfg
        self.image = init_image_trunk(cfg)
        self.text = init_text_trunk(cfg)

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """(len(texts), c) pooled text-trunk outputs."""
        return np.array([trunk_encode(tokenize_text(t, self.cfg), self.text, self.cfg) for t in texts])

    def encode_records(self, records: list[CorpusRecord]) -> tuple[np.ndarray, np.ndarray]:
        """(N, c) image and text trunk matrices, one row per record in order.

        Records come from ``ingest(..., require_images=True)``, so each has an image.
        """
        z_img = np.array([trunk_encode(load_image(rec.image), self.image, self.cfg) for rec in records])
        return z_img, self.encode_texts([rec.text for rec in records])


def stage_extract(cfg: RunConfig, force: bool = False) -> Path:
    if cfg.corpus is None:
        raise PipelineError("extract stage needs a corpus path")
    ont = cfg.load_ontology()
    artifact = cfg.out / "entities.jsonl"
    cfg_payload = {"ontology": "default" if cfg.ontology is None else str(cfg.ontology)}
    inputs = {"corpus": cfg.corpus}
    if cfg.ontology is not None:
        inputs["ontology"] = cfg.ontology
    if not force and _up_to_date(artifact, cfg_payload, inputs):
        logger.info("extract: up to date, skipping")
        return artifact
    corpus = ingest(cfg.corpus)
    items = [(rec.id, extract(rec.report(), ont)) for rec in corpus]
    write_entities(artifact, items)
    _write_manifest(artifact, "extract", stage_seed(cfg.seed, "extract"), cfg_payload, inputs)
    return artifact


def stage_mine(cfg: RunConfig, force: bool = False) -> Path:
    entities_path = cfg.out / "entities.jsonl"
    if not entities_path.exists():
        raise PipelineError("mine stage needs entities.jsonl; run extract first")
    artifact = cfg.out / "triplets.jsonl"
    miner_cfg = cfg.miner_config()
    cfg_payload = {"miner": asdict(miner_cfg), "k": cfg.mining.batch_size, "target": cfg.mining.target}
    inputs = {"entities": entities_path}
    if not force and _up_to_date(artifact, cfg_payload, inputs):
        logger.info("mine: up to date, skipping")
        return artifact
    samples = read_entities(entities_path)
    mine_corpus(
        samples,
        k=cfg.mining.batch_size,
        target=cfg.mining.target,
        cfg=miner_cfg,
        out_path=artifact,
        pass_limit=cfg.mining.pass_limit,
    )
    _write_manifest(artifact, "mine", miner_cfg.seed, cfg_payload, inputs)
    return artifact


def stage_train(cfg: RunConfig, force: bool = False) -> Path:
    triplets_path = cfg.out / "triplets.jsonl"
    if not triplets_path.exists():
        raise PipelineError("train stage needs triplets.jsonl; run mine first")
    if cfg.corpus is None:
        raise PipelineError("train stage needs a corpus path")
    artifact = cfg.out / "heads.ckpt"
    cfg_payload = {
        "encoder": asdict(cfg.encoder),
        "loss": asdict(cfg.loss),
        "optimizer": asdict(cfg.optimizer),
    }
    inputs = {"triplets": triplets_path, "corpus": cfg.corpus}
    if not force and _up_to_date(artifact, cfg_payload, inputs):
        logger.info("train: up to date, skipping")
        return artifact
    _, triplets = read_triplets(triplets_path)
    if not triplets:
        raise PipelineError("triplet file holds no triplets; nothing to train on")
    corpus = ingest(cfg.corpus, require_images=True)
    ids = sorted({sample_id for t in triplets for sample_id in t.key()})
    missing = [i for i in ids if i not in corpus.records]
    if missing:
        raise PipelineError(f"triplet ids missing from corpus: {missing[:5]}")
    z_img, z_txt = FrozenTrunks(cfg.encoder).encode_records([corpus[i] for i in ids])
    row = {sample_id: r for r, sample_id in enumerate(ids)}
    index = np.array([[row[i] for i in t.key()] for t in triplets], dtype=np.int64)
    heads = {IMAGE: init_head(cfg.encoder, IMAGE), TEXT: init_head(cfg.encoder, TEXT)}
    result = train_heads(z_img, z_txt, index, heads, cfg.loss, cfg.optimizer)
    write_loss_curve(cfg.out / "loss_curve.jsonl", result.curve)
    arrays = {"head.image": result.heads[IMAGE], "head.text": result.heads[TEXT]}
    arrays.update(result.optimizer_state)
    save_checkpoint(artifact, {"encoder": asdict(cfg.encoder), "seed": cfg.seed}, arrays)
    _write_manifest(artifact, "train", cfg.optimizer.seed, cfg_payload, inputs)
    return artifact


def load_heads(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    config, arrays = load_checkpoint(path)
    return config, {IMAGE: arrays["head.image"], TEXT: arrays["head.text"]}


def _eval_embeddings(
    cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path, trunks: FrozenTrunks
) -> tuple[list[tuple[str, Embedding, Embedding, MetaEntities]], Ontology]:
    ont = cfg.load_ontology()
    records = sorted(ingest(eval_corpus_path, require_images=True), key=lambda r: r.id)
    if not records:
        raise PipelineError(f"eval corpus {eval_corpus_path} holds no records")
    z_img, z_txt = trunks.encode_records(records)
    e_img, e_txt = z_img @ heads[IMAGE].T, z_txt @ heads[TEXT].T
    rows = [
        (rec.id, Embedding(ei, IMAGE), Embedding(et, TEXT), extract(rec.report(), ont))
        for rec, ei, et in zip(records, e_img, e_txt)
    ]
    return rows, ont


def evaluate_retrieval_tasks(
    cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path, match_mode: str = "mean"
) -> dict:
    """P@R tables for the four retrieval tasks over an evaluation corpus."""
    rows, _ = _eval_embeddings(cfg, heads, eval_corpus_path, FrozenTrunks(cfg.encoder))
    image_gallery = Gallery(tuple(GalleryEntry(i, img, ents) for i, img, _, ents in rows))
    text_gallery = Gallery(tuple(GalleryEntry(i, txt, ents) for i, _, txt, ents in rows))
    image_queries = [(i, img, ents) for i, img, _, ents in rows]
    text_queries = [(i, txt, ents) for i, _, txt, ents in rows]
    r_values = [r for r in cfg.r_values if r <= max(1, len(rows) - 1)] or [1]
    return {
        "r_values": list(r_values),
        "match_mode": match_mode,
        "tasks": {
            "i2i": retrieval_report(image_queries, image_gallery, r_values, match_mode),
            "i2t": retrieval_report(image_queries, text_gallery, r_values, match_mode),
            "t2i": retrieval_report(text_queries, image_gallery, r_values, match_mode),
            "t2t": retrieval_report(text_queries, text_gallery, r_values, match_mode),
        },
    }


def evaluate_classification(
    cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path
) -> dict:
    """Zero-shot disease classification over single-disease eval records."""
    trunks = FrozenTrunks(cfg.encoder)
    rows, ont = _eval_embeddings(cfg, heads, eval_corpus_path, trunks)
    labelled = [(i, img, ents) for i, img, _, ents in rows if len(ents.entries) == 1]
    if len(labelled) < 2:
        raise PipelineError("need at least 2 single-disease eval records to classify")
    classes = sorted({ents.entries[0].disease for _, _, ents in labelled})
    if len(classes) < 2:
        raise PipelineError("need at least 2 distinct classes among eval records")
    z_prompt = trunks.encode_texts([prompt_text(label, ont) for label in classes])
    prompts = [(label, Embedding(e, TEXT)) for label, e in zip(classes, z_prompt @ heads[TEXT].T)]
    predictions, truths, score_vectors = [], [], []
    for _, img, ents in labelled:
        predicted, scores = zero_shot_classify(img, prompts)
        predictions.append(predicted)
        truths.append(ents.entries[0].disease)
        score_vectors.append(scores)
    metrics = classification_metrics(predictions, truths, score_vectors)
    return {
        "classes": classes,
        "samples": len(labelled),
        "accuracy": metrics.accuracy,
        "macro_f1": metrics.macro_f1,
        "macro_auc": metrics.macro_auc,
        "per_class_f1": metrics.per_class_f1,
        "per_class_auc": metrics.per_class_auc,
    }


def stage_eval(cfg: RunConfig, force: bool = False) -> Path:
    heads_path = cfg.out / "heads.ckpt"
    if not heads_path.exists():
        raise PipelineError("eval stage needs heads.ckpt; run train first")
    eval_corpus = cfg.eval_corpus or cfg.corpus
    if eval_corpus is None:
        raise PipelineError("eval stage needs an eval corpus path")
    artifact = cfg.out / "eval_retrieval.json"
    cfg_payload = {"encoder": asdict(cfg.encoder), "r_values": list(cfg.r_values)}
    inputs = {"heads": heads_path, "eval_corpus": eval_corpus}
    if not force and _up_to_date(artifact, cfg_payload, inputs):
        logger.info("eval: up to date, skipping")
        return artifact
    _, heads = load_heads(heads_path)
    report = evaluate_retrieval_tasks(cfg, heads, eval_corpus)
    artifact.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(artifact, "eval", stage_seed(cfg.seed, "eval"), cfg_payload, inputs)
    return artifact


_STAGE_FUNCS = {
    "extract": stage_extract,
    "mine": stage_mine,
    "train": stage_train,
    "eval": stage_eval,
}


def run_pipeline(cfg: RunConfig, stages: tuple[str, ...] = STAGES, force: bool = False) -> dict[str, Path]:
    """Execute the requested stages in canonical order under a lock."""
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise PipelineError(f"unknown stages: {unknown}")
    cfg = with_seed_defaults(cfg)
    artifacts: dict[str, Path] = {}
    with output_lock(cfg.out):
        for stage in STAGES:
            if stage in stages:
                artifacts[stage] = _STAGE_FUNCS[stage](cfg, force=force)
    return artifacts
