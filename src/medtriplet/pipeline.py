"""Pipeline orchestration: staged runs with reproducible manifests.

Stages (extract, mine, train, eval) execute in order inside a locked
output directory. Every artifact gets a sibling ``<name>.manifest.json``
recording the tool version, the stage seed, the effective stage config
(plus its hash), and the content hashes of all inputs (the ontology
file and the images a corpus names among them) and of files a stage
writes beside its artifact (the loss curve beside ``heads.ckpt``). The
eval stage encodes the eval corpus once and writes two files: retrieval
P@R to ``eval_retrieval.json`` and, beside it, zero-shot classification
to ``eval_classification.json``. A re-run skips any stage whose manifest
still matches, unless forced. A stage reads an earlier stage's artifact
only when that artifact matches its own manifest. Manifests carry no
timestamps, so identical inputs and config produce byte-identical
artifact trees.

The single global seed fans out to per-stage seeds as
``seed + 1000 * stage_index`` with stage indices synth=1, extract=2,
mine=3, train=4, eval=5. Encoder weight initialization uses the global
seed directly so train and eval see identical trunks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .alignment import LossConfig, OptimizerConfig, train_heads
from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .corpus import CorpusRecord, atomic_write, ingest, read_entities, write_entities, write_jsonl
from .encoder import (
    IMAGE,
    TEXT,
    PATCH_SIZE,
    ImageSample,
    TokenSequence,
    check_image,
    init_head,
    init_image_trunk,
    init_text_trunk,
    tokenize_text,
    trunk_encode,
)
from .evaluation import R_VALUES, classification_metrics, prompt_text, retrieval_report, zero_shot_classify
from .extraction import MetaEntities, extract
from .images import load_image
from .mining import MiningSettings, mine_corpus, read_triplets, write_triplets
from .ontology import DEFAULT_ONTOLOGY_FILE, Ontology, load_ontology, read_sections, read_text
from .scoring import GammaWeights

logger = logging.getLogger(__name__)

STAGES = ("extract", "mine", "train", "eval")
_STAGE_INDEX = {"synth": 1, "extract": 2, "mine": 3, "train": 4, "eval": 5}


class PipelineError(RuntimeError):
    """Missing dependency artifact, stale input, or locked output dir."""


def stage_seed(global_seed: int, stage: str) -> int:
    return global_seed + 1000 * _STAGE_INDEX[stage]


@dataclass(frozen=True)
class RunConfig:
    out: Path = Path("run")
    seed: int = 0
    ontology: Path | None = None
    corpus: Path | None = None
    eval_corpus: Path | None = None
    mining: MiningSettings = field(default_factory=MiningSettings)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    # Read-only views of the score settings, which benchmarks/bench.py reads off a run config.
    gammas = property(lambda self: self.mining.gammas)
    semantics = property(lambda self: self.mining.semantics)


def read_sectioned_config(path: str | Path) -> dict[str, dict[str, str]]:
    """A config file's ``key = value`` lines as nested dicts, by ``SETTINGS`` section.

    ``read_sections`` checks the sections; a line that is not ``key = value``,
    or a key given twice within a section, is an error naming ``file:line``.
    """
    sections: dict[str, dict[str, str]] = {}
    for name, entries in read_sections(read_text(path, PipelineError), str(path), SETTINGS, PipelineError).items():
        values = sections[name] = {}
        for lineno, line in entries:
            if "=" not in line:
                raise PipelineError(f"{path}:{lineno}: expected '[section]' or 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key in values:
                raise PipelineError(f"{path}:{lineno}: key {key!r} given twice in [{name}]")
            values[key] = value.strip()
    return sections


def _parse(section: str, key: str, raw, kind: type):
    """One setting's value as ``kind``; a value that is not one, or an empty path, names its section and key."""
    if kind is Path and raw == "":  # Path("") would be the current directory
        raise PipelineError(f"[{section}] {key} is empty; give a path")
    try:
        return kind(raw)
    except ValueError:
        raise PipelineError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from None


# Every key a run may set, by config section, with the type its value parses to.
SETTINGS: dict[str, dict[str, type]] = {
    "run": {"out": Path, "seed": int, "ontology": Path, "corpus": Path, "eval_corpus": Path},
    "scoring": {"gamma0": float, "gamma1": float, "gamma2": float, "semantics": str},
    "miner": {"batch_size": int, "target": int, "pass_limit": int, "tau_min": float, "tau_max": float},
    "loss": {"alpha": float, "eta": float, "sign_mode": str},
    "optimizer": {"learning_rate": float, "epochs": int, "batch_size": int},
}
# The RunConfig field a stage section sets; [run] sets RunConfig's own fields, [scoring] those of its mining.
_SECTION_FIELD = {"miner": "mining", "loss": "loss", "optimizer": "optimizer"}


def with_settings(cfg: RunConfig, section: str, values: dict) -> RunConfig:
    """``cfg`` with one ``SETTINGS`` section's ``values`` applied.

    A value is a config file's string or already of its key's type. The
    three gamma weights build one ``GammaWeights``, so its sum-to-one check
    sees them together.
    """
    if section in _SECTION_FIELD and "seed" in values:
        raise PipelineError(f"[{section}] seed is not read; every stage seed derives from [run] seed")
    kinds = SETTINGS[section]
    unknown = sorted(set(values) - set(kinds))
    if unknown:
        raise PipelineError(f"unknown config key in [{section}] {unknown[0]!r}; expected one of: {', '.join(kinds)}")
    updates = {key: _parse(section, key, raw, kinds[key]) for key, raw in values.items()}
    if section == "run":
        return replace(cfg, **updates)
    if section == "scoring":
        m = cfg.mining
        gammas = GammaWeights(*(updates.get(f"gamma{i}", g) for i, g in enumerate(astuple(m.gammas))))
        return replace(cfg, mining=replace(m, gammas=gammas, semantics=updates.get("semantics", m.semantics)))
    name = _SECTION_FIELD[section]
    return replace(cfg, **{name: replace(getattr(cfg, name), **updates)})


def config_from_file(path: str | Path) -> RunConfig:
    """Parse and validate a run config file; every error it raises names the file."""
    sections = read_sectioned_config(path)
    try:
        cfg = RunConfig()
        for section in SETTINGS:
            cfg = with_settings(cfg, section, sections.get(section, {}))
    except (PipelineError, ValueError) as exc:
        raise PipelineError(f"{path}: {exc}") from None
    return cfg


def with_seed_defaults(cfg: RunConfig) -> RunConfig:
    """Fan the global seed out to the miner and the optimizer, which get the mine and train stage
    seeds whatever seeds they carry; the trunks and heads take the global seed itself. The mine
    and train stages apply it themselves, so each uses the seed its manifest records."""
    mining = replace(cfg.mining, seed=stage_seed(cfg.seed, "mine"))
    return replace(cfg, mining=mining, optimizer=replace(cfg.optimizer, seed=stage_seed(cfg.seed, "train")))


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


def _images_hash(records: list[CorpusRecord]) -> str:
    """One digest over the bytes of every record's image, in record order."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(hashlib.sha256(rec.image.read_bytes()).digest())
    return digest.hexdigest()


def _side_hashes(side_outputs: tuple[Path, ...]) -> dict[str, str | None]:
    """Content hash of each file a stage writes beside its artifact; a missing one hashes to None."""
    return {path.name: sha256_file(path) if path.exists() else None for path in side_outputs}


def _write_manifest(
    artifact: Path, stage: str, seed: int, cfg_payload: dict, input_hashes: dict[str, str], side: tuple[Path, ...]
) -> None:
    manifest = {
        "artifact": artifact.name,
        "tool": "medtriplet",
        "version": __version__,
        "stage": stage,
        "seed": seed,
        "config": json.loads(json.dumps(cfg_payload, default=str)),
        "config_hash": _config_hash(cfg_payload),
        "inputs": input_hashes,
        "output_hash": sha256_file(artifact),
    }
    if side:
        manifest["side_outputs"] = _side_hashes(side)
    with atomic_write(_manifest_path(artifact)) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_manifest(artifact: Path) -> dict | None:
    """The artifact's manifest, or None when the artifact or a readable manifest (a JSON object) is missing."""
    manifest_path = _manifest_path(artifact)
    if not (artifact.exists() and manifest_path.exists()):
        return None
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError:  # undecodable, or not JSON
        return None
    return manifest if isinstance(manifest, dict) else None


def _up_to_date(artifact: Path, cfg_payload: dict, input_hashes: dict[str, str], side: tuple[Path, ...]) -> bool:
    manifest = _read_manifest(artifact)
    return (
        manifest is not None
        and manifest.get("config_hash") == _config_hash(cfg_payload)
        and manifest.get("inputs") == input_hashes
        and manifest.get("output_hash") == sha256_file(artifact)
        and manifest.get("side_outputs", {}) == _side_hashes(side)
    )


def _lock_owner(lock: Path) -> str:
    """Who holds ``lock``: its recorded pid, and whether that pid still runs."""
    try:
        owner = lock.read_text(encoding="utf-8").strip()
    except OSError:  # released, or unreadable, since the open that failed
        owner = ""
    if not owner.isdigit() or int(owner) == 0 or os.name != "posix":
        return f"pid {owner or 'unknown'} (remove {lock} if stale)"
    try:
        os.kill(int(owner), 0)  # signal 0 only checks that the pid exists
    except (ProcessLookupError, OverflowError):
        return f"stale: pid {owner} is not running (remove {lock} to go on)"
    except PermissionError:  # it exists, under another user
        pass
    return f"held by running pid {owner} (remove {lock} only if that is not a medtriplet run)"


@contextmanager
def output_lock(out_dir: Path):
    """Hold ``out_dir/.lock``, which records this pid, for the block; never removes another's lock.
    The directories this call made, ``out_dir`` and its missing parents, are removed again if left empty."""
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    try:
        fd = lock.open("x")
    except FileExistsError:
        raise PipelineError(f"output directory {out_dir} is locked by another run: {_lock_owner(lock)}") from None
    try:
        fd.write(f"{os.getpid()}\n")
        fd.close()
        yield
    finally:
        lock.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):  # rmdir removes only an empty directory
                directory.rmdir()


# Sequence positions per trunk forward pass: an image stack holds this // its
# patch count rows, a text stack this // its token count. Fewer, larger stacks
# pay numpy's per-call overhead less often; the largest MLP temporary is then
# at most 128 x 256 x 8 B = 256 KiB for either modality, above glibc's default
# 128 KiB mmap threshold (4-row image stacks sat at it, never under it).
TRUNK_POSITIONS = 128


class FrozenTrunks:
    """Both frozen encoder trunks, built once; encodes records into trunk matrices.

    Rows go through the trunks in stacks of up to ``TRUNK_POSITIONS``
    sequence positions, which gives the same floats as one row at a time.
    """

    def __init__(self, seed: int) -> None:
        self.image = init_image_trunk(seed)
        self.text = init_text_trunk(seed)

    def encode_texts(self, texts: list[str]) -> np.ndarray:
        """(len(texts), c) pooled text-trunk outputs; each distinct text is encoded once.

        Stacks hold texts of one token count.
        """
        ids = {t: tokenize_text(t).ids for t in dict.fromkeys(texts)}
        by_length: dict[int, list[str]] = {}
        for t, seq in ids.items():
            by_length.setdefault(len(seq), []).append(t)
        pooled = {}
        for length, group in by_length.items():
            per_stack = TRUNK_POSITIONS // length
            for start in range(0, len(group), per_stack):
                chunk = group[start : start + per_stack]
                stack = TokenSequence(tuple(ids[t] for t in chunk))
                pooled.update(zip(chunk, trunk_encode(stack, self.text)))
        return np.array([pooled[t] for t in texts])

    def encode_images(self, records: list[CorpusRecord]) -> np.ndarray:
        """(N, c) pooled image-trunk outputs, one row per record in order.

        Records come from ``ingest(..., require_images=True)``, so each has an
        image. Consecutive images of one shape are stacked. Each is checked
        as it loads, so the first record in order whose image fails to load
        or that the trunk cannot take is the one an error names.
        """
        rows: list[np.ndarray] = []
        stack: list[np.ndarray] = []
        for rec in records:
            image = load_image(rec.image)
            try:
                check_image(image)
            except ValueError as exc:
                raise PipelineError(f"record {rec.id!r}, image {rec.image}: {exc}") from None
            patches = image.pixels.size // PATCH_SIZE**2
            if stack and ((len(stack) + 1) * patches > TRUNK_POSITIONS or stack[0].shape != image.pixels.shape):
                rows.extend(trunk_encode(ImageSample(np.array(stack)), self.image))
                stack = []
            stack.append(image.pixels)
        if stack:
            rows.extend(trunk_encode(ImageSample(np.array(stack)), self.image))
        return np.array(rows)

    def encode_records(self, records: list[CorpusRecord]) -> tuple[np.ndarray, np.ndarray]:
        """(N, c) image and text trunk matrices, one row per record in order."""
        return self.encode_images(records), self.encode_texts([rec.text for rec in records])


# Inputs written by an earlier stage: input name -> that stage.
_WRITTEN_BY = {"entities": "extract", "triplets": "mine", "heads": "train"}


def _input_hashes(stage: str, inputs: dict) -> dict[str, str]:
    """The content hash of each of a stage's inputs. An input that an earlier stage wrote must match
    its own manifest, so a partial artifact left by a killed run is never read. An ``images`` input
    returns the records the build reads, and is hashed by the bytes of their images."""
    input_hashes = {}
    for name, path in inputs.items():
        if path is None:
            raise PipelineError(f"{stage} stage needs a path for {name}")
        earlier = _WRITTEN_BY.get(name)
        manifest = _read_manifest(path) if earlier else None
        if earlier and manifest is None:
            raise PipelineError(f"{stage} stage needs {path.name}; run {earlier} first")
        input_hashes[name] = _images_hash(path()) if name == "images" else sha256_file(path)
        if earlier and manifest.get("output_hash") != input_hashes[name]:
            raise PipelineError(f"{path} does not match its manifest; run {earlier} again before {stage}")
    return input_hashes


def _run_stage(
    cfg: RunConfig,
    stage: str,
    force: bool,
    artifact: Path,
    cfg_payload: dict,
    inputs: dict[str, Path | None | Callable[[], list[CorpusRecord]]],
    build: Callable[[], None],
    side_outputs: tuple[Path, ...] = (),
) -> Path:
    """Check a stage's inputs, skip it if its artifact is current, else build it.

    Each input is hashed once. The manifest is written last. ``side_outputs``
    are files the build writes besides the artifact; a missing or changed
    one makes the stage stale too.
    """
    input_hashes = _input_hashes(stage, inputs)
    if not force and _up_to_date(artifact, cfg_payload, input_hashes, side_outputs):
        logger.info("%s: up to date, skipping", stage)
        return artifact
    artifact.parent.mkdir(parents=True, exist_ok=True)
    build()
    _write_manifest(artifact, stage, stage_seed(cfg.seed, stage), cfg_payload, input_hashes, side_outputs)
    return artifact


def stage_extract(cfg: RunConfig, force: bool = False) -> Path:
    artifact = cfg.out / "entities.jsonl"

    def build() -> None:
        ont = load_ontology(cfg.ontology)
        write_entities(artifact, [(rec.id, extract(rec.report(), ont)) for rec in ingest(cfg.corpus)])

    cfg_payload = {"ontology": "default" if cfg.ontology is None else str(cfg.ontology)}
    inputs = {"corpus": cfg.corpus, "ontology": cfg.ontology or DEFAULT_ONTOLOGY_FILE}
    return _run_stage(cfg, "extract", force, artifact, cfg_payload, inputs, build)


def stage_mine(cfg: RunConfig, force: bool = False) -> Path:
    cfg = with_seed_defaults(cfg)
    entities_path = cfg.out / "entities.jsonl"
    artifact = cfg.out / "triplets.jsonl"

    def build() -> None:
        write_triplets(artifact, *mine_corpus(read_entities(entities_path), cfg.mining))

    return _run_stage(cfg, "mine", force, artifact, asdict(cfg.mining), {"entities": entities_path}, build)


def stage_train(cfg: RunConfig, force: bool = False) -> Path:
    cfg = with_seed_defaults(cfg)
    triplets_path = cfg.out / "triplets.jsonl"
    artifact = cfg.out / "heads.ckpt"
    curve_path = cfg.out / "loss_curve.jsonl"
    records = functools.cache(lambda: ingest(cfg.corpus, require_images=True))  # hashed, then read by build

    def build() -> None:
        _, triplets = read_triplets(triplets_path)
        if not triplets:
            raise PipelineError("triplet file holds no triplets; nothing to train on")
        corpus = {rec.id: rec for rec in records()}
        ids = sorted({sample_id for t in triplets for sample_id in t.key()})
        missing = [i for i in ids if i not in corpus]
        if missing:
            raise PipelineError(f"triplet ids missing from corpus: {missing[:5]}")
        z_img, z_txt = FrozenTrunks(cfg.seed).encode_records([corpus[i] for i in ids])
        row = {sample_id: r for r, sample_id in enumerate(ids)}
        index = np.array([[row[i] for i in t.key()] for t in triplets], dtype=np.int64)
        heads = {IMAGE: init_head(cfg.seed, IMAGE), TEXT: init_head(cfg.seed, TEXT)}
        heads, curve = train_heads(z_img, z_txt, index, heads, cfg.loss, cfg.optimizer)
        write_jsonl(curve_path, curve)
        save_checkpoint(artifact, _heads_record(cfg), heads)

    # Naming the checkpoint layout re-trains heads saved in another one, which eval could not read.
    cfg_payload = {"seed": cfg.seed, "loss": asdict(cfg.loss), "optimizer": asdict(cfg.optimizer)}
    cfg_payload["checkpoint"] = MAGIC.decode()
    inputs = {"triplets": triplets_path, "corpus": cfg.corpus, "images": records}
    return _run_stage(cfg, "train", force, artifact, cfg_payload, inputs, build, side_outputs=(curve_path,))


def _heads_record(cfg: RunConfig) -> dict:
    """What ``heads.ckpt`` records of the run that trained it: the heads fit that seed's frozen trunks only."""
    return {"seed": cfg.seed}


def load_heads(path: str | Path, cfg: RunConfig | None = None) -> tuple[dict, dict[str, np.ndarray]]:
    """The run record and the two projection heads that ``load_checkpoint`` reads from ``path``.
    With ``cfg``, the record must be exactly ``cfg``'s seed: the first field that differs, or
    that only one side has, is named. Each error names the file."""
    record, heads = load_checkpoint(path)
    if cfg is not None:
        want = _heads_record(cfg)
        absent = object()
        for name in {**want, **record}:  # the run's fields in order, then any only the checkpoint has
            if record.get(name, absent) != want.get(name, absent):
                recorded, has = (f"{name} = {r[name]!r}" if name in r else f"no {name}" for r in (record, want))
                raise PipelineError(f"{path}: checkpoint records {recorded}; this run has {has}")
    return record, heads


def _eval_records(
    cfg: RunConfig, eval_corpus_path: Path, records: list[CorpusRecord] | None = None
) -> tuple[list[CorpusRecord], list[MetaEntities], Ontology]:
    """The eval corpus's records sorted by id, their extracted entities, and the ontology; ``records``,
    if given, are the corpus's records as already ingested. A query needs another record to retrieve,
    so the corpus must hold 2 or more."""
    ont = load_ontology(cfg.ontology)
    records = sorted(ingest(eval_corpus_path, require_images=True) if records is None else records, key=lambda r: r.id)
    if len(records) < 2:
        held = "holds no records" if not records else "holds 1 record"
        raise PipelineError(f"eval corpus {eval_corpus_path} {held}; evaluation needs 2 or more")
    return records, [extract(rec.report(), ont) for rec in records], ont


def _project(z: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Trunk rows through a projection head; non-finite entries are an error."""
    embeddings = z @ head.T
    if not np.all(np.isfinite(embeddings)):
        raise ValueError("embeddings contain non-finite entries")
    return embeddings


def _retrieval_tasks(images: np.ndarray, texts: np.ndarray, ents: list[MetaEntities], match_mode: str) -> dict:
    """P@R tables for the four retrieval tasks over projected image and text rows."""
    r_values = [r for r in R_VALUES if r < len(ents)]
    return {
        "r_values": r_values,
        "match_mode": match_mode,
        "tasks": {
            "i2i": retrieval_report(images, images, ents, r_values, match_mode),
            "i2t": retrieval_report(images, texts, ents, r_values, match_mode),
            "t2i": retrieval_report(texts, images, ents, r_values, match_mode),
            "t2t": retrieval_report(texts, texts, ents, r_values, match_mode),
        },
    }


def evaluate_retrieval_tasks(
    cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path, match_mode: str = "mean"
) -> dict:
    """P@R tables for the four retrieval tasks over an evaluation corpus."""
    records, ents, _ = _eval_records(cfg, eval_corpus_path)
    z_img, z_txt = FrozenTrunks(cfg.seed).encode_records(records)
    return _retrieval_tasks(_project(z_img, heads[IMAGE]), _project(z_txt, heads[TEXT]), ents, match_mode)


def _classification(
    trunks: FrozenTrunks, heads: dict[str, np.ndarray], records: list[CorpusRecord], ents: list[MetaEntities],
    ont: Ontology, eval_corpus_path: Path, z_img: np.ndarray | None = None,
) -> dict:
    """Zero-shot classification of the single-disease records, from their rows of ``z_img`` (every record's
    image-trunk row) if given, else encoding their images; ``{"skipped": reason}`` under 2 classes."""
    labelled = [i for i, m in enumerate(ents) if len(m.entries) == 1]
    truths = [ents[i].entries[0].disease for i in labelled]
    classes = sorted(set(truths))
    if len(classes) < 2:
        return {"skipped": f"eval corpus {eval_corpus_path} needs single-disease records of 2 or more classes"}
    z = trunks.encode_images([records[i] for i in labelled]) if z_img is None else z_img[labelled]
    images = _project(z, heads[IMAGE])
    prompts = _project(trunks.encode_texts([prompt_text(label, ont) for label in classes]), heads[TEXT])
    predictions, scores = zero_shot_classify(images, prompts, classes)
    metrics = classification_metrics(predictions, truths, scores, classes)
    return {"classes": classes, "samples": len(labelled), **metrics}


def _eval_stage(cfg: RunConfig, eval_corpus: Path) -> tuple[dict, dict]:
    """The eval stage's config payload and inputs over ``eval_corpus``; ``images`` ingests it once."""
    records = functools.cache(lambda: ingest(eval_corpus, require_images=True))  # hashed, then read by build
    inputs = {"heads": cfg.out / "heads.ckpt", "eval_corpus": eval_corpus, "images": records}
    inputs["ontology"] = cfg.ontology or DEFAULT_ONTOLOGY_FILE
    return {"seed": cfg.seed, "r_values": list(R_VALUES)}, inputs


def _current_classification(cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path) -> dict | None:
    """The eval stage's classification result if it is current for exactly these heads and this corpus's bytes."""
    cfg_payload, inputs = _eval_stage(cfg, eval_corpus_path)
    artifact, side = cfg.out / "eval_retrieval.json", cfg.out / "eval_classification.json"
    if _read_manifest(artifact) is None:
        return None
    try:
        if not _up_to_date(artifact, cfg_payload, _input_hashes("eval", inputs), (side,)):
            return None
        _, stored = load_heads(inputs["heads"])
    except (PipelineError, ValueError):  # heads.ckpt missing, not the one train wrote, or unreadable
        return None
    passed, current = ([(h[m].dtype, h[m].shape, h[m].tobytes()) for m in (IMAGE, TEXT)] for h in (heads, stored))
    return json.loads(side.read_text(encoding="utf-8")) if passed == current else None


def evaluate_classification(cfg: RunConfig, heads: dict[str, np.ndarray], eval_corpus_path: Path) -> dict:
    """Zero-shot disease classification over single-disease eval records: the eval stage's result
    while it is current for these heads and this corpus, else computed by encoding only the labelled
    records' images and the class prompts."""
    report = _current_classification(cfg, heads, eval_corpus_path)
    if report is None:
        records, ents, ont = _eval_records(cfg, eval_corpus_path)
        report = _classification(FrozenTrunks(cfg.seed), heads, records, ents, ont, eval_corpus_path)
    if "skipped" in report:
        raise PipelineError(report["skipped"])
    return report


def stage_eval(cfg: RunConfig, force: bool = False) -> Path:
    artifact, classification_path = cfg.out / "eval_retrieval.json", cfg.out / "eval_classification.json"
    cfg_payload, inputs = _eval_stage(cfg, cfg.eval_corpus or cfg.corpus)

    def build() -> None:
        _, heads = load_heads(inputs["heads"], cfg)
        records, ents, ont = _eval_records(cfg, inputs["eval_corpus"], inputs["images"]())
        trunks = FrozenTrunks(cfg.seed)
        z_img, z_txt = trunks.encode_records(records)
        classification = _classification(trunks, heads, records, ents, ont, inputs["eval_corpus"], z_img)
        del trunks  # its 2 MB of weights would raise the peak RSS that retrieval sets
        retrieval = _retrieval_tasks(_project(z_img, heads[IMAGE]), _project(z_txt, heads[TEXT]), ents, "mean")
        for path, report in ((artifact, retrieval), (classification_path, classification)):
            with atomic_write(path) as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")

    return _run_stage(cfg, "eval", force, artifact, cfg_payload, inputs, build, side_outputs=(classification_path,))


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
    artifacts: dict[str, Path] = {}
    with output_lock(cfg.out):
        for stage in STAGES:
            if stage in stages:
                artifacts[stage] = _STAGE_FUNCS[stage](cfg, force=force)
    return artifacts
