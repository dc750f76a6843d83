"""Staged pipeline: manifests, skipping, locking, determinism."""

import json
import os
import re
import signal
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import write_old_layout_heads
from medtriplet import pipeline
from medtriplet.alignment import OptimizerConfig
from medtriplet.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from medtriplet.cli import main as cli_main
from medtriplet.corpus import CorpusRecord, DataError, ingest, read_entities, write_corpus, write_jsonl
from medtriplet.encoder import EMBED_DIM, IMAGE, TEXT, init_head
from medtriplet.extraction import extract
from medtriplet.images import load_image, write_pgm
from medtriplet.ontology import default_ontology, save_ontology
from medtriplet.pipeline import (
    MiningSettings,
    PipelineError,
    RunConfig,
    config_from_file,
    evaluate_classification,
    evaluate_retrieval_tasks,
    load_heads,
    output_lock,
    run_pipeline,
    sha256_file,
    stage_seed,
    with_seed_defaults,
    with_settings,
)
from medtriplet.scoring import GammaWeights
from medtriplet.synthetic import SyntheticSpec, synthesize


@pytest.fixture()
def small_world(tmp_path):
    train = synthesize(SyntheticSpec(n_classes=3, per_class=12, overlap_rate=0.4, seed=5), tmp_path / "train")
    evalc = synthesize(SyntheticSpec(n_classes=3, per_class=5, overlap_rate=0.0, seed=6, id_prefix="e"), tmp_path / "eval")
    cfg = RunConfig(
        out=tmp_path / "run",
        seed=3,
        corpus=train.corpus_path,
        eval_corpus=evalc.corpus_path,
        mining=MiningSettings(batch_size=12, target=60, pass_limit=40),
    )
    return cfg


class TestAtomicWrites:
    def test_failed_jsonl_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(path, [{"schema": "x"}, {"id": "old"}])
        before = path.read_bytes()

        def rows():
            yield {"schema": "x"}
            yield {"id": "new"}
            raise RuntimeError("killed mid-write")

        with pytest.raises(RuntimeError, match="killed mid-write"):
            write_jsonl(path, rows())
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["t.jsonl"]

    def test_checkpoint_write_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "heads.ckpt"
        path.write_bytes(b"stale")
        save_checkpoint(path, {"seed": 0}, {IMAGE: np.eye(EMBED_DIM), TEXT: np.ones((EMBED_DIM, EMBED_DIM))})
        assert sorted(os.listdir(tmp_path)) == ["heads.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(path)[1][IMAGE], np.eye(EMBED_DIM))

    @pytest.mark.skipif(os.name != "posix", reason="the directory is fsynced on POSIX only")
    def test_directory_fsynced_after_the_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        path.write_text("old\n")
        synced = []  # (is the directory, bytes at path then) per fsync

        def fsync(fd):
            info = os.fstat(fd)
            is_dir = stat.S_ISDIR(info.st_mode) and info.st_ino == os.stat(tmp_path).st_ino
            synced.append((is_dir, path.read_bytes()))
            real_fsync(fd)

        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", fsync)
        write_jsonl(path, [{"schema": "x"}])
        assert synced == [(False, b"old\n"), (True, b'{"schema": "x"}\n')]


class TestIngest:
    def test_two_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [CorpusRecord("a", "Edema."), CorpusRecord("b", "Effusion.")])
        assert len(ingest(path)) == 2

    def test_duplicate_id_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n')
        with pytest.raises(DataError, match="duplicate id 'a'"):
            ingest(path)

    def test_missing_text_field_has_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "a"}\n')
        with pytest.raises(DataError, match=":2"):
            ingest(path)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v9"}\n')
        with pytest.raises(DataError, match="corpus/v1"):
            ingest(path)

    def test_missing_image_flagged_when_required(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "x", "image": "nope.pgm"}\n')
        with pytest.raises(DataError, match="missing image"):
            ingest(path, require_images=True)

    def test_image_naming_a_directory_is_missing(self, tmp_path):
        (tmp_path / "images").mkdir()
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "x", "image": "images"}\n')
        with pytest.raises(DataError) as info:
            ingest(path, require_images=True)
        assert str(info.value) == f"{path}:2: missing image for id 'a': {tmp_path / 'images'}"

    @pytest.mark.parametrize("require_images", [False, True])
    def test_empty_image_path_names_file_and_line(self, tmp_path, require_images):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "x", "image": ""}\n')
        with pytest.raises(DataError) as info:
            ingest(path, require_images=require_images)
        assert str(info.value) == f"{path}:2: empty image path for id 'a'"

    def test_records_in_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [CorpusRecord("b", "Edema."), CorpusRecord("a", "Effusion.")])
        assert ingest(path) == [CorpusRecord("b", "Edema."), CorpusRecord("a", "Effusion.")]

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id": "a", "text": "x", "image": 5}', "'image' must be a string or null, got 5"),
            ('{"id": "a", "text": "x", "image": ["i.pgm"]}', "'image' must be a string or null, got ['i.pgm']"),
            ('{"id": "a", "text": ["Mild left edema."]}', "'text' must be a string, got ['Mild left edema.']"),
            ('{"id": "a", "text": null}', "'text' must be a string, got None"),
            ('{"id": {"a": 1}, "text": "x"}', "'id' must be a string, got {'a': 1}"),
            ('{"id": 7, "text": "x"}', "'id' must be a string, got 7"),
            ('{"id": true, "text": "x"}', "'id' must be a string, got True"),
        ],
        ids=["image_number", "image_array", "text_array", "text_null", "id_object", "id_number", "id_boolean"],
    )
    def test_non_string_field_names_file_line_and_field(self, tmp_path, record, message):
        path = tmp_path / "c.jsonl"
        path.write_text('{"schema": "corpus/v1"}\n{"id": "ok", "text": "Edema."}\n' + record + "\n")
        with pytest.raises(DataError) as info:
            ingest(path)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("raw, shown", [("null", "None"), ("5", "5")], ids=["null", "number"])
    def test_non_string_entity_id_names_file_and_line(self, tmp_path, raw, shown):
        path = tmp_path / "entities.jsonl"
        path.write_text('{"schema": "entities/v1"}\n{"id": "a", "entries": []}\n{"id": ' + raw + ', "entries": []}\n')
        with pytest.raises(DataError) as info:
            read_entities(path)
        assert str(info.value) == f"{path}:3: 'id' must be a string, got {shown}"

    def test_malformed_entity_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text('{"schema": "entities/v1"}\n{"id": "a", "entries": []}\n{"id": "b", "entries": "edema"}\n')
        with pytest.raises(DataError) as info:
            read_entities(path)
        assert str(info.value) == f"{path}:3: 'entries' must be a list, got 'edema'"

    def test_disease_named_twice_names_file_and_line(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        twice = [{"disease": "edema", "adj": [], "dir": []}, {"disease": "edema", "adj": ["mild"], "dir": []}]
        write_jsonl(path, [{"schema": "entities/v1"}, {"id": "a", "entries": twice[:1]}, {"id": "b", "entries": twice}])
        with pytest.raises(DataError) as info:
            read_entities(path)
        assert str(info.value) == f"{path}:3: entries must be unique and sorted by disease label"


def _edit_manifest(artifact: Path, edit) -> None:
    """Apply ``edit`` to the dict in ``artifact``'s manifest and write it back."""
    path = artifact.with_name(artifact.name + ".manifest.json")
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _encoded_rows(monkeypatch) -> list:
    """Record each row of every stack ``pipeline.trunk_encode`` encodes: an id tuple per text, a pixel grid per image."""
    rows = []
    encode = pipeline.trunk_encode

    def counting(stack, *args):
        rows.extend(stack.ids if hasattr(stack, "ids") else stack.pixels)
        return encode(stack, *args)

    monkeypatch.setattr(pipeline, "trunk_encode", counting)
    return rows


class TestStages:
    def test_each_stage_ingests_its_corpus_once(self, small_world, monkeypatch):
        calls = []
        original = pipeline.ingest
        monkeypatch.setattr(pipeline, "ingest", lambda path, **kwargs: calls.append(path) or original(path, **kwargs))
        run_pipeline(small_world)
        assert calls == [small_world.corpus, small_world.corpus, small_world.eval_corpus]

    def test_missing_earlier_artifact_named_before_image_errors(self, small_world):
        run_pipeline(small_world, stages=("extract",))
        next((small_world.corpus.parent / "images").iterdir()).unlink()
        with pytest.raises(PipelineError, match="needs triplets.jsonl; run mine first"):
            run_pipeline(small_world, stages=("train",))
        with pytest.raises(PipelineError, match="needs heads.ckpt; run train first"):
            run_pipeline(replace(small_world, eval_corpus=small_world.corpus), stages=("eval",))

    def test_extract_counts(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract",))
        lines = artifacts["extract"].read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "entities/v1"
        assert len(lines) - 1 == 36

    def test_unknown_stage_fails_before_the_output_dir_is_made(self, small_world):
        with pytest.raises(PipelineError, match=r"^unknown stages: \['bogus'\]$"):
            run_pipeline(small_world, stages=("bogus",))
        assert not small_world.out.exists()

    def test_corpus_without_the_mined_ids_named(self, small_world, tmp_path):
        run_pipeline(small_world, stages=("extract", "mine"))
        records = ingest(small_world.corpus)
        subset = tmp_path / "subset.jsonl"
        write_corpus(subset, records[: len(records) // 2])
        with pytest.raises(PipelineError, match=r"^triplet ids missing from corpus: \["):
            run_pipeline(replace(small_world, corpus=subset), stages=("train",))
        assert not (small_world.out / "heads.ckpt").exists()

    def test_mine_before_extract_fails(self, small_world):
        with pytest.raises(PipelineError, match="run extract first"):
            run_pipeline(small_world, stages=("mine",))

    def test_changed_images_make_train_and_eval_stale(self, small_world, caplog):
        """The corpus files are stage inputs; the images they name count too."""

        def rerun_after_inverting(corpus: Path) -> list[str]:
            for image in (corpus.parent / "images").glob("*.pgm"):
                write_pgm(image, 1.0 - load_image(image).pixels)
            caplog.clear()
            with caplog.at_level("INFO"):
                run_pipeline(small_world)
            return [r.message.split(":")[0] for r in caplog.records if "skipping" in r.message]

        run_pipeline(small_world)
        heads = (small_world.out / "heads.ckpt").read_bytes()
        assert rerun_after_inverting(small_world.corpus) == ["extract", "mine"]
        assert (small_world.out / "heads.ckpt").read_bytes() != heads
        assert rerun_after_inverting(small_world.eval_corpus) == ["extract", "mine", "train"]

    def test_changed_seed_rebuilds_all_but_extract(self, small_world, caplog):
        run_pipeline(small_world)
        reseeded = replace(small_world, seed=small_world.seed + 1)
        with caplog.at_level("INFO"):
            run_pipeline(reseeded)
        assert [r.message for r in caplog.records if "skipping" in r.message] == ["extract: up to date, skipping"]
        for artifact in ("heads.ckpt", "eval_retrieval.json"):
            manifest = json.loads((small_world.out / f"{artifact}.manifest.json").read_text())
            assert manifest["config"]["seed"] == reseeded.seed
        header = json.loads((small_world.out / "triplets.jsonl").read_text().splitlines()[0])
        assert header["seed"] == stage_seed(reseeded.seed, "mine")

    def test_stages_called_directly_use_the_seeds_they_record(self, small_world, tmp_path):
        """Each stage function derives its own stage seeds and makes the output dir, as run_pipeline does."""
        for stage in ("extract", "mine", "train"):
            getattr(pipeline, f"stage_{stage}")(small_world)
        header = json.loads((small_world.out / "triplets.jsonl").read_text().splitlines()[0])
        manifest = json.loads((small_world.out / "triplets.jsonl.manifest.json").read_text())
        assert header["seed"] == manifest["config"]["seed"] == stage_seed(small_world.seed, "mine")
        piped = run_pipeline(replace(small_world, out=tmp_path / "piped"), stages=("extract", "mine", "train"))
        for name in ("triplets.jsonl", "heads.ckpt", "loss_curve.jsonl"):
            assert (small_world.out / name).read_bytes() == (piped["train"].parent / name).read_bytes(), name

    def test_rerun_skips(self, small_world, caplog):
        run_pipeline(small_world, stages=("extract", "mine"))
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=("extract", "mine"))
        skipped = [r for r in caplog.records if "skipping" in r.message]
        assert len(skipped) == 2

    def test_force_reruns(self, small_world, caplog):
        run_pipeline(small_world, stages=("extract",))
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=("extract",), force=True)
        assert not [r for r in caplog.records if "skipping" in r.message]

    def test_stale_input_reruns(self, small_world, caplog):
        run_pipeline(small_world, stages=("extract",))
        # touch the corpus with a content change
        text = small_world.corpus.read_text().replace("Mild", "Moderate", 1)
        small_world.corpus.write_text(text)
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=("extract",))
        assert not [r for r in caplog.records if "skipping" in r.message]

    def test_manifests_record_input_hashes(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract", "mine"))
        for stage, artifact in artifacts.items():
            manifest = json.loads(Path(str(artifact) + ".manifest.json").read_text())
            assert manifest["inputs"], stage
            for digest in manifest["inputs"].values():
                assert len(digest) == 64

    def test_full_run_and_eval_artifact(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract", "mine", "train", "eval"))
        report = json.loads(artifacts["eval"].read_text())
        assert set(report["tasks"]) == {"i2i", "i2t", "t2i", "t2t"}
        curve = (small_world.out / "loss_curve.jsonl").read_text().splitlines()
        assert len(curve) == small_world.optimizer.epochs

    @pytest.mark.parametrize("change", ["deleted", "edited"])
    def test_changed_loss_curve_is_rebuilt(self, small_world, caplog, change):
        stages = ("extract", "mine", "train")
        run_pipeline(small_world, stages=stages)
        curve = small_world.out / "loss_curve.jsonl"
        good = curve.read_bytes()
        if change == "deleted":
            curve.unlink()
        else:
            curve.write_bytes(good.replace(b'"epoch": 1', b'"epoch": 7', 1))
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=stages)
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert skipped == ["extract: up to date, skipping", "mine: up to date, skipping"]
        assert curve.read_bytes() == good

    def test_checkpoint_holds_only_the_two_heads(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract", "mine", "train"))
        record, heads = load_checkpoint(artifacts["train"])
        header = json.dumps({"seed": small_world.seed}).encode()
        payload = heads[IMAGE].tobytes() + heads[TEXT].tobytes()
        assert artifacts["train"].read_bytes() == MAGIC + len(header).to_bytes(4, "little") + header + payload
        manifest = json.loads((small_world.out / "heads.ckpt.manifest.json").read_text())
        assert manifest["config"]["checkpoint"] == MAGIC.decode()

    def test_run_dir_with_old_layout_heads_retrains_to_a_fresh_tree(self, small_world, tmp_path, caplog):
        """A run dir as an older version left it: heads.ckpt in the named-array layout, and a train
        manifest whose config names no checkpoint layout. Train and eval run again."""
        fresh = replace(small_world, out=tmp_path / "fresh")
        run_pipeline(fresh)
        run_pipeline(small_world)
        ckpt = small_world.out / "heads.ckpt"
        write_old_layout_heads(ckpt, *load_heads(ckpt))

        def old_train_manifest(manifest):
            del manifest["config"]["checkpoint"]
            manifest["config_hash"] = pipeline._config_hash(manifest["config"])
            manifest["output_hash"] = sha256_file(ckpt)

        _edit_manifest(ckpt, old_train_manifest)
        _edit_manifest(small_world.out / "eval_retrieval.json", lambda m: m["inputs"].update(heads=sha256_file(ckpt)))
        with caplog.at_level("INFO"):
            run_pipeline(small_world)
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert skipped == ["extract: up to date, skipping", "mine: up to date, skipping"]
        names = sorted(p.name for p in fresh.out.iterdir())
        assert sorted(p.name for p in small_world.out.iterdir()) == names
        for name in names:
            assert (small_world.out / name).read_bytes() == (fresh.out / name).read_bytes(), name

    def test_corrupted_artifact_with_intact_manifest_reruns(self, small_world, caplog):
        artifacts = run_pipeline(small_world, stages=("extract", "mine"))
        good = artifacts["mine"].read_bytes()
        artifacts["mine"].write_text(good.decode().replace("anchor_id", "anchor_jd", 1))
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=("extract", "mine"))
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert skipped == ["extract: up to date, skipping"]
        assert artifacts["mine"].read_bytes() == good

    def test_pass_limit_change_remines(self, small_world, caplog):
        cfg = replace(small_world, mining=replace(small_world.mining, target=500, pass_limit=2))
        run_pipeline(cfg, stages=("extract", "mine"))
        longer = replace(cfg, mining=replace(cfg.mining, pass_limit=40))
        with caplog.at_level("INFO"):
            artifacts = run_pipeline(longer, stages=("extract", "mine"))
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert skipped == ["extract: up to date, skipping"]
        manifest = json.loads(Path(str(artifacts["mine"]) + ".manifest.json").read_text())
        assert manifest["config"]["pass_limit"] == 40

    def test_non_finite_head_named(self, small_world):
        cfg = with_seed_defaults(small_world)
        heads = {IMAGE: init_head(cfg.seed, IMAGE), TEXT: init_head(cfg.seed, TEXT)}
        for modality in (IMAGE, TEXT):
            broken = {**heads, modality: heads[modality].copy()}
            broken[modality][0, 0] = np.nan
            for evaluate in (evaluate_retrieval_tasks, evaluate_classification):
                with pytest.raises(ValueError, match="non-finite entries"):
                    evaluate(cfg, broken, cfg.eval_corpus)

    def test_repeated_texts_encoded_once(self, small_world, tmp_path, monkeypatch):
        records = sorted(ingest(small_world.eval_corpus, require_images=True), key=lambda r: r.id)
        repeated = tmp_path / "repeated.jsonl"
        write_corpus(repeated, [replace(rec, text=records[i % 3].text) for i, rec in enumerate(records)])
        cfg = with_seed_defaults(small_world)
        heads = {IMAGE: init_head(cfg.seed, IMAGE), TEXT: init_head(cfg.seed, TEXT)}
        rows = _encoded_rows(monkeypatch)
        evaluate_retrieval_tasks(cfg, heads, repeated)
        texts = [row for row in rows if isinstance(row, tuple)]
        assert len(texts) == len(set(texts)) == 3
        assert len(rows) - len(texts) == len(records)

    def test_empty_eval_corpus_named(self, small_world, tmp_path):
        empty = tmp_path / "empty.jsonl"
        write_corpus(empty, [])
        run_pipeline(small_world, stages=("extract", "mine", "train"))
        with pytest.raises(PipelineError, match="holds no records"):
            run_pipeline(replace(small_world, eval_corpus=empty), stages=("eval",))

    def test_one_record_eval_corpus_named(self, small_world, tmp_path):
        # One record leaves each query nothing to retrieve; its P@R would be NaN, which JSON cannot hold.
        single = tmp_path / "single.jsonl"
        write_corpus(single, ingest(small_world.eval_corpus)[:1])
        run_pipeline(small_world, stages=("extract", "mine", "train"))
        with pytest.raises(PipelineError, match=f"eval corpus {single} holds 1 record; evaluation needs 2 or more"):
            run_pipeline(replace(small_world, eval_corpus=single), stages=("eval",))
        assert not (small_world.out / "eval_retrieval.json").exists()

    def test_two_record_eval_corpus_ranks_at_one(self, small_world, tmp_path):
        pair = tmp_path / "pair.jsonl"
        write_corpus(pair, ingest(small_world.eval_corpus)[:2])
        run_pipeline(replace(small_world, eval_corpus=pair))
        report = json.loads((small_world.out / "eval_retrieval.json").read_text())
        assert report["r_values"] == [1]
        values = [p for task in report["tasks"].values() for kind in task.values() for p in kind.values()]
        assert len(values) == 12 and all(0.0 <= p <= 100.0 for p in values)  # NaN fails the comparison

    def test_ontology_edit_reruns_eval(self, small_world, tmp_path, caplog):
        ontology = tmp_path / "ontology.txt"
        save_ontology(default_ontology(), ontology)
        cfg = replace(small_world, ontology=ontology)
        run_pipeline(cfg)
        # a deleter that no report contains: the entities stay the same, so mine and train are skipped
        ontology.write_text(ontology.read_text() + "zzunusedword\n")
        with caplog.at_level("INFO"):
            run_pipeline(cfg)
        skipped = [r.message for r in caplog.records if "skipping" in r.message]
        assert skipped == ["mine: up to date, skipping", "train: up to date, skipping"]

    @pytest.mark.parametrize("spelling", ["relative_then_absolute", "omitted_then_named"])
    def test_same_ontology_bytes_by_another_path_skip_extract(self, small_world, tmp_path, monkeypatch, caplog, spelling):
        """Extract keys on the ontology's bytes, not on how its path is spelled."""
        if spelling == "relative_then_absolute":
            save_ontology(default_ontology(), tmp_path / "o.txt")
            monkeypatch.chdir(tmp_path)
            first, second = Path("o.txt"), tmp_path / "o.txt"
        else:
            first, second = None, pipeline.DEFAULT_ONTOLOGY_FILE
        run_pipeline(replace(small_world, ontology=first), stages=("extract",))
        with caplog.at_level("INFO"):
            run_pipeline(replace(small_world, ontology=second), stages=("extract",))
        assert [r.message for r in caplog.records if "skipping" in r.message] == ["extract: up to date, skipping"]

    def test_default_ontology_recorded_as_input(self, small_world):
        artifacts = run_pipeline(small_world)
        for stage in ("extract", "eval"):
            manifest = json.loads(Path(str(artifacts[stage]) + ".manifest.json").read_text())
            assert manifest["inputs"]["ontology"] == sha256_file(pipeline.DEFAULT_ONTOLOGY_FILE), stage

    def test_truncated_dependency_rejected(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract", "mine"))
        lines = artifacts["mine"].read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 60
        artifacts["mine"].write_text("".join(lines[:11]))  # header and 10 triplets, as a killed mine leaves it
        with pytest.raises(PipelineError, match="triplets.jsonl.*run mine again"):
            run_pipeline(small_world, stages=("train",))
        assert not (small_world.out / "heads.ckpt").exists()

    def test_dependency_without_manifest_rejected(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract",))
        Path(str(artifacts["extract"]) + ".manifest.json").unlink()
        with pytest.raises(PipelineError, match="needs entities.jsonl; run extract first"):
            run_pipeline(small_world, stages=("mine",))

    @pytest.mark.parametrize("damage", [b"\xff", b"[]"], ids=["not_utf8", "not_object"])
    def test_unreadable_manifest_reruns_its_stage(self, small_world, caplog, damage):
        artifacts = run_pipeline(small_world, stages=("extract",))
        manifest = Path(str(artifacts["extract"]) + ".manifest.json")
        good = manifest.read_bytes()
        manifest.write_bytes(good + damage if damage == b"\xff" else damage)
        with caplog.at_level("INFO"):
            run_pipeline(small_world, stages=("extract",))
        assert not [r for r in caplog.records if "skipping" in r.message]
        assert manifest.read_bytes() == good

    @pytest.mark.parametrize("damage", [b"\xff", b"[]"], ids=["not_utf8", "not_object"])
    def test_unreadable_input_manifest_asks_for_its_stage(self, small_world, damage):
        artifacts = run_pipeline(small_world, stages=("extract",))
        manifest = Path(str(artifacts["extract"]) + ".manifest.json")
        manifest.write_bytes(manifest.read_bytes() + damage if damage == b"\xff" else damage)
        with pytest.raises(PipelineError, match="needs entities.jsonl; run extract first"):
            run_pipeline(small_world, stages=("mine",))

    def test_classification_encodes_only_labelled_images_and_prompts(self, small_world, monkeypatch):
        run_pipeline(small_world, stages=("extract", "mine", "train"))
        _, heads = load_heads(small_world.out / "heads.ckpt")
        ont = default_ontology()
        ents = [extract(rec.report(), ont) for rec in ingest(small_world.eval_corpus)]
        single = [m for m in ents if len(m.entries) == 1]
        classes = {m.entries[0].disease for m in single}
        rows = _encoded_rows(monkeypatch)
        report = evaluate_classification(with_seed_defaults(small_world), heads, small_world.eval_corpus)
        assert report["samples"] == len(single)
        assert len(rows) == len(single) + len(classes) < 2 * len(ents)

    def test_bad_tau_band_fails_before_extract_writes(self, small_world):
        with pytest.raises(ValueError, match=r"need 0 <= tau_min <= tau_max <= 1, got \[0.9, 0.2\]"):
            run_pipeline(replace(small_world, mining=MiningSettings(tau_min=0.9, tau_max=0.2)))
        assert not (small_world.out / "entities.jsonl").exists()

    def test_unknown_semantics_fails_before_extract_writes(self, small_world):
        with pytest.raises(ValueError, match="unknown semantics 'bogus'"):
            run_pipeline(replace(small_world, mining=replace(small_world.mining, semantics="bogus")))
        assert not (small_world.out / "entities.jsonl").exists()

    def test_byte_identical_artifact_trees(self, small_world, tmp_path):
        cfg_a = replace(small_world, out=tmp_path / "out_a")
        cfg_b = replace(small_world, out=tmp_path / "out_b")
        run_pipeline(cfg_a, stages=("extract", "mine", "train", "eval"))
        run_pipeline(cfg_b, stages=("extract", "mine", "train", "eval"))
        names = sorted(p.name for p in cfg_a.out.iterdir() if p.name != ".lock")
        assert names == sorted(p.name for p in cfg_b.out.iterdir() if p.name != ".lock")
        for name in names:
            assert sha256_file(cfg_a.out / name) == sha256_file(cfg_b.out / name), name


def _extract_calls(monkeypatch) -> list:
    """Record the report of every ``pipeline.extract`` call."""
    calls = []
    original = pipeline.extract
    monkeypatch.setattr(pipeline, "extract", lambda report, ont: calls.append(report) or original(report, ont))
    return calls


class TestEvalClassification:
    """The eval stage writes ``eval_classification.json``; ``evaluate_classification`` reuses it while current."""

    @staticmethod
    def standalone(cfg, heads, tmp_path) -> dict:
        """The result computed afresh: a run dir without an eval stage has nothing to reuse."""
        return evaluate_classification(replace(cfg, out=tmp_path / "elsewhere"), heads, cfg.eval_corpus)

    def test_side_output_equals_standalone_result_and_cli_output(self, small_world, tmp_path, capsys):
        run_pipeline(small_world)
        _, heads = load_heads(small_world.out / "heads.ckpt")
        side = small_world.out / "eval_classification.json"
        text = side.read_text()
        assert text == json.dumps(self.standalone(small_world, heads, tmp_path), indent=2, sort_keys=True) + "\n"
        manifest = json.loads((small_world.out / "eval_retrieval.json.manifest.json").read_text())
        assert manifest["side_outputs"] == {side.name: sha256_file(side)}
        capsys.readouterr()
        args = ["--out", small_world.out, "--seed", small_world.seed, "--eval-corpus", small_world.eval_corpus]
        assert cli_main(["eval-classify", *map(str, args)]) == 0
        assert capsys.readouterr().out == text

    def test_report_holds_exactly_its_keys(self, small_world):
        """The report is the classes, the sample count and the five keys ``classification_metrics`` returns."""
        heads = {IMAGE: init_head(small_world.seed, IMAGE), TEXT: init_head(small_world.seed, TEXT)}
        report = evaluate_classification(small_world, heads, small_world.eval_corpus)
        keys = {"classes", "samples", "accuracy", "macro_f1", "macro_auc", "per_class_f1", "per_class_auc"}
        assert set(report) == keys

    def test_second_call_encodes_and_extracts_nothing(self, small_world, monkeypatch):
        run_pipeline(small_world)
        _, heads = load_heads(small_world.out / "heads.ckpt")
        rows, reports = _encoded_rows(monkeypatch), _extract_calls(monkeypatch)
        report = evaluate_classification(with_seed_defaults(small_world), heads, small_world.eval_corpus)
        assert rows == [] and reports == []
        assert report == json.loads((small_world.out / "eval_classification.json").read_text())

    @pytest.mark.parametrize("change", ["heads", "side_output", "image", "manifest", "heads_file", "unreadable_heads"])
    def test_stale_result_is_computed_afresh(self, small_world, tmp_path, monkeypatch, change):
        run_pipeline(small_world)
        _, heads = load_heads(small_world.out / "heads.ckpt")
        side = small_world.out / "eval_classification.json"
        if change == "heads":
            heads = {**heads, IMAGE: heads[IMAGE] * 0.5}
        elif change == "side_output":
            side.write_text(side.read_text().replace('"accuracy": ', '"accuracy": 1', 1))
        elif change == "image":
            image = sorted((small_world.eval_corpus.parent / "images").glob("*.pgm"))[0]
            write_pgm(image, 1.0 - load_image(image).pixels)
        elif change == "manifest":
            Path(str(small_world.out / "eval_retrieval.json") + ".manifest.json").write_text("[]")
        elif change == "heads_file":
            (small_world.out / "heads.ckpt").unlink()
        else:  # bytes that do not load as heads, though the train and eval manifests both match them
            ckpt = small_world.out / "heads.ckpt"
            ckpt.write_bytes(b"not heads")
            _edit_manifest(ckpt, lambda m: m.update(output_hash=sha256_file(ckpt)))
            _edit_manifest(small_world.out / "eval_retrieval.json", lambda m: m["inputs"].update(heads=sha256_file(ckpt)))
        stale = json.loads(side.read_text())
        rows, reports = _encoded_rows(monkeypatch), _extract_calls(monkeypatch)
        report = evaluate_classification(with_seed_defaults(small_world), heads, small_world.eval_corpus)
        assert rows and reports
        assert report == self.standalone(small_world, heads, tmp_path)
        if change == "side_output":
            assert report != stale

    def test_other_corpus_is_computed_afresh(self, small_world, tmp_path, monkeypatch):
        run_pipeline(small_world)
        _, heads = load_heads(small_world.out / "heads.ckpt")
        copy = tmp_path / "copy.jsonl"
        write_corpus(copy, ingest(small_world.eval_corpus))
        rows = _encoded_rows(monkeypatch)
        report = evaluate_classification(small_world, heads, copy)
        assert rows and report == json.loads((small_world.out / "eval_classification.json").read_text())

    def test_same_corpus_named_another_way_is_reused(self, small_world, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        relative = small_world.eval_corpus.relative_to(tmp_path)
        cfg = replace(small_world, eval_corpus=relative)
        run_pipeline(cfg)
        _, heads = load_heads(cfg.out / "heads.ckpt")
        stored = json.loads((cfg.out / "eval_classification.json").read_text())
        rows = _encoded_rows(monkeypatch)
        for path in (relative, relative.resolve(), relative.parent / ".." / relative):
            assert evaluate_classification(cfg, heads, path) == stored, path
        assert rows == []

    def test_eval_manifest_without_side_outputs_reruns_eval(self, small_world, caplog):
        """A run dir made before eval wrote ``eval_classification.json`` re-runs eval once."""
        run_pipeline(small_world)
        side = small_world.out / "eval_classification.json"
        good = side.read_bytes()
        side.unlink()
        manifest_path = small_world.out / "eval_retrieval.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["side_outputs"]
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        with caplog.at_level("INFO"):
            run_pipeline(small_world)
        skipped = [r.message.split(":")[0] for r in caplog.records if "skipping" in r.message]
        assert skipped == ["extract", "mine", "train"]
        assert side.read_bytes() == good

    def test_one_class_eval_corpus_records_the_skip(self, small_world, tmp_path):
        ont = default_ontology()
        records = ingest(small_world.eval_corpus)
        diseases = [[e.disease for e in extract(rec.report(), ont).entries] for rec in records]
        one_class = tmp_path / "one_class.jsonl"
        write_corpus(one_class, [rec for rec, d in zip(records, diseases) if d == diseases[0]])
        cfg = replace(small_world, eval_corpus=one_class)
        run_pipeline(cfg)
        message = f"eval corpus {one_class} needs single-disease records of 2 or more classes"
        assert json.loads((cfg.out / "eval_classification.json").read_text()) == {"skipped": message}
        assert json.loads((cfg.out / "eval_retrieval.json").read_text())["tasks"]
        _, heads = load_heads(cfg.out / "heads.ckpt")
        for out in (cfg.out, tmp_path / "elsewhere"):  # the reused skip, then the computed one
            with pytest.raises(PipelineError) as info:
                evaluate_classification(replace(cfg, out=out), heads, one_class)
            assert str(info.value) == message


class TestLockAndSeeds:
    def test_lock_excludes_second_writer(self, tmp_path):
        out = tmp_path / "out"
        with output_lock(out):
            with pytest.raises(PipelineError, match="locked"):
                with output_lock(out):
                    pass
        # released afterwards
        with output_lock(out):
            pass

    def test_lock_records_and_names_owner_pid(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()  # kept after the block, so another owner's lock can be put in it
        with output_lock(out):
            assert (out / ".lock").read_text() == f"{os.getpid()}\n"
            with pytest.raises(PipelineError, match=f"pid {os.getpid()} "):
                with output_lock(out):
                    pass
        (out / ".lock").write_text("4242\n")
        with pytest.raises(PipelineError, match="pid 4242 "):
            with output_lock(out):
                pass
        assert (out / ".lock").read_text() == "4242\n"  # another owner's lock is never removed

    def test_lock_error_says_whether_its_pid_runs(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()  # kept after the block, so another owner's lock can be put in it
        with output_lock(out):
            with pytest.raises(PipelineError, match=f"held by running pid {os.getpid()} "):
                with output_lock(out):
                    pass
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait() == 0  # exited and reaped, so its pid no longer runs
        (out / ".lock").write_text(f"{child.pid}\n")
        with pytest.raises(PipelineError, match=f"locked by another run: stale: pid {child.pid} is not running"):
            with output_lock(out):
                pass
        assert (out / ".lock").read_text() == f"{child.pid}\n"

    def test_lock_removes_only_an_empty_dir_it_made(self, tmp_path):
        made, existing = tmp_path / "a" / "made", tmp_path / "existing"
        existing.mkdir()
        for out in (made, existing):
            with output_lock(out):
                pass
        assert not made.parent.exists() and tmp_path.is_dir()
        assert existing.is_dir()
        with output_lock(made):
            (made / "entities.jsonl").write_text("")
        assert os.listdir(made) == ["entities.jsonl"]

    def test_stage_seeds_distinct(self):
        seeds = {stage_seed(5, s) for s in ("synth", "extract", "mine", "train", "eval")}
        assert len(seeds) == 5


# Runs the pipeline of the config file named by argv[1], and SIGKILLs itself as soon as
# heads.ckpt is in place: after train's build, before train writes its manifest.
KILL_AFTER_CHECKPOINT = """
import os, signal, sys
from medtriplet import pipeline

save = pipeline.save_checkpoint

def save_then_die(*args, **kwargs):
    save(*args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)

pipeline.save_checkpoint = save_then_die
pipeline.run_pipeline(pipeline.config_from_file(sys.argv[1]))
"""

# The same, but the run dies once eval's build has written eval_classification.json, as the
# eval stage is about to write its manifest.
KILL_BEFORE_EVAL_MANIFEST = """
import os, signal, sys
from medtriplet import pipeline

write_manifest = pipeline._write_manifest

def die_before_eval_manifest(artifact, stage, *args):
    if stage == "eval":
        assert (artifact.parent / "eval_classification.json").exists()
        os.kill(os.getpid(), signal.SIGKILL)
    write_manifest(artifact, stage, *args)

pipeline._write_manifest = die_before_eval_manifest
pipeline.run_pipeline(pipeline.config_from_file(sys.argv[1]))
"""


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL and the lock's pid check are POSIX")
class TestKilledRun:
    @staticmethod
    def killed_child(cfg, tmp_path, script) -> int:
        """Run ``script`` on ``cfg`` in a child that SIGKILLs itself; its pid."""
        m = cfg.mining
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"[run]\nseed = {cfg.seed}\nout = {cfg.out}\ncorpus = {cfg.corpus}\neval_corpus = {cfg.eval_corpus}\n"
            f"[miner]\nbatch_size = {m.batch_size}\ntarget = {m.target}\npass_limit = {m.pass_limit}\n"
        )
        assert config_from_file(cfg_file) == cfg
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(cfg_file)], env=env, stderr=subprocess.PIPE, text=True
        )
        _, stderr = child.communicate(timeout=120)
        assert child.returncode == -signal.SIGKILL, stderr
        return child.pid

    @staticmethod
    def rerun_equals_clean_run(cfg, tmp_path, caplog) -> list[str]:
        """Re-run ``cfg`` once its stale lock is gone, check its tree equals a clean run's byte for
        byte, and return the stages the re-run skipped."""
        (cfg.out / ".lock").unlink()
        with caplog.at_level("INFO"):
            run_pipeline(cfg)
        clean = replace(cfg, out=tmp_path / "clean")
        run_pipeline(clean)
        names = sorted(str(path.relative_to(clean.out)) for path in clean.out.rglob("*"))
        assert sorted(str(path.relative_to(cfg.out)) for path in cfg.out.rglob("*")) == names
        for name in names:
            assert (cfg.out / name).read_bytes() == (clean.out / name).read_bytes(), name
        return [r.message.split(":")[0] for r in caplog.records if "skipping" in r.message]

    def test_killed_run_is_rebuilt(self, small_world, tmp_path, caplog):
        cfg = small_world
        pid = self.killed_child(cfg, tmp_path, KILL_AFTER_CHECKPOINT)
        assert (cfg.out / "heads.ckpt").exists() and not (cfg.out / "heads.ckpt.manifest.json").exists()
        lock = cfg.out / ".lock"
        stale = f"stale: pid {pid} is not running (remove {lock} to go on)"
        with pytest.raises(PipelineError, match=re.escape(stale)):
            run_pipeline(cfg)
        assert self.rerun_equals_clean_run(cfg, tmp_path, caplog) == ["extract", "mine"]

    def test_run_killed_before_eval_manifest_rebuilds_eval_only(self, small_world, tmp_path, caplog):
        cfg = small_world
        self.killed_child(cfg, tmp_path, KILL_BEFORE_EVAL_MANIFEST)
        assert (cfg.out / "eval_classification.json").exists()
        assert not (cfg.out / "eval_retrieval.json.manifest.json").exists()
        assert self.rerun_equals_clean_run(cfg, tmp_path, caplog) == ["extract", "mine", "train"]


# What an unknown config section's error says after naming it.
ALLOWED_SECTIONS = "; expected one of: run, scoring, miner, loss, optimizer"


class TestConfigFile:
    @pytest.mark.parametrize("key", ["out", "corpus", "eval_corpus", "ontology"])
    def test_empty_path_names_its_key(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"[run]\n{key} =\n")
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}: [run] {key} is empty; give a path"

    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[run]\nseed = 9\nout = myrun\n"
            "[scoring]\ngamma0 = 0.8\ngamma1 = 0.15\ngamma2 = 0.05\nsemantics = intersection\n"
            "[miner]\ntau_min = 0.3\ntau_max = 0.5\ntarget = 123\n"
            "[loss]\nalpha = 0.2\neta = 0.7\n"
            "[optimizer]\nlearning_rate = 0.005\nepochs = 3\n"
        )
        cfg = config_from_file(path)
        assert cfg.seed == 9 and cfg.out == Path("myrun")
        assert cfg.mining.gammas.g0 == 0.8 and cfg.mining.semantics == "intersection"
        assert cfg.mining.tau_min == 0.3 and cfg.mining.target == 123
        assert cfg.loss.alpha == 0.2 and cfg.loss.eta == 0.7
        assert cfg.optimizer.learning_rate == 0.005 and cfg.optimizer.epochs == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[loss]\nalfa = 0.2\n")
        with pytest.raises(PipelineError, match=r"unknown config key in \[loss\] 'alfa'"):
            config_from_file(path)

    def test_unknown_run_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 1\neval_corpos = e.jsonl\n")
        with pytest.raises(PipelineError, match="'eval_corpos'"):
            config_from_file(path)

    def test_unknown_scoring_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[scoring]\ngamma_0 = 0.8\n")
        with pytest.raises(PipelineError, match="'gamma_0'"):
            config_from_file(path)

    @pytest.mark.parametrize("text", ["[scoring]\nsemantics = unoin\n"], ids=["semantics"])
    def test_unknown_miner_value_rejected(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError, match=f"{text.split()[-1]!r}"):
            config_from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[optimizer]\nbatch_size = 0\n", "batch_size must be >= 1, got 0"),
            ("[optimizer]\nepochs = 0\n", "epochs must be >= 1, got 0"),
            ("[loss]\neta = 1.5\n", "eta must lie in [0, 1], got 1.5"),
            ("[miner]\nbatch_size = 2\n", "batch_size must be >= 3, got 2"),
            ("[miner]\npass_limit = 0\n", "pass_limit must be >= 1, got 0"),
            ("[miner]\ntarget = -1\n", "target must be >= 0, got -1"),
            ("[run]\nseed = -1\n", "seed must be >= 0, got -1"),
            ("[loss]\nalpha = nan\n", "margin alpha must be finite and nonnegative, got nan"),
            ("[loss]\nalpha = inf\n", "margin alpha must be finite and nonnegative, got inf"),
            ("[optimizer]\nlearning_rate = inf\n", "learning_rate must be finite and nonnegative, got inf"),
            ("[scoring]\ngamma0 = nan\n", "gamma weight g0 must be finite and nonnegative, got nan"),
        ],
        ids=[
            "batch_size", "epochs", "eta", "miner_batch_size", "pass_limit", "target", "run_seed", "alpha_nan",
            "alpha_inf", "learning_rate_inf", "gamma0_nan",
        ],
    )
    def test_out_of_range_value_names_file_and_value(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_settable_keys_pinned(self, tmp_path):
        """Every (section, key) pair a config file may set, with a valid value; adding or deleting a
        setting means editing this list."""
        settable = {
            ("run", "out"): "r", ("run", "seed"): "1", ("run", "ontology"): "o.txt", ("run", "corpus"): "c.jsonl",
            ("run", "eval_corpus"): "e.jsonl",
            ("scoring", "gamma0"): "0.85", ("scoring", "gamma1"): "0.1", ("scoring", "gamma2"): "0.05",
            ("scoring", "semantics"): "intersection",
            ("miner", "batch_size"): "32", ("miner", "target"): "10", ("miner", "pass_limit"): "5",
            ("miner", "tau_min"): "0.3", ("miner", "tau_max"): "0.5",
            ("loss", "alpha"): "0.2", ("loss", "eta"): "0.4", ("loss", "sign_mode"): "as-printed",
            ("optimizer", "learning_rate"): "0.001", ("optimizer", "epochs"): "3", ("optimizer", "batch_size"): "16",
        }
        path = tmp_path / "run.cfg"

        def listed(text: str) -> list[str]:
            """The names an unknown-name error lists as expected."""
            path.write_text(text)
            with pytest.raises(PipelineError) as info:
                config_from_file(path)
            return str(info.value).split("expected one of: ")[1].split(", ")

        named = {(section, key) for section in listed("[nosuch]\n") for key in listed(f"[{section}]\nnosuch = 1\n")}
        assert named == set(settable)
        for (section, key), value in settable.items():
            path.write_text(f"[{section}]\n{key} = {value}\n")
            config_from_file(path)  # raises if the pair is not settable
        assert len(settable) == 20

    def test_with_settings_takes_strings_or_typed_values(self):
        from_text = with_settings(RunConfig(), "miner", {"batch_size": "32", "tau_min": "0.3"})
        assert from_text == with_settings(RunConfig(), "miner", {"batch_size": 32, "tau_min": 0.3})
        assert from_text.mining.batch_size == 32 and from_text.optimizer.batch_size == OptimizerConfig.batch_size
        assert with_settings(RunConfig(), "run", {"out": "r", "seed": "4"}) == RunConfig(out=Path("r"), seed=4)

    def test_gamma_weights_checked_together(self):
        cfg = with_settings(RunConfig(), "scoring", {"gamma0": "0.5", "gamma1": "0.3", "gamma2": "0.2"})
        assert cfg.mining.gammas == GammaWeights(0.5, 0.3, 0.2)
        with pytest.raises(ValueError, match="gamma weights must sum to 1"):
            with_settings(RunConfig(), "scoring", {"gamma0": "0.5"})

    @pytest.mark.parametrize("section", ["miner", "optimizer"])
    def test_stage_seed_keys_rejected(self, tmp_path, section):
        path = tmp_path / "run.cfg"
        path.write_text(f"[run]\nseed = 1\n[{section}]\nseed = 7\n")
        with pytest.raises(PipelineError, match=rf"\[{section}\] seed .*\[run\] seed"):
            config_from_file(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("[optimizer]\nepochs = abc\n", r"\[optimizer\] epochs"),
            ("[loss]\nalpha = wide\n", r"\[loss\] alpha"),
            ("[run]\nseed = 1.5\n", r"\[run\] seed"),
            ("[scoring]\ngamma1 = x\n", r"\[scoring\] gamma1"),
        ],
        ids=["int", "float", "run_seed", "gamma"],
    )
    def test_unparsable_number_names_section_and_key(self, tmp_path, text, where):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError, match=where):
            config_from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[minner]\ntarget = 10\n", f":1: unknown section [minner]{ALLOWED_SECTIONS}"),
            ("[run]\neval_corpos = e.jsonl\n", ": unknown config key in [run] 'eval_corpos'"),
            ("[scoring]\ngamma_0 = 0.8\n", ": unknown config key in [scoring] 'gamma_0'"),
            ("[loss]\nalfa = 0.2\n", ": unknown config key in [loss] 'alfa'"),
            ("[encoder]\n__post_init__ = 1\n", f":1: unknown section [encoder]{ALLOWED_SECTIONS}"),
            ("[optimizer]\nepochs = abc\n", ": [optimizer] epochs = 'abc' is not a valid int"),
        ],
        ids=["section", "run_key", "scoring_key", "loss_key", "encoder_method", "value"],
    )
    def test_error_names_file(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value).startswith(f"{path}{message}")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[minner]\ntarget = 10\n")
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}:1: unknown section [minner]{ALLOWED_SECTIONS}"

    def test_malformed_line_has_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nnonsense\n")
        with pytest.raises(PipelineError, match=":2"):
            config_from_file(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[run]\nseed = 1\nseed = 7\n", ":3: key 'seed' given twice in [run]"),
            ("[run]\nseed = 1\n[loss]\nalpha = 0.2\n[Run]\nout = r\n", ":5: section [run] given twice"),
        ],
        ids=["key", "section"],
    )
    def test_repeated_key_or_section_names_line(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value) == f"{path}{message}"
