"""Staged pipeline: manifests, skipping, locking, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from medtriplet import pipeline
from medtriplet.checkpoint import load_checkpoint, save_checkpoint
from medtriplet.corpus import CorpusRecord, DataError, ingest, read_entities, write_corpus, write_jsonl
from medtriplet.encoder import IMAGE, TEXT, init_head
from medtriplet.extraction import extract
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
)
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
        save_checkpoint(path, {"seed": 0}, {"head.image": np.eye(2)})
        assert sorted(os.listdir(tmp_path)) == ["heads.ckpt"]
        np.testing.assert_array_equal(load_checkpoint(path)[1]["head.image"], np.eye(2))


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

    def test_records_in_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [CorpusRecord("b", "Edema."), CorpusRecord("a", "Effusion.")])
        assert ingest(path) == [CorpusRecord("b", "Edema."), CorpusRecord("a", "Effusion.")]

    def test_malformed_entity_record_names_file_and_line(self, tmp_path):
        path = tmp_path / "entities.jsonl"
        path.write_text('{"schema": "entities/v1"}\n{"id": "a", "entries": []}\n{"id": "b", "entries": "edema"}\n')
        with pytest.raises(DataError) as info:
            read_entities(path)
        assert str(info.value) == f"{path}:3: 'entries' must be a list, got 'edema'"


class TestStages:
    def test_extract_counts(self, small_world):
        artifacts = run_pipeline(small_world, stages=("extract",))
        lines = artifacts["extract"].read_text().splitlines()
        assert json.loads(lines[0])["schema"] == "entities/v1"
        assert len(lines) - 1 == 36

    def test_mine_before_extract_fails(self, small_world):
        with pytest.raises(PipelineError, match="run extract first"):
            run_pipeline(small_world, stages=("mine",))

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
        _, arrays = load_checkpoint(artifacts["train"])
        assert sorted(arrays) == ["head.image", "head.text"]

    def test_checkpoint_with_optimizer_state_still_loads(self, tmp_path):
        rng = np.random.default_rng(0)
        heads = {"head.image": rng.normal(size=(4, 4)), "head.text": rng.normal(size=(4, 4))}
        extra = {f"adam.{m}.{k}": rng.normal(size=(4, 4)) for m in "mv" for k in (IMAGE, TEXT)}
        extra["adam.t"] = extra["adam.epoch"] = np.array([3], dtype=np.int64)
        path = tmp_path / "heads.ckpt"
        save_checkpoint(path, {"seed": 0}, {**heads, **extra})
        _, loaded = load_heads(path)
        assert sorted(loaded) == [IMAGE, TEXT]
        np.testing.assert_array_equal(loaded[IMAGE], heads["head.image"])
        np.testing.assert_array_equal(loaded[TEXT], heads["head.text"])

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
        heads = {IMAGE: init_head(cfg.encoder, IMAGE), TEXT: init_head(cfg.encoder, TEXT)}
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
        heads = {IMAGE: init_head(cfg.encoder, IMAGE), TEXT: init_head(cfg.encoder, TEXT)}
        calls = []
        encode = pipeline.trunk_encode
        monkeypatch.setattr(pipeline, "trunk_encode", lambda sample, *a: calls.append(sample) or encode(sample, *a))
        evaluate_retrieval_tasks(cfg, heads, repeated)
        texts = [tuple(sample.ids) for sample in calls if hasattr(sample, "ids")]
        assert len(texts) == len(set(texts)) == 3
        assert len(calls) - len(texts) == len(records)

    def test_empty_eval_corpus_named(self, small_world, tmp_path):
        empty = tmp_path / "empty.jsonl"
        write_corpus(empty, [])
        run_pipeline(small_world, stages=("extract", "mine", "train"))
        with pytest.raises(PipelineError, match="holds no records"):
            run_pipeline(replace(small_world, eval_corpus=empty), stages=("eval",))

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

    def test_classification_encodes_only_labelled_images_and_prompts(self, small_world, monkeypatch):
        run_pipeline(small_world, stages=("extract", "mine", "train"))
        _, heads = load_heads(small_world.out / "heads.ckpt")
        ont = default_ontology()
        ents = [extract(rec.report(), ont) for rec in ingest(small_world.eval_corpus)]
        single = [m for m in ents if len(m.entries) == 1]
        classes = {m.entries[0].disease for m in single}
        calls = []
        encode = pipeline.trunk_encode
        monkeypatch.setattr(pipeline, "trunk_encode", lambda *a: calls.append(1) or encode(*a))
        report = evaluate_classification(with_seed_defaults(small_world), heads, small_world.eval_corpus)
        assert report["samples"] == len(single)
        assert len(calls) == len(single) + len(classes) < 2 * len(ents)

    def test_byte_identical_artifact_trees(self, small_world, tmp_path):
        cfg_a = replace(small_world, out=tmp_path / "out_a")
        cfg_b = replace(small_world, out=tmp_path / "out_b")
        run_pipeline(cfg_a, stages=("extract", "mine", "train", "eval"))
        run_pipeline(cfg_b, stages=("extract", "mine", "train", "eval"))
        names = sorted(p.name for p in cfg_a.out.iterdir() if p.name != ".lock")
        assert names == sorted(p.name for p in cfg_b.out.iterdir() if p.name != ".lock")
        for name in names:
            assert sha256_file(cfg_a.out / name) == sha256_file(cfg_b.out / name), name


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

    def test_stage_seeds_distinct(self):
        seeds = {stage_seed(5, s) for s in ("synth", "extract", "mine", "train", "eval")}
        assert len(seeds) == 5


class TestConfigFile:
    def test_round_trip_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[run]\nseed = 9\nout = myrun\n"
            "[scoring]\ngamma0 = 0.8\ngamma1 = 0.15\ngamma2 = 0.05\nsemantics = intersection\n"
            "[miner]\ntau_min = 0.3\ntau_max = 0.5\ntarget = 123\n"
            "[encoder]\nembed_dim = 32\nheads = 2\n"
            "[loss]\nalpha = 0.2\neta = 0.7\n"
            "[optimizer]\nlearning_rate = 0.005\nepochs = 3\n"
        )
        cfg = config_from_file(path)
        assert cfg.seed == 9 and cfg.out == Path("myrun")
        assert cfg.gammas.g0 == 0.8 and cfg.semantics == "intersection"
        assert cfg.mining.tau_min == 0.3 and cfg.mining.target == 123
        assert cfg.encoder.embed_dim == 32 and cfg.encoder.heads == 2
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
            ("[optimizer]\nbeta2 = 1.0\n", "beta2 must lie in [0, 1), got 1.0"),
            ("[loss]\neta = 1.5\n", "eta must lie in [0, 1], got 1.5"),
            ("[encoder]\ndepth = 0\n", "depth must be >= 1, got 0"),
            ("[encoder]\nheads = 0\n", "heads must be >= 1, got 0"),
            ("[encoder]\npatch_size = 0\n", "patch_size must be >= 1, got 0"),
            ("[encoder]\nvocab_size = 0\n", "vocab_size must be >= 1, got 0"),
            ("[encoder]\nmlp_ratio = 0\n", "mlp_ratio must be positive, got 0.0"),
            ("[miner]\nbatch_size = 2\n", "batch_size must be >= 3, got 2"),
            ("[miner]\npass_limit = 0\n", "pass_limit must be >= 1, got 0"),
            ("[miner]\ntarget = -1\n", "target must be >= 0, got -1"),
            ("[run]\nseed = -1\n", "seed must be >= 0, got -1"),
        ],
        ids=[
            "batch_size", "epochs", "beta2", "eta", "depth", "heads", "patch_size", "vocab_size", "mlp_ratio",
            "miner_batch_size", "pass_limit", "target", "run_seed",
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
            ("encoder", "patch_size"): "4", ("encoder", "embed_dim"): "32", ("encoder", "depth"): "1",
            ("encoder", "heads"): "2", ("encoder", "mlp_ratio"): "2.0", ("encoder", "ln_epsilon"): "1e-6",
            ("encoder", "max_seq_len"): "32", ("encoder", "vocab_size"): "512", ("encoder", "init_scale"): "0.1",
            ("loss", "alpha"): "0.2", ("loss", "eta"): "0.4", ("loss", "sign_mode"): "as-printed",
            ("optimizer", "learning_rate"): "0.001", ("optimizer", "beta1"): "0.8", ("optimizer", "beta2"): "0.99",
            ("optimizer", "eps"): "1e-7", ("optimizer", "epochs"): "3", ("optimizer", "batch_size"): "16",
        }
        # Named by config_from_file's own errors, but rejected: stage seeds derive from [run] seed.
        unread = {("encoder", "seed"), ("optimizer", "seed")}
        path = tmp_path / "run.cfg"

        def accepted(text: str) -> bool:
            path.write_text(text)
            try:
                config_from_file(path)
            except PipelineError:
                return False
            return True

        def listed(text: str) -> list[str]:
            """The names an unknown-name error lists as expected."""
            path.write_text(text)
            with pytest.raises(PipelineError) as info:
                config_from_file(path)
            return str(info.value).split("expected one of: ")[1].split(", ")

        named = {(section, key) for section in listed("[nosuch]\n") for key in listed(f"[{section}]\nnosuch = 1\n")}
        assert named == set(settable) | unread
        assert {(s, k) for s, k in named if accepted(f"[{s}]\n{k} = {settable.get((s, k), '1')}\n")} == set(settable)
        assert len(settable) == 32

    @pytest.mark.parametrize("section", ["encoder", "optimizer"])
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
            ("[minner]\ntarget = 10\n", "unknown config section 'minner'"),
            ("[run]\neval_corpos = e.jsonl\n", "unknown config key in [run] 'eval_corpos'"),
            ("[scoring]\ngamma_0 = 0.8\n", "unknown config key in [scoring] 'gamma_0'"),
            ("[loss]\nalfa = 0.2\n", "unknown config key in [loss] 'alfa'"),
            ("[encoder]\n__post_init__ = 1\n", "unknown config key in [encoder] '__post_init__'"),
            ("[optimizer]\nepochs = abc\n", "[optimizer] epochs = 'abc' is not a valid int"),
        ],
        ids=["section", "run_key", "scoring_key", "loss_key", "encoder_method", "value"],
    )
    def test_error_names_file(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(PipelineError) as info:
            config_from_file(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[minner]\ntarget = 10\n")
        with pytest.raises(PipelineError, match="'minner'"):
            config_from_file(path)

    def test_malformed_line_has_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nnonsense\n")
        with pytest.raises(PipelineError, match=":2"):
            config_from_file(path)
