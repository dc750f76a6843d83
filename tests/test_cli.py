"""CLI subcommands, exit codes, and artifact wiring."""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from medtriplet.checkpoint import save_checkpoint
from medtriplet.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _build_config, build_parser, main
from medtriplet.pipeline import output_lock
from medtriplet.synthetic import SyntheticSpec, synthesize


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "corpus"
    code = main(["synth", "--out", str(out), "--classes", "3", "--per-class", "8", "--seed", "5"])
    assert code == EXIT_OK
    return out


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_argument_is_usage_error(self):
        assert main(["score"]) == EXIT_USAGE

    def test_data_error(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert main(["extract", "--corpus", str(missing), "--out", str(tmp_path)]) == EXIT_DATA

    def test_non_string_corpus_field_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "Edema.", "image": 5}\n')
        assert main(["extract", "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == EXIT_DATA
        assert f"error: {corpus}:2: 'image' must be a string or null, got 5" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--corpus", "--eval-corpus", "--ontology", "--config"])
    def test_empty_path_flag_is_usage_error_naming_it(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)  # an empty path would have meant this directory
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "Edema."}\n')
        flags = {"--out": str(tmp_path / "run"), "--corpus": str(corpus), flag: ""}
        assert main(["run", *(x for item in flags.items() for x in item), "--stages", "extract"]) == EXIT_USAGE
        assert f"argument {flag}: empty path" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.jsonl"]

    @pytest.mark.parametrize("key", ["out", "corpus"])
    def test_empty_config_path_exits_before_any_stage(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.jsonl").write_text('{"schema": "corpus/v1"}\n{"id": "a", "text": "Edema."}\n')
        cfg = tmp_path / "run.cfg"
        cfg.write_text({"out": "[run]\nout =\ncorpus = c.jsonl\n", "corpus": "[run]\nout = run\ncorpus =\n"}[key])
        assert main(["run", "--config", str(cfg), "--stages", "extract"]) == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {cfg}: [run] {key} is empty; give a path"
        assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "run.cfg"]

    def test_config_typo_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[run]\neval_corpos = e.jsonl\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        assert "'eval_corpos'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("dump-ontology", "--ontology", "[diseases]\nedema = [edema]\n"),
            ("run", "--config", "[run]\nseed = 1\n"),
            ("extract", "--corpus", '{"schema": "corpus/v1"}\n{"id": "a", "text": "Edema."}\n'),
        ],
        ids=["ontology", "config", "corpus"],
    )
    def test_non_utf8_file_names_it(self, tmp_path, capsys, command, flag, text):
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode() + b"\xff\n")
        args = [command, flag, str(path)] + (["--out", str(tmp_path / "run")] if command == "extract" else [])
        assert main(args) == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {path}: not UTF-8: byte 0xff at offset {len(text)}"


# Every argument each subcommand takes, subcommands in `medtriplet --help` order; each is one its command reads.
RUN = ["--config", "--seed", "--out"]
COMMAND_FLAGS = {
    "extract": [*RUN, "--force", "--ontology", "--corpus"],
    "score": ["first", "second", "--gamma0", "--gamma1", "--gamma2", "--semantics"],
    "mine": [*RUN, "--force", "--batch-size", "--target", "--tau-min", "--tau-max"],
    "train": [*RUN, "--force", "--corpus"],
    "eval-retrieval": [*RUN, "--ontology", "--corpus", "--eval-corpus", "--heads", "--match-mode"],
    "eval-classify": [*RUN, "--ontology", "--corpus", "--eval-corpus", "--heads"],
    "synth": [*RUN, "--classes", "--per-class", "--image-size", "--overlap", "--id-prefix"],
    "run": [*RUN, "--force", "--ontology", "--corpus", "--eval-corpus", "--stages"],
    "dump-ontology": ["--ontology", "--output"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


class TestFlags:
    def test_each_command_takes_exactly_its_flags(self):
        taken = {
            name: [(a.option_strings or [a.dest])[0] for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in _subparsers().items()
        }
        assert list(taken) == list(COMMAND_FLAGS)
        assert {name: set(flags) for name, flags in taken.items()} == {k: set(v) for k, v in COMMAND_FLAGS.items()}
        assert sum(map(len, taken.values())) == 58

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("eval-retrieval", "--force"),
            ("eval-classify", "--force"),
            ("synth", "--force"),
            ("mine", "--ontology o.txt"),
            ("train", "--ontology o.txt"),
            ("synth", "--ontology o.txt"),
        ],
    )
    def test_flag_a_command_does_not_read_is_usage_error(self, tmp_path, capsys, command, flag):
        assert main([command, "--out", str(tmp_path / "run"), *flag.split()]) == EXIT_USAGE
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, flag, good, want, bad, message",
        [
            ("run", "--seed", "7", 7, "7.5", "invalid int value: '7.5'"),
            ("run", "--out", "o", Path("o"), "", "empty path"),
            ("run", "--ontology", "o.txt", Path("o.txt"), "", "empty path"),
            ("run", "--corpus", "c.jsonl", Path("c.jsonl"), "", "empty path"),
            ("run", "--eval-corpus", "e.jsonl", Path("e.jsonl"), "", "empty path"),
            ("mine", "--batch-size", "5", 5, "x", "invalid int value: 'x'"),
            ("mine", "--target", "9", 9, "1e3", "invalid int value: '1e3'"),
            ("mine", "--tau-min", "0.125", 0.125, "low", "invalid float value: 'low'"),
            ("mine", "--tau-max", "0.875", 0.875, "high", "invalid float value: 'high'"),
        ],
    )
    def test_setting_flag_parses_to_its_type_and_reaches_the_config(self, capsys, command, flag, good, want, bad, message):
        cfg = _build_config(build_parser().parse_args([command, flag, good]))
        value = getattr(cfg if command == "run" else cfg.mining, flag[2:].replace("-", "_"))
        assert value == want and type(value) is type(want)
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, flag, bad])
        assert info.value.code == EXIT_USAGE
        assert f"argument {flag}: {message}" in capsys.readouterr().err


# `medtriplet score` output for the worked example under each semantics,
# recorded before the score kernel's per-call rewrite.
WORKED_SCORE_JSON = """{
  "total": 0.45,
  "prefactor": 0.5,
  "shared_diseases": [
    {
      "disease": "pneumonia",
      "ji_adj": 0.5,
      "ji_dir": 0.0,
      "summand": 0.9
    }
  ]
}
"""
WORKED_SCORE_JSON_INTERSECTION = """{
  "total": 0.4736842105263158,
  "prefactor": 0.5,
  "shared_diseases": [
    {
      "disease": "pneumonia",
      "ji_adj": 0.5,
      "ji_dir": 0.0,
      "summand": 0.9473684210526316
    }
  ]
}
"""


class TestScoreCommand:
    def test_worked_example(self, tmp_path, capsys):
        first = tmp_path / "mi.json"
        second = tmp_path / "mj.json"
        first.write_text(json.dumps({"entries": [
            {"disease": "pneumonia", "adj": ["mild"], "dir": ["left"]},
            {"disease": "edema", "adj": [], "dir": []},
        ]}))
        second.write_text(json.dumps({"entries": [
            {"disease": "pneumonia", "adj": ["mild", "severe"], "dir": ["right"]},
        ]}))
        assert main(["score", str(first), str(second)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == WORKED_SCORE_JSON
        assert json.loads(printed)["total"] == pytest.approx(0.45, abs=1e-12)
        assert main(["score", str(first), str(second), "--semantics", "intersection"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == WORKED_SCORE_JSON_INTERSECTION
        assert json.loads(printed)["total"] == pytest.approx(0.9 / 0.95 / 2, abs=1e-12)

    def test_bare_entries_list_scores_as_its_record(self, tmp_path, capsys):
        """A file may hold a record's ``entries`` list alone."""
        entries = [{"disease": "pneumonia", "adj": ["mild"], "dir": ["left"]}, {"disease": "edema", "adj": [], "dir": []}]
        record, bare = tmp_path / "record.json", tmp_path / "bare.json"
        record.write_text(json.dumps({"entries": entries}))
        bare.write_text(json.dumps(entries))
        assert main(["score", str(record), str(record)]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["score", str(bare), str(record)]) == main(["score", str(record), str(bare)]) == EXIT_OK
        assert capsys.readouterr().out == expected * 2
        assert json.loads(expected)["total"] > 0

    def test_bad_gammas_rejected(self, tmp_path):
        rec = tmp_path / "m.json"
        rec.write_text(json.dumps({"entries": []}))
        assert main(["score", str(rec), str(rec), "--gamma0", "0.9"]) == EXIT_DATA

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"entries": [{"adj": ["mild"]}]}', "entry 'disease' must be a string, got None"),
            ("not json", "Expecting value: line 1 column 1 (char 0)"),
            ('{"entries": "edema"}', "'entries' must be a list, got 'edema'"),
        ],
        ids=["missing_disease", "not_json", "entries_not_list"],
    )
    def test_malformed_record_names_its_file(self, tmp_path, capsys, text, message):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"entries": []}))
        bad.write_text(text)
        assert main(["score", str(good), str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_non_utf8_record_names_byte_and_offset(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"entries": []}))
        bad.write_bytes(b'{"entries": [\xff]}')
        assert main(["score", str(good), str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8: byte 0xff at offset 13\n"


class TestPipelineCommands:
    def test_extract_mine_roundtrip(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        corpus = synth_dir / "corpus.jsonl"
        assert main(["extract", "--corpus", str(corpus), "--out", str(out)]) == EXIT_OK
        entities = out / "entities.jsonl"
        assert entities.exists()
        assert (
            main(
                ["mine", "--out", str(out), "--batch-size", "12",
                 "--target", "40", "--seed", "2"]
            )
            == EXIT_OK
        )
        triplet_file = out / "triplets.jsonl"
        headers = triplet_file.read_text().splitlines()
        assert json.loads(headers[0])["schema"] == "triplets/v1"

    def test_run_all_stages_and_eval_commands(self, tmp_path, capsys):
        train = tmp_path / "train"
        evald = tmp_path / "eval"
        assert main(["synth", "--out", str(train), "--classes", "3", "--per-class", "10",
                     "--overlap", "0.4", "--seed", "1"]) == EXIT_OK
        assert main(["synth", "--out", str(evald), "--classes", "3", "--per-class", "4",
                     "--overlap", "0.0", "--seed", "2", "--id-prefix", "e"]) == EXIT_OK
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"[run]\nseed = 4\nout = {out}\ncorpus = {train/'corpus.jsonl'}\n"
            f"eval_corpus = {evald/'corpus.jsonl'}\n"
            "[miner]\nbatch_size = 10\ntarget = 30\npass_limit = 40\n"
            "[optimizer]\nepochs = 3\n"
        )
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        assert (out / "heads.ckpt").exists()
        assert (out / "eval_retrieval.json").exists()
        capsys.readouterr()
        assert main(["eval-retrieval", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report["tasks"]) == {"i2i", "i2t", "t2i", "t2t"}
        assert main(["eval-classify", "--config", str(cfg)]) == EXIT_OK
        classify = json.loads(capsys.readouterr().out)
        assert 0.0 <= classify["accuracy"] <= 100.0

    def test_semantics_typo_exits_before_any_stage(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n[scoring]\nsemantics = unoin\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        assert "'unoin'" in capsys.readouterr().err
        assert not out.exists()

    def test_optimizer_bound_exits_before_any_stage(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n[optimizer]\nbatch_size = 0\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        assert "batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["heads", "patch_size", "embed_dim"])
    def test_encoder_bound_exits_before_any_stage(self, synth_dir, tmp_path, capsys, key):
        """The trunk shape is fixed, so an ``[encoder]`` setting, in range or not, is an unknown section."""
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n[encoder]\n{key} = 0\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        assert f"{cfg}:4: unknown section [encoder]; expected one of: run, scoring, miner, loss, optimizer" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("[optimizer]\nlearning_rate = -1", "learning_rate must be finite and nonnegative, got -1.0"),
         ("[loss]\nalpha = inf", "margin alpha must be finite and nonnegative, got inf")],
        ids=["learning_rate", "alpha"],
    )
    def test_non_finite_or_negative_setting_exits_before_any_stage(self, synth_dir, tmp_path, capsys, setting, message):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n{setting}\n")
        assert main(["run", "--config", str(cfg), "--stages", "extract", "mine", "train"]) == EXIT_DATA
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_miner_bound_exits_before_any_stage(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n[miner]\ntarget = -1\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_DATA
        assert f"{cfg}: target must be >= 0, got -1" in capsys.readouterr().err
        assert main(["mine", "--out", str(out), "--batch-size", "0"]) == EXIT_DATA
        assert "batch_size must be >= 3, got 0" in capsys.readouterr().err
        assert main(["mine", "--out", str(out), "--tau-min", "2"]) == EXIT_DATA
        assert "got [2.0, 0.6]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "synth"])
    def test_negative_seed_exits_before_any_stage(self, synth_dir, tmp_path, capsys, command):
        out = tmp_path / "run"
        extra = ["--corpus", str(synth_dir / "corpus.jsonl")] if command == "run" else []
        assert main([command, "--out", str(out), "--seed", "-1", *extra]) == EXIT_DATA
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_image_the_trunk_cannot_take_names_its_record(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        corpus = str(synth_dir / "corpus.jsonl")
        assert main(["extract", "--corpus", corpus, "--out", str(out)]) == EXIT_OK
        assert main(["mine", "--out", str(out), "--batch-size", "12", "--target", "40"]) == EXIT_OK
        sample_id = json.loads((out / "triplets.jsonl").read_text().splitlines()[1])["anchor_id"]
        image = synth_dir / "images" / f"{sample_id}.pgm"
        image.write_text("P2\n2 2\n255\n0 255 7 7\n")  # smaller than one patch
        capsys.readouterr()
        assert main(["train", "--corpus", corpus, "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"record {sample_id!r}, image {image}: image 2x2 not divisible by patch size" in err
        assert "Traceback" not in err

    def test_stage_command_respects_lock(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        with output_lock(out):
            assert main(["extract", "--corpus", str(synth_dir / "corpus.jsonl"), "--out", str(out)]) == EXIT_DATA
        assert "locked" in capsys.readouterr().err
        assert not (out / "entities.jsonl").exists()

    def test_stage_commands_write_manifests_and_skip(self, synth_dir, tmp_path, caplog):
        out = tmp_path / "run"
        corpus = str(synth_dir / "corpus.jsonl")
        mine = ["mine", "--out", str(out), "--batch-size", "12", "--target", "40"]
        assert main(["extract", "--corpus", corpus, "--out", str(out)]) == EXIT_OK
        assert main(mine) == EXIT_OK
        assert (out / "entities.jsonl.manifest.json").exists()
        assert (out / "triplets.jsonl.manifest.json").exists()
        with caplog.at_level("INFO"):
            assert main(mine) == EXIT_OK
            assert main([*mine, "--force"]) == EXIT_OK
        assert [r.message for r in caplog.records if "skipping" in r.message] == ["mine: up to date, skipping"]

    def test_extract_without_a_corpus_names_it(self, tmp_path, capsys):
        assert main(["extract", "--out", str(tmp_path / "r")]) == EXIT_DATA
        assert capsys.readouterr().err == "error: extract stage needs a path for corpus\n"

    def test_mine_before_extract_dependency_error(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run"
        cfg.write_text(f"[run]\nout = {out}\ncorpus = {synth_dir/'corpus.jsonl'}\n")
        assert main(["run", "--config", str(cfg), "--stages", "mine"]) == EXIT_DATA


class TestBadHeadsCheckpoint:
    """``eval-retrieval --heads X`` on a bad checkpoint exits 2 with an error naming X."""

    def _heads(self, tmp_path, dim=64, names=("head.image", "head.text")):
        rng = np.random.default_rng(0)
        path = tmp_path / "heads.ckpt"
        save_checkpoint(path, {"seed": 0}, {name: rng.normal(size=(dim, dim)) for name in names})
        return path

    def _eval(self, synth_dir, heads, capsys) -> str:
        capsys.readouterr()
        code = main(["eval-retrieval", "--corpus", str(synth_dir / "corpus.jsonl"), "--heads", str(heads)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA, err
        assert err.startswith(f"error: {heads}: ")
        assert "Traceback" not in err
        return err

    def test_payload_cut_short(self, synth_dir, tmp_path, capsys):
        heads = self._heads(tmp_path)
        heads.write_bytes(heads.read_bytes()[:-100])
        assert "array 'head.text': bytes [32768, 65536) run past the 65436-byte payload" in self._eval(
            synth_dir, heads, capsys
        )

    def test_header_cut_short(self, synth_dir, tmp_path, capsys):
        heads = self._heads(tmp_path)
        heads.write_bytes(heads.read_bytes()[:30])
        assert "header runs past the 30-byte file" in self._eval(synth_dir, heads, capsys)

    def test_missing_image_head(self, synth_dir, tmp_path, capsys):
        heads = self._heads(tmp_path, names=("head.text",))
        assert "checkpoint has no 'head.image' array" in self._eval(synth_dir, heads, capsys)

    def test_heads_of_another_embed_dim(self, synth_dir, tmp_path, capsys):
        heads = self._heads(tmp_path, dim=8)
        assert "head.image has shape (8, 8), expected (64, 64)" in self._eval(synth_dir, heads, capsys)

    @pytest.mark.parametrize("field, value", [("use_layer_norm", False), ("mlp_ratio", 2.0)])
    def test_heads_recording_a_field_this_run_lacks(self, synth_dir, tmp_path, capsys, field, value):
        """The seeds match, but the checkpoint records an encoder block, as heads trained while the
        trunk shape was a setting do: they must be trained again."""
        heads = tmp_path / "heads.ckpt"
        rng = np.random.default_rng(0)
        encoder = {"patch_size": 8, "embed_dim": 64, "depth": 2, "heads": 4, "max_seq_len": 64, "seed": 0, field: value}
        arrays = {name: rng.normal(size=(64, 64)) for name in ("head.image", "head.text")}
        save_checkpoint(heads, {"encoder": encoder, "seed": 0}, arrays)
        err = self._eval(synth_dir, heads, capsys)
        recorded = dict(sorted(encoder.items()))  # the header is written with sorted keys
        assert err == f"error: {heads}: checkpoint records encoder = {recorded!r}; this run has no encoder\n"


    @pytest.mark.parametrize(
        "extra_args, extra_config, message",
        [
            (["--seed", "9"], "", "checkpoint records seed = 4; this run has seed = 9"),
        ],
        ids=["seed"],
    )
    @pytest.mark.parametrize(
        "command", [["eval-retrieval"], ["eval-classify"], ["run", "--stages", "eval"]], ids=["retrieval", "classify", "stage"]
    )
    def test_heads_of_another_run_config(self, synth_dir, tmp_path, capsys, command, extra_args, extra_config, message):
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        body = f"[run]\nseed = 4\nout = {out}\ncorpus = {synth_dir / 'corpus.jsonl'}\n[optimizer]\nepochs = 1\n"
        cfg.write_text(body + "[miner]\nbatch_size = 12\ntarget = 20\n")
        assert main(["run", "--config", str(cfg), "--stages", "extract", "mine", "train"]) == EXIT_OK
        cfg.write_text(body + extra_config)
        capsys.readouterr()
        assert main([*command, "--config", str(cfg), *extra_args]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {out / 'heads.ckpt'}: {message}\n"
        assert not (out / "eval_retrieval.json").exists()


class TestSynthCommand:
    def test_five_classes(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--classes", "5", "--per-class", "2", "--seed", "3"]) == EXIT_OK
        assert len((out / "corpus.jsonl").read_text().splitlines()) == 1 + 10

    def test_seed_flag_and_config_seed_write_the_same_corpus(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[run]\nseed = 5\n")
        common = ["--classes", "2", "--per-class", "2"]
        assert main(["synth", "--out", str(tmp_path / "flag"), *common, "--seed", "5"]) == EXIT_OK
        assert main(["synth", "--out", str(tmp_path / "config"), *common, "--config", str(cfg)]) == EXIT_OK
        # Both apply the documented fan-out: seed + 1000 * 1 for synth.
        synthesize(SyntheticSpec(n_classes=2, per_class=2, seed=1005), tmp_path / "fanned")
        trees = [
            {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
            for root in (tmp_path / "flag", tmp_path / "config", tmp_path / "fanned")
        ]
        assert Path("corpus.jsonl") in trees[0]
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize("size", ["0", "30", "72"])
    def test_image_size_the_trunk_cannot_take_writes_nothing(self, tmp_path, capsys, size):
        out = tmp_path / "corpus"
        assert main(["synth", "--out", str(out), "--image-size", size]) == EXIT_DATA
        assert f"error: image_size {size}: " in capsys.readouterr().err
        assert not out.exists()


class TestOntologyCommand:
    def test_dump_round_trips(self, tmp_path, capsys):
        assert main(["dump-ontology"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "[diseases]" in text and "pleural effusion" in text
        path = tmp_path / "ont.txt"
        assert main(["dump-ontology", "--output", str(path)]) == EXIT_OK
        assert main(["dump-ontology", "--ontology", str(path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[diseases]\nedema = [edema]\nedema = [oedema]\n", "duplicate canonical 'edema' in [diseases]"),
            ("[adjectives]\nmild = [mild]\nsevere = [mild]\n",
             "variant 'mild' listed under both 'mild' and 'severe' in [adjectives]"),
            ("[diseases]\nedema = [edema, fluid. gas]\n",
             "sentence punctuation inside entry in [diseases] edema: 'fluid. gas'"),
            ("[splitters]\nand then\n", "multi-word token in [splitters]: 'and then'"),
            ("[splitters]\nand\n[deleters]\nand\n", "token in both [splitters] and [deleters]: 'and'"),
        ],
        ids=["duplicate_canonical", "variant_clash", "punctuation", "multi_word_token", "splitter_deleter_clash"],
    )
    def test_error_after_parsing_names_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["dump-ontology", "--ontology", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {path}: {message}"
