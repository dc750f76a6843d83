"""The benchmark's tracer patches names inside the package; they must keep
existing, the call counts its traced run checks must hold, and the calls
the benchmark makes into the package must keep working."""

import ast
import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import entities
from medtriplet import alignment, evaluation, mining, pipeline
from medtriplet.corpus import ingest
from medtriplet.encoder import IMAGE, TEXT, init_head
from medtriplet.mining import MiningSettings
from medtriplet.synthetic import SyntheticSpec, synthesize
from oracles import random_entities

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing(monkeypatch):
    """Import benchmarks/tracing.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_medtriplet_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    """benchmarks/bench.py, imported like tracing.py with benchmarks/ on ``sys.path``;
    the environment variables it sets on import are restored afterwards."""
    monkeypatch.syspath_prepend(str(TRACING.parent))
    monkeypatch.setitem(sys.modules, "tracing", _load_tracing(monkeypatch))
    spec = importlib.util.spec_from_file_location("_medtriplet_bench", TRACING.with_name("bench.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    environ = dict(os.environ)
    try:
        spec.loader.exec_module(module)
    finally:
        for var in set(os.environ) - set(environ):
            del os.environ[var]
        os.environ.update(environ)
    return module


def test_bench_builds_run_configs_and_specs(bench, tmp_path):
    for workload in bench.WORKLOADS.values():
        cfg = bench.run_config(workload, 1, tmp_path / "out", tmp_path / "train.jsonl", tmp_path / "eval.jsonl")
        assert isinstance(cfg, pipeline.RunConfig)
        assert (cfg.mining.target, cfg.optimizer.epochs) == (workload.target, workload.epochs)
        train, evaluation_spec = bench.specs(workload, 1)
        assert isinstance(train, SyntheticSpec) and isinstance(evaluation_spec, SyntheticSpec)
        assert (train.per_class, evaluation_spec.per_class) == (workload.train_per_class, workload.eval_per_class)


def test_bench_reads_score_settings_off_run_configs(bench, tmp_path):
    """The benchmark checks each mined triplet's scores with a run config's ``gammas`` and ``semantics``."""
    cfg = bench.run_config(bench.WORKLOADS["desk"], 1, tmp_path / "out", tmp_path / "train.jsonl", tmp_path / "eval.jsonl")
    assert (cfg.gammas, cfg.semantics) == (cfg.mining.gammas, cfg.mining.semantics)


def test_bench_counts_ingested_records(bench, tmp_path):
    _, spec = bench.specs(bench.WORKLOADS["dense"], 1)
    world = synthesize(spec, tmp_path / "eval")
    assert len(ingest(world.corpus_path)) == spec.n_classes * spec.per_class


def test_layer_patch_targets_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for module_name, attr, span, _ in tracing.LAYER_PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr, span)


def _resolves(module_name: str, name: str) -> bool:
    """``from module_name import name`` works: an attribute, or a submodule of a package."""
    module = importlib.import_module(module_name)
    return hasattr(module, name) or (
        hasattr(module, "__path__") and importlib.util.find_spec(f"{module_name}.{name}") is not None
    )


def test_benchmark_imports_resolve():
    """Every ``medtriplet`` name the benchmark files import, at module level or inside a function, exists."""
    imported = [
        (path.name, node.module, alias.name)
        for path in sorted(TRACING.parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "medtriplet"
        for alias in node.names
    ]
    assert ("bench.py", "medtriplet.pipeline", "with_seed_defaults") in imported
    assert [entry for entry in imported if not _resolves(*entry[1:])] == []


def test_stage_dispatch_table_matches_stages():
    assert tuple(pipeline._STAGE_FUNCS) == pipeline.STAGES


def _counting(monkeypatch, module, attr) -> list:
    """Replace ``module.attr`` with a wrapper that records one entry per call."""
    calls = []
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: calls.append(1) or original(*a, **kw))
    return calls


def test_mine_batch_scores_each_ordered_pair_three_times(monkeypatch):
    """The benchmark's traced run checks 3*k*(k-1) ``mining.score`` calls per
    ``mine_batch`` when, as there, every anchor has a positive."""
    rng = np.random.default_rng(3)
    k = 9
    plain = [{"d1": (set(), set()), **random_entities(rng)} for _ in range(k)]
    batch = tuple((f"s{i}", entities(p)) for i, p in enumerate(plain))
    calls = _counting(monkeypatch, mining, "score")
    mining.mine_batch(batch, MiningSettings(), np.random.default_rng(0))
    assert len(calls) == 3 * k * (k - 1)


def test_retrieval_makes_one_cosine_call_per_ordered_pair_and_task(tmp_path, monkeypatch):
    """The benchmark's traced run checks 4*n*(n-1) ``evaluation.cosine`` calls during eval."""
    world = synthesize(SyntheticSpec(n_classes=3, per_class=3, overlap_rate=0.3, seed=4), tmp_path / "eval")
    cfg = pipeline.with_seed_defaults(pipeline.RunConfig(out=tmp_path / "run"))
    heads = {IMAGE: init_head(cfg.seed, IMAGE), TEXT: init_head(cfg.seed, TEXT)}
    calls = _counting(monkeypatch, evaluation, "cosine")
    pipeline.evaluate_retrieval_tasks(cfg, heads, world.corpus_path)
    n = 9
    assert len(calls) == 4 * n * (n - 1)


def test_traced_wraps_every_patch_and_restores_it(monkeypatch):
    """``traced`` wraps each LAYER_PATCHES name and ``Adam.step`` inside the block only."""
    tracing = _load_tracing(monkeypatch)
    targets = [(importlib.import_module(m), attr) for m, attr, _, _ in tracing.LAYER_PATCHES]
    targets.append((alignment.Adam, "step"))
    originals = [getattr(obj, attr) for obj, attr in targets]
    with tracing.traced(tracing.Tracer()):
        inside = [getattr(obj, attr) for obj, attr in targets]
    assert all(now is not before for now, before in zip(inside, originals)), targets
    assert all(getattr(obj, attr) is before for (obj, attr), before in zip(targets, originals)), targets


def test_traced_stages_run_and_record_trunk_calls(tmp_path, monkeypatch):
    """Every observer in LAYER_PATCHES accepts the arguments the stages pass it,
    stacked trunk inputs among them."""
    tracing = _load_tracing(monkeypatch)
    train = synthesize(SyntheticSpec(n_classes=3, per_class=6, overlap_rate=0.4, seed=5), tmp_path / "train")
    evalc = synthesize(SyntheticSpec(n_classes=3, per_class=3, overlap_rate=0.0, seed=6, id_prefix="e"), tmp_path / "eval")
    cfg = pipeline.RunConfig(
        out=tmp_path / "run",
        corpus=train.corpus_path,
        eval_corpus=evalc.corpus_path,
        mining=pipeline.MiningSettings(batch_size=6, target=12, pass_limit=10),
    )
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        artifacts = pipeline.run_pipeline(cfg)
        _, heads = pipeline.load_heads(artifacts["train"])
        report = pipeline.evaluate_classification(pipeline.with_seed_defaults(cfg), heads, cfg.eval_corpus)
    assert set(artifacts) == set(pipeline.STAGES) and all(path.exists() for path in artifacts.values())
    assert report["samples"] > 0
    assert not tracer.errors
    assert tracer.calls("encoder.trunk_encode") > 0
    assert tracer.useful_ratio("encoder.trunk_encode") > 0


def test_bench_output_checks_pass_on_a_small_run(bench, tmp_path):
    """One run as the benchmark makes it, checked by the benchmark's own output checks: triplet
    scores under the run config's ``gammas`` and ``semantics``, the loss curve's ``total``, the
    classification report's ``macro_auc`` and the retrieval P@10."""
    train = synthesize(SyntheticSpec(n_classes=3, per_class=8, overlap_rate=0.4, seed=5), tmp_path / "train")
    evalc = synthesize(SyntheticSpec(n_classes=3, per_class=4, overlap_rate=0.0, seed=6, id_prefix="e"), tmp_path / "eval")
    cfg = pipeline.RunConfig(
        out=tmp_path / "run",
        seed=1,
        corpus=train.corpus_path,
        eval_corpus=evalc.corpus_path,
        mining=MiningSettings(batch_size=8, target=12),
    )
    tracer, checks = bench.Tracer(), bench.Checks()
    with bench.stage_spans(tracer) as evaluate_classification:
        outcome = bench.run_once(cfg, tracer, evaluate_classification)
    assert outcome["error"] is None
    quality = bench.check_run(cfg, outcome, checks)
    assert quality is not None and checks.attempted > 0 and checks.failed == 0
