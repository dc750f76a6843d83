"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS`` line with its measured
numbers; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
Thresholds are desk-scale artifact targets on the separable synthetic
corpus and are pinned here, not tuned elsewhere.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import entities
from medtriplet.alignment import LossConfig
from medtriplet.encoder import IMAGE, TEXT, init_head
from medtriplet.evaluation import classification_metrics
from medtriplet.extraction import MetaEntities, Report, extract
from medtriplet.mining import MiningSettings, mine_corpus
from medtriplet.pipeline import (
    RunConfig,
    evaluate_retrieval_tasks,
    load_heads,
    run_pipeline,
    with_seed_defaults,
)
from medtriplet.scoring import GammaWeights, score
from medtriplet.synthetic import SyntheticSpec, synthesize
from oracles import enumerate_uniform_entities, oracle_hinge, oracle_loss, oracle_score, random_entities

GOLDEN = Path(__file__).parent / "data" / "golden_reports.jsonl"


def test_criterion_1_score_oracle_equivalence():
    """Exhaustive oracle equivalence over both indicator semantics."""
    start = time.time()
    universe = enumerate_uniform_entities(("d1", "d2", "d3"), ("a1", "a2"), ("r1", "r2"))
    pairs = len(universe) ** 2
    assert pairs >= 4000
    w = GammaWeights()
    worst = 0.0
    for semantics in ("union", "intersection"):
        metas = [entities(p) for p in universe]
        for pi, mi in zip(universe, metas):
            for pj, mj in zip(universe, metas):
                expected = oracle_score(pi, pj, w.g0, w.g1, w.g2, semantics)
                worst = max(worst, abs(score(mi, mj, w, semantics).total - expected))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS — {pairs} pairs x 2 semantics, max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_score_properties():
    """Symmetry, range, zero law, self-score on 10,000 random pairs."""
    rng = np.random.default_rng(20240902)
    w = GammaWeights()
    for _ in range(10_000):
        pi, pj = random_entities(rng), random_entities(rng)
        mi, mj = entities(pi), entities(pj)
        semantics = "union" if rng.random() < 0.5 else "intersection"
        fwd = score(mi, mj, w, semantics).total
        assert fwd == score(mj, mi, w, semantics).total
        assert 0.0 <= fwd <= 1.0 + 1e-12
        assert (fwd == 0.0) == (not (set(pi) & set(pj)))
        if pi:
            assert abs(score(mi, mi, w, semantics).total - 1.0) <= 1e-12
    mi = entities({"pneumonia": ({"mild"}, {"left"}), "edema": (set(), set())})
    mj = entities({"pneumonia": ({"mild", "severe"}, {"right"})})
    union_total = score(mi, mj).total
    inter_total = score(mi, mj, semantics="intersection").total
    assert abs(union_total - 0.45) <= 1e-12
    assert abs(inter_total - 0.9 / 0.95 / 2.0) <= 1e-12
    print(f"\n[criterion 2] PASS — 10000 pairs; worked example union={union_total:.6f} intersection={inter_total:.6f}")


def test_criterion_3_miner_invariants(tmp_path, ontology):
    """1,000 triplets from a synthetic corpus: band, ordering, determinism."""
    start = time.time()
    synth = synthesize(SyntheticSpec(n_classes=4, per_class=50, overlap_rate=0.35, seed=777), tmp_path / "c")
    from medtriplet.corpus import ingest

    samples = [(rec.id, extract(rec.report(), ontology)) for rec in ingest(synth.corpus_path)]
    cfg = MiningSettings(batch_size=64, target=1000, seed=31)
    p1, p2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    manifest, triplets = mine_corpus(samples, cfg, out_path=p1)
    mine_corpus(samples, cfg, out_path=p2)
    assert len(triplets) == 1000
    keys = {t.key() for t in triplets}
    assert len(keys) == 1000
    by_id = dict(samples)
    for t in triplets:
        assert len({t.anchor_id, t.positive_id, t.negative_id}) == 3
        assert t.score_ap >= t.score_an
        assert cfg.tau_min <= t.score_an <= cfg.tau_max
        assert by_id[t.anchor_id].disease_set() & by_id[t.negative_id].disease_set()
    assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[criterion 3] PASS — 1000 unique triplets, {manifest['passes']} passes, byte-identical rerun, {elapsed:.1f}s")


def test_criterion_4_gradient_check():
    """Analytic vs central finite differences, 100 draws, c=8, batch 4."""
    from test_alignment import gradient_error, hinge_arguments, random_batch

    start = time.time()
    rng = np.random.default_rng(4242)
    accepted = 0
    worst = 0.0
    while accepted < 100:
        heads = {IMAGE: rng.normal(0, 0.5, (8, 8)), TEXT: rng.normal(0, 0.5, (8, 8))}
        zi, zt = random_batch(rng, 4)
        cfg = LossConfig(
            alpha=float(rng.uniform(0, 0.8)),
            eta=float(rng.random()),
            sign_mode="corrected" if rng.random() < 0.5 else "as-printed",
        )
        # finite differences are invalid within a step of the hinge kink
        if min(abs(z) for z in hinge_arguments(zi, zt, heads, cfg)) < 5e-3:
            continue
        worst = max(worst, gradient_error(zi, zt, heads, cfg))
        accepted += 1
    elapsed = time.time() - start
    assert worst <= 1e-5
    assert elapsed < 30.0
    print(f"\n[criterion 4] PASS — 100 draws, max relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_loss_algebra():
    """Recombination to 1e-12, eta extremes exact, sign-mode contract."""
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(1000):
        vecs = [rng.normal(size=6) for _ in range(6)]
        ei, et = vecs[:3], vecs[3:]
        cfg = LossConfig(alpha=float(rng.random()), eta=float(rng.random()))
        total, terms = oracle_loss(ei, et, cfg)
        recombined = cfg.eta * (terms["i2t"] + terms["t2i"]) + (1 - cfg.eta) * (terms["i2i"] + terms["t2t"])
        worst = max(worst, abs(total - recombined))
        one, terms_one = oracle_loss(ei, et, replace(cfg, eta=1.0))
        assert one == terms_one["i2t"] + terms_one["t2i"]
        zero, terms_zero = oracle_loss(ei, et, replace(cfg, eta=0.0))
        assert zero == terms_zero["i2i"] + terms_zero["t2t"]
        a, p, n = vecs[0], vecs[1], vecs[2]
        assert oracle_hinge(a, p, n, cfg.alpha, "corrected") == pytest.approx(
            oracle_hinge(a, n, p, cfg.alpha, "as-printed"), abs=1e-15
        )
    assert worst <= 1e-12
    print(f"\n[criterion 5] PASS — 1000 draws, max recombination error {worst:.2e}")


def test_criterion_6_golden_corpus(ontology):
    """25 hand-labeled snippets extract with exact match."""
    cases = [json.loads(line) for line in GOLDEN.read_text().splitlines() if line.strip()]
    assert len(cases) == 25
    for case in cases:
        got = extract(Report(case["id"], case["text"]), ontology)
        assert got == MetaEntities.from_record(case["expected"]), case["id"]
    print("\n[criterion 6] PASS — 25/25 golden snippets exact")


def _train_and_eval(tmp: Path, seed: int, gammas: GammaWeights, band: tuple[float, float],
                    eval_spec: SyntheticSpec, match_mode: str, target: int = 800):
    train = synthesize(SyntheticSpec(4, 50, overlap_rate=0.35, seed=101 + seed), tmp / "train")
    evalc = synthesize(eval_spec, tmp / "eval")
    cfg = RunConfig(
        out=tmp / "run",
        seed=seed,
        corpus=train.corpus_path,
        eval_corpus=evalc.corpus_path,
        mining=MiningSettings(batch_size=64, target=target, tau_min=band[0], tau_max=band[1], gammas=gammas),
    )
    run_pipeline(cfg, stages=("extract", "mine", "train"), force=True)
    cfg = with_seed_defaults(cfg)
    _, heads = load_heads(cfg.out / "heads.ckpt")
    report = evaluate_retrieval_tasks(cfg, heads, evalc.corpus_path, match_mode=match_mode)
    return cfg, heads, report, evalc


def test_criterion_7_end_to_end_alignment(tmp_path):
    """Cross-modal disease P@10 >= 90 on held-out, >= 30 over baseline."""
    start = time.time()
    train = synthesize(SyntheticSpec(4, 50, overlap_rate=0.35, seed=101), tmp_path / "train")
    evalc = synthesize(SyntheticSpec(4, 12, overlap_rate=0.0, seed=202, id_prefix="e"), tmp_path / "eval")
    cfg = RunConfig(
        out=tmp_path / "run",
        seed=0,
        corpus=train.corpus_path,
        eval_corpus=evalc.corpus_path,
        mining=MiningSettings(batch_size=64, target=1000),
    )
    artifacts = run_pipeline(cfg, stages=("extract", "mine", "train"))
    manifest = json.loads(artifacts["mine"].read_text().splitlines()[0])
    assert manifest["emitted"] >= 1000
    curve = [json.loads(l) for l in (cfg.out / "loss_curve.jsonl").read_text().splitlines()]
    assert len(curve) == 20
    assert curve[-1]["total"] < curve[0]["total"]
    cfg = with_seed_defaults(cfg)
    _, trained = load_heads(cfg.out / "heads.ckpt")
    baseline_heads = {IMAGE: init_head(cfg.seed, IMAGE), TEXT: init_head(cfg.seed, TEXT)}
    trained_rep = evaluate_retrieval_tasks(cfg, trained, evalc.corpus_path)
    baseline_rep = evaluate_retrieval_tasks(cfg, baseline_heads, evalc.corpus_path)
    elapsed = time.time() - start
    lines = []
    for task in ("i2t", "t2i"):
        got = trained_rep["tasks"][task]["disease"][10]
        base = baseline_rep["tasks"][task]["disease"][10]
        assert got >= 90.0, (task, got)
        assert got - base >= 30.0, (task, got, base)
        lines.append(f"{task} P@10 {got:.1f} (baseline {base:.1f})")
    assert elapsed < 300.0
    print(f"\n[criterion 7] PASS — {'; '.join(lines)}; loss {curve[0]['total']:.4f}->{curve[-1]['total']:.4f}; {elapsed:.1f}s")


def test_criterion_8_ablation_directions(tmp_path):
    """Adjective-guidance and semi-hard-negative ablations degrade
    retrieval on a majority of 3 seeds."""
    start = time.time()
    adj_wins, easy_wins = 0, 0
    details = []
    for seed in (0, 1, 2):
        tmp = tmp_path / f"s{seed}"
        eval_plain = SyntheticSpec(4, 40, overlap_rate=0.0, seed=202 + seed, id_prefix="e")
        eval_mixed = SyntheticSpec(4, 40, overlap_rate=0.35, seed=202 + seed, id_prefix="e")

        _, default_heads, default_adj_rep, eval_plain_res = _train_and_eval(
            tmp / "default", seed, GammaWeights(), (0.25, 0.60), eval_plain, "mean")
        cfg_default = with_seed_defaults(RunConfig(
            out=tmp / "default" / "run", seed=seed,
            corpus=(tmp / "default" / "train" / "corpus.jsonl"),
            mining=MiningSettings(batch_size=64, target=800),
        ))
        mixed_dir = tmp / "evalmixed"
        eval_mixed_res = synthesize(eval_mixed, mixed_dir)
        default_exact_rep = evaluate_retrieval_tasks(cfg_default, default_heads,
                                                     eval_mixed_res.corpus_path, match_mode="exact")

        _, _, noadj_rep, _ = _train_and_eval(
            tmp / "noadj", seed, GammaWeights(0.95, 0.0, 0.05), (0.25, 0.60), eval_plain, "mean")
        _, easy_heads, _, _ = _train_and_eval(
            tmp / "easy", seed, GammaWeights(), (0.0, 0.0), eval_plain, "mean")
        cfg_easy = with_seed_defaults(RunConfig(
            out=tmp / "easy" / "run", seed=seed,
            corpus=(tmp / "easy" / "train" / "corpus.jsonl"),
            mining=MiningSettings(batch_size=64, target=800, tau_min=0.0, tau_max=0.0),
        ))
        easy_exact_rep = evaluate_retrieval_tasks(cfg_easy, easy_heads,
                                                  eval_mixed_res.corpus_path, match_mode="exact")

        adj10 = lambda rep: float(np.mean([rep["tasks"][t]["adjective"][10]
                                           for t in ("i2i", "i2t", "t2i", "t2t")]))
        cm50 = lambda rep: float(np.mean([rep["tasks"][t][k][50]
                                          for t in ("i2t", "t2i")
                                          for k in ("disease", "adjective", "direction")]))
        adj_default, adj_ablated = adj10(default_adj_rep), adj10(noadj_rep)
        cm_default, cm_easy = cm50(default_exact_rep), cm50(easy_exact_rep)
        adj_wins += adj_default > adj_ablated
        easy_wins += cm_default > cm_easy
        details.append(
            f"seed {seed}: adjP10 {adj_default:.1f} vs {adj_ablated:.1f}; cmP50 {cm_default:.1f} vs {cm_easy:.1f}"
        )
    assert adj_wins >= 2, details
    assert easy_wins >= 2, details
    print(f"\n[criterion 8] PASS — adjective ablation {adj_wins}/3, easy-negative ablation {easy_wins}/3 "
          f"({'; '.join(details)}); {time.time() - start:.0f}s")


def test_criterion_9_metric_units():
    """P@R and ACC/F1/AUC worked examples plus AUC monotone invariance."""
    from test_evaluation import p_at_all

    q = entities({"edema": (set(), set())})
    other = entities({"pneumonia": (set(), set())})
    assert p_at_all([q, q, q]) == 100.0
    assert p_at_all([q, q, other]) == pytest.approx((50.0 + 50.0 + 0.0) / 3)
    two = entities({"a-disease": (set(), set()), "b-disease": (set(), set())})
    one = entities({"a-disease": (set(), set())})
    assert p_at_all([two, one]) == 50.0

    ab = ["a", "b"]
    perfect = classification_metrics(["a", "b"], ["a", "b"], np.array([[0.9, 0.1], [0.1, 0.9]]), ab)
    assert perfect.accuracy == 100.0 and perfect.macro_f1 == 100.0 and perfect.macro_auc == 1.0

    collapsed = classification_metrics(["a", "a", "a", "a"], ["a", "a", "b", "b"], np.full((4, 2), 0.5), ab)
    assert collapsed.accuracy == 50.0

    rng = np.random.default_rng(9001)
    n = 1000
    truths = ["a"] * (n // 2) + ["b"] * (n // 2)
    scores = np.array([(float(rng.random()), float(rng.random())) for _ in range(n)])
    preds = ["a" if a >= b else "b" for a, b in scores]
    random_auc = classification_metrics(preds, truths, scores, ab).macro_auc
    assert abs(random_auc - 0.5) <= 0.05

    checked = 0
    for _ in range(100):
        m = 30
        truths = ["a" if rng.random() < 0.5 else "b" for _ in range(m)]
        if len(set(truths)) < 2:
            continue
        scores = np.array([(float(rng.normal()), float(rng.normal())) for _ in range(m)])
        preds = ["a" if a >= b else "b" for a, b in scores]
        base = classification_metrics(preds, truths, scores, ab).macro_auc
        warped = np.tanh(scores) * 7 - 2
        assert classification_metrics(preds, truths, warped, ab).macro_auc == pytest.approx(base, abs=1e-12)
        checked += 1
    assert checked >= 90
    print(f"\n[criterion 9] PASS — metric examples exact; random AUC {random_auc:.3f}; "
          f"{checked} monotone-transform checks")
