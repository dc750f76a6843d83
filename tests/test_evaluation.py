"""Retrieval ranking, consistency metrics, prompts, classification metrics."""

import numpy as np
import pytest

from conftest import entities
from medtriplet.encoder import EncoderConfig, Embedding, tokenize_text
from medtriplet.evaluation import (
    Gallery,
    GalleryEntry,
    classification_metrics,
    precision_at_r,
    prompt_text,
    retrieval_result,
    retrieve,
    zero_shot_classify,
)

CFG = EncoderConfig()
EMPTY = entities({})


def emb(*values, modality="image"):
    return Embedding(np.array(values, dtype=np.float64), modality)


def gallery_from(vectors: dict[str, tuple], ents=None):
    return Gallery(
        tuple(
            GalleryEntry(k, emb(*v), ents[k] if ents else EMPTY)
            for k, v in sorted(vectors.items())
        )
    )


class TestRetrieve:
    def test_duplicate_of_query_ranks_first(self):
        g = gallery_from({"a": (0.2, 0.9), "b": (1.0, 0.0), "c": (0.5, 0.5)})
        assert retrieve(emb(1.0, 0.0), g, r=1) == ["b"]

    def test_top_one_of_two(self):
        g = gallery_from({"hi": (0.9, np.sqrt(1 - 0.81)), "lo": (0.1, np.sqrt(1 - 0.01))})
        assert retrieve(emb(1.0, 0.0), g, r=1) == ["hi"]

    def test_full_tie_ascending_ids(self):
        g = gallery_from({"b": (0.0, 1.0), "a": (0.0, 1.0), "c": (0.0, 1.0)})
        assert retrieve(emb(1.0, 0.0), g, r=3) == ["a", "b", "c"]

    def test_query_id_excluded(self):
        g = gallery_from({"q": (1.0, 0.0), "x": (0.9, 0.1)})
        assert retrieve(emb(1.0, 0.0), g, r=2, query_id="q") == ["x"]

    def test_self_retrieval_when_not_excluded(self):
        g = gallery_from({"q": (1.0, 0.0), "x": (0.9, 0.44)})
        assert retrieve(emb(1.0, 0.0), g, r=1)[0] == "q"

    def test_oversized_r_returns_all(self, caplog):
        g = gallery_from({"a": (1.0, 0.0), "b": (0.0, 1.0)})
        with caplog.at_level("WARNING"):
            out = retrieve(emb(1.0, 0.0), g, r=10)
        assert out == ["a", "b"]
        assert any("returning all" in r.message for r in caplog.records)

    def test_rescaled_gallery_entry_same_ranking(self):
        rng = np.random.default_rng(0)
        vectors = {f"v{i}": tuple(rng.normal(size=4)) for i in range(6)}
        query = emb(*rng.normal(size=4))
        g1 = gallery_from(vectors)
        vectors["v3"] = tuple(5.0 * np.array(vectors["v3"]))
        g2 = gallery_from(vectors)
        assert retrieve(query, g1, r=6) == retrieve(query, g2, r=6)

    def test_gallery_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Gallery((GalleryEntry("a", emb(1.0), EMPTY), GalleryEntry("a", emb(2.0), EMPTY)))


class TestRetrievalResult:
    def test_ranking_non_increasing_and_consistency_recorded(self):
        ents = {
            "a": entities({"edema": (set(), set())}),
            "b": entities({"edema": (set(), set())}),
            "c": entities({"pneumonia": (set(), set())}),
        }
        g = gallery_from({"a": (1.0, 0.0), "b": (0.8, 0.6), "c": (0.0, 1.0)}, ents)
        res = retrieval_result("q", emb(1.0, 0.0), ents["a"], g, r_values=(1, 2, 3))
        sims = [s for _, s in res.ranked]
        assert sims == sorted(sims, reverse=True)
        assert [i for i, _ in res.ranked] == ["a", "b", "c"]
        assert res.consistency["disease"][1] == 100.0
        assert res.consistency["disease"][3] == pytest.approx(100.0 * 2 / 3)

    def test_tie_break_by_id_inside_result(self):
        ents = {k: EMPTY for k in ("b", "a")}
        g = gallery_from({"b": (0.5, 0.5), "a": (0.5, 0.5)}, ents)
        res = retrieval_result("q", emb(1.0, 1.0), EMPTY, g, r_values=(2,))
        assert [i for i, _ in res.ranked] == ["a", "b"]


class TestPrecisionAtR:
    def test_all_identical_hundred(self):
        q = entities({"edema": (set(), set())})
        assert precision_at_r(q, [q, q, q], "disease") == 100.0

    def test_half_match_half_disjoint(self):
        q = entities({"edema": (set(), set())})
        other = entities({"pneumonia": (set(), set())})
        assert precision_at_r(q, [q, other], "disease") == 50.0

    def test_partial_jaccard(self):
        q = entities({"edema": (set(), set()), "pneumonia": (set(), set())})
        item = entities({"edema": (set(), set())})
        assert precision_at_r(q, [item], "disease") == 50.0

    def test_adjective_kind_uses_descriptor_union(self):
        q = entities({"edema": ({"mild"}, set()), "pneumonia": ({"severe"}, set())})
        item = entities({"fracture": ({"mild", "severe"}, set())})
        assert precision_at_r(q, [item], "adjective") == 100.0

    def test_exact_mode(self):
        q = entities({"edema": (set(), set()), "pneumonia": (set(), set())})
        partial = entities({"edema": (set(), set())})
        assert precision_at_r(q, [q, partial], "disease", match_mode="exact") == 50.0

    def test_range_and_empty_sets(self):
        q = entities({})
        item = entities({"edema": (set(), set())})
        assert precision_at_r(q, [item], "disease") == 0.0
        assert precision_at_r(q, [q], "disease") == 0.0  # empty/empty Jaccard is 0

    def test_empty_retrieved_rejected(self):
        with pytest.raises(ValueError):
            precision_at_r(EMPTY, [], "disease")


class TestPrompts:
    def test_template_text(self, ontology):
        assert prompt_text("pneumonia", ontology) == "This is an X-Ray image of pneumonia."
        assert (
            prompt_text("pleural effusion", ontology)
            == "This is an X-Ray image of pleural effusion."
        )

    def test_tokenized_through_standard_pipeline(self, ontology):
        seq = tokenize_text(prompt_text("pneumonia", ontology), CFG)
        assert seq.ids == tokenize_text("This is an X-Ray image of pneumonia.", CFG).ids

    def test_unknown_disease(self, ontology):
        with pytest.raises(ValueError):
            prompt_text("psittacosis", ontology)
        with pytest.raises(ValueError):
            prompt_text("", ontology)


class TestZeroShot:
    def test_exact_prompt_match(self):
        prompts = [("a", emb(1.0, 0.0)), ("b", emb(0.0, 1.0))]
        predicted, scores = zero_shot_classify(emb(1.0, 0.0), prompts)
        assert predicted == "a"
        assert scores["a"] == pytest.approx(1.0)

    def test_tie_lexicographic(self):
        prompts = [("b", emb(1.0, 0.0)), ("a", emb(1.0, 0.0))]
        predicted, _ = zero_shot_classify(emb(1.0, 0.0), prompts)
        assert predicted == "a"

    def test_argmax(self):
        prompts = [("a", emb(0.1, 1.0)), ("b", emb(0.9, 0.44)), ("c", emb(0.4, 0.92))]
        predicted, _ = zero_shot_classify(emb(1.0, 0.0), prompts)
        assert predicted == "b"

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            zero_shot_classify(emb(1.0), [("a", emb(1.0))])


class TestClassificationMetrics:
    def test_perfect(self):
        preds = ["a", "b", "a", "b"]
        truths = ["a", "b", "a", "b"]
        scores = [
            {"a": 0.9, "b": 0.1},
            {"a": 0.1, "b": 0.9},
            {"a": 0.8, "b": 0.2},
            {"a": 0.2, "b": 0.8},
        ]
        m = classification_metrics(preds, truths, scores)
        assert m.accuracy == 100.0
        assert m.macro_f1 == 100.0
        assert m.macro_auc == pytest.approx(1.0)

    def test_all_one_class_on_balanced_truth(self):
        preds = ["a"] * 4
        truths = ["a", "a", "b", "b"]
        scores = [{"a": 0.5, "b": 0.5}] * 4
        m = classification_metrics(preds, truths, scores)
        assert m.accuracy == 50.0

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(123)
        n = 1000
        truths = ["a"] * (n // 2) + ["b"] * (n // 2)
        scores = [{"a": float(rng.random()), "b": float(rng.random())} for _ in range(n)]
        preds = [max(s, key=lambda k: (s[k], k)) for s in scores]
        m = classification_metrics(preds, truths, scores)
        assert abs(m.macro_auc - 0.5) <= 0.05

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 40
            truths = ["a" if rng.random() < 0.5 else "b" for _ in range(n)]
            if len(set(truths)) < 2:
                continue
            scores = [{"a": float(rng.normal()), "b": float(rng.normal())} for _ in range(n)]
            preds = [max(s, key=s.get) for s in scores]
            base = classification_metrics(preds, truths, scores)
            warped = [{k: float(np.exp(3 * v) + 1) for k, v in s.items()} for s in scores]
            transformed = classification_metrics(preds, truths, warped)
            assert transformed.macro_auc == pytest.approx(base.macro_auc, abs=1e-12)

    def test_class_missing_from_truths_flagged(self, caplog):
        preds = ["a", "c", "b", "b"]
        truths = ["a", "a", "b", "b"]
        scores = [{"a": 0.5, "b": 0.3, "c": 0.2}] * 4
        with caplog.at_level("WARNING"):
            m = classification_metrics(preds, truths, scores)
        assert m.skipped_classes == ("c",)

    def test_ties_count_half(self):
        truths = ["a", "b"]
        preds = ["a", "a"]
        scores = [{"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}]
        m = classification_metrics(preds, truths, scores)
        assert m.macro_auc == pytest.approx(0.5)
