"""Retrieval ranking, consistency metrics, prompts, classification metrics."""

import numpy as np
import pytest

from conftest import entities
from medtriplet.alignment import DegenerateEmbeddingError, cosine, norm
from medtriplet.encoder import EncoderConfig, tokenize_text
from medtriplet.evaluation import (
    classification_metrics,
    precision_at_r,
    prompt_text,
    rank,
    retrieval_report,
    zero_shot_classify,
)
from oracles import oracle_binary_auc, oracle_retrieval_report, random_entities, to_meta

CFG = EncoderConfig()
EMPTY = entities({})
EDEMA = entities({"edema": (set(), set())})
PNEUMONIA = entities({"pneumonia": (set(), set())})


def vec(*values):
    return np.array(values, dtype=np.float64)


def rows(*vectors):
    return np.array(vectors, dtype=np.float64)


class TestRetrieve:
    """``rank``: other gallery rows by descending cosine, ties to the lower row."""

    def test_duplicate_of_query_ranks_first(self):
        g = rows((1.0, 0.0), (0.2, 0.9), (1.0, 0.0), (0.5, 0.5))
        assert rank(g[0], g, exclude=0)[0] == 2

    def test_top_one_of_two(self):
        g = rows((1.0, 0.0), (0.1, np.sqrt(1 - 0.01)), (0.9, np.sqrt(1 - 0.81)))
        assert list(rank(g[0], g, exclude=0)) == [2, 1]

    def test_full_tie_ascending_ids(self):
        g = rows((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        assert list(rank(g[0], g, exclude=0)) == [1, 2, 3]

    def test_query_id_excluded(self):
        g = rows((1.0, 0.0), (0.9, 0.1))
        assert list(rank(g[0], g, exclude=0)) == [1]
        assert list(rank(g[0], g, exclude=1)) == [0]

    def test_rescaled_gallery_entry_same_ranking(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(7, 4))
        g2 = g1.copy()
        g2[3] *= 5.0
        assert list(rank(g1[0], g1, exclude=0)) == list(rank(g1[0], g2, exclude=0))

    def test_similarity_non_increasing(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(12, 5))
        query = rng.normal(size=5)
        sims = [query @ g[j] / (np.linalg.norm(query) * np.linalg.norm(g[j])) for j in rank(query, g, exclude=4)]
        assert sims == sorted(sims, reverse=True)
        assert len(sims) == 11

    def test_given_norms_same_ranking_on_duplicate_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            g = rng.normal(size=(n, 4))
            # Duplicated and rescaled rows force exact and near ties.
            g[rng.integers(0, n, size=n // 2)] = g[0]
            g[rng.integers(0, n, size=n // 3)] = 3.0 * g[-1]
            norms = [norm(row) for row in g]
            for i in range(n):
                np.testing.assert_array_equal(rank(g[i], g, i, norms), rank(g[i], g, i))


class TestRetrievalResult:
    """``retrieval_report``: mean P@R per entity kind over matrix rows."""

    def test_ranking_non_increasing_and_consistency_recorded(self):
        g = rows((1.0, 0.0), (0.8, 0.6), (0.0, 1.0))
        assert [list(rank(g[i], g, exclude=i)) for i in range(3)] == [[1, 2], [0, 2], [1, 0]]
        report = retrieval_report(g, g, [EDEMA, EDEMA, PNEUMONIA], r_values=(1, 2))
        # Every query's top-1 is an edema row; top-2 adds the pneumonia row to the edema queries.
        assert report["disease"][1] == pytest.approx(100.0 * 2 / 3)
        assert report["disease"][2] == pytest.approx((50.0 + 50.0 + 0.0) / 3)

    def test_tie_break_by_id_inside_result(self):
        g = rows((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))
        report = retrieval_report(g, g, [EDEMA, EDEMA, PNEUMONIA], r_values=(1,))
        # Every query ties its two others: query 0 takes row 1 (edema), queries 1 and 2 take row 0.
        assert report["disease"][1] == pytest.approx(100.0 * 2 / 3)

    def test_r_beyond_gallery_averages_all_others(self):
        g = rows((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))
        report = retrieval_report(g, g, [EDEMA, PNEUMONIA, EDEMA], r_values=(2, 50))
        assert report["disease"][50] == report["disease"][2]

    def test_single_record_has_nothing_to_retrieve(self):
        report = retrieval_report(rows((1.0, 0.0)), rows((1.0, 0.0)), [EDEMA], r_values=(1,))
        assert all(np.isnan(report[kind][1]) for kind in ("disease", "adjective", "direction"))

    def test_zero_norm_row_raises(self):
        g = rows((1.0, 0.0), (0.0, 0.0), (0.6, 0.8))
        with pytest.raises(DegenerateEmbeddingError):
            retrieval_report(g, g, [EDEMA, EDEMA, PNEUMONIA], r_values=(1,))
        with pytest.raises(DegenerateEmbeddingError):
            retrieval_report(rows((1.0, 0.0), (0.0, 0.0), (0.6, 0.8)), rows((1.0, 0.0), (0.5, 0.5), (0.6, 0.8)),
                             [EDEMA, EDEMA, PNEUMONIA], r_values=(1,))

    def test_invalid_arguments(self):
        g = rows((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="match_mode"):
            retrieval_report(g, g, [EDEMA, EDEMA], match_mode="median")
        with pytest.raises(ValueError, match="one row per record"):
            retrieval_report(g, g, [EDEMA])
        with pytest.raises(ValueError, match=">= 1"):
            retrieval_report(g, g, [EDEMA, EDEMA], r_values=(0, 1))

    @pytest.mark.parametrize("match_mode", ["mean", "exact"])
    def test_matches_plain_python_oracle(self, match_mode):
        rng = np.random.default_rng(2024)
        for case in range(40):
            n, c = int(rng.integers(2, 24)), int(rng.integers(2, 6))
            queries, gallery = rng.normal(size=(n, c)), rng.normal(size=(n, c))
            # Duplicate rows force exact cosine ties.
            gallery[rng.integers(0, n, size=n // 2)] = gallery[0]
            queries[rng.integers(0, n, size=n // 3)] = gallery[-1]
            if case % 2:
                gallery = queries
            plain = [random_entities(rng) for _ in range(n)]
            r_values = (1, 3, 10, 50)[: int(rng.integers(1, 5))]
            report = retrieval_report(queries, gallery, [to_meta(p) for p in plain], r_values, match_mode)
            assert report == oracle_retrieval_report(queries.tolist(), gallery.tolist(), plain, r_values, match_mode)


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
        predicted, scores = zero_shot_classify(rows((1.0, 0.0)), rows((1.0, 0.0), (0.0, 1.0)), ["a", "b"])
        assert predicted == ["a"]
        assert scores.shape == (1, 2)
        assert scores[0, 0] == pytest.approx(1.0)

    def test_tie_lexicographic(self):
        predicted, _ = zero_shot_classify(rows((1.0, 0.0)), rows((1.0, 0.0), (1.0, 0.0)), ["b", "a"])
        assert predicted == ["a"]

    def test_argmax(self):
        prompts = rows((0.1, 1.0), (0.9, 0.44), (0.4, 0.92))
        predicted, _ = zero_shot_classify(rows((1.0, 0.0)), prompts, ["a", "b", "c"])
        assert predicted == ["b"]

    def test_zero_norm_row_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            zero_shot_classify(rows((1.0, 0.0), (0.0, 0.0)), rows((1.0, 0.0), (0.0, 1.0)), ["a", "b"])
        with pytest.raises(DegenerateEmbeddingError):
            zero_shot_classify(rows((1.0, 0.0)), rows((1.0, 0.0), (0.0, 0.0)), ["a", "b"])

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="at least 2"):
            zero_shot_classify(vec(1.0), rows((1.0,)), ["a"])

    def test_one_prompt_row_per_class(self):
        with pytest.raises(ValueError, match="one prompt row per class"):
            zero_shot_classify(vec(1.0, 0.0), rows((1.0, 0.0), (0.0, 1.0)), ["a", "b", "c"])

    def test_rows_match_one_image_at_a_time(self):
        rng = np.random.default_rng(31)
        images, prompts = rng.normal(size=(9, 4)), rng.normal(size=(3, 4))
        images[4] = prompts[2]  # exact match with one prompt
        prompts[1] = prompts[0]  # two tied classes
        classes = ["c", "b", "a"]
        predicted, scores = zero_shot_classify(images, prompts, classes)
        for i, image in enumerate(images):
            row = [cosine(image, prompt) for prompt in prompts]
            assert scores[i].tolist() == row
            assert predicted[i] == min(c for c, s in zip(classes, row) if s == max(row))


class TestClassificationMetrics:
    def test_perfect(self):
        preds = ["a", "b", "a", "b"]
        truths = ["a", "b", "a", "b"]
        scores = rows((0.9, 0.1), (0.1, 0.9), (0.8, 0.2), (0.2, 0.8))
        m = classification_metrics(preds, truths, scores, ["a", "b"])
        assert m.accuracy == 100.0
        assert m.macro_f1 == 100.0
        assert m.macro_auc == pytest.approx(1.0)

    def test_all_one_class_on_balanced_truth(self):
        preds = ["a"] * 4
        truths = ["a", "a", "b", "b"]
        scores = rows(*[(0.5, 0.5)] * 4)
        m = classification_metrics(preds, truths, scores, ["a", "b"])
        assert m.accuracy == 50.0

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(123)
        n = 1000
        truths = ["a"] * (n // 2) + ["b"] * (n // 2)
        scores = rows(*[(float(rng.random()), float(rng.random())) for _ in range(n)])
        preds = ["a" if a > b else "b" for a, b in scores]
        m = classification_metrics(preds, truths, scores, ["a", "b"])
        assert abs(m.macro_auc - 0.5) <= 0.05

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 40
            truths = ["a" if rng.random() < 0.5 else "b" for _ in range(n)]
            if len(set(truths)) < 2:
                continue
            scores = rows(*[(float(rng.normal()), float(rng.normal())) for _ in range(n)])
            preds = ["a" if a >= b else "b" for a, b in scores]
            base = classification_metrics(preds, truths, scores, ["a", "b"])
            warped = np.exp(3 * scores) + 1
            transformed = classification_metrics(preds, truths, warped, ["a", "b"])
            assert transformed.macro_auc == pytest.approx(base.macro_auc, abs=1e-12)

    def test_class_missing_from_truths_flagged(self, caplog):
        preds = ["a", "c", "b", "b"]
        truths = ["a", "a", "b", "b"]
        scores = rows(*[(0.5, 0.3, 0.2)] * 4)
        with caplog.at_level("WARNING"):
            m = classification_metrics(preds, truths, scores, ["a", "b", "c"])
        assert m.skipped_classes == ("c",)

    def test_ties_count_half(self):
        truths = ["a", "b"]
        preds = ["a", "a"]
        scores = rows((0.5, 0.5), (0.5, 0.5))
        m = classification_metrics(preds, truths, scores, ["a", "b"])
        assert m.macro_auc == pytest.approx(0.5)

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2025)
        for case in range(600):
            n = int(rng.integers(2, 40))
            n_a = int(rng.integers(1, n))
            truths = rng.permutation(["a"] * n_a + ["b"] * (n - n_a)).tolist()
            # Rounding to a few levels forces tied scores, signed zeros among them.
            scores = np.round(rng.normal(size=(n, 2)), int(rng.integers(0, 3)))
            scores[rng.random(size=(n, 2)) < 0.1] = -0.0
            preds = ["a" if a >= b else "b" for a, b in scores]
            m = classification_metrics(preds, truths, scores, ["a", "b"])
            for j, cls in enumerate(("a", "b")):
                positive = [t == cls for t in truths]
                assert m.per_class_auc[cls] == oracle_binary_auc(positive, scores[:, j].tolist()), case

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = rows((0.9, 0.1), (0.1, 0.9))
        scores[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            classification_metrics(["a", "b"], ["a", "b"], scores, ["a", "b"])

    def test_true_class_without_column_rejected(self):
        with pytest.raises(ValueError, match="true class 'c' has no score column"):
            classification_metrics(["a", "b", "a"], ["a", "b", "c"], rows(*[(0.5, 0.5)] * 3), ["a", "b"])

    def test_one_score_row_per_sample(self):
        with pytest.raises(ValueError, match="one prediction, truth and score row per sample"):
            classification_metrics(["a", "b"], ["a", "b"], rows((0.5, 0.5)), ["a", "b"])
        with pytest.raises(ValueError, match="one score column per class"):
            classification_metrics(["a", "b"], ["a", "b"], rows((0.5, 0.5), (0.5, 0.5)), ["a", "b", "c"])
