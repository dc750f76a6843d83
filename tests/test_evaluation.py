"""Retrieval ranking, consistency metrics, prompts, classification metrics."""

import hashlib
import json

import numpy as np
import pytest

from conftest import entities
from medtriplet.alignment import DegenerateEmbeddingError, cosine, norm
from medtriplet.encoder import tokenize_text
from medtriplet.evaluation import (
    _ranked,
    classification_metrics,
    prompt_text,
    retrieval_report,
    zero_shot_classify,
)
from oracles import oracle_binary_auc, oracle_retrieval_report, random_entities

EMPTY = entities({})
EDEMA = entities({"edema": (set(), set())})
PNEUMONIA = entities({"pneumonia": (set(), set())})


def vec(*values):
    return np.array(values, dtype=np.float64)


def rows(*vectors):
    return np.array(vectors, dtype=np.float64)


def ranked(query, gallery, exclude):
    """``_ranked`` with the gallery lists and norms made as ``retrieval_report`` makes them."""
    return _ranked(query, list(gallery), [norm(row) for row in gallery], exclude)


def p_at_all(ents, kind="disease", match_mode="mean"):
    """P@R at R = n - 1 over n rows: every query averages its consistency with all other rows,
    so the embeddings do not matter."""
    r = len(ents) - 1
    g = np.ones((len(ents), 2))
    return retrieval_report(g, g, ents, (r,), match_mode)[kind][r]


def golden_retrieval_reports():
    """``retrieval_report`` over seeded random matrices in both match modes, at
    n in {2, 3, 17} and every R from 1 to n + 1. Rows i - 1 and i + 1 around
    excluded rows i tie exactly: one is a duplicate of the other, or the other
    times 4.0, which scales the dot product and the norm without rounding."""
    rng = np.random.default_rng(21)
    for match_mode in ("mean", "exact"):
        for n in (2, 3, 17):
            for shared in (False, True):
                queries, gallery = rng.normal(size=(2, n, 5))
                if shared:
                    gallery = queries
                for i in range(1, n - 1, 3):
                    gallery[i + 1] = gallery[i - 1] if i % 2 else 4.0 * gallery[i - 1]
                ents = [entities(random_entities(rng)) for _ in range(n)]
                yield retrieval_report(queries, gallery, ents, tuple(range(1, n + 2)), match_mode)


# SHA-256 of the JSON of every report ``golden_retrieval_reports`` yields,
# recorded while each query still ranked through ``np.delete`` and
# per-pair ndarray indexing: any change to a similarity's bits or to the
# tie order changes it. The dot products go through BLAS; the digest was
# recorded with the OpenBLAS that numpy 2.4.6 bundles, on x86_64.
GOLDEN_RETRIEVAL_DIGEST = "abd7ef91178562123e9bf25441e9ab298d88056e32da31d6d93f92e77b7524b3"


class TestRetrieve:
    """``_ranked``: other gallery rows by descending cosine, ties to the lower row."""

    def test_duplicate_of_query_ranks_first(self):
        g = rows((1.0, 0.0), (0.2, 0.9), (1.0, 0.0), (0.5, 0.5))
        assert ranked(g[0], g, exclude=0)[0] == 2

    def test_top_one_of_two(self):
        g = rows((1.0, 0.0), (0.1, np.sqrt(1 - 0.01)), (0.9, np.sqrt(1 - 0.81)))
        assert list(ranked(g[0], g, exclude=0)) == [2, 1]

    def test_full_tie_ascending_ids(self):
        g = rows((1.0, 0.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        assert list(ranked(g[0], g, exclude=0)) == [1, 2, 3]

    def test_query_id_excluded(self):
        g = rows((1.0, 0.0), (0.9, 0.1))
        assert list(ranked(g[0], g, exclude=0)) == [1]
        assert list(ranked(g[0], g, exclude=1)) == [0]

    def test_rescaled_gallery_entry_same_ranking(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(7, 4))
        g2 = g1.copy()
        g2[3] *= 5.0
        assert list(ranked(g1[0], g1, exclude=0)) == list(ranked(g1[0], g2, exclude=0))

    def test_similarity_non_increasing(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(12, 5))
        query = rng.normal(size=5)
        sims = [query @ g[j] / (np.linalg.norm(query) * np.linalg.norm(g[j])) for j in ranked(query, g, exclude=4)]
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
            np_norms = [np.linalg.norm(row) for row in g]
            for i in range(n):
                # numpy's norms here: the norms _ranked is given must give the same floats.
                expected = sorted(
                    (j for j in range(n) if j != i), key=lambda j: (-cosine(g[i], g[j], np_norms[i], np_norms[j]), j)
                )
                assert list(_ranked(g[i], list(g), norms, i)) == expected


class TestRetrievalResult:
    """``retrieval_report``: mean P@R per entity kind over matrix rows."""

    def test_ranking_non_increasing_and_consistency_recorded(self):
        g = rows((1.0, 0.0), (0.8, 0.6), (0.0, 1.0))
        assert [list(ranked(g[i], g, exclude=i)) for i in range(3)] == [[1, 2], [0, 2], [1, 0]]
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
            report = retrieval_report(queries, gallery, [entities(p) for p in plain], r_values, match_mode)
            assert report == oracle_retrieval_report(queries.tolist(), gallery.tolist(), plain, r_values, match_mode)

    def test_reports_match_golden_digest(self):
        digest = hashlib.sha256()
        for report in golden_retrieval_reports():
            digest.update(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == GOLDEN_RETRIEVAL_DIGEST


class TestPrecisionAtR:
    """P@R worked examples as two- and three-row ``retrieval_report`` inputs: the mean over
    queries of each one's mean consistency, as a percentage."""

    def test_all_identical_hundred(self):
        assert p_at_all([EDEMA, EDEMA, EDEMA]) == 100.0

    def test_half_match_half_disjoint(self):
        # Each edema query retrieves one edema and one pneumonia row; the pneumonia query, two edema rows.
        assert p_at_all([EDEMA, EDEMA, PNEUMONIA]) == pytest.approx((50.0 + 50.0 + 0.0) / 3)

    def test_partial_jaccard(self):
        both = entities({"edema": (set(), set()), "pneumonia": (set(), set())})
        assert p_at_all([both, EDEMA]) == 50.0

    def test_adjective_kind_uses_descriptor_union(self):
        q = entities({"edema": ({"mild"}, set()), "pneumonia": ({"severe"}, set())})
        item = entities({"fracture": ({"mild", "severe"}, set())})
        assert p_at_all([q, item], "adjective") == 100.0
        assert p_at_all([q, item], "disease") == 0.0

    def test_exact_mode(self):
        both = entities({"edema": (set(), set()), "pneumonia": (set(), set())})
        assert p_at_all([both, both, EDEMA], match_mode="exact") == pytest.approx((50.0 + 50.0 + 0.0) / 3)
        assert p_at_all([both, both, EDEMA]) == pytest.approx((75.0 + 75.0 + 50.0) / 3)
        assert p_at_all([EMPTY, EMPTY], match_mode="exact") == 100.0  # empty sets match exactly

    def test_range_and_empty_sets(self):
        assert p_at_all([EMPTY, EDEMA]) == 0.0
        assert p_at_all([EMPTY, EMPTY]) == 0.0  # empty/empty Jaccard is 0

    def test_empty_retrieved_rejected(self):
        g = rows((1.0, 0.0), (0.0, 1.0))
        with pytest.raises(ValueError, match=">= 1"):
            retrieval_report(g, g, [EDEMA, EDEMA], r_values=(0, 1))


class TestPrompts:
    def test_template_text(self, ontology):
        assert prompt_text("pneumonia", ontology) == "This is an X-Ray image of pneumonia."
        assert (
            prompt_text("pleural effusion", ontology)
            == "This is an X-Ray image of pleural effusion."
        )

    def test_tokenized_through_standard_pipeline(self, ontology):
        seq = tokenize_text(prompt_text("pneumonia", ontology))
        assert seq.ids == tokenize_text("This is an X-Ray image of pneumonia.").ids

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
            row = [cosine(image, prompt, norm(image), norm(prompt)) for prompt in prompts]
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
        (record,) = [r for r in caplog.records if r.levelname == "WARNING"]
        assert "classes absent from truths" in record.getMessage() and "('c',)" in record.getMessage()
        assert set(m.per_class_f1) == set(m.per_class_auc) == {"a", "b"}

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
