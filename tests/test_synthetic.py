"""Synthetic corpus generation: counts, determinism, label fidelity."""

import json

import numpy as np
import pytest

from medtriplet import synthetic
from medtriplet.corpus import ingest
from medtriplet.encoder import EMBED_DIM
from medtriplet.extraction import extract
from medtriplet.images import load_image
from medtriplet.pipeline import FrozenTrunks
from medtriplet.synthetic import SyntheticSpec, synthesize


def read_truth(path):
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["schema"] == "truth/v1"
    return {r["id"]: r for r in map(json.loads, lines[1:])}


class TestSynthesize:
    def test_balanced_counts(self, tmp_path):
        result = synthesize(SyntheticSpec(n_classes=4, per_class=50, seed=0), tmp_path)
        assert result.records == 200
        corpus = ingest(result.corpus_path, require_images=True)
        assert len(corpus) == 200
        truth = read_truth(result.truth_path)
        primary_counts = {}
        for rec in truth.values():
            first = sorted(rec["classes"])[0]
            primary_counts[first] = primary_counts.get(first, 0) + 1
        # every class appears; overlap skews exact primary counts
        assert len({c for r in truth.values() for c in r["classes"]}) == 4

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SyntheticSpec(n_classes=3, per_class=5, seed=7)
        r1 = synthesize(spec, tmp_path / "a")
        r2 = synthesize(spec, tmp_path / "b")
        assert r1.corpus_path.read_bytes() == r2.corpus_path.read_bytes()
        assert r1.truth_path.read_bytes() == r2.truth_path.read_bytes()
        img = "s0003.pgm"
        assert (r1.image_dir / img).read_bytes() == (r2.image_dir / img).read_bytes()

    def test_zero_overlap_single_class_reports(self, tmp_path):
        result = synthesize(SyntheticSpec(n_classes=4, per_class=10, overlap_rate=0.0, seed=3), tmp_path)
        for rec in read_truth(result.truth_path).values():
            assert len(rec["classes"]) == 1

    def test_pixels_in_unit_range(self, tmp_path):
        result = synthesize(SyntheticSpec(n_classes=2, per_class=3, seed=1), tmp_path)
        sample = load_image(result.image_dir / "s0000.pgm")
        assert sample.pixels.min() >= 0.0 and sample.pixels.max() <= 1.0

    def test_extraction_recovers_truth_labels(self, tmp_path, ontology):
        result = synthesize(SyntheticSpec(n_classes=4, per_class=8, overlap_rate=0.5, seed=11), tmp_path)
        truth = read_truth(result.truth_path)
        corpus = ingest(result.corpus_path)
        for rec in corpus:
            m = extract(rec.report(), ontology)
            expected = truth[rec.id]
            assert sorted(m.disease_set()) == expected["classes"]
            assert sorted(m.adj_union()) == expected["adj"]
            assert sorted(m.dir_union()) == expected["dir"]

    def test_five_classes(self, tmp_path):
        # class index 4 and up perturb their texture with a seeded mask
        spec = SyntheticSpec(n_classes=5, per_class=3, overlap_rate=0.0, seed=4)
        result = synthesize(spec, tmp_path / "a")
        assert result.records == 15
        truth = read_truth(result.truth_path)
        assert len({c for r in truth.values() for c in r["classes"]}) == 5
        again = synthesize(spec, tmp_path / "b")
        assert (result.image_dir / "s0004.pgm").read_bytes() == (again.image_dir / "s0004.pgm").read_bytes()

    def test_class_texture_same_in_every_corpus(self, monkeypatch):
        # a train and an eval corpus differ in their seed, not in what a class looks like
        monkeypatch.setattr(synthetic, "NOISE", 0.0)
        images = [
            synthetic._render(SyntheticSpec(n_classes=6, seed=seed), 4, 5, "mild", "left", np.random.default_rng(0))
            for seed in (2, 3)
        ]
        assert images[0].tobytes() == images[1].tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(overlap_rate=1.5)
        with pytest.raises(ValueError):
            SyntheticSpec(per_class=0)
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            SyntheticSpec(seed=-1)

    def test_image_sizes_the_trunk_takes(self, tmp_path):
        trunks = FrozenTrunks(0)
        for size in range(8, 65, 8):
            result = synthesize(SyntheticSpec(n_classes=2, per_class=1, image_size=size), tmp_path / str(size))
            assert trunks.encode_images(ingest(result.corpus_path, require_images=True)).shape == (2, EMBED_DIM)

    @pytest.mark.parametrize(
        "size, message",
        [
            (0, "image 0x0 has no pixels"),
            (30, "image 30x30 not divisible by patch size 8"),
            (72, "sequence length 81 exceeds max_seq_len 64"),
        ],
        ids=["0", "30", "72"],
    )
    def test_image_sizes_the_trunk_cannot_take(self, size, message):
        with pytest.raises(ValueError) as info:
            SyntheticSpec(image_size=size)
        assert str(info.value) == f"image_size {size}: {message}"
