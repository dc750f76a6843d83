"""Ontology loading, validation, defaults, and round-tripping."""

import pytest

from medtriplet import ontology as ontology_module
from medtriplet.lemma import lemmatize
from medtriplet.ontology import (
    OntologyError,
    load_ontology,
    parse_ontology,
    save_ontology,
    serialize_ontology,
)


class TestParsing:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "ont.txt"
        path.write_text("[diseases]\nedema = [edema]\n")
        ont = load_ontology(path)
        assert len(ont.diseases) == 1
        assert ont.diseases[0].canonical == "edema"
        assert len(ont.adjectives) == len(ont.directions) == 0
        assert not ont.splitters and not ont.deleters

    def test_duplicate_canonical_named_in_error(self):
        text = "[diseases]\nedema = [edema]\nedema = [oedema]\n"
        with pytest.raises(OntologyError, match="edema"):
            parse_ontology(text)

    def test_duplicate_after_lemmatization(self):
        # 'edemas' lemmatizes onto the existing canonical
        text = "[diseases]\nedema = [edema]\nedemas = [edemas]\n"
        with pytest.raises(OntologyError, match="edema"):
            parse_ontology(text)

    def test_unknown_section(self):
        with pytest.raises(OntologyError, match="unknown section"):
            parse_ontology("[nouns]\nedema = [edema]\n")

    def test_entry_before_section(self):
        with pytest.raises(OntologyError, match="before any section"):
            parse_ontology("edema = [edema]\n")

    def test_empty_variant_rejected(self):
        with pytest.raises(OntologyError, match="empty"):
            parse_ontology("[diseases]\nedema = [edema, !!]\n")

    def test_splitter_deleter_clash_named(self):
        text = "[splitters]\nand\n[deleters]\nand\n"
        with pytest.raises(OntologyError, match="and"):
            parse_ontology(text)

    def test_multiword_token_rejected(self):
        with pytest.raises(OntologyError, match="multi-word"):
            parse_ontology("[splitters]\nas well\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n[diseases]\n# note\nedema = [edema]\n"
        assert len(parse_ontology(text).diseases) == 1


class TestDefaults:
    def test_category_counts(self, ontology):
        assert len(ontology.diseases) == 12
        assert len(ontology.adjectives) == 40  # documented shipped size
        assert len(ontology.directions) == 4
        assert len(ontology.splitters) == 6
        assert len(ontology.deleters) == 16

    def test_contains_pleural_effusion(self, ontology):
        assert "pleural effusion" in ontology.disease_labels

    def test_direction_canonicals(self, ontology):
        assert {s.canonical for s in ontology.directions} == {"left", "right", "upper", "lower"}

    def test_all_variants_are_lemma_fixed_points(self, ontology):
        for synsets in (ontology.diseases, ontology.adjectives, ontology.directions):
            for s in synsets:
                for v in s.variants:
                    assert " ".join(lemmatize(v)) == v
        for token in ontology.splitters | ontology.deleters:
            assert lemmatize(token) == [token]

    def test_canonical_in_variants(self, ontology):
        for synsets in (ontology.diseases, ontology.adjectives, ontology.directions):
            for s in synsets:
                assert s.canonical in s.variants


class TestRoundTrip:
    def test_default_round_trips(self, ontology, tmp_path):
        path = tmp_path / "ont.txt"
        save_ontology(ontology, path)
        assert load_ontology(path) == ontology

    def test_failed_save_keeps_the_old_file(self, ontology, tmp_path, monkeypatch):
        path = tmp_path / "ont.txt"
        save_ontology(ontology, path)
        before = path.read_bytes()
        # A lone surrogate cannot be encoded as UTF-8, so the write fails part way.
        monkeypatch.setattr(ontology_module, "serialize_ontology", lambda ont: "[diseases]\n\udcff\n")
        with pytest.raises(UnicodeEncodeError):
            save_ontology(ontology, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ont.txt"]

    def test_serialization_is_canonical(self, ontology):
        text = serialize_ontology(ontology)
        assert serialize_ontology(parse_ontology(text)) == text

    def test_variants_lemmatized_on_load(self):
        ont = parse_ontology("[diseases]\nedema = [edemas, Oedema]\n")
        assert ont.diseases[0].variants == frozenset({"edema", "oedema"})
