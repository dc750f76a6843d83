"""Ontology loading, validation, defaults, and round-tripping."""

import re

import pytest

from medtriplet import ontology as ontology_module
from medtriplet.cli import _load_meta_record
from medtriplet.corpus import ingest, read_entities
from medtriplet.lemma import lemmatize
from medtriplet.mining import read_triplets
from medtriplet.ontology import (
    OntologyError,
    load_ontology,
    parse_ontology,
    save_ontology,
    serialize_ontology,
)
from medtriplet.pipeline import PipelineError, config_from_file


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

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[adjectives]\nmild = [mild]\nsevere = [mild]\n",
                "variant 'mild' listed under both 'mild' and 'severe' in [adjectives]",
            ),
            (
                "[diseases]\npleural effusion = [effusion]\npericardial effusion = [effusion]\n",
                "variant 'effusion' listed under both 'pleural effusion' and 'pericardial effusion' in [diseases]",
            ),
            # the same variant after lemmatization, one of them a canonical
            (
                "[diseases]\nedema = [oedemas]\noedema = [fluid]\n",
                "variant 'oedema' listed under both 'edema' and 'oedema' in [diseases]",
            ),
        ],
        ids=["adjective", "disease", "canonical"],
    )
    def test_variant_under_two_canonicals_named(self, text, message):
        with pytest.raises(OntologyError, match=re.escape(message)):
            parse_ontology(text)

    def test_variant_repeated_in_one_synset_is_one_variant(self):
        (synset,) = parse_ontology("[diseases]\nedema = [edema, oedema, oedema]\n").diseases
        assert synset.variants == {"edema", "oedema"}

    def test_variant_may_recur_across_sections(self):
        ont = parse_ontology("[adjectives]\nleft = [left]\n[directions]\nleft = [left]\n")
        assert ont.adjectives[0].variants == ont.directions[0].variants == {"left"}

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


# One small valid file of each kind that goes through ``read_text``, and the reader that takes it.
TEXT_FILES = {
    "config": ("[run]\nseed = 3\n", config_from_file),
    "ontology": ("[diseases]\nedema = [edema, oedema]\n", load_ontology),
    "corpus": ('{"schema": "corpus/v1"}\n{"id": "a", "text": "Edema.", "image": null}\n', ingest),
    "entities": ('{"schema": "entities/v1"}\n{"id": "a", "entries": [{"disease": "edema"}]}\n', read_entities),
    "triplets": (
        '{"schema": "triplets/v1"}\n'
        '{"anchor_id": "a", "positive_id": "b", "negative_id": "c", "score_ap": 0.5, "score_an": 0.25}\n',
        read_triplets,
    ),
    "score_record": ('{"entries": [{"disease": "edema", "adj": ["mild"]}]}', _load_meta_record),
}

# Each rule the section reader applies, as (text, the error after "<source>:", or None for none).
# The text is filled in per format with a valid section and entry (a, entry_a; b, entry_b).
SECTION_RULES = {
    "comments_and_blank_lines": ("# top\n\n[{a}]\n   # indented\n\n{entry_a}\n", None),
    "mixed_case_header": ("[ {A} ]\n{entry_a}\n", None),
    "repeated_section": ("[{a}]\n{entry_a}\n[{b}]\n{entry_b}\n\n[{A}]\n", "6: section [{a}] given twice"),
    "unknown_section": (
        "[{a}]\n{entry_a}\n# next\n[nosuch]\n", "4: unknown section [nosuch]; expected one of: {allowed}"
    ),
    "entry_before_header": ("# top\n\n{entry_a}\n[{a}]\n", "3: entry before any section header"),
}
SECTION_FORMATS = {
    "config": (
        dict(a="run", A="Run", entry_a="seed = 1", b="loss", entry_b="alpha = 0.2",
             allowed="run, scoring, miner, loss, optimizer"),
        lambda path: config_from_file(path).seed,
        1,
    ),
    "ontology": (
        dict(a="diseases", A="DISEASES", entry_a="edema = [edema]", b="splitters", entry_b="and",
             allowed="diseases, adjectives, directions, splitters, deleters"),
        lambda path: parse_ontology(path.read_text(), source=str(path)).disease_labels,
        {"edema"},
    ),
}


class TestTextFrontEnd:
    @pytest.mark.parametrize("kind", TEXT_FILES)
    def test_byte_order_mark_reads_as_absent(self, tmp_path, kind):
        text, read = TEXT_FILES[kind]
        plain, marked, damaged = (tmp_path / name / "input" for name in ("plain", "marked", "damaged"))
        for path, data in ((plain, b""), (marked, b"\xef\xbb\xbf"), (damaged, b"\xef\xbb\xbf\xff")):
            path.parent.mkdir()
            path.write_bytes(data + text.encode())
        assert read(marked) == read(plain)
        # The offset is the byte's place in the file, counting the mark.
        with pytest.raises((ValueError, PipelineError)) as info:
            read(damaged)
        assert str(info.value) == f"{damaged}: not UTF-8: byte 0xff at offset 3"

    @pytest.mark.parametrize("fmt", SECTION_FORMATS)
    @pytest.mark.parametrize("rule", SECTION_RULES)
    def test_config_and_ontology_share_section_rules(self, tmp_path, rule, fmt):
        template, error = SECTION_RULES[rule]
        names, read, expected = SECTION_FORMATS[fmt]
        path = tmp_path / "input.txt"
        path.write_text(template.format(**names))
        if error is None:
            assert read(path) == expected
            return
        with pytest.raises((OntologyError, PipelineError)) as info:
            read(path)
        assert str(info.value) == f"{path}:{error.format(**names)}"
