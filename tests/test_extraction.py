"""Entity extraction pipeline: splitting, filtering, matching, merging."""

import json
from pathlib import Path

import pytest

from medtriplet.extraction import (
    DiseaseEntry,
    MetaEntities,
    Report,
    extract,
    extract_sentence,
    filter_sentences,
    split_sentences,
)
from medtriplet.lemma import lemmatize

GOLDEN = Path(__file__).parent / "data" / "golden_reports.jsonl"


class TestSplitSentences:
    def test_terminal_punctuation(self, ontology):
        tokens = lemmatize("mild edema. small effusion.")
        assert split_sentences(tokens, ontology) == [("mild", "edema"), ("small", "effusion")]

    def test_splitter_consumed(self, ontology):
        tokens = lemmatize("mild edema but small effusion")
        sentences = split_sentences(tokens, ontology)
        assert len(sentences) == 2
        assert all("but" not in s for s in sentences)

    def test_empty(self, ontology):
        assert split_sentences([], ontology) == []

    def test_consecutive_delimiters_no_empty_segments(self, ontology):
        tokens = lemmatize("edema and but effusion")
        assert split_sentences(tokens, ontology) == [("edema",), ("effusion",)]


class TestFilterSentences:
    def test_deleter_sentence_removed(self, ontology):
        sentences = [("effusion", "stable"), ("comparison", "none")]
        assert filter_sentences(sentences, ontology) == [("effusion", "stable")]

    def test_no_deleters_identity(self, ontology):
        sentences = [("mild", "edema"), ("small", "effusion")]
        assert filter_sentences(sentences, ontology) == sentences

    def test_all_deleted(self, ontology):
        sentences = [("prior", "edema"), ("technique", "portable")]
        assert filter_sentences(sentences, ontology) == []

    def test_output_is_subsequence(self, ontology):
        sentences = [("a",), ("prior",), ("b",), ("history",), ("c",)]
        out = filter_sentences(sentences, ontology)
        it = iter(sentences)
        assert all(s in it for s in out)


class TestExtractSentence:
    def test_disease_with_descriptors(self, ontology):
        entries = extract_sentence(("mild", "left", "pleural", "effusion"), ontology)
        assert entries == [
            DiseaseEntry("pleural effusion", frozenset({"mild"}), frozenset({"left"}))
        ]

    def test_no_disease_no_output(self, ontology):
        assert extract_sentence(("no", "acute", "cardiopulmonary", "process"), ontology) == []

    def test_adjective_only_never_emitted(self, ontology):
        assert extract_sentence(("severe", "changes"), ontology) == []

    def test_disease_without_descriptors(self, ontology):
        entries = extract_sentence(("severe", "cardiomegaly"), ontology)
        assert entries == [DiseaseEntry("cardiomegaly", frozenset({"severe"}), frozenset())]

    def test_longest_match_consumes_tokens(self, ontology):
        # "pleural effusion" must match as one disease, not leave "effusion"
        # free to double count
        entries = extract_sentence(("pleural", "effusion"), ontology)
        assert len(entries) == 1

    def test_multiple_diseases_share_descriptors(self, ontology):
        entries = extract_sentence(("diffuse", "edema", "or", "pneumonia"), ontology)
        assert [e.disease for e in entries] == ["edema", "pneumonia"]
        assert all(e.adj == frozenset({"diffuse"}) for e in entries)


class TestExtract:
    def test_two_sentences(self, ontology):
        m = extract(Report("r", "Mild left pleural effusion. Severe cardiomegaly."), ontology)
        assert m.to_record() == {
            "entries": [
                {"disease": "cardiomegaly", "adj": ["severe"], "dir": []},
                {"disease": "pleural effusion", "adj": ["mild"], "dir": ["left"]},
            ]
        }

    def test_no_diseases_empty(self, ontology):
        assert extract(Report("r", "Normal study."), ontology).entries == ()

    def test_duplicate_merge(self, ontology):
        m = extract(Report("r", "Pleural effusion. Left pleural effusion."), ontology)
        assert m.to_record() == {
            "entries": [{"disease": "pleural effusion", "adj": [], "dir": ["left"]}]
        }

    def test_deterministic(self, ontology):
        report = Report("r", "Patchy opacity in the right upper lobe. Mild edema.")
        assert extract(report, ontology) == extract(report, ontology)

    def test_entries_sorted_unique(self, ontology):
        m = extract(Report("r", "Edema. Atelectasis. Edema again."), ontology)
        labels = [e.disease for e in m.entries]
        assert labels == sorted(set(labels))

    def test_whitespace_only_report_rejected(self):
        with pytest.raises(ValueError):
            Report("r", "   ")


class TestGoldenCorpus:
    """25 hand-labeled snippets; expectations were traced by hand."""

    def _cases(self):
        return [json.loads(line) for line in GOLDEN.read_text().splitlines() if line.strip()]

    def test_count(self):
        assert len(self._cases()) == 25

    @pytest.mark.parametrize("case", [json.loads(l) for l in GOLDEN.read_text().splitlines() if l.strip()],
                             ids=lambda c: c["id"])
    def test_exact_match(self, case, ontology):
        got = extract(Report(case["id"], case["text"]), ontology)
        assert got == MetaEntities.from_record(case["expected"]), case["text"]


class TestRecordRoundTrip:
    def test_to_from_record(self, ontology):
        m = extract(Report("r", "Small left apical pneumothorax."), ontology)
        assert MetaEntities.from_record(m.to_record()) == m

    @pytest.mark.parametrize(
        "record, message",
        [
            ({}, "'entries' must be a list, got None"),
            ({"entries": "edema"}, "'entries' must be a list, got 'edema'"),
            ({"entries": ["edema"]}, "each entry must be an object, got 'edema'"),
            ({"entries": [{"adj": ["mild"]}]}, "entry 'disease' must be a string, got None"),
            ({"entries": [{"disease": 3}]}, "entry 'disease' must be a string, got 3"),
            ({"entries": [{"disease": "edema", "adj": "mild"}]}, "entry 'adj' must be a list of strings, got 'mild'"),
            ({"entries": [{"disease": "edema", "dir": [["left"]]}]}, "entry 'dir' must be a list of strings"),
        ],
        ids=["no_entries", "entries_not_list", "entry_not_object", "no_disease", "disease_not_string",
             "adj_not_list", "dir_not_strings"],
    )
    def test_malformed_record_names_the_field(self, record, message):
        with pytest.raises(ValueError) as info:
            MetaEntities.from_record(record)
        assert str(info.value).startswith(message)
