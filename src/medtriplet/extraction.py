"""Rule pipeline turning a raw report into structured meta-entities.

Stages: lemmatize the report, split it into sentences on terminal
punctuation and splitter tokens, drop sentences containing deleter
tokens, then match disease/adjective/direction synsets per sentence.
Adjectives and directions are only ever emitted attached to a disease
found in the same sentence.

Negation is NOT handled: "no pleural effusion" still yields a pleural
effusion entry. Deleter tokens are the only suppression mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .lemma import SENTENCE_BREAK, lemmatize
from .ontology import Ontology, Synset


@dataclass(frozen=True)
class Report:
    """One corpus sample: opaque id plus raw report prose."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(f"report {self.id!r} has empty text")


# A sentence is an ordered list of lemmatized tokens with all sentence
# breaks and splitter tokens already consumed.
Sentence = tuple[str, ...]


@dataclass(frozen=True, order=True)
class DiseaseEntry:
    """One disease label with the descriptor sets found alongside it."""

    disease: str
    adj: frozenset[str] = frozenset()
    dir: frozenset[str] = frozenset()


@dataclass(frozen=True)
class MetaEntities:
    """Per-report entity structure: entries unique and sorted by disease."""

    entries: tuple[DiseaseEntry, ...] = ()

    def __post_init__(self) -> None:
        labels = [e.disease for e in self.entries]
        if labels != sorted(set(labels)):
            raise ValueError("entries must be unique and sorted by disease label")

    @cached_property
    def by_disease(self) -> dict[str, DiseaseEntry]:
        """``{disease: entry}``, built once per instance; read it, never mutate it."""
        return {e.disease: e for e in self.entries}

    def disease_set(self) -> frozenset[str]:
        return frozenset(e.disease for e in self.entries)

    def adj_union(self) -> frozenset[str]:
        return frozenset(a for e in self.entries for a in e.adj)

    def dir_union(self) -> frozenset[str]:
        return frozenset(d for e in self.entries for d in e.dir)

    def to_record(self) -> dict:
        return {
            "entries": [
                {"disease": e.disease, "adj": sorted(e.adj), "dir": sorted(e.dir)}
                for e in self.entries
            ]
        }

    @classmethod
    def from_record(cls, record: dict) -> "MetaEntities":
        entries = tuple(
            DiseaseEntry(e["disease"], frozenset(e.get("adj", ())), frozenset(e.get("dir", ())))
            for e in sorted(record["entries"], key=lambda e: e["disease"])
        )
        return cls(entries)


@dataclass
class _Matcher:
    """Longest-match-first n-gram lookup over one synset category."""

    table: dict[tuple[str, ...], str]
    max_len: int = 1

    def find(self, tokens: Sentence, blocked: list[bool]) -> tuple[set[str], list[bool]]:
        """Return matched canonicals plus the updated consumption mask.

        Longer n-grams win over shorter ones; a token consumed by one
        match is unavailable to later matches in this category.
        """
        taken = list(blocked)
        found: set[str] = set()
        for n in range(min(self.max_len, len(tokens)), 0, -1):
            for i in range(len(tokens) - n + 1):
                if any(taken[i : i + n]):
                    continue
                canonical = self.table.get(tuple(tokens[i : i + n]))
                if canonical is not None:
                    found.add(canonical)
                    taken[i : i + n] = [True] * n
        return found, taken


def _matcher_for(synsets: tuple[Synset, ...]) -> _Matcher:
    table: dict[tuple[str, ...], str] = {}
    max_len = 1
    for s in synsets:
        for variant in s.variants:
            key = tuple(variant.split())
            table[key] = s.canonical
            max_len = max(max_len, len(key))
    return _Matcher(table, max_len)


@lru_cache(maxsize=8)
def _matchers(ont: Ontology) -> tuple[_Matcher, _Matcher, _Matcher]:
    return (
        _matcher_for(ont.diseases),
        _matcher_for(ont.adjectives),
        _matcher_for(ont.directions),
    )


def split_sentences(tokens: list[str], ont: Ontology) -> list[Sentence]:
    """Split a lemmatized token stream on sentence breaks and splitters.

    Both delimiters are consumed; empty segments are dropped.
    """
    sentences: list[Sentence] = []
    current: list[str] = []
    for tok in tokens:
        if tok == SENTENCE_BREAK or tok in ont.splitters:
            if current:
                sentences.append(tuple(current))
                current = []
        else:
            current.append(tok)
    if current:
        sentences.append(tuple(current))
    return sentences


def filter_sentences(sentences: list[Sentence], ont: Ontology) -> list[Sentence]:
    """Drop any sentence containing a deleter token; order preserved."""
    return [s for s in sentences if not any(tok in ont.deleters for tok in s)]


def extract_sentence(sentence: Sentence, ont: Ontology) -> list[DiseaseEntry]:
    """Match synsets within one sentence.

    Diseases are matched first and consume their tokens; adjective and
    direction matches then run independently over the remaining tokens.
    Without a disease match the sentence yields nothing.
    """
    disease_matcher, adj_matcher, dir_matcher = _matchers(ont)
    free = [False] * len(sentence)
    diseases, taken = disease_matcher.find(sentence, free)
    if not diseases:
        return []
    adjectives, _ = adj_matcher.find(sentence, taken)
    directions, _ = dir_matcher.find(sentence, taken)
    adj = frozenset(adjectives)
    direction = frozenset(directions)
    return [DiseaseEntry(d, adj, direction) for d in sorted(diseases)]


def extract(report: Report, ont: Ontology) -> MetaEntities:
    """Full pipeline; entries for the same disease merge by set union."""
    sentences = filter_sentences(split_sentences(lemmatize(report.text), ont), ont)
    merged: dict[str, tuple[set[str], set[str]]] = {}
    for sentence in sentences:
        for entry in extract_sentence(sentence, ont):
            adj, direction = merged.setdefault(entry.disease, (set(), set()))
            adj.update(entry.adj)
            direction.update(entry.dir)
    entries = tuple(
        DiseaseEntry(label, frozenset(adj), frozenset(direction))
        for label, (adj, direction) in sorted(merged.items())
    )
    return MetaEntities(entries)
