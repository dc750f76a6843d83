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

import threading
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


# Descriptor label -> its bit, one table for every kind and every structure.
# A label's bit is drawn the first time the label is seen and never changes,
# so two masks intersect in exactly their shared labels whatever order the
# labels were met in. It grows by one entry per distinct label for the life
# of the process; extracted labels are ontology canonicals, so it stays small.
_LABEL_BIT: dict[str, int] = {}
_LABEL_BIT_LOCK = threading.Lock()


def _label_bits(labels: frozenset[str]) -> int:
    mask = 0
    for label in labels:
        bit = _LABEL_BIT.get(label)
        if bit is None:
            with _LABEL_BIT_LOCK:  # two new labels must not draw the same bit
                bit = _LABEL_BIT.setdefault(label, 1 << len(_LABEL_BIT))
        mask |= bit
    return mask


@dataclass(frozen=True)
class MetaEntities:
    """Per-report entity structure: entries unique and sorted by disease."""

    entries: tuple[DiseaseEntry, ...] = ()

    def __post_init__(self) -> None:
        labels = [e.disease for e in self.entries]
        if labels != sorted(set(labels)):
            raise ValueError("entries must be unique and sorted by disease label")

    @cached_property
    def descriptor_masks(self) -> dict[str, tuple[int, int, int, int]]:
        """``{disease: (n_adj, adj_bits, n_dir, dir_bits)}`` in entry order, built
        once per instance; read it, never mutate it.

        Each set bit stands for a descriptor label (see ``_label_bits``), so
        ``(a & b).bit_count()`` is the size of a descriptor intersection.
        The bits are process-local, so pickling drops this cache.
        """
        return {
            e.disease: (len(e.adj), _label_bits(e.adj), len(e.dir), _label_bits(e.dir))
            for e in self.entries
        }

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "descriptor_masks"}

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
        """Inverse of ``to_record``; a malformed field is a ValueError that names it."""
        entries = record.get("entries")
        if not isinstance(entries, list):
            raise ValueError(f"'entries' must be a list, got {entries!r}")
        for e in entries:
            if not isinstance(e, dict):
                raise ValueError(f"each entry must be an object, got {e!r}")
            if not isinstance(e.get("disease"), str):
                raise ValueError(f"entry 'disease' must be a string, got {e.get('disease')!r}")
            for name in ("adj", "dir"):
                value = e.get(name, [])
                if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                    raise ValueError(f"entry {name!r} must be a list of strings, got {value!r}")
        parsed = tuple(
            DiseaseEntry(e["disease"], frozenset(e.get("adj", ())), frozenset(e.get("dir", ())))
            for e in sorted(entries, key=lambda e: e["disease"])
        )
        return cls(parsed)


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
