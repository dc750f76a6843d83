"""Word ontology: categorized synsets driving entity recognition.

The ontology holds five categories: disease, adjective and direction
synsets (canonical label plus surface variants), and splitter and deleter
token sets. Everything is stored pre-lemmatized, so matching against
lemmatized report text is plain tuple comparison.

File format (UTF-8, human-editable)::

    # comment
    [diseases]
    edema = [edema, oedema]
    pleural effusion = [pleural effusion, effusion]
    [adjectives]
    mild = [mild, slight]
    [directions]
    left = [left, left sided]
    [splitters]
    and
    [deleters]
    comparison

Synset sections take ``canonical = [variant, ...]`` entries; splitter and
deleter sections take one bare token per line. Section order is free;
missing sections mean empty categories, and each section may be given
once. Within a section, a variant (or canonical) may be listed under one
canonical only, so each resolves to one label.

The package's one UTF-8 reader (``read_text``, for every input file) and
one ``[section]`` reader (``read_sections``, for ontology and run config
files) live here, as do extraction's lookup tables (``Ontology.lookups``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Collection

from .lemma import SENTENCE_BREAK, lemmatize

# The embedded default; pipeline manifests hash it as the ontology input.
DEFAULT_ONTOLOGY_FILE = Path(__file__).parent / "data" / "default_ontology.txt"

SECTIONS = ("diseases", "adjectives", "directions", "splitters", "deleters")
_SYNSET_SECTIONS = ("diseases", "adjectives", "directions")


class OntologyError(ValueError):
    """Malformed ontology file or invariant violation; names the offender."""


def read_text(path: str | Path, error: type[Exception]) -> str:
    """File ``path`` decoded as UTF-8, a leading byte-order mark dropped; a bad
    byte raises ``error`` naming the file, the byte and its offset in the file."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    return text.removeprefix("\ufeff")


def read_sections(text: str, source: str, sections: Collection[str], error: type[Exception]) -> dict[str, list]:
    """Each ``[section]``'s (line number, stripped line) entries, by lowercased
    name in file order; blank and ``#`` lines are skipped. A section not in
    ``sections``, a section given twice and an entry before any header raise
    ``error`` naming ``source:line``. Entry lines are the caller's to check."""
    found: dict[str, list[tuple[int, str]]] = {}
    entries: list[tuple[int, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise error(f"{source}:{lineno}: unknown section [{name}]; expected one of: {', '.join(sections)}")
            if name in found:
                raise error(f"{source}:{lineno}: section [{name}] given twice")
            entries = found[name] = []
        elif entries is None:
            raise error(f"{source}:{lineno}: entry before any section header")
        else:
            entries.append((lineno, line))
    return found


@dataclass(frozen=True)
class Synset:
    """A canonical label with its lemmatized surface variants."""

    canonical: str
    variants: frozenset[str]

    def __post_init__(self) -> None:
        if self.canonical not in self.variants:
            raise OntologyError(f"canonical {self.canonical!r} missing from its variants")


@dataclass(frozen=True)
class Ontology:
    """Immutable after construction; safe for concurrent readers."""

    diseases: tuple[Synset, ...]
    adjectives: tuple[Synset, ...]
    directions: tuple[Synset, ...]
    splitters: frozenset[str]
    deleters: frozenset[str]

    @property
    def disease_labels(self) -> frozenset[str]:
        return frozenset(s.canonical for s in self.diseases)

    @cached_property
    def lookups(self) -> tuple[tuple[dict[tuple[str, ...], str], int], ...]:
        """For diseases, adjectives and directions, in that order: a map from
        each variant's token tuple to its canonical, and the most tokens any
        variant has (1 for an empty category). Built once; read, never mutate."""
        return tuple(
            ({tuple(v.split()): s.canonical for s in synsets for v in s.variants},
             max((len(v.split()) for s in synsets for v in s.variants), default=1))
            for synsets in (self.diseases, self.adjectives, self.directions)
        )


def _lemma_phrase(raw: str, where: str) -> str:
    tokens = lemmatize(raw)
    if not tokens:
        raise OntologyError(f"empty entry in {where}: {raw!r}")
    if SENTENCE_BREAK in tokens:
        raise OntologyError(f"sentence punctuation inside entry in {where}: {raw!r}")
    return " ".join(tokens)


def _build_synsets(entries: list[tuple[str, list[str]]], section: str) -> tuple[Synset, ...]:
    """A section's synsets, sorted by canonical; a variant (a canonical among them) may belong to one only."""
    synsets: dict[str, set[str]] = {}
    owner: dict[str, str] = {}  # variant -> the canonical listing it
    for canonical_raw, variants_raw in entries:
        canonical = _lemma_phrase(canonical_raw, section)
        if canonical in synsets:
            raise OntologyError(f"duplicate canonical {canonical!r} in [{section}]")
        variants = {canonical, *(_lemma_phrase(v, f"[{section}] {canonical}") for v in variants_raw)}
        for v in sorted(variants):
            if owner.setdefault(v, canonical) != canonical:
                raise OntologyError(f"variant {v!r} listed under both {owner[v]!r} and {canonical!r} in [{section}]")
        synsets[canonical] = variants
    return tuple(
        Synset(canonical, frozenset(variants))
        for canonical, variants in sorted(synsets.items())
    )


def _build_tokens(entries: list[str], section: str) -> frozenset[str]:
    tokens: set[str] = set()
    for raw in entries:
        lemma = _lemma_phrase(raw, section)
        if " " in lemma:
            raise OntologyError(f"multi-word token in [{section}]: {raw!r}")
        tokens.add(lemma)
    return frozenset(tokens)


def parse_ontology(text: str, source: str = "<string>") -> Ontology:
    """Parse the sectioned text format, then lemmatize, validate and freeze
    the five categories; every error names ``source``, parse errors with a
    line number too."""
    entries: dict[str, list] = {s: [] for s in SECTIONS}
    for section, lines in read_sections(text, source, SECTIONS, OntologyError).items():
        for lineno, line in lines:
            if section in _SYNSET_SECTIONS:
                if "=" not in line:
                    raise OntologyError(f"{source}:{lineno}: expected 'canonical = [variants]'")
                canonical, _, rhs = line.partition("=")
                rhs = rhs.strip()
                if not (rhs.startswith("[") and rhs.endswith("]")):
                    raise OntologyError(f"{source}:{lineno}: variant list must be bracketed")
                variants = [v.strip() for v in rhs[1:-1].split(",") if v.strip()]
                entries[section].append((canonical.strip(), variants))
            else:
                if "=" in line:
                    raise OntologyError(f"{source}:{lineno}: [{section}] takes bare tokens")
                entries[section].append(line)
    try:
        ont = Ontology(
            diseases=_build_synsets(entries["diseases"], "diseases"),
            adjectives=_build_synsets(entries["adjectives"], "adjectives"),
            directions=_build_synsets(entries["directions"], "directions"),
            splitters=_build_tokens(entries["splitters"], "splitters"),
            deleters=_build_tokens(entries["deleters"], "deleters"),
        )
        clash = ont.splitters & ont.deleters
        if clash:
            raise OntologyError(f"token in both [splitters] and [deleters]: {sorted(clash)[0]!r}")
    except OntologyError as exc:  # raised after parsing, so without a line number
        raise OntologyError(f"{source}: {exc}") from None
    return ont


def load_ontology(path: str | Path | None) -> Ontology:
    """The ontology in file ``path``; no path means the embedded default."""
    if path is None:
        return default_ontology()
    path = Path(path)
    return parse_ontology(read_text(path, OntologyError), source=str(path))


def serialize_ontology(ont: Ontology) -> str:
    """Canonical serialization: fixed section order, entries sorted."""
    lines: list[str] = []
    for section, synsets in (
        ("diseases", ont.diseases),
        ("adjectives", ont.adjectives),
        ("directions", ont.directions),
    ):
        lines.append(f"[{section}]")
        for s in sorted(synsets, key=lambda s: s.canonical):
            lines.append(f"{s.canonical} = [{', '.join(sorted(s.variants))}]")
        lines.append("")
    for section, tokens in (("splitters", ont.splitters), ("deleters", ont.deleters)):
        lines.append(f"[{section}]")
        lines.extend(sorted(tokens))
        lines.append("")
    return "\n".join(lines)


def save_ontology(ont: Ontology, path: str | Path) -> None:
    from .corpus import atomic_write  # corpus imports this module, through extraction
    with atomic_write(path) as fh:  # whole or not at all: a failed write keeps the old bytes
        fh.write(serialize_ontology(ont))


@lru_cache(maxsize=1)
def default_ontology() -> Ontology:
    """The shipped default: 12 diseases, 40 adjectives, 4 directions,
    6 splitters, 16 deleters. The adjective/splitter/deleter lists are a
    documented representative curation; supply a file for custom lexicons.
    """
    return parse_ontology(read_text(DEFAULT_ONTOLOGY_FILE, OntologyError), source=DEFAULT_ONTOLOGY_FILE.name)
