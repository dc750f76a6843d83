"""Tokenization and rule-based lemmatization for report text.

All lexical matching in this package happens in "lemma space": ontology
variants and report tokens are both pushed through :func:`lemmatize`, so
inflectional variants (plurals, -ed/-ing forms) compare equal without any
external NLP dependency. :func:`tokenize` is one compiled regular
expression: a word is a run of the characters ``str.isalnum`` accepts.
"""

from __future__ import annotations

import re

# Token emitted between sentences. Leading/trailing punctuation never
# produces one, so a single-sentence report lemmatizes to plain words.
SENTENCE_BREAK = "."

# A word token, or one terminal punctuation mark. ``[^\W_]`` is ``\w``
# without the underscore: exactly the characters ``str.isalnum`` accepts.
_TOKEN = re.compile(r"[^\W_]+|[.!?;]")

# Irregular forms the suffix rules would mangle; consulted before any rule.
# Self-mapping entries pin -ed derived adjectives that must survive intact.
LEMMA_EXCEPTIONS: dict[str, str] = {
    "opacities": "opacity",
    "atelectases": "atelectasis",
    "metastases": "metastasis",
    "bases": "base",
    "pneumothoraces": "pneumothorax",
    "sided": "sided",
    "enlarged": "enlarged",
    "marked": "marked",
    "increased": "increased",
    "decreased": "decreased",
    "improved": "improved",
    "worsened": "worsened",
    "elevated": "elevated",
    "calcified": "calcified",
}

# Consonants undoubled after -ed/-ing stripping ("scarring" -> "scar").
_UNDOUBLE = frozenset("bdgmnprt")


def tokenize(text: str) -> list[str]:
    """Split raw text into lowercase word tokens plus sentence-break tokens.

    Alphanumeric runs become tokens; ``. ! ? ;`` become a single
    :data:`SENTENCE_BREAK` each (runs collapsed); every other character is
    a plain separator. Breaks at the start or end of the text are dropped.
    """
    tokens: list[str] = []
    for token in _TOKEN.findall(text.lower()):
        if token in ".!?;":  # a match is one mark or a whole word, never both
            if tokens and tokens[-1] != SENTENCE_BREAK:
                tokens.append(SENTENCE_BREAK)
        else:
            tokens.append(token)
    while tokens and tokens[-1] == SENTENCE_BREAK:
        tokens.pop()
    return tokens


def _strip_suffix_once(token: str) -> str:
    """Apply the first matching suffix rule, or return the token unchanged."""
    if token in LEMMA_EXCEPTIONS:
        return LEMMA_EXCEPTIONS[token]
    if token.endswith("ies") and len(token) >= 5:
        return token[:-3] + "y"
    if token.endswith("es") and len(token) >= 4:
        stem = token[:-2]
        if stem.endswith(("s", "x", "z", "ch", "sh")):
            return stem
    if token.endswith("s") and len(token) >= 4 and not token.endswith(("ss", "us", "is")):
        return token[:-1]
    for suffix in ("ed", "ing"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            stem = token[: -len(suffix)]
            if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] in _UNDOUBLE:
                stem = stem[:-1]
            return stem
    return token


def lemmatize_token(token: str) -> str:
    """Reduce one lowercase token to its lemma.

    Rules iterate to a fixed point so every output is its own lemma, which
    keeps lemmatization idempotent over whole token streams.
    """
    prev = None
    while token and token != prev:
        prev = token
        token = _strip_suffix_once(token)
    return token


def lemmatize(text: str) -> list[str]:
    """Tokenize and lemmatize raw text; sentence breaks pass through."""
    return [t if t == SENTENCE_BREAK else lemmatize_token(t) for t in tokenize(text)]
