"""Tokenizer and lemmatizer behavior."""

import random
import re
import string

import numpy as np
import pytest

from medtriplet import lemma
from medtriplet.lemma import SENTENCE_BREAK, lemmatize, lemmatize_token, tokenize
from oracles import oracle_tokenize

# Word characters, the underscore (which \w admits and isalnum does not), a
# superscript digit, letters whose lowercase differs in length or carries a
# combining mark, the combining mark alone, breaks, other punctuation, spaces.
TOKENIZER_ALPHABET = string.ascii_letters + string.digits + "_\u00b2\u00e9\u0130\u0307" + ".!?;,:-" + " \n"


def _random_texts(n: int = 5000) -> list[str]:
    rng = random.Random(28)
    return ["".join(rng.choices(TOKENIZER_ALPHABET, k=rng.randrange(40))) for _ in range(n)]


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Left-sided effusions") == ["left", "sided", "effusions"]

    def test_internal_terminal_punctuation_becomes_break(self):
        assert tokenize("mild edema. small effusion.") == [
            "mild", "edema", SENTENCE_BREAK, "small", "effusion",
        ]

    def test_trailing_and_leading_breaks_dropped(self):
        assert tokenize("...edema...") == ["edema"]
        assert tokenize("!?") == []

    def test_break_runs_collapse(self):
        assert tokenize("edema!? effusion") == ["edema", SENTENCE_BREAK, "effusion"]

    def test_semicolon_is_a_break(self):
        assert tokenize("edema; effusion") == ["edema", SENTENCE_BREAK, "effusion"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   ") == []

    def test_matches_character_loop_oracle(self):
        texts = _random_texts()
        assert [t for t in texts if tokenize(t) != oracle_tokenize(t)] == []
        assert sum(SENTENCE_BREAK in oracle_tokenize(t) for t in texts) > 1000

    def test_oracle_check_catches_word_pattern_admitting_underscore(self, monkeypatch):
        monkeypatch.setattr(lemma, "_TOKEN", re.compile(r"\w+|[.!?;]"))
        assert any(tokenize(t) != oracle_tokenize(t) for t in _random_texts())


class TestLemmatizeToken:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("opacities", "opacity"),       # exception table
            ("sided", "sided"),             # exception table pins -ed adjective
            ("effusions", "effusion"),      # plain plural
            ("edemas", "edema"),
            ("masses", "mass"),             # -es after sibilant
            ("branches", "branch"),
            ("studies", "study"),           # -ies
            ("atelectasis", "atelectasis"), # -is protected
            ("previous", "previous"),       # -us protected
            ("process", "process"),         # -ss protected
            ("has", "has"),                 # too short to strip
            ("worsening", "worsen"),        # -ing
            ("scarring", "scar"),           # -ing with undoubling
            ("compared", "compar"),         # -ed
            ("increased", "increased"),     # exception table
            ("pneumothoraces", "pneumothorax"),
        ],
    )
    def test_rules(self, token, lemma):
        assert lemmatize_token(token) == lemma

    def test_output_is_fixed_point(self):
        rng = np.random.default_rng(42)
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        for _ in range(2000):
            word = "".join(rng.choice(list(alphabet), size=int(rng.integers(1, 12))))
            for suffix in ("", "s", "es", "ies", "ed", "ing"):
                lemma = lemmatize_token(word + suffix)
                assert lemmatize_token(lemma) == lemma


class TestLemmatize:
    def test_examples(self):
        assert lemmatize("Opacities") == ["opacity"]
        assert lemmatize("edema") == ["edema"]
        assert lemmatize("left-sided effusions.") == ["left", "sided", "effusion"]

    def test_empty(self):
        assert lemmatize("") == []

    def test_idempotent_over_token_streams(self):
        rng = np.random.default_rng(7)
        words = ["Opacities", "effusions.", "left-sided", "scarring;", "studies", "HAS", "x9!"]
        for _ in range(500):
            n = int(rng.integers(1, 8))
            text = " ".join(words[int(i)] for i in rng.integers(0, len(words), n))
            once = lemmatize(text)
            twice = lemmatize(" ".join(once))
            assert once == twice
