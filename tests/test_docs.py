"""The README's config and ontology examples parse, and its key count matches ``SETTINGS``."""

import re
from pathlib import Path

from medtriplet.ontology import parse_ontology
from medtriplet.pipeline import SETTINGS, config_from_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme() -> str:
    return README.read_text(encoding="utf-8")


def test_quick_start_config_parses(tmp_path):
    (body,) = re.findall(r"^cat > demo/run\.cfg <<'EOF'\n(.*?)^EOF$", _readme(), re.M | re.S)
    path = tmp_path / "run.cfg"
    path.write_text(body)
    cfg = config_from_file(path)  # raises on a key SETTINGS does not list
    assert cfg.corpus == Path("demo/train/corpus.jsonl") and cfg.eval_corpus == Path("demo/eval/corpus.jsonl")
    assert cfg.mining.target == 1000


def test_file_formats_ontology_parses():
    formats = _readme().split("## File formats", 1)[1]
    block = re.search(r"\*\*Ontology\*\*.*?^```\n(.*?)^```$", formats, re.M | re.S).group(1)
    ont = parse_ontology(block, source="README.md")
    assert [s.canonical for s in ont.diseases] == ["pleural effusion"]
    assert ont.splitters == {"and"} and ont.deleters == {"comparison"}


def test_settable_key_count_stated():
    count = sum(len(keys) for keys in SETTINGS.values())
    assert f"A config file can set {count} keys" in " ".join(_readme().split())
