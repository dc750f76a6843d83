"""The README's config and ontology examples parse, its library examples run, and its key count
matches ``SETTINGS``."""

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


def test_library_use_examples_run():
    """The "Library use" blocks run in order in one namespace, as a reader pasting them would."""
    section = _readme().split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _suite_commands(lines) -> list[str]:
    """The commands among ``lines`` that run the whole test suite: each that runs pytest, installs
    nothing and names no test file."""
    commands = [line.split("#", 1)[0].strip() for line in lines]
    return [c for c in commands if "pytest" in c and not c.startswith(("pip ", "python -m pip ")) and "tests/" not in c]


def test_ci_runs_the_readme_verify_commands():
    """The tier-1 workflow runs exactly the README's full-suite commands, in its order."""
    section = _readme().split("## Install and test", 1)[1]
    block = re.search(r"^```bash\n(.*?)^```$", section, re.M | re.S).group(1)
    workflow = (README.parent / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*- run: (.*)$", workflow, re.M)
    assert _suite_commands(block.splitlines()) == ["pytest", "OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python -m pytest -q"]
    assert _suite_commands(runs) == _suite_commands(block.splitlines())
