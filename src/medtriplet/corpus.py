"""Line-delimited corpus and entity-record files.

Every file starts with a single header record carrying its schema
version; data records follow one per line, UTF-8, fixed field order.
``read_jsonl`` and ``write_jsonl`` are the one codec for these files and
for the other line-delimited artifacts (triplets, loss curve, truth).
``atomic_write`` writes each run-dir artifact and manifest whole or not
at all, so a crash mid-write leaves the previous file in place.

corpus/v1 record:   {"id": string, "text": string, "image": non-empty path string or null}
entities/v1 record: {"id": ..., "entries": [{"disease", "adj", "dir"}]}
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

from .extraction import MetaEntities, Report

CORPUS_SCHEMA = "corpus/v1"
ENTITIES_SCHEMA = "entities/v1"


class DataError(ValueError):
    """Corpus or record file violates its documented schema."""


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    text: str
    image: Path | None = None

    def report(self) -> Report:
        return Report(self.id, self.text)


def _json_objects(path: Path, lines: list[str]) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line; the first line counts even when blank."""
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1 and not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}")
        yield lineno, record


def read_jsonl(path: str | Path, schema: str) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """A line-delimited file's header, checked to carry ``schema``, and its
    (line number, record) pairs, parsed as they are consumed; blank lines
    are skipped. Errors name the file and the line."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None
    if not lines:
        raise DataError(f"{path}: empty file, expected a {schema} header record")
    records = _json_objects(path, lines)
    _, header = next(records)
    if header.get("schema") != schema:
        raise DataError(f"{path}:1: expected schema {schema!r}, got {header.get('schema')!r}")
    return header, records


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A handle that writes ``path`` whole or not at all (``mode`` "w" for
    UTF-8 text, "wb" for bytes).

    Writes go to a temp file in the same directory. On a clean exit it is fsynced and renamed over
    ``path``, then on POSIX the directory is fsynced so the rename is durable too; when the block
    raises, the temp file is removed and ``path`` keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        if os.name == "posix":
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON object per line, keys in insertion order, UTF-8, written record by
    record and renamed into place only once every record is written."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def ingest(path: str | Path, require_images: bool = False) -> list[CorpusRecord]:
    """Load and validate a corpus file; records in file order, ids unique, fields of the schema's types."""
    path = Path(path)
    records: list[CorpusRecord] = []
    seen: set[str] = set()
    for lineno, rec in read_jsonl(path, CORPUS_SCHEMA)[1]:
        for field_name in ("id", "text"):
            if field_name not in rec:
                raise DataError(f"{path}:{lineno}: record missing {field_name!r} field")
            if not isinstance(rec[field_name], str):
                raise DataError(f"{path}:{lineno}: {field_name!r} must be a string, got {rec[field_name]!r}")
        sample_id = rec["id"]
        if sample_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        if not rec["text"].strip():
            raise DataError(f"{path}:{lineno}: empty text for id {sample_id!r}")
        image = rec.get("image")
        if not (image is None or isinstance(image, str)):
            raise DataError(f"{path}:{lineno}: 'image' must be a string or null, got {image!r}")
        if image == "":  # it would name the corpus's own directory
            raise DataError(f"{path}:{lineno}: empty image path for id {sample_id!r}")
        # A relative image path is relative to the corpus file; joining keeps an absolute one as is.
        image_path = None if image is None else path.parent / image
        if require_images:
            if image_path is None:
                raise DataError(f"{path}:{lineno}: id {sample_id!r} has no image")
            if not image_path.is_file():
                raise DataError(f"{path}:{lineno}: missing image for id {sample_id!r}: {image_path}")
        records.append(CorpusRecord(sample_id, rec["text"], image_path))
    return records


def write_corpus(path: str | Path, records: Iterable[CorpusRecord]) -> None:
    rows = ({"id": r.id, "text": r.text, "image": None if r.image is None else str(r.image)} for r in records)
    write_jsonl(path, chain([{"schema": CORPUS_SCHEMA}], rows))


def write_entities(path: str | Path, items: Iterable[tuple[str, MetaEntities]]) -> None:
    write_jsonl(path, chain([{"schema": ENTITIES_SCHEMA}], ({"id": sid, **m.to_record()} for sid, m in items)))


def read_entities(path: str | Path) -> list[tuple[str, MetaEntities]]:
    path = Path(path)
    items: list[tuple[str, MetaEntities]] = []
    seen: set[str] = set()
    for lineno, rec in read_jsonl(path, ENTITIES_SCHEMA)[1]:
        if "id" not in rec or "entries" not in rec:
            raise DataError(f"{path}:{lineno}: record missing 'id' or 'entries'")
        sample_id = rec["id"]
        if not isinstance(sample_id, str):
            raise DataError(f"{path}:{lineno}: 'id' must be a string, got {sample_id!r}")
        if sample_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        try:
            items.append((sample_id, MetaEntities.from_record(rec)))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return items
