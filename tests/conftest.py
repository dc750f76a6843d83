import json
from pathlib import Path

import numpy as np
import pytest

from medtriplet.extraction import DiseaseEntry, MetaEntities
from medtriplet.ontology import default_ontology


@pytest.fixture(scope="session")
def ontology():
    return default_ontology()


def entities(spec: dict[str, tuple[set, set]]) -> MetaEntities:
    """Build MetaEntities from {disease: (adj set, dir set)}."""
    entries = tuple(
        DiseaseEntry(d, frozenset(adj), frozenset(direction))
        for d, (adj, direction) in sorted(spec.items())
    )
    return MetaEntities(entries)


def write_old_layout_heads(path: Path, record: dict, heads: dict[str, np.ndarray]) -> None:
    """``heads`` ({modality: array}) and ``record`` in the named-array checkpoint layout that
    ``MTHEADS1`` replaced: magic ``MTCKPT01``, header length, a JSON header of the record plus one
    name/dtype/shape/offset/nbytes entry per ``head.<modality>`` array, then the arrays' bytes."""
    entries, payload = [], b""
    for modality in sorted(heads):
        head = np.ascontiguousarray(heads[modality], dtype="<f8")
        entry = {"name": f"head.{modality}", "dtype": "<f8", "shape": list(head.shape), "offset": len(payload)}
        entries.append({**entry, "nbytes": head.nbytes})
        payload += head.tobytes()
    header = json.dumps({"config": record, "arrays": entries}, sort_keys=True).encode("utf-8")
    path.write_bytes(b"MTCKPT01" + len(header).to_bytes(4, "little") + header + payload)
