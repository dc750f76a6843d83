"""Entity-guided triplet mining and multimodal embedding alignment.

The package covers the full desk-scale loop: rule-based entity
extraction from report text, hierarchical set-similarity scoring,
semi-hard triplet mining, deterministic toy transformer encoders, a
four-term triplet alignment objective with verified gradients, and
retrieval/classification evaluation.
"""

__version__ = "0.1.0"

from .alignment import LossConfig, OptimizerConfig, cosine
from .encoder import ImageSample, TokenSequence
from .extraction import DiseaseEntry, MetaEntities, Report, extract
from .mining import Batch, MinerConfig, Triplet, mine_batch, mine_corpus
from .ontology import Ontology, Synset, default_ontology, load_ontology
from .scoring import GammaWeights, ScoreBreakdown, score

__all__ = [
    "__version__",
    "Batch",
    "DiseaseEntry",
    "GammaWeights",
    "ImageSample",
    "LossConfig",
    "MetaEntities",
    "MinerConfig",
    "Ontology",
    "OptimizerConfig",
    "Report",
    "ScoreBreakdown",
    "Synset",
    "TokenSequence",
    "Triplet",
    "cosine",
    "default_ontology",
    "extract",
    "load_ontology",
    "mine_batch",
    "mine_corpus",
    "score",
]
