"""Entity-guided triplet mining and multimodal embedding alignment.

The package covers the full desk-scale loop: rule-based entity
extraction from report text, hierarchical set-similarity scoring,
semi-hard triplet mining, deterministic toy transformer encoders, a
four-term triplet alignment objective with verified gradients, and
retrieval/classification evaluation.
"""

__version__ = "0.1.0"

from .alignment import (
    LossConfig,
    OptimizerConfig,
    TripletEmbeddings,
    cosine,
    multimodal_loss,
    triplet_hinge,
)
from .encoder import EncoderConfig, ImageSample, TokenSequence
from .extraction import DiseaseEntry, MetaEntities, Report, extract
from .mining import Batch, MinerConfig, Triplet, mine_batch, mine_corpus
from .ontology import Ontology, Synset, default_ontology, load_ontology
from .scoring import GammaWeights, ScoreBreakdown, jaccard, score

__all__ = [
    "__version__",
    "Batch",
    "DiseaseEntry",
    "EncoderConfig",
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
    "TripletEmbeddings",
    "cosine",
    "default_ontology",
    "extract",
    "jaccard",
    "load_ontology",
    "mine_batch",
    "mine_corpus",
    "multimodal_loss",
    "score",
    "triplet_hinge",
]
