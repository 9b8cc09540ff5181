"""wreathlab: exact wreath-product arithmetic, word metrics, walk statistics,
Markov-type verification, and certified Hilbert-space embeddings."""

from .errors import (
    EncodingError,
    EstimationError,
    InvariantViolation,
    RadiusExceededError,
    ResourceLimitError,
    ValidationError,
    WreathError,
)
from .group import (
    GroupElement,
    IDENTITY,
    LampConfig,
    canonical_generators,
    decode,
    element_from_text,
    encode,
    inverse,
    multiply,
)
from .metric import (
    BallTable,
    MetricWitness,
    ball,
    distance,
    distance_bfs,
    neighbors,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "WreathError",
    "ValidationError",
    "EncodingError",
    "EstimationError",
    "RadiusExceededError",
    "InvariantViolation",
    "ResourceLimitError",
    "GroupElement",
    "LampConfig",
    "IDENTITY",
    "multiply",
    "inverse",
    "canonical_generators",
    "encode",
    "decode",
    "element_from_text",
    "MetricWitness",
    "BallTable",
    "distance",
    "distance_bfs",
    "ball",
    "neighbors",
]
