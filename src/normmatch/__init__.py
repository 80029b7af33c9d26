"""Sparse keypoint matching on the unit hypersphere.

A numpy library (plus CLI) that matches two same-object keypoint sets by
refining interpolated backbone features with a spline-kernel graph network,
mixing the two streams in a normalized transformer decoder, and decoding the
cosine affinities through log-space Sinkhorn. All gradients are hand-written
reverse mode and verified against central finite differences.

The package root re-exports the entry points for configuring, generating
data, training and evaluating; everything else is imported from its module.
"""

from .config import DataConfig, TrainConfig, full_scale
from .data import generate_dataset, generate_pair
from .losses import total_loss
from .model import MatchingModel
from .train import evaluate, train

__version__ = "0.1.0"

__all__ = [
    "DataConfig",
    "MatchingModel",
    "TrainConfig",
    "evaluate",
    "full_scale",
    "generate_dataset",
    "generate_pair",
    "total_loss",
    "train",
]
