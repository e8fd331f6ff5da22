"""Pose-free neural LiDAR fields with geometry-guided pose optimization,
self-contained on synthetic unit-cube scenes.

Subsystems: rigid-body geometry and trajectory alignment, exact spatial
queries, the graph-based robust Chamfer optimizer with the pairwise ICP
baseline, a hybrid planar+hash neural field with exact reverse-mode
gradients, an analytic LiDAR scene simulator, evaluation metrics, and file
formats plus a CLI tying them together.
"""

__version__ = "0.1.0"

from .cloud import PointCloud, RangeImage
from .encoding import EncodingConfig
from .field import FieldParams
from .geometry import Se3Param, Trajectory
from .rcd import FrameGraph, RcdConfig
from .scene import Scene, ScannerConfig
from .trainer import TrainConfig

__all__ = [
    "PointCloud", "RangeImage", "EncodingConfig", "FieldParams", "Se3Param",
    "Trajectory", "FrameGraph", "RcdConfig", "Scene", "ScannerConfig",
    "TrainConfig", "__version__",
]
