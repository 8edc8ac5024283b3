"""Hierarchical LQR for multi-agent systems.

Decomposes a large LQR problem over a coupling graph into cluster-level
problems, learns cluster controllers model-free when needed, assembles the
hierarchical gain with its inter-cluster correction, and quantifies the
communication/suboptimality trade-off.
"""

from . import adp, fileio, graphcost, hierctrl, matops, partition, sim
from .errors import HlqrError

__version__ = "0.1.0"

__all__ = [
    "adp",
    "cli",
    "fileio",
    "graphcost",
    "hierctrl",
    "matops",
    "partition",
    "sim",
    "HlqrError",
    "__version__",
]
