"""FARMER core: the paper's primary contribution.

Four stages (Figure 2): Extracting → Constructing → Mining & Evaluating
(CoMiner) → Sorting, wrapped by the :class:`~repro.core.farmer.Farmer`
façade.
"""

from repro.core.cominer import CoMiner, F1Counter, F1Stats, RerankStats
from repro.core.config import DEFAULT_ATTRIBUTES, PATHLESS_ATTRIBUTES, FarmerConfig
from repro.core.constructor import GraphConstructor
from repro.core.extractor import Extractor
from repro.core.farmer import Farmer, FarmerStats
from repro.core.sorter import CorrelationSnapshot, Sorter

__all__ = [
    "CoMiner",
    "F1Counter",
    "F1Stats",
    "RerankStats",
    "DEFAULT_ATTRIBUTES",
    "PATHLESS_ATTRIBUTES",
    "FarmerConfig",
    "GraphConstructor",
    "Extractor",
    "Farmer",
    "FarmerStats",
    "CorrelationSnapshot",
    "Sorter",
]
