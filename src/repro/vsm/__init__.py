"""Vector Space Model machinery: vocabularies, semantic vectors and the
DPA/IPA similarity functions (the paper's Function 1 and Table 2)."""

from repro.vsm.path import parent_directory, tokenize_path
from repro.vsm.similarity import (
    SIMILARITY_METHODS,
    directory_similarity,
    dpa_similarity,
    ipa_similarity,
    similarity,
    similarity_row,
)
from repro.vsm.vector import SemanticVector, bag_intersection
from repro.vsm.vocabulary import Vocabulary


def __getattr__(name: str):
    # SemanticMatrix is numpy-backed analysis machinery, not part of
    # the mining hot path — re-exported lazily so the core import chain
    # stays numpy-free (the no-numpy CI leg pins this)
    if name == "SemanticMatrix":
        from repro.vsm.matrix import SemanticMatrix

        return SemanticMatrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SemanticMatrix",
    "parent_directory",
    "tokenize_path",
    "SIMILARITY_METHODS",
    "directory_similarity",
    "dpa_similarity",
    "ipa_similarity",
    "similarity",
    "similarity_row",
    "SemanticVector",
    "bag_intersection",
    "Vocabulary",
]
