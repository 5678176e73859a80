"""Function 1 against a paper-literal reference.

``similarity_row`` holds IPA's only arithmetic (``ipa_similarity`` is
one pair of it), and it counts path hits with a set intersection
whenever the source path has no repeated component. These tests check
the row, ``ipa_similarity`` and ``CoMiner.semantic_distance`` against
``tests.oracle.ipa_reference`` (sorted tuples and a linear merge), and
DPA against its formula, on vectors whose paths repeat components on
either side, are empty or absent, and rows with files that have no
vector. Numpy-free, so the no-numpy CI leg runs them.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cominer import CoMiner
from repro.core.config import FarmerConfig
from repro.vsm.similarity import ipa_similarity, similarity_row
from repro.vsm.vector import SemanticVector, bag_intersection
from tests.oracle import ipa_reference

# a narrow component alphabet, so drawn paths often repeat a component
components = st.integers(min_value=0, max_value=5)
paths = st.one_of(
    st.none(),
    st.just(()),
    st.lists(components, min_size=1, max_size=7).map(tuple),
)
vectors = st.builds(
    SemanticVector,
    scalar_ids=st.lists(st.integers(0, 12), max_size=6).map(tuple),
    path_ids=paths,
)


def dpa_reference(a: SemanticVector, b: SemanticVector) -> float:
    denom = max(a.n_items("dpa"), b.n_items("dpa"))
    if denom == 0:
        return 0.0
    items_a = tuple(sorted(a.scalar_ids + (a.path_ids or ())))
    items_b = tuple(sorted(b.scalar_ids + (b.path_ids or ())))
    return bag_intersection(items_a, items_b) / denom


def reference(a, b, method: str, path_mode: str) -> float:
    if b is None:
        return 0.0
    if method == "ipa":
        return ipa_reference(a, b, path_mode)
    return dpa_reference(a, b)


class TestFunction1Reference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        vectors,
        st.lists(st.one_of(st.none(), vectors), max_size=6),
        st.sampled_from(["ipa", "dpa"]),
        st.sampled_from(["bag", "prefix"]),
    )
    def test_row_pair_and_miner_match_reference(self, a, bs, method, path_mode):
        expected = [reference(a, b, method, path_mode) for b in bs]
        assert similarity_row(a, bs, method, path_mode) == expected
        miner = CoMiner(
            FarmerConfig(path_method=method, path_mode=path_mode),
            SimpleNamespace(
                vectors={0: a, **{i: b for i, b in enumerate(bs, 1) if b is not None}}
            ),
        )
        for i, b in enumerate(bs, 1):
            if method == "ipa" and b is not None:
                assert ipa_similarity(a, b, path_mode) == expected[i - 1]
            assert miner.semantic_distance(0, i) == expected[i - 1]
        assert miner.f1_evaluations() == len(bs) - bs.count(None)

    def test_repeated_source_component(self):
        """A set intersection would count component 1 once here; the bag
        counts it twice."""
        a = SemanticVector(scalar_ids=(), path_ids=(1, 1, 2))
        b = SemanticVector(scalar_ids=(), path_ids=(1, 1, 3))
        assert ipa_reference(a, b) == 2 / 3
        assert similarity_row(a, [b]) == [2 / 3]
        assert ipa_similarity(b, a) == 2 / 3

    def test_repeats_only_in_the_successor(self):
        a = SemanticVector(scalar_ids=(), path_ids=(1, 2, 3))
        b = SemanticVector(scalar_ids=(), path_ids=(1, 1, 1, 2))
        assert similarity_row(a, [b]) == [ipa_reference(a, b)] == [2 / 4]
