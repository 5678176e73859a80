"""Property-based tests on the similarity functions (Function 1)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.vsm.similarity import (
    directory_similarity,
    dpa_similarity,
    ipa_similarity,
    similarity_row,
)
from repro.vsm.vector import SemanticVector, bag_intersection

ids = st.integers(min_value=0, max_value=40)
scalar_tuples = st.lists(ids, max_size=10).map(tuple)
path_tuples = st.one_of(st.none(), st.lists(ids, min_size=1, max_size=8).map(tuple))
vectors = st.builds(SemanticVector, scalar_ids=scalar_tuples, path_ids=path_tuples)


class TestBagIntersectionProperties:
    @given(scalar_tuples, scalar_tuples)
    def test_symmetric(self, a, b):
        sa, sb = tuple(sorted(a)), tuple(sorted(b))
        assert bag_intersection(sa, sb) == bag_intersection(sb, sa)

    @given(scalar_tuples)
    def test_self_intersection_is_length(self, a):
        sa = tuple(sorted(a))
        assert bag_intersection(sa, sa) == len(sa)

    @given(scalar_tuples, scalar_tuples)
    def test_bounded_by_min_length(self, a, b):
        sa, sb = tuple(sorted(a)), tuple(sorted(b))
        assert 0 <= bag_intersection(sa, sb) <= min(len(sa), len(sb))


class TestSimilarityProperties:
    @given(vectors, vectors)
    def test_dpa_symmetric(self, a, b):
        assert dpa_similarity(a, b) == dpa_similarity(b, a)

    @given(vectors, vectors)
    def test_ipa_symmetric(self, a, b):
        assert ipa_similarity(a, b) == ipa_similarity(b, a)

    @given(vectors, vectors)
    def test_dpa_bounds(self, a, b):
        assert 0.0 <= dpa_similarity(a, b) <= 1.0

    @given(vectors, vectors)
    def test_ipa_bounds(self, a, b):
        assert 0.0 <= ipa_similarity(a, b) <= 1.0

    @given(vectors)
    def test_self_similarity_is_one_when_nonempty(self, v):
        if v.n_items("dpa") > 0:
            assert dpa_similarity(v, v) == 1.0
            assert ipa_similarity(v, v) == 1.0

    @given(
        vectors,
        st.lists(vectors, max_size=6),
        st.sampled_from(["ipa", "dpa"]),
        st.sampled_from(["bag", "prefix"]),
    )
    def test_row_matches_per_pair(self, a, bs, method, path_mode):
        """The row form (source side resolved once) is bit-identical to
        the per-pair functions, for every method and path mode."""
        per_pair = [
            ipa_similarity(a, b, path_mode) if method == "ipa" else dpa_similarity(a, b)
            for b in bs
        ]
        assert similarity_row(a, bs, method, path_mode) == per_pair

    @given(path_tuples, path_tuples)
    def test_directory_similarity_bounds(self, a, b):
        assert 0.0 <= directory_similarity(a, b) <= 1.0
        assert 0.0 <= directory_similarity(a, b, mode="prefix") <= 1.0

    @given(path_tuples, path_tuples)
    def test_prefix_never_exceeds_bag(self, a, b):
        assert directory_similarity(a, b, mode="prefix") <= directory_similarity(
            a, b, mode="bag"
        ) + 1e-12
