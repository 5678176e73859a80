"""Tests for vocabulary, path tokenisation and semantic vectors."""

import pickle

import pytest

from repro.vsm.path import parent_directory, tokenize_path
from repro.vsm.vector import SemanticVector, bag_intersection
from repro.vsm.vocabulary import Vocabulary


class TestTokenizePath:
    def test_paper_example(self):
        assert tokenize_path("/home/user1/paper/a") == ("home", "user1", "paper", "a")

    def test_messy_slashes(self):
        assert tokenize_path("//a///b/") == ("a", "b")

    def test_relative(self):
        assert tokenize_path("a/b") == ("a", "b")

    def test_empty(self):
        assert tokenize_path("") == ()
        assert tokenize_path("/") == ()


class TestParentDirectory:
    def test_nested(self):
        assert parent_directory("/a/b/c") == "/a/b"

    def test_top_level(self):
        assert parent_directory("/a") == "/"

    def test_trailing_slash(self):
        assert parent_directory("/a/b/") == "/a"


class TestVocabulary:
    def test_namespacing(self):
        vocab = Vocabulary()
        uid_7 = vocab.scalar_token("user", 7)
        pid_7 = vocab.scalar_token("process", 7)
        assert uid_7 != pid_7

    def test_path_components_namespaced_from_scalars(self):
        vocab = Vocabulary()
        scalar = vocab.scalar_token("user", "user1")
        path = vocab.path_component("user1")
        assert scalar != path

    def test_decode(self):
        vocab = Vocabulary()
        tid = vocab.scalar_token("host", 3)
        assert vocab.decode(tid) == ("host", 3)

    def test_len_and_bytes(self):
        vocab = Vocabulary()
        assert len(vocab) == 0
        vocab.scalar_token("a", 1)
        vocab.path_components(("x", "y"))
        assert len(vocab) == 3
        assert vocab.approx_bytes() > 0


class TestBagIntersection:
    def test_multiset_semantics(self):
        assert bag_intersection((1, 1, 2), (1, 1, 3)) == 2

    def test_disjoint(self):
        assert bag_intersection((1, 2), (3, 4)) == 0

    def test_empty(self):
        assert bag_intersection((), (1,)) == 0

    def test_identical(self):
        assert bag_intersection((1, 2, 3), (1, 2, 3)) == 3


class TestSemanticVector:
    def test_sorts_scalars(self):
        v = SemanticVector(scalar_ids=(3, 1, 2))
        assert v.scalar_ids == (1, 2, 3)

    def test_n_items_dpa_vs_ipa(self):
        v = SemanticVector(scalar_ids=(1, 2, 3), path_ids=(10, 11, 12, 13))
        assert v.n_items("dpa") == 7
        assert v.n_items("ipa") == 4

    def test_n_items_no_path(self):
        v = SemanticVector(scalar_ids=(1, 2))
        assert v.n_items("dpa") == v.n_items("ipa") == 2

    def test_n_items_unknown_method(self):
        v = SemanticVector(scalar_ids=(1,), path_ids=(2,))
        with pytest.raises(ValueError):
            v.n_items("xyz")

    def test_dpa_items_merged_sorted(self):
        v = SemanticVector(scalar_ids=(5, 1), path_ids=(3, 2))
        assert v.dpa_items() == (1, 2, 3, 5)

    def test_pickles_ids_only(self):
        v = SemanticVector(scalar_ids=(5, 1), path_ids=(9, 4, 9))
        v.scalar_set  # build the lazy cache; it is not pickled
        assert v.__getstate__() == ((1, 5), (9, 4, 9))
        restored = pickle.loads(pickle.dumps(v))
        assert restored == v
        assert restored.n_ipa == 3
        assert restored._scalar_set is None
        assert restored.scalar_set == frozenset({1, 5})

    @pytest.mark.parametrize(
        "state",
        [
            [(1,), None, 1, None, None],  # the old five-field layout
            ((1,), None, 1, None, None),
            ((1,),),
            None,
        ],
    )
    def test_other_state_shapes_refused(self, state):
        v = SemanticVector.__new__(SemanticVector)
        with pytest.raises(TypeError, match="scalar_ids, path_ids"):
            v.__setstate__(state)

    def test_approx_bytes(self):
        small = SemanticVector(scalar_ids=(1,))
        big = SemanticVector(scalar_ids=tuple(range(50)), path_ids=tuple(range(50)))
        assert big.approx_bytes() > small.approx_bytes()
