"""ConsistentHashRouter: determinism, weights, stability, edge cases."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import FarmerConfig
from repro.errors import ConfigError
from repro.service.router import (
    ConsistentHashRouter,
    make_router,
    splitmix64,
)

SAMPLE = range(0, 5_000)


class TestDeterminism:
    def test_pure_function_of_config(self):
        a = ConsistentHashRouter(4, virtual_nodes=64, seed=7)
        b = ConsistentHashRouter(4, virtual_nodes=64, seed=7)
        assert [a.route(f) for f in SAMPLE] == [b.route(f) for f in SAMPLE]

    def test_seed_changes_ring(self):
        a = ConsistentHashRouter(4, seed=0)
        b = ConsistentHashRouter(4, seed=1)
        assert any(a.route(f) != b.route(f) for f in SAMPLE)

    def test_deterministic_across_processes(self):
        """Satellite: virtual-node placement must not depend on
        interpreter hash randomization — a child process with a
        different PYTHONHASHSEED routes identically."""
        fids = list(range(0, 512))
        here = [ConsistentHashRouter(4, seed=3).route(f) for f in fids]
        script = (
            "from repro.service.router import ConsistentHashRouter;"
            "r = ConsistentHashRouter(4, seed=3);"
            "print(','.join(str(r.route(f)) for f in range(0, 512)))"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "12345"},
        )
        child = [int(s) for s in out.stdout.strip().split(",")]
        assert child == here

    def test_splitmix64_reference_values(self):
        """Pin the mix so ring placement can never silently change."""
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1


class TestWeights:
    def test_weights_need_not_sum_to_one(self):
        """Satellite edge case: weights are normalized internally, so
        (2, 2) ≡ (0.5, 0.5) ≡ (1, 1)."""
        a = ConsistentHashRouter(2, seed=5, weights=(2.0, 2.0))
        b = ConsistentHashRouter(2, seed=5, weights=(0.5, 0.5))
        c = ConsistentHashRouter(2, seed=5)
        assert a.vnode_counts() == b.vnode_counts() == c.vnode_counts()
        assert [a.route(f) for f in SAMPLE] == [b.route(f) for f in SAMPLE]

    def test_heavier_shard_owns_more(self):
        router = ConsistentHashRouter(4, seed=1, weights=(3.0, 1.0, 1.0, 1.0))
        counts = [0, 0, 0, 0]
        for fid in SAMPLE:
            counts[router.route(fid)] += 1
        assert counts[0] > max(counts[1:])

    def test_zero_weight_empties_shard(self):
        router = ConsistentHashRouter(3, seed=2, weights=(1.0, 0.0, 1.0))
        assert router.vnode_counts()[1] == 0
        assert all(router.route(f) != 1 for f in SAMPLE)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter(2, weights=(1.0,))  # wrong length
        with pytest.raises(ConfigError):
            ConsistentHashRouter(2, weights=(1.0, -0.5))  # negative
        with pytest.raises(ConfigError):
            ConsistentHashRouter(2, weights=(0.0, 0.0))  # all empty


class TestStability:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_adding_a_shard_moves_a_minority(self, n):
        """The consistent-hashing contract: n → n+1 reassigns roughly
        1/(n+1) of the namespace, never the majority."""
        before = ConsistentHashRouter(n, seed=0)
        after = ConsistentHashRouter(n + 1, seed=0)
        moved = sum(1 for f in SAMPLE if before.route(f) != after.route(f))
        assert moved / len(SAMPLE) < 0.5
        assert moved > 0

    def test_modulo_moves_almost_everything(self):
        """The contrast that motivates the policy."""
        moved = sum(1 for f in SAMPLE if f % 4 != f % 5)
        assert moved / len(SAMPLE) > 0.7

    def test_load_spread_reasonable(self):
        router = ConsistentHashRouter(4, virtual_nodes=64, seed=0)
        counts = [0, 0, 0, 0]
        for fid in SAMPLE:
            counts[router.route(fid)] += 1
        assert min(counts) > len(SAMPLE) * 0.10


class TestConstruction:
    def test_make_router_dispatch(self):
        router = make_router("consistent_hash", 4, virtual_nodes=32, seed=9)
        assert isinstance(router, ConsistentHashRouter)
        assert router.n_shards == 4
        assert router.virtual_nodes == 32
        assert router.seed == 9

    def test_config_accepts_policy(self):
        cfg = FarmerConfig(
            n_shards=4, shard_policy="consistent_hash", router_virtual_nodes=16
        )
        assert cfg.shard_policy == "consistent_hash"
        with pytest.raises(ConfigError):
            FarmerConfig(router_virtual_nodes=0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter(0)
        with pytest.raises(ConfigError):
            ConsistentHashRouter(2, virtual_nodes=0)

    def test_routes_in_range(self):
        router = ConsistentHashRouter(5, seed=4)
        assert all(0 <= router.route(f) < 5 for f in SAMPLE)
