"""The vector-stability heuristic (``vector_freeze_threshold``).

The merge policy rewrites hot shared files' vectors dozens of times
early in a trace, and every rewrite invalidates all of the file's
stamped similarities. Freezing a vector after N rewrites keeps versions
stable, so the regression test here pins the headline effect: on the HP
trace the re-rank stamps then reuse most similarities and Function-1
evaluations fall severalfold.
"""

import pytest

from repro.core.config import FarmerConfig
from repro.core.farmer import Farmer
from repro.errors import ConfigError
from repro.traces.synthetic import generate_trace
from tests.conftest import make_record


def fpa_loop(config: FarmerConfig, trace) -> Farmer:
    farmer = Farmer(config)
    for record in trace:
        farmer.observe(record)
        farmer.predict(record.fid)
    return farmer


class TestFreezeSemantics:
    def test_default_off(self):
        assert FarmerConfig().vector_freeze_threshold == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            FarmerConfig(vector_freeze_threshold=-1)

    def test_version_stops_at_threshold(self):
        cfg = FarmerConfig(sv_policy="latest", vector_freeze_threshold=3)
        farmer = Farmer(cfg)
        store = farmer.constructor.vectors
        for i in range(10):
            # every request rewrites the vector until the freeze bites
            farmer.observe(make_record(1, uid=i, pid=i, host=i, ts=i))
        assert store.version_of(1) == 3
        assert store.is_frozen(1)

    def test_frozen_vector_keeps_content(self):
        cfg = FarmerConfig(sv_policy="latest", vector_freeze_threshold=1)
        farmer = Farmer(cfg)
        farmer.observe(make_record(1, uid=7, pid=7, host=7))
        frozen = farmer.constructor.vector_of(1)
        farmer.observe(make_record(1, uid=9, pid=9, host=9, ts=1))
        assert farmer.constructor.vector_of(1) == frozen

    def test_unfrozen_below_threshold(self):
        cfg = FarmerConfig(sv_policy="latest", vector_freeze_threshold=5)
        farmer = Farmer(cfg)
        farmer.observe(make_record(1, uid=1, pid=1, host=1))
        assert not farmer.constructor.vectors.is_frozen(1)

    def test_threshold_off_never_freezes(self):
        farmer = Farmer(FarmerConfig(sv_policy="latest"))
        for i in range(50):
            farmer.observe(make_record(1, uid=i, pid=i, host=i, ts=i))
        assert not farmer.constructor.vectors.is_frozen(1)
        assert farmer.constructor.vector_version(1) == 50


class TestHitRateRegression:
    def test_hp_trace_freeze_cuts_evaluations(self):
        """The headline regression: on the synthetic HP trace a
        saturation threshold of 8 stops most version churn, so the
        re-rank stamps reuse most similarities and the FPA loop's
        Function-1 evaluations fall below 0.4x the unfrozen run (about
        0.19x measured). Stamps off, freezing saves nothing: every
        re-rank re-evaluates every successor."""
        trace = generate_trace("hp", 8_000, seed=1)
        cold = fpa_loop(FarmerConfig(), trace).f1_evaluations()
        hot = fpa_loop(FarmerConfig(vector_freeze_threshold=8), trace)
        assert hot.f1_evaluations() < 0.4 * cold

    def test_freeze_still_mines_correlations(self):
        """Freezing trades vector adaptivity, not mining correctness:
        the frozen run still produces populated Correlator Lists."""
        trace = generate_trace("hp", 2_000, seed=3)
        frozen = fpa_loop(FarmerConfig(vector_freeze_threshold=4), trace)
        snap = frozen.snapshot()
        assert snap.n_lists > 0
        assert snap.n_entries > 0
