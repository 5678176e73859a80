"""Table 4 — FARMER's space overhead per trace (max_strength = 0.4).

Paper values (MB): LLNL 98.4, INS 1.4, RES 2.5, HP 9.8 — i.e. bounded by
~100 MB even on the 46.5M-event LLNL trace, thanks to the threshold
filtering that keeps Correlator Lists short.

Our traces are thousodands of times smaller than the originals, so we
report (a) the measured footprint at the experiment scale and (b) a
linear per-file extrapolation to each original trace's file population,
plus the structural quantities (lists, entries, bytes/file) that drive
the paper's ordering LLNL ≫ HP > RES > INS.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.farmer import Farmer
from repro.experiments.common import (
    DEFAULT_EVENTS,
    Experiment,
    ExperimentResult,
    cached_trace,
    farmer_config_for,
)
from repro.traces.synthetic import TRACE_NAMES

__all__ = ["run", "EXPERIMENT", "PAPER_MB"]

PAPER_MB = {"llnl": 98.4, "ins": 1.4, "res": 2.5, "hp": 9.8}

# Approximate active-file populations of the original traces, used for
# the per-file extrapolation column. LLNL: hundreds of thousands of
# per-rank files across 46.5M events; INS/RES: small workstation pools;
# HP: a 500GB time-sharing server. Note our per-file footprint is Python
# objects (~3KB/file) versus the paper's C structs in Berkeley DB
# (~100-250 bytes/file), so extrapolations land roughly an order of
# magnitude above the paper's MB while preserving the ordering.
ORIGINAL_FILES = {"llnl": 400_000, "ins": 30_000, "res": 80_000, "hp": 250_000}


def run(
    n_events: int = DEFAULT_EVENTS, seeds: Sequence[int] = (1,)
) -> ExperimentResult:
    """Mine each trace and account FARMER's footprint."""
    rows = []
    data: dict[str, dict[str, float]] = {}
    for trace in TRACE_NAMES:
        records = cached_trace(trace, n_events, seeds[0])
        farmer = Farmer(farmer_config_for(trace, max_strength=0.4))
        farmer.mine(records)
        stats = farmer.stats()
        memory_bytes = stats.memory_bytes
        measured_mb = memory_bytes / 1e6
        bytes_per_file = memory_bytes / max(1, stats.n_files)
        extrapolated_mb = bytes_per_file * ORIGINAL_FILES[trace] / 1e6
        data[trace] = {
            "measured_mb": measured_mb,
            "bytes_per_file": bytes_per_file,
            "extrapolated_mb": extrapolated_mb,
            "n_files": stats.n_files,
            "n_entries": stats.n_entries,
        }
        rows.append(
            (
                trace,
                stats.n_files,
                stats.n_entries,
                f"{measured_mb:.2f}",
                f"{bytes_per_file:.0f}",
                f"{extrapolated_mb:.1f}",
                f"{PAPER_MB[trace]:.1f}",
            )
        )
    return ExperimentResult(
        experiment_id="table4",
        title="Table 4: FARMER space overhead (max_strength = 0.4)",
        headers=(
            "trace",
            "files",
            "list entries",
            "measured MB",
            "bytes/file",
            "extrapolated MB",
            "paper MB",
        ),
        rows=tuple(rows),
        notes=(
            "Paper claim: overhead stays under ~100 MB because the "
            "validity threshold bounds Correlator Lists. Our traces are "
            "far smaller; the extrapolation column scales bytes/file to "
            "the original populations and must preserve the ordering "
            "LLNL >> HP > RES > INS and the <100MB LLNL bound's order of "
            "magnitude."
        ),
        data={"matrix": data},
    )


EXPERIMENT = Experiment(
    experiment_id="table4",
    paper_artifact="Table 4",
    description="FARMER memory overhead per trace",
    run=run,
)
