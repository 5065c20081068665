"""Guard for the repository benchmark's trace surface.

``perfbench/tracing.py`` times each layer by patching names the program
exposes: module globals such as ``cluster_engine.affinity_schedule``,
``engine.lower_queue`` and ``engine._columnar_drain``, and methods such
as ``ServingEngine.precompute_phases``. A refactor that drops or renames
one of them breaks ``--trace 1`` runs. This test enters the wrappers and
runs one traced, scaled-down repeat of each simulated workload, so such
a refactor fails here first.
"""

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SIM_WORKLOADS = [name for name, w in WORKLOADS.items() if w.kind == "sim"]


@pytest.mark.parametrize("name", SIM_WORKLOADS)
def test_traced_repeat_runs_and_restores(name):
    from repro.coe import cluster_engine, columnar, engine

    workload = copy.copy(WORKLOADS[name])
    workload.num_requests = 2_000
    plain = workload.repeat(1)
    rec = tracing.Recorder("t")
    with tracing.installed(rec):
        traced = workload.repeat(1, span=rec.span, keep=True)
    assert traced.digest == plain.digest
    assert traced.completed + traced.report.rejected == 2_000
    totals = rec.total_times()
    for span in ("pipeline", "generate", "cluster_engine.serve", "sim.run",
                 "engine.phase", "metrics.report"):
        assert span in totals, span
    if name == "offline_zipf_cluster":
        # The columnar drain and its lowering are both visible.
        assert rec.calls("columnar.lower") == rec.calls("columnar.drain") > 0
    # Every wrapper is taken out again.
    assert engine.lower_queue is columnar.lower_queue
    assert engine._columnar_drain is columnar.drain
    assert cluster_engine.affinity_schedule is engine.affinity_schedule
    assert not hasattr(engine.ServingEngine.precompute_phases, "__wrapped__")
