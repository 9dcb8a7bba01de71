"""The object-vs-array differential harness.

The acceptance contract of the array core: on every Des preset, both
full flows (TPS and SPR) produce **bit-identical** results under
``core="object"`` and ``core="array"`` — the same ``report_state``
fields, the same final placement of every cell, the same traced span
sequence, and the same trace counter totals (the array core's own
``core.*`` counters excluded, since the object run does not have
them).

The fast tier (one preset per flow) runs in the default test pass;
the full five-preset matrix is ``slow``-marked and runs in the
nightly/CI differential job::

    PYTHONPATH=src python -m pytest tests/core/test_differential.py \
        -m slow -q
"""

import pytest

from repro.obs import Tracer, comparable
from repro.scenario import SPRConfig, SPRFlow, TPSConfig, TPSScenario
from repro.scenario.report import report_state
from repro.workloads.presets import DES_PRESETS, build_des_design

SCALE = 0.05
CORES = ("object", "array")


def _strip_core(counters):
    """Counter keys minus the array core's own namespaces and the
    wall-clock ``profile.*`` kernel timers (per-kernel split differs
    between cores by design — e.g. quad.assemble vs quad.dense mix)."""
    return {k: v for k, v in counters.items()
            if not k.startswith(("core.", "core_", "profile."))}


def traced_run(flow, preset, core, library, scale=SCALE):
    """Build a design and run one traced flow on it."""
    design = build_des_design(preset, library, scale=scale, core=core)
    tracer = Tracer(design)
    if flow == "TPS":
        scenario = TPSScenario(design, TPSConfig(seed=1),
                               tracer=tracer)
    else:
        scenario = SPRFlow(design, SPRConfig(seed=1, max_iterations=2),
                           tracer=tracer)
    return design, tracer, scenario.run()


def run_flow(flow, preset, core, library, scale=SCALE):
    """One traced flow run; returns every comparison surface."""
    design, tracer, report = traced_run(flow, preset, core, library, scale)
    placement = {
        cell.name: (None if cell.position is None
                    else (cell.position.x, cell.position.y))
        for cell in design.netlist.cells()
    }
    spans = []
    for record in tracer.records():
        record = comparable(record)
        record["counters"] = _strip_core(record["counters"])
        spans.append(record)
    return {
        "report": report_state(report),
        "placement": placement,
        "counters": _strip_core(tracer.counters.snapshot()),
        "spans": spans,
    }


def assert_runs_identical(flow, preset, library, scale=SCALE):
    obj = run_flow(flow, preset, "object", library, scale)
    arr = run_flow(flow, preset, "array", library, scale)
    where = "%s on %s" % (flow, preset)
    assert arr["report"] == obj["report"], where
    assert arr["placement"] == obj["placement"], where
    assert arr["counters"] == obj["counters"], where
    assert arr["spans"] == obj["spans"], where


class TestFastTier:
    """One preset per flow — runs in the default (tier-1) pass."""

    def test_tps_des1(self, library):
        assert_runs_identical("TPS", "Des1", library)

    def test_spr_des2(self, library):
        assert_runs_identical("SPR", "Des2", library)


@pytest.mark.slow
class TestFullMatrix:
    """Every flow x every Des preset, both cores."""

    @pytest.mark.parametrize("preset", sorted(DES_PRESETS))
    def test_tps(self, library, preset):
        assert_runs_identical("TPS", preset, library)

    @pytest.mark.parametrize("preset", sorted(DES_PRESETS))
    def test_spr(self, library, preset):
        assert_runs_identical("SPR", preset, library)


def test_array_core_actually_ran(library):
    """Guard against the differential silently comparing object to
    object: the fast tier's SPR run on the array core must have used
    both STA kernels — levelized sweeps for its placement retimes and
    the heap for narrow flushes — and the object run neither."""
    _, tracer, _ = traced_run("SPR", "Des2", "object", library)
    totals = tracer.counters.snapshot()
    assert totals.get("timing.flushes", 0) > 0
    assert not any(k.startswith("core") for k in totals)
    _, tracer, _ = traced_run("SPR", "Des2", "array", library)
    totals = tracer.counters.snapshot()
    assert totals.get("core.rebuilds", 0) > 0
    assert totals.get("core.sta.sweeps", 0) > 0
    assert totals.get("core.sta.narrow_flushes", 0) > 0


def test_tps_flushes_build_no_image_per_edit(library):
    """Every structural edit of TPS starts a new timing-graph
    generation, but only a wide flush builds a timing image: builds
    stay at or below the sweeps and far below the generations flushed,
    and the transforms' own frontiers run on the heap."""
    _, tracer, _ = traced_run("TPS", "Des1", "array", library)
    totals = tracer.counters.snapshot()
    builds = totals["core.sta.image_builds"]
    assert totals["core.sta.narrow_flushes"] > 0
    assert builds <= totals["core.sta.sweeps"]
    assert totals["core.sta.generations"] >= 100
    assert builds * 20 <= totals["core.sta.generations"]
    assert totals["core.sta.sweeps"] + totals["core.sta.narrow_flushes"] \
        == totals["timing.flushes"]
