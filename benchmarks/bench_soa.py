"""Structure-of-arrays core: kernel speedups over the object graph.

Times the three ported kernels in their flow-dominant regimes, per Des
preset and per core, publishing ``BENCH_soa.json``:

* **sta_sweep** — the mass-move regime only: every movable cell
  moves, the shared electrical cache is pre-warmed (the wire model is
  identical Python in both cores and is *not* part of the ported
  kernel), then one full-frontier flush is timed — heap-and-dict
  propagation vs the levelized array sweep;
* **quad_assembly** — ``QuadraticPlacer._solve`` with the (scipy, so
  core-independent) CG solve stubbed out, isolating clique/star system
  assembly — per-net Python loops vs batched emission streams;
* **bin_rebuild** — full grid re-binning at two resolutions — the
  per-cell insert walk vs the vectorized occupancy scatter.

Beside them, **sta_incremental** times the regime a TPS flow runs: a
seeded replay of single-cell moves with a buffer insertion every tenth
step, each followed by ``worst_slack``, under the placement-aware
Steiner wire model, image builds included.  Both cores run these
narrow frontiers on the heap, so it stays out of ``total_speedup``
and the runtime exponent (which cover the three ported kernels); its
gate is that the array run builds no image per edit, not wall clock.

Also reported: array-core s/cell per preset, the empirical runtime
exponent of the array kernel suite across preset sizes, the process
peak RSS, and per preset a **dispatch scan** — heap vs levelized sweep
on the same random dirty sets at several seeds-per-level ratios, the
measurement behind ``repro.core.sta.WIDE_SEEDS_PER_LEVEL`` (see
docs/internals.md §10).  The sweep's array advantage is bounded by
logic depth (one round of numpy dispatches per level), so speedups
grow with preset width.

Knobs: ``REPRO_SOA_SCALE`` (default 2.0) scales the presets;
``REPRO_SOA_PRESETS`` (comma list, default all five) picks presets —
the CI perf smoke runs Des1 only.
"""

import json
import math
import os
import random
import resource

import numpy as np
from conftest import publish, stopwatch

from repro.core import sta
from repro.geometry import Point
from repro.library import default_library
from repro.netlist import ops
from repro.placement import QuadraticPlacer
import repro.placement.quadratic as quad_mod
from repro.wirelength.wlm import WireLoadModel
from repro.workloads.presets import DES_PRESETS, build_des_design

SOA_SCALE = float(os.environ.get("REPRO_SOA_SCALE", "2.0"))
SOA_PRESETS = [p for p in
               os.environ.get("REPRO_SOA_PRESETS",
                              ",".join(sorted(DES_PRESETS))).split(",")
               if p]

ROUNDS = 3
#: single-cell edits replayed by the sta_incremental regime
INCREMENTAL_STEPS = 100
#: seeds-per-level ratios of the dispatch scan
SCAN_RATIOS = (10, 20, 30, 40, 60, 80)


def _build(preset, core, library):
    design = build_des_design(preset, library, scale=SOA_SCALE,
                              core=core)
    # the lumped wire-load model keeps the (shared, core-independent)
    # electrical Python out of the kernel timings
    design.timing.set_wire_model(
        WireLoadModel(design.steiner, design.parasitics))
    QuadraticPlacer(design).run()
    design.timing.worst_slack()  # settle; warms the array image
    return design


def _time_sweep(design):
    """Mass-move retime: the frontier is the whole design."""
    rng = random.Random(7)
    cells = design.netlist.movable_cells()
    nets = design.netlist.nets()
    die = design.die
    total = 0.0
    for _ in range(ROUNDS):
        for cell in cells:
            design.netlist.move_cell(cell, Point(
                die.xlo + rng.random() * die.width,
                die.ylo + rng.random() * die.height))
        for net in nets:  # pre-warm the shared electrical cache
            design.timing.net_electrical(net)
        with stopwatch() as sw:
            design.timing.worst_slack()
            design.timing.total_negative_slack()
        total += sw.seconds
    return total


def _time_assembly(design):
    """System assembly alone: CG is scipy in both cores, so stub it."""
    real_cg = quad_mod.cg

    def stub(mat, rhs, rtol=None, maxiter=None):
        return np.zeros(mat.shape[0]), 0

    quad_mod.cg = stub
    try:
        placer = QuadraticPlacer(design)
        movable = design.netlist.movable_cells()
        with stopwatch() as sw:
            for _ in range(ROUNDS):
                placer._solve(movable)
        return sw.seconds
    finally:
        quad_mod.cg = real_cg


def _time_bins(design):
    with stopwatch() as sw:
        for _ in range(ROUNDS):
            design.grid.resize(24, 24)
            design.grid.resize(12, 12)
    return sw.seconds


def _sta_counts(design):
    akernel = design.timing._akernel
    return akernel.stats() if akernel is not None else {}


def _time_incremental(design, library):
    """Transform-shaped retimes: one narrow frontier per query.

    Returns the seconds and the array kernel's counter deltas over
    the replay (empty on the object core).
    """
    timing = design.timing
    timing.set_wire_model(design.wire_model)
    timing.worst_slack()  # settle the full retime outside the timing
    rng = random.Random(11)
    die = design.die
    before = _sta_counts(design)
    with stopwatch() as sw:
        for step in range(INCREMENTAL_STEPS):
            netlist = design.netlist
            if step % 10 == 9:
                nets = [n for n in netlist.nets()
                        if n.driver() is not None and not n.is_clock
                        and n.sinks()]
                net = rng.choice(nets)
                ops.insert_buffer(netlist, library, net, net.sinks()[:1],
                                  position=Point(
                                      die.xlo + rng.random() * die.width,
                                      die.ylo + rng.random() * die.height))
            else:
                cell = rng.choice(netlist.movable_cells())
                netlist.move_cell(cell, Point(
                    die.xlo + rng.random() * die.width,
                    die.ylo + rng.random() * die.height))
            timing.worst_slack()
    after = _sta_counts(design)
    return sw.seconds, {k: after[k] - before[k] for k in after}


def _dispatch_scan(design):
    """Heap vs levelized sweep on identical random dirty sets.

    Each probe dirties ``ratio * levels / 2`` pins in both directions
    (``ratio`` seeds per level) on a settled array-core design, so
    every recompute is damped and the two kernels do identical work;
    each side is the best of three probes.
    """
    timing = design.timing
    timing.worst_slack()
    graph = timing.graph()
    pins = list(graph.pins())
    levels = graph.max_level() + 1
    rng = random.Random(3)
    scan = {}
    saved = sta.WIDE_SEEDS_PER_LEVEL
    try:
        for ratio in SCAN_RATIOS:
            count = ratio * levels // 2
            if count > len(pins):
                break
            best = {}
            for arm, threshold in (("heap", 10 ** 9), ("sweep", 0)):
                sta.WIDE_SEEDS_PER_LEVEL = threshold
                best[arm] = math.inf
                for _ in range(3):
                    seeds = rng.sample(pins, count)
                    timing._dirty_arr.update(seeds)
                    timing._dirty_req.update(seeds)
                    with stopwatch() as sw:
                        timing._flush()
                    best[arm] = min(best[arm], sw.seconds)
            scan[str(ratio)] = {k: round(v, 5) for k, v in best.items()}
    finally:
        sta.WIDE_SEEDS_PER_LEVEL = saved
    wins = [int(r) for r, t in scan.items() if t["sweep"] < t["heap"]]
    return {"levels": levels, "pins": len(pins), "seconds": scan,
            "sweep_wins_from": min(wins) if wins else None}


def _kernels(preset, core, library):
    """The ported kernels' seconds, then the incremental regime's
    seconds and array-kernel counts, on one design."""
    design = _build(preset, core, library)
    seconds = {
        "sta_sweep": _time_sweep(design),
        "quad_assembly": _time_assembly(design),
        "bin_rebuild": _time_bins(design),
    }
    incremental, counts = _time_incremental(design, library)
    return design, seconds, incremental, counts


def test_soa_speedup():
    library = default_library()
    presets = {}
    sizes = []
    for preset in SOA_PRESETS:
        _, obj, inc_obj, _ = _kernels(preset, "object", library)
        design, arr, inc_arr, counts = _kernels(preset, "array", library)
        n = design.icell_count()
        t_obj = sum(obj.values())
        t_arr = sum(arr.values())
        entry = {
            "cells": n,
            "object_seconds": {k: round(v, 4) for k, v in obj.items()},
            "array_seconds": {k: round(v, 4) for k, v in arr.items()},
            "speedup": {k: round(obj[k] / arr[k], 2) for k in obj},
            "total_speedup": round(t_obj / t_arr, 2),
            "array_s_per_cell": round(t_arr / n, 6),
            "sta_incremental": {
                "object_seconds": round(inc_obj, 4),
                "array_seconds": round(inc_arr, 4),
                "speedup": round(inc_obj / inc_arr, 2),
                "array_counts": counts,
            },
            "dispatch_scan": _dispatch_scan(design),
        }
        presets[preset] = entry
        sizes.append((n, t_arr))

    # empirical runtime exponent of the array kernel suite, from the
    # smallest to the largest preset actually run
    sizes.sort()
    (n0, t0), (n1, t1) = sizes[0], sizes[-1]
    exponent = (math.log(t1 / t0) / math.log(n1 / n0)
                if n1 > n0 else 1.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    speedups = [presets[p]["total_speedup"] for p in presets]
    report = {
        "scale": SOA_SCALE,
        "rounds": ROUNDS,
        "presets": presets,
        "aggregate_speedup": round(
            sum(speedups) / len(speedups), 2),
        "incremental_speedup": round(
            sum(e["sta_incremental"]["speedup"] for e in presets.values())
            / len(presets), 2),
        "best_kernel_speedup": round(
            max(e["speedup"][k] for e in presets.values()
                for k in e["speedup"]), 2),
        "runtime_exponent": round(exponent, 3),
        "peak_rss_mb": round(rss_mb, 1),
        "wide_seeds_per_level": sta.WIDE_SEEDS_PER_LEVEL,
        "incremental_steps": INCREMENTAL_STEPS,
    }
    publish("BENCH_soa.json",
            json.dumps(report, indent=2, sort_keys=True) + "\n")

    # the perf bars: the array core must beat the object core on every
    # preset, and the array kernels must stay near-linear in cells
    for preset, entry in presets.items():
        assert entry["total_speedup"] > 1.0, \
            "array core slower than object on %s: %s" % (preset, entry)
        # narrow frontiers run on the heap: the replay's structural
        # edits must not cost an image build each
        counts = entry["sta_incremental"]["array_counts"]
        assert counts["image_builds"] <= counts["sweeps"], (preset, counts)
        assert counts["narrow_flushes"] > 0, (preset, counts)
    if n1 > n0:
        assert exponent <= 1.1, \
            "array kernels no longer near-linear: %.3f" % exponent
