"""Differential tests for the array core's per-flush kernel choice.

The array core runs each timing flush either on the engine's own heap
(narrow) or as a levelized array sweep (wide), and keeps its timing
image stale between wide flushes (``repro/core/sta.py``).  Whatever
the mix, an array-core engine must agree bit for bit with an
object-core engine fed the same edits: every queried value and every
``timing.*`` counter.

Seeded random edit streams — moves, mass moves, evented resizes,
direct ``cell.gain`` writes, buffer insertion, cloning and
``invalidate_all`` barriers — run on twin designs, with endpoint and
point queries in between, under four thresholds: always-sweep,
always-heap, the production rule, and a low threshold that mixes both
kernels on these small designs.  A scripted sequence then walks each
transition the image lifecycle has and checks the kernel's counters.
"""

import random

import pytest

from repro.core import sta
from repro.geometry import Point
from repro.netlist import ops
from repro.timing import DelayMode
from repro.workloads.presets import build_des_design

#: a threshold (seeds per level) under which single-cell moves stay
#: narrow while full retimes and moves of six or more cells go wide on
#: Des1 at scale 0.02 (305 pins, 18 levels)
MIXED = 4


def twins(library, mode):
    designs = [build_des_design("Des1", library, scale=0.02, core=core)
               for core in ("object", "array")]
    for design in designs:
        design.timing.set_mode(mode)
    return designs


def edit_script(seed, steps):
    """``steps`` edits as plain data, applicable to either twin."""
    rng = random.Random(seed)
    kinds = ["move"] * 6 + ["mass_move", "resize", "resize", "gain",
                            "gain", "buffer", "clone", "invalidate"]
    return [(rng.choice(kinds), rng.randrange(10_000),
             rng.randrange(10_000), rng.random(), rng.random(),
             rng.choice(["worst", "tns", "point", "none"]))
            for _ in range(steps)]


def apply_edit(design, library, kind, a, b, fx, fy):
    nl = design.netlist
    die = design.die
    cells = nl.movable_cells()
    nets = [n for n in nl.nets() if n.driver() is not None
            and not n.is_clock]
    cell = cells[a % len(cells)]
    net = nets[b % len(nets)]

    def where(u, v):
        return Point(die.xlo + u * die.width, die.ylo + v * die.height)

    if kind == "move":
        nl.move_cell(cell, where(fx, fy))
    elif kind == "mass_move":  # a partial frontier, wide under MIXED
        for i, other in enumerate(cells[a % len(cells):][:6 + b % 12]):
            nl.move_cell(other, where((fx + 0.37 * i) % 1.0,
                                      (fy + 0.61 * i) % 1.0))
    elif kind == "resize":
        if library.has_type(cell.type_name):
            ladder = library.sizes(cell.type_name)
            nl.resize_cell(cell, ladder[a % len(ladder)])
    elif kind == "gain":  # a direct write: no event reaches timing
        cell.gain = 1.0 + 4.0 * fx
    elif kind == "buffer":
        sinks = net.sinks()
        if sinks:
            ops.insert_buffer(nl, library, net, sinks[:1 + a % len(sinks)],
                              position=where(fx, fy))
    elif kind == "clone":
        driver = net.driver()
        if not driver.cell.is_port and len(net.sinks()) >= 2:
            ops.clone_cell(nl, driver.cell, net.sinks()[:1],
                           position=where(fx, fy))
    elif kind == "invalidate":
        design.timing.invalidate_all()


def query(design, what, a):
    engine = design.timing
    if what == "worst":
        return engine.worst_slack()
    if what == "tns":
        return engine.total_negative_slack()
    if what == "point":
        pins = [p for c in design.netlist.cells() for p in c.pins()]
        pin = pins[a % len(pins)]
        return (engine.arrival(pin), engine.arrival_min(pin),
                engine.required(pin))
    return None


def assert_twins_agree(obj, arr):
    assert arr.timing.worst_slack() == obj.timing.worst_slack()
    assert arr.timing.total_negative_slack() \
        == obj.timing.total_negative_slack()
    assert arr.timing.endpoint_slacks() == obj.timing.endpoint_slacks()
    assert arr.timing.worst_hold_slack() == obj.timing.worst_hold_slack()
    for cell_o, cell_a in zip(obj.netlist.cells(), arr.netlist.cells()):
        for pin_o, pin_a in zip(cell_o.pins(), cell_a.pins()):
            assert arr.timing.arrival(pin_a) == obj.timing.arrival(pin_o)
            assert arr.timing.arrival_min(pin_a) \
                == obj.timing.arrival_min(pin_o)
            assert arr.timing.required(pin_a) \
                == obj.timing.required(pin_o)
    assert arr.timing.stats() == obj.timing.stats()


@pytest.mark.parametrize("mode", [DelayMode.GAIN, DelayMode.LOAD],
                         ids=["gain", "load"])
@pytest.mark.parametrize("threshold", [0, MIXED, None, 10 ** 9],
                         ids=["sweep", "mixed", "rule", "heap"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_edit_streams_agree(library, monkeypatch, seed, threshold,
                                   mode):
    if threshold is not None:
        monkeypatch.setattr(sta, "WIDE_SEEDS_PER_LEVEL", threshold)
    obj, arr = twins(library, mode)
    for step, (kind, a, b, fx, fy, what) in enumerate(
            edit_script(seed, 40)):
        apply_edit(obj, library, kind, a, b, fx, fy)
        apply_edit(arr, library, kind, a, b, fx, fy)
        assert query(arr, what, a) == query(obj, what, a), (step, kind)
        assert arr.timing.stats() == obj.timing.stats(), (step, kind)
    assert_twins_agree(obj, arr)

    kstats = arr.timing._akernel.stats()
    if threshold == 0:
        assert kstats["narrow_flushes"] == 0
    elif threshold == 10 ** 9:
        assert kstats["sweeps"] == kstats["image_builds"] == 0
    elif threshold == MIXED:
        assert kstats["sweeps"] > 0 and kstats["narrow_flushes"] > 0
    assert kstats["image_builds"] <= kstats["sweeps"]


@pytest.mark.parametrize("mode", [DelayMode.GAIN, DelayMode.LOAD],
                         ids=["gain", "load"])
def test_image_lifecycle_transitions(library, monkeypatch, mode):
    """Walk each transition once, checking values against the object
    twin and the kernel's counters after every step."""
    monkeypatch.setattr(sta, "WIDE_SEEDS_PER_LEVEL", MIXED)
    obj, arr = twins(library, mode)
    kernel = arr.timing._akernel

    def step(kind, a=5, b=7, fx=0.3, fy=0.6):
        apply_edit(obj, library, kind, a, b, fx, fy)
        apply_edit(arr, library, kind, a, b, fx, fy)
        assert arr.timing.worst_slack() == obj.timing.worst_slack(), kind
        assert arr.timing.stats() == obj.timing.stats(), kind
        return kernel.stats()

    # the first full retime is wide: it builds the image
    s = step("mass_move")
    assert (s["sweeps"], s["image_builds"]) == (1, 1)
    assert kernel.ready(arr.timing)

    # narrow after wide: the heap runs, the image goes stale and
    # endpoint queries fall back to the engine's dicts
    s = step("move", fx=0.7, fy=0.2)
    assert (s["narrow_flushes"], s["sweeps"]) == (1, 1)
    assert not kernel.ready(arr.timing)

    # wide after narrow: the stale pins are reloaded, not rebuilt
    s = step("mass_move", fx=0.8, fy=0.1)
    assert (s["sweeps"], s["image_builds"], s["image_reloads"]) \
        == (2, 1, 1)
    assert kernel.ready(arr.timing)

    # a structural edit followed by a narrow flush retires the image
    # without building a new one
    s = step("buffer")
    assert s["narrow_flushes"] == 2 and s["image_builds"] == 1
    assert kernel._image is None

    # the next wide flush builds the new generation's image
    s = step("mass_move", fx=0.2, fy=0.9)
    assert (s["sweeps"], s["image_builds"]) == (3, 2)

    # a gain write is invisible until its cell is in a frontier, on
    # both kernels alike
    step("gain", fx=0.9)
    step("move", fx=0.1, fy=0.1)
    # invalidate_all drops the image; the re-time is wide again
    s = step("invalidate")
    assert s["image_builds"] == 3
    assert_twins_agree(obj, arr)
