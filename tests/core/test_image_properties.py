"""Hypothesis properties of the structure-of-arrays core.

Three invariants pin the :class:`repro.core.image.CoreImage` contract
(see its module docstring) under arbitrary edit sequences:

* **round trip** — netlist -> arrays -> netlist is the identity, down
  to iteration order and the unique-name counter, checked through
  ``netlist_to_state`` (the same flattening persistence relies on);
* **CSR partition** — the per-cell pin spans partition the pin set,
  and the per-net spans list exactly each net's pins in pin-list
  order, with ``pin_net`` consistent in both directions;
* **incremental array STA == object STA == full recompute** — after
  any edit sequence, the array kernel's lazily re-propagated values
  are bit-identical to the object engine's on a twin design, and both
  match a from-scratch engine to float tolerance.  These designs are
  too deep and narrow for the production dispatch rule to pick the
  levelized sweep, so the STA properties force it on every flush
  (``tests/core/test_mixed_dispatch.py`` covers the mixed rule).
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoreImage, sta
from repro.geometry import Point
from repro.library.parasitics import WireParasitics
from repro.netlist import ops
from repro.netlist.serialize import netlist_to_state
from repro.timing import DelayMode, TimingConstraints, TimingEngine
from repro.wirelength import SteinerCache, WireModel
from repro.workloads import random_logic


def build(library, seed=3):
    nl = random_logic("p", library, 60, n_inputs=6, n_outputs=6,
                      seed=seed)
    for i, cell in enumerate(nl.cells()):
        nl.move_cell(cell, Point(float((i * 37) % 200),
                                 float((i * 53) % 200)))
    return nl


@contextmanager
def always_sweep():
    """Send every array-core flush to the levelized sweep."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sta, "WIDE_SEEDS_PER_LEVEL", 0)
        yield


def fresh_engine(nl, kernel="object"):
    cache = SteinerCache(nl)
    model = WireModel(cache, WireParasitics(rc_threshold=120.0))
    return TimingEngine(nl, model,
                        TimingConstraints(cycle_time=500.0),
                        mode=DelayMode.LOAD, kernel=kernel)


def apply_edit(nl, library, kind, a, b):
    """One deterministic edit; identical twins stay identical."""
    cells = [c for c in nl.cells() if c.is_movable]
    nets = [n for n in nl.nets() if n.driver() is not None]
    if not cells or not nets:
        return
    cell = cells[a % len(cells)]
    net = nets[b % len(nets)]
    if kind == "move":
        nl.move_cell(cell, Point(float(a % 200), float(b % 200)))
    elif kind == "unplace":
        nl.move_cell(cell, None)
    elif kind == "resize":
        ladder = library.sizes(cell.type_name) \
            if library.has_type(cell.type_name) else []
        if ladder:
            nl.resize_cell(cell, ladder[a % len(ladder)])
    elif kind == "buffer":
        sinks = net.sinks()
        if sinks:
            ops.insert_buffer(nl, library, net,
                              sinks[:1 + a % len(sinks)],
                              position=Point(float(a % 200),
                                             float(b % 200)))
    elif kind == "swap":
        groups = cell.gate_type.swap_groups()
        if groups:
            pins = list(groups.values())[0]
            ops.swap_pins(nl, cell, pins[0].name, pins[1].name)
    elif kind == "clone":
        driver = net.driver()
        if (driver is not None and not driver.cell.is_port
                and len(net.sinks()) >= 2):
            ops.clone_cell(nl, driver.cell, net.sinks()[:1],
                           position=cell.position)


# an edit is (kind, int, int); ints index cells/nets/positions
edits = st.lists(
    st.tuples(st.sampled_from(["move", "resize", "buffer", "swap",
                               "clone", "unplace"]),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=12,
)


class TestRoundTrip:
    @given(edits, st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_netlist_arrays_netlist_identity(self, library, sequence,
                                             seed):
        nl = build(library, seed=1 + seed % 7)
        image = CoreImage(nl)
        image.sync()
        for kind, a, b in sequence:
            apply_edit(nl, library, kind, a, b)
        rebuilt = image.to_netlist(library)
        assert netlist_to_state(rebuilt) == netlist_to_state(nl)

    def test_roundtrip_covers_unplaced_and_fixed(self, library):
        nl = build(library)
        movable = nl.movable_cells()
        nl.move_cell(movable[0], None)
        movable[1].fixed = True  # direct write, no event — the
        # round trip must still see it (gathered live on rebuild)
        image = CoreImage(nl)
        assert netlist_to_state(image.to_netlist(library)) \
            == netlist_to_state(nl)


class TestCsrPartition:
    @given(edits)
    @settings(max_examples=25, deadline=None)
    def test_pin_spans_partition_the_pin_set(self, library, sequence):
        nl = build(library)
        image = CoreImage(nl)
        for kind, a, b in sequence:
            apply_edit(nl, library, kind, a, b)
        image.sync()

        # cell spans cover 0..npins exactly once, in cell.pins() order
        npins = len(image.pins)
        assert image.cell_pin_start[0] == 0
        assert image.cell_pin_start[-1] == npins
        seen = []
        for i, cell in enumerate(image.cells):
            s, e = image.cell_pin_start[i], image.cell_pin_start[i + 1]
            span = image.pins[s:e]
            assert span == cell.pins()
            assert all(image.pin_cell[k] == i for k in range(s, e))
            seen.extend(id(p) for p in span)
        assert len(seen) == npins
        assert set(seen) == set(id(p) for p in image.pins)

        # net spans list exactly each net's pins, in pin-list order,
        # and pin_net agrees in both directions
        connected = set()
        for j, net in enumerate(image.nets):
            s, e = image.net_pin_start[j], image.net_pin_start[j + 1]
            span = [image.pins[k] for k in image.net_pin[s:e]]
            assert span == list(net._pins)
            for k in image.net_pin[s:e]:
                assert image.pin_net[k] == j
                connected.add(int(k))
        for k in range(npins):
            if k not in connected:
                assert image.pin_net[k] == -1
                assert image.pins[k].net is None


class TestArrayStaEqualsObjectSta:
    @given(edits)
    @settings(max_examples=20, deadline=None)
    def test_incremental_twins_stay_bit_identical(self, library,
                                                  sequence):
        """Twin designs, twin edit streams, one per kernel: every
        query along the way must agree bit-for-bit, and the final
        state must match a from-scratch recompute."""
        with always_sweep():
            nl_obj = build(library)
            nl_arr = build(library)
            eng_obj = fresh_engine(nl_obj, kernel="object")
            eng_arr = fresh_engine(nl_arr, kernel="array")
            assert eng_arr.worst_slack() == eng_obj.worst_slack()

            for step, (kind, a, b) in enumerate(sequence):
                apply_edit(nl_obj, library, kind, a, b)
                apply_edit(nl_arr, library, kind, a, b)
                if step % 3 == 1:  # interleave queries so the array
                    # kernel sweeps real frontiers, not full rebuilds
                    assert eng_arr.worst_slack() == eng_obj.worst_slack()
                    assert eng_arr.total_negative_slack() \
                        == eng_obj.total_negative_slack()

            assert eng_arr.worst_slack() == eng_obj.worst_slack()
            assert eng_arr.total_negative_slack() \
                == eng_obj.total_negative_slack()
            for cell_o, cell_a in zip(nl_obj.cells(), nl_arr.cells()):
                for pin_o, pin_a in zip(cell_o.pins(), cell_a.pins()):
                    assert eng_arr.arrival(pin_a) \
                        == eng_obj.arrival(pin_o), pin_o.full_name
                    assert eng_arr.slack(pin_a) \
                        == eng_obj.slack(pin_o), pin_o.full_name

            # and both equal a full recompute, to float tolerance
            reference = fresh_engine(nl_arr, kernel="object")
            assert eng_arr.worst_slack() == pytest.approx(
                reference.worst_slack(), abs=1e-6)

    @given(st.integers(0, 2**30))
    @settings(max_examples=10, deadline=None)
    def test_array_incremental_equals_full_recompute(self, library,
                                                     seed):
        with always_sweep():
            nl = build(library, seed=5)
            engine = fresh_engine(nl, kernel="array")
            engine.worst_slack()
            movable = nl.movable_cells()
            for i, cell in enumerate(movable[:10]):
                nl.move_cell(cell, Point(float((seed + i * 31) % 200),
                                         float((seed + i * 17) % 200)))
            reference = fresh_engine(nl, kernel="array")
            for cell in nl.cells():
                for pin in cell.pins():
                    assert engine.arrival(pin) == pytest.approx(
                        reference.arrival(pin), abs=1e-6), pin.full_name
                    assert engine.slack(pin) == pytest.approx(
                        reference.slack(pin), abs=1e-6), pin.full_name
