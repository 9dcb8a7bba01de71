"""Property: the in-place timing graph equals a fresh build, always.

The engine builds its ``TimingGraph`` once and then edits it from
netlist events, repairing longest-path levels lazily.  Seeded edit
streams — moves, buffer insertion and removal, cloning and unclone,
pin swaps, net removal, re-driven nets and guard rollbacks (which re-adopt removed
cells and nets) — run against a small processor design; after every
event (or, in the batched mode, after every operation) the maintained
graph must list the same arcs in the same order and carry the same
level dict and ``max_level()`` as ``TimingGraph(netlist)``.  A loop
must raise at exactly the queries where a fresh build raises.
"""

import random

import pytest

from repro.geometry import Point
from repro.guard.checkpoint import DesignCheckpoint
from repro.library.parasitics import WireParasitics
from repro.netlist import Netlist, NetlistListener, ops
from repro.timing import TimingConstraints, TimingEngine
from repro.timing.graph import CombinationalLoopError, TimingGraph
from repro.wirelength import SteinerCache, WireModel
from repro.workloads import ProcessorParams, make_design, processor_partition


def shape(graph):
    """Everything a graph query can see, keyed by pin identity."""
    def arcs(table):
        return {pid: [(id(pin), kind) for pin, kind in lst]
                for pid, lst in table.items()}
    return (arcs(graph.fanin), arcs(graph.fanout), dict(graph.level),
            graph.max_level())


def outcome(build):
    """``shape`` of the graph ``build`` returns, or the loop it hit."""
    try:
        return shape(build())
    except CombinationalLoopError as exc:
        return ("loop", [pin.full_name for pin in exc.pins])


class GraphChecker(NetlistListener):
    """Compares the engine's graph with a fresh build on each event.

    Registered after the design's analyzers, so the engine has already
    seen the event when the comparison runs.
    """

    def __init__(self, design, per_event: bool) -> None:
        self.design = design
        self.per_event = per_event
        self.checks = 0
        design.netlist.add_listener(self)

    def check(self) -> None:
        engine, netlist = self.design.timing, self.design.netlist
        assert (outcome(engine.graph)
                == outcome(lambda: TimingGraph(netlist)))
        self.checks += 1

    def _event(self, *_args) -> None:
        if self.per_event:
            self.check()

    on_cell_added = on_cell_removed = _event
    on_net_added = on_net_removed = _event
    on_connect = on_disconnect = _event


def small_design(library, seed):
    params = ProcessorParams(n_stages=2, regs_per_stage=6,
                             gates_per_stage=60, seed=seed)
    design = make_design(processor_partition(params, library), library,
                         cycle_time=1500.0)
    rng = random.Random(seed)
    die = design.die
    for cell in design.netlist.movable_cells():
        design.netlist.move_cell(cell, Point(
            die.xlo + rng.random() * die.width,
            die.ylo + rng.random() * die.height))
    return design


def random_edit(design, library, rng, made):
    """Apply one random structural (or physical) edit."""
    nl = design.netlist
    logic = [c for c in nl.cells() if c.is_movable]
    driven = [n for n in nl.nets() if n.driver() is not None and n.sinks()]
    kind = rng.choice(["move", "buffer", "unbuffer", "clone", "unclone",
                       "swap", "remove_net", "redrive"])
    if kind == "move":
        cell = rng.choice(logic)
        nl.move_cell(cell, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
    elif kind == "buffer":
        net = rng.choice(driven)
        sinks = net.sinks()
        made.append(("buffer", ops.insert_buffer(
            nl, library, net, sinks[:rng.randint(1, len(sinks))])))
    elif kind == "clone":
        nets = [n for n in driven
                if not n.driver().cell.is_port and len(n.sinks()) >= 2]
        if nets:
            net = rng.choice(nets)
            clone = ops.clone_cell(nl, net.driver().cell, net.sinks()[:1])
            made.append(("clone", (clone, net.driver().cell)))
    elif kind in ("unbuffer", "unclone"):
        wanted = "buffer" if kind == "unbuffer" else "clone"
        live = [(i, obj) for i, (k, obj) in enumerate(made)
                if k == wanted]
        if live:
            i, obj = rng.choice(live)
            del made[i]
            try:
                if wanted == "buffer":
                    ops.remove_buffer(nl, obj)
                else:
                    ops.unclone_cell(nl, *obj)
            except (ValueError, KeyError):
                pass  # a later edit detached or removed it
    elif kind == "swap":
        cells = [c for c in logic if c.gate_type.swap_groups()]
        if cells:
            cell = rng.choice(cells)
            group = list(cell.gate_type.swap_groups().values())[0]
            ops.swap_pins(nl, cell, group[0].name, group[1].name)
    elif kind == "remove_net":
        nl.remove_net(rng.choice(driven))
    elif kind == "redrive":
        # the driver leaves and rejoins a net that keeps its sinks
        net = rng.choice(driven)
        driver = net.driver()
        nl.disconnect(driver)
        nl.connect(driver, net)


def edit_stream(design, library, rng, checker, steps):
    made = []
    for _ in range(steps):
        if rng.random() < 0.25:
            # a guarded transform that gets rolled back: the restore
            # removes what the edits created and re-adopts what they
            # removed (the same Cell/Net objects) before reconnecting
            checkpoint = DesignCheckpoint(design)
            for _ in range(rng.randint(1, 4)):
                random_edit(design, library, rng, [])
            checker.check()
            checkpoint.restore()
            assert checkpoint.verify() is None
        else:
            random_edit(design, library, rng, made)
        checker.check()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("per_event", [True, False],
                         ids=["per-event", "batched"])
def test_edit_streams_match_fresh_builds(library, seed, per_event):
    design = small_design(library, seed)
    engine = design.timing
    engine.worst_slack()
    builds = engine.stats()["levelizations"]
    checker = GraphChecker(design, per_event)
    edit_stream(design, library, random.Random(seed), checker, steps=30)
    assert checker.checks > 30
    # every repair stayed local: no rebuild after the first
    assert engine.stats()["levelizations"] == builds
    # and the engine's timing still equals a fresh engine's
    design.netlist.remove_listener(checker)
    fresh = TimingEngine(design.netlist, engine.wire_model,
                         engine.constraints, mode=engine.mode)
    assert engine.worst_slack() == fresh.worst_slack()


def test_generation_moves_with_every_structural_event(library):
    design = small_design(library, 0)
    graph = design.timing.graph()
    nl = design.netlist
    seen = [graph.generation]
    net = next(n for n in nl.nets() if n.driver() is not None
               and n.sinks())
    buf = ops.insert_buffer(nl, library, net, net.sinks()[:1])
    seen.append(graph.generation)
    nl.move_cell(buf, Point(1.0, 1.0))  # physical: same generation
    seen.append(graph.generation)
    ops.remove_buffer(nl, buf)
    seen.append(graph.generation)
    assert seen[0] < seen[1] == seen[2] < seen[3]
    assert design.timing.graph() is graph
    assert TimingGraph(nl).generation > seen[3]


def chain(library):
    """pi -> inv1 -> inv2 -> po, returned with the inverters."""
    nl = Netlist()
    pi, po = nl.add_input_port("pi"), nl.add_output_port("po")
    inv1 = nl.add_cell("inv1", library.smallest("INV"))
    inv2 = nl.add_cell("inv2", library.smallest("INV"))
    n0, n1, n2 = (nl.add_net("n%d" % i) for i in range(3))
    for pin, net in ((pi.pin("Z"), n0), (inv1.pin("A"), n0),
                     (inv1.pin("Z"), n1), (inv2.pin("A"), n1),
                     (inv2.pin("Z"), n2), (po.pin("A"), n2)):
        nl.connect(pin, net)
    return nl, inv1, inv2


def test_loop_raises_where_a_fresh_build_does(library):
    nl, inv1, inv2 = chain(library)
    engine = TimingEngine(nl, WireModel(SteinerCache(nl),
                                        WireParasitics()),
                          TimingConstraints(cycle_time=500.0))
    engine.worst_slack()
    n0 = inv1.pin("A").net
    # close inv1 -> inv2 -> inv1
    nl.connect(inv1.pin("A"), inv2.pin("Z").net)
    fresh = outcome(lambda: TimingGraph(nl))
    assert fresh[0] == "loop"
    assert outcome(engine.graph) == fresh
    with pytest.raises(CombinationalLoopError):
        engine.worst_slack()
    # still a loop at the next query, as a fresh build would say
    assert outcome(engine.graph) == fresh
    # break it again: timing works and the graph is a fresh build's
    nl.connect(inv1.pin("A"), n0)
    assert outcome(engine.graph) == outcome(lambda: TimingGraph(nl))
    assert engine.worst_slack() < float("inf")


def test_loop_inside_a_large_design(library):
    design = small_design(library, 1)
    engine, nl = design.timing, design.netlist
    engine.worst_slack()
    graph = engine.graph()
    # an input pin of a gate reconnected to a net its own output
    # reaches: walk the fanout cone a few levels down
    cell = next(c for c in nl.logic_cells()
                if not c.is_sequential and c.output_pin().net is not None
                and c.output_pin().net.sinks()
                and not c.output_pin().net.sinks()[0].cell.is_sequential
                and not c.output_pin().net.sinks()[0].cell.is_port)
    downstream = cell.output_pin().net.sinks()[0].cell
    target = downstream.output_pin().net
    assert target is not None and graph.level_of(
        downstream.output_pin()) > graph.level_of(cell.output_pin())
    original = cell.input_pins()[0].net
    nl.connect(cell.input_pins()[0], target)
    fresh = outcome(lambda: TimingGraph(nl))
    assert fresh[0] == "loop"
    assert outcome(engine.graph) == fresh
    nl.connect(cell.input_pins()[0], original)
    assert outcome(engine.graph) == outcome(lambda: TimingGraph(nl))
