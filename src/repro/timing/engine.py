"""The incremental timing engine.

Arrival times propagate forward from launch points (primary inputs,
register CK->Q), required times backward from capture points (register
D pins, primary outputs).  Netlist events dirty exactly the pins whose
values can change; ``_flush`` re-propagates in level order and *stops*
wherever a recomputed value is unchanged — the paper's "recalculations
only happen in regions affected by netlist or placement changes".
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.library.types import TAU, GateSize
from repro.netlist.cell import Cell, Pin
from repro import _profile as profile
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist, NetlistListener
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph
from repro.wirelength.models import NetElectrical, WireModel

_EPS = 1e-9
INF = float("inf")


def negative_slack_sum(slacks: List[float]) -> float:
    """TNS over endpoint slacks in endpoint order: the one summation
    both timing kernels use, so they agree bit for bit."""
    return sum(min(0.0, s) for s in slacks if s < INF)


class DelayMode(enum.Enum):
    """Gate delay model in force (section 4.4 / 5 of the paper)."""

    #: Load-independent: ``d = tau * (p + g * assigned_gain)``.
    GAIN = "gain"
    #: Load-based: ``d = p*tau + R_drive * C_load`` from actual sizes.
    LOAD = "load"


class TimingEngine(NetlistListener):
    """Incremental STA over a netlist, coupled to a wire model."""

    def __init__(self, netlist: Netlist, wire_model: WireModel,
                 constraints: TimingConstraints,
                 mode: DelayMode = DelayMode.LOAD,
                 default_gain: float = 3.0,
                 port_drive_resistance: float = 0.5,
                 kernel: str = "object") -> None:
        self.netlist = netlist
        self.wire_model = wire_model
        self.constraints = constraints
        self.mode = mode
        self.default_gain = default_gain
        #: Output resistance of the board/partition driver behind each
        #: primary input (kOhm); keeps port-driven nets from being
        #: timing-free.
        self.port_drive_resistance = port_drive_resistance

        #: Early-corner scaling of gate delays for min-arrival (hold)
        #: analysis: fast process + favourable conditions.
        self.early_factor = 0.7

        self._graph: Optional[TimingGraph] = None
        self._arrival: Dict[Pin, float] = {}
        self._arrival_min: Dict[Pin, float] = {}
        self._required: Dict[Pin, float] = {}
        self._dirty_arr: Set[Pin] = set()
        self._dirty_req: Set[Pin] = set()
        self._net_elec: Dict[str, NetElectrical] = {}
        self._counter = itertools.count()
        #: (graph generation, endpoint pins) of the last generation
        #: that asked; structural events move the generation on
        self._endpoint_cache: Optional[Tuple[int, List[Pin]]] = None

        self._stats = {
            "arrival_recomputes": 0,
            "arrival_changes": 0,
            "required_recomputes": 0,
            "levelizations": 0,
            "flushes": 0,
        }

        #: Flush kernel: "object" walks the graph pin by pin, "array"
        #: sweeps levelized index arrays (repro.core.sta).  Both
        #: produce bit-identical values and counters.
        self.kernel = kernel
        self._akernel = None
        if kernel == "array":
            from repro.core.sta import ArrayStaKernel
            self._akernel = ArrayStaKernel()
        elif kernel != "object":
            raise ValueError("unknown timing kernel %r" % (kernel,))

        netlist.add_listener(self)
        self._mark_all_dirty()

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """A copy of the engine's incremental-work counters.

        * ``arrival_recomputes`` — pins whose (late and early) arrival
          times were recomputed during flushes; the honest unit of
          forward-propagation work.
        * ``arrival_changes`` — the subset of recomputes whose value
          actually moved past tolerance, forcing fanout to go dirty;
          recomputes minus changes is damping won by the dirty-set cut.
        * ``required_recomputes`` — pins whose required time was
          recomputed during backward propagation.
        * ``levelizations`` — full builds of the timing graph: the
          first query, and the first after each ``invalidate_all``
          barrier.  Structural edits update the graph in place and
          repair its levels locally; they count here only when a
          repair gives up (a combinational loop) and rebuilds.
        * ``flushes`` — dirty-set flushes, i.e. how many times a
          timing query actually found pending work.

        All counters are monotonic within a process and deterministic
        for a fixed seed and schedule; ``repro.obs`` spans report their
        per-invocation deltas.
        """
        return dict(self._stats)

    def reset_stats(self) -> None:
        """Zero every counter (the engine's caches are untouched)."""
        for key in self._stats:
            self._stats[key] = 0

    def arrival(self, pin: Pin) -> float:
        """Latest arrival time at ``pin`` (ps)."""
        self._flush()
        return self._arrival.get(pin, 0.0)

    def arrival_min(self, pin: Pin) -> float:
        """Earliest arrival time at ``pin`` (ps; early corner)."""
        self._flush()
        return self._arrival_min.get(pin, 0.0)

    def hold_slack(self, pin: Pin) -> float:
        """Hold slack at a register D pin (ps; +inf elsewhere).

        The earliest next-state data edge must not race through before
        the capture clock's hold window closes:
        ``arr_min(D) - (arr(CK) + t_hold)``.
        """
        cell = pin.cell
        if not (cell.is_sequential and pin.is_input
                and not pin.is_clock and not pin.is_scan):
            return INF
        self._flush()
        try:
            ck = cell.pin("CK")
        except KeyError:
            return INF
        return (self._arrival_min.get(pin, 0.0)
                - self._arrival.get(ck, 0.0)
                - self.constraints.hold_time)

    def worst_hold_slack(self) -> float:
        """Worst hold slack over register D pins (ps)."""
        self._flush()
        slacks = [self.hold_slack(p) for p in self._endpoint_pins()]
        finite = [s for s in slacks if s < INF]
        return min(finite) if finite else INF

    def required(self, pin: Pin) -> float:
        """Earliest required time at ``pin`` (ps; +inf if unconstrained)."""
        self._flush()
        return self._required.get(pin, INF)

    def slack(self, pin: Pin) -> float:
        """``required - arrival`` at ``pin``."""
        self._flush()
        return self._required.get(pin, INF) - self._arrival.get(pin, 0.0)

    def endpoints(self) -> List[Pin]:
        """All capture points: register D pins and primary output pins."""
        return list(self._endpoint_pins())

    def _endpoint_pins(self) -> List[Pin]:
        """The endpoint list, cached per timing-graph generation.

        Endpoints change only when cells come or go, and those events
        move the graph's generation on; callers must not mutate the
        returned list.
        """
        graph = self._graph
        gen = graph.generation if graph is not None else None
        cached = self._endpoint_cache
        if cached is not None and cached[0] == gen:
            return cached[1]
        out = []
        for cell in self.netlist.cells():
            if cell.is_sequential:
                try:
                    out.append(cell.pin("D"))
                except KeyError:
                    pass
            elif cell.is_port:
                out.extend(cell.input_pins())
        if gen is not None:
            self._endpoint_cache = (gen, out)
        return out

    def _endpoint_slack_list(self) -> List[float]:
        """Setup slack of every endpoint, in endpoint order (flushed)."""
        self._flush()
        req, arr = self._required, self._arrival
        return [req.get(p, INF) - arr.get(p, 0.0)
                for p in self._endpoint_pins()]

    def worst_slack(self) -> float:
        """Worst (most negative) endpoint slack (ps)."""
        self._flush()
        ak = self._akernel
        if ak is not None and ak.ready(self):
            return ak.worst_slack(self)
        finite = [s for s in self._endpoint_slack_list() if s < INF]
        return min(finite) if finite else INF

    def total_negative_slack(self) -> float:
        """Sum of negative endpoint slacks (ps, <= 0)."""
        self._flush()
        ak = self._akernel
        if ak is not None and ak.ready(self):
            return ak.total_negative_slack(self)
        return negative_slack_sum(self._endpoint_slack_list())

    def endpoint_slacks(self) -> Dict[str, float]:
        slacks = self._endpoint_slack_list()
        return {p.full_name: s
                for p, s in zip(self._endpoint_pins(), slacks)}

    def net_electrical(self, net: Net) -> NetElectrical:
        """The (cached) electrical view of a net."""
        elec = self._net_elec.get(net.name)
        if elec is None:
            elec = self.wire_model.analyze(net)
            self._net_elec[net.name] = elec
        return elec

    def net_slack(self, net: Net) -> float:
        """Worst slack over the net's pins (ignoring clock pins)."""
        self._flush()
        pins = [p for p in net.pins() if not p.is_clock]
        if not pins:
            return INF
        return min(self.slack(p) for p in pins)

    def invalidate_all(self) -> None:
        """Discard every cached timing value and electrical view.

        The next query re-times the whole design from the current
        netlist state and rebuilds the timing graph.  Use after
        out-of-band changes the event bus did not carry — constraint
        swaps (SDC reload), virtual-resize staleness barriers, or a
        design state restored from disk.
        """
        self._graph = None
        self._mark_all_dirty()

    def set_mode(self, mode: DelayMode) -> None:
        """Switch delay model; dirties every pin (a global re-time)."""
        if mode is self.mode:
            return
        self.mode = mode
        self._mark_all_dirty()

    def set_wire_model(self, wire_model: WireModel) -> None:
        """Swap the net-delay calculator (e.g. WLM -> Steiner).

        The paper registers wire models as net-delay calculators in the
        incremental engine; swapping re-times the whole design.
        """
        self.wire_model = wire_model
        self._mark_all_dirty()

    def gate_delay(self, cell: Cell, out_pin: Pin) -> float:
        """Delay through ``cell`` to ``out_pin`` under the current mode."""
        if self.mode is DelayMode.GAIN:
            gain = cell.gain if cell.gain is not None else self.default_gain
            t = cell.gate_type
            return TAU * (t.parasitic + t.logical_effort * gain)
        load = 0.0
        if out_pin.net is not None:
            load = self.net_electrical(out_pin.net).total_cap
        return cell.size.delay(load)

    # ------------------------------------------------------------------
    # Dirty management (netlist events)
    # ------------------------------------------------------------------

    def _mark_all_dirty(self) -> None:
        self._net_elec.clear()
        # Drop the cached values too, not just the dirty marks: the
        # flush damping keeps an old value when the recomputed one is
        # within tolerance, so surviving caches would make the global
        # re-time depend on flush history.  A barrier must leave the
        # engine bit-identical to a freshly restored process.
        self._arrival.clear()
        self._arrival_min.clear()
        self._required.clear()
        self._dirty_arr = set()
        self._dirty_req = set()
        if self._akernel is not None:
            self._akernel.drop()
        for cell in self.netlist.cells():
            for pin in cell.pins():
                self._dirty_arr.add(pin)
                self._dirty_req.add(pin)

    def _touch_net(self, net: Net) -> None:
        """A net's wire or load changed: dirty the affected frontier."""
        self._net_elec.pop(net.name, None)
        if self._akernel is not None:
            self._akernel.net_touched(net)
        driver = net.driver()
        if driver is not None:
            # driver's output arrival (gate delay sees new load) and
            # its required (wire delays to sinks changed) ...
            self._dirty_arr.add(driver)
            self._dirty_req.add(driver)
            # ... and the driving cell's input requireds (gate delay
            # changed even if the output's required did not).
            for p in driver.cell.input_pins():
                self._dirty_req.add(p)
        for sink in net.sinks():
            self._dirty_arr.add(sink)

    def _touch_cell_nets(self, cell: Cell) -> None:
        for pin in cell.pins():
            if pin.net is not None:
                self._touch_net(pin.net)

    def on_cell_moved(self, cell: Cell, old_position) -> None:
        self._touch_cell_nets(cell)

    def on_cell_resized(self, cell: Cell, old_size: GateSize) -> None:
        # Input caps changed -> upstream nets see new loads; drive
        # changed -> this cell's own arcs change.
        if self._akernel is not None:
            self._akernel.cell_resized(cell)
        self._touch_cell_nets(cell)
        for p in cell.output_pins():
            self._dirty_arr.add(p)
        for p in cell.input_pins():
            self._dirty_req.add(p)

    def on_connect(self, pin: Pin, net: Net) -> None:
        if self._graph is not None:
            self._graph.connect(pin, net)
        self._touch_net(net)
        self._dirty_arr.add(pin)
        self._dirty_req.add(pin)

    def on_disconnect(self, pin: Pin, net: Net) -> None:
        if self._graph is not None:
            self._graph.disconnect(pin, net)
        self._touch_net(net)
        self._dirty_arr.add(pin)
        self._dirty_req.add(pin)

    def on_cell_added(self, cell: Cell) -> None:
        if self._graph is not None:
            self._graph.add_cell(cell)
        for pin in cell.pins():
            self._dirty_arr.add(pin)
            self._dirty_req.add(pin)

    def on_cell_removed(self, cell: Cell) -> None:
        if self._graph is not None:
            self._graph.remove_cell(cell)
        for pin in cell.pins():
            self._arrival.pop(pin, None)
            self._arrival_min.pop(pin, None)
            self._required.pop(pin, None)
            self._dirty_arr.discard(pin)
            self._dirty_req.discard(pin)

    def on_net_removed(self, net: Net) -> None:
        if self._graph is not None:
            self._graph.touch()
        self._net_elec.pop(net.name, None)

    def on_net_added(self, net: Net) -> None:
        if self._graph is not None:
            self._graph.touch()

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def graph(self) -> TimingGraph:
        """The timing graph with its levels up to date.

        Built on first use (and after ``invalidate_all``); afterwards
        the event handlers edit it in place and this repairs its
        levels.  A combinational loop raises here, as a fresh build
        would, and leaves no graph behind.
        """
        graph = self._graph
        if graph is not None and not graph.stale:
            return graph
        _p0 = profile.begin()
        try:
            if graph is None or not graph.repair():
                self._graph = None
                self._stats["levelizations"] += 1
                graph = self._graph = TimingGraph(self.netlist)
        finally:
            profile.end("timing.graph", _p0)
        return graph

    def _flush(self) -> None:
        if not self._dirty_arr and not self._dirty_req:
            return
        self._stats["flushes"] += 1
        graph = self.graph()
        # one sta.sweep = one non-trivial flush, whichever core runs it
        _p0 = profile.begin()
        if self._akernel is not None:
            # the array core picks heap or levelized sweep per flush
            self._akernel.flush(self, graph)
        else:
            self._flush_arrivals(graph)
            self._flush_requireds(graph)
        profile.end("sta.sweep", _p0)

    def _flush_arrivals(self, graph: TimingGraph,
                        changed: Optional[Set[Pin]] = None) -> None:
        """Heap-drain the arrival dirty set; pins whose stored values
        move are also added to ``changed`` when one is given."""
        heap: List[Tuple[int, int, Pin]] = [
            (graph.level_of(p), next(self._counter), p)
            for p in self._dirty_arr
        ]
        heapq.heapify(heap)
        while heap:
            _lvl, _n, pin = heapq.heappop(heap)
            if pin not in self._dirty_arr:
                continue
            self._dirty_arr.discard(pin)
            new = self._compute_arrival(pin)
            new_min = self._compute_arrival(pin, early=True)
            self._stats["arrival_recomputes"] += 1
            old = self._arrival.get(pin)
            old_min = self._arrival_min.get(pin)
            if (old is not None and abs(new - old) <= _EPS
                    and old_min is not None
                    and abs(new_min - old_min) <= _EPS):
                continue
            self._stats["arrival_changes"] += 1
            self._arrival[pin] = new
            self._arrival_min[pin] = new_min
            if changed is not None:
                changed.add(pin)
            for dst, _kind in graph.fanout_arcs(pin):
                if dst not in self._dirty_arr:
                    self._dirty_arr.add(dst)
                    heapq.heappush(
                        heap, (graph.level_of(dst), next(self._counter), dst))
            # Capture dependency: register D required reads arr(CK).
            if pin.is_clock and pin.cell.is_sequential:
                for d in pin.cell.input_pins():
                    if not d.is_clock:
                        self._dirty_req.add(d)

    def _flush_requireds(self, graph: TimingGraph,
                         changed: Optional[Set[Pin]] = None) -> None:
        """Heap-drain the required dirty set (see _flush_arrivals)."""
        heap: List[Tuple[int, int, Pin]] = [
            (-graph.level_of(p), next(self._counter), p)
            for p in self._dirty_req
        ]
        heapq.heapify(heap)
        while heap:
            _lvl, _n, pin = heapq.heappop(heap)
            if pin not in self._dirty_req:
                continue
            self._dirty_req.discard(pin)
            new = self._compute_required(pin)
            self._stats["required_recomputes"] += 1
            old = self._required.get(pin)
            if old is not None and (
                (math.isinf(new) and math.isinf(old) and new == old)
                or abs(new - old) <= _EPS
            ):
                continue
            self._required[pin] = new
            if changed is not None:
                changed.add(pin)
            for src, _kind in graph.fanin_arcs(pin):
                if src not in self._dirty_req:
                    self._dirty_req.add(src)
                    heapq.heappush(
                        heap, (-graph.level_of(src), next(self._counter), src))

    # -- node equations --------------------------------------------------

    def _compute_arrival(self, pin: Pin, early: bool = False) -> float:
        """Latest (or, with ``early``, earliest-corner) arrival."""
        values = self._arrival_min if early else self._arrival
        scale = self.early_factor if early else 1.0
        pick = min if early else max
        cell = pin.cell
        if pin.is_output:
            if cell.is_port:
                arrival = self.constraints.input_arrival(cell.name)
                if pin.net is not None and self.mode is DelayMode.LOAD:
                    load = self.net_electrical(pin.net).total_cap
                    arrival += (self.port_drive_resistance * load
                                * scale)
                return arrival
            arcs = self.graph().fanin_arcs(pin)
            cell_arcs = [(src, k) for src, k in arcs if k == "cell"]
            if not cell_arcs:
                return 0.0
            delay = self.gate_delay(cell, pin) * scale
            return pick(
                values.get(src, 0.0) + delay * src.spec.delay_factor
                for src, _ in cell_arcs
            )
        # input pin: wire arc from its net's driver
        net = pin.net
        if net is None:
            return 0.0
        driver = net.driver()
        if driver is None:
            return 0.0
        wire = self.net_electrical(net).delay_to(pin.full_name) * scale
        return values.get(driver, 0.0) + wire

    def _compute_required(self, pin: Pin) -> float:
        cell = pin.cell
        if pin.is_input:
            if cell.is_sequential and not pin.is_clock and not pin.is_scan:
                # Capture endpoint: setup check against the capture
                # clock edge one cycle later.
                try:
                    ck = cell.pin("CK")
                    clk_arr = self._arrival.get(ck, 0.0)
                except KeyError:
                    clk_arr = 0.0
                return (self.constraints.cycle_time + clk_arr
                        - self.constraints.setup_time)
            if cell.is_port:
                return self.constraints.output_required(cell.name)
            arcs = self.graph().fanout_arcs(pin)
            cell_arcs = [(dst, k) for dst, k in arcs if k == "cell"]
            if not cell_arcs:
                return INF
            best = INF
            for dst, _k in cell_arcs:
                req = self._required.get(dst, INF)
                if req == INF:
                    continue
                best = min(best, req - self.gate_delay(cell, dst)
                           * pin.spec.delay_factor)
            return best
        # output pin: back through net arcs
        net = pin.net
        if net is None:
            return INF
        elec = self.net_electrical(net)
        best = INF
        for sink in net.sinks():
            req = self._required.get(sink, INF)
            if req == INF:
                continue
            best = min(best, req - elec.delay_to(sink.full_name))
        return best
