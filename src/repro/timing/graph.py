"""The timing graph: pins as nodes, net and cell arcs as edges.

Arcs:

* **net arcs** — driver pin -> each sink pin, delay = wire delay;
* **cell arcs** — input pin -> output pin through combinational cells
  (and buffers / clock buffers), delay = gate delay;
* **sequential cells** contribute only a CK -> Q arc (clock-to-out);
  the D pin is a capture endpoint checked against the clock arrival.

The graph is a pure structural view; arrival/required values live in
the engine, not here.  It is built once and then maintained in place:
the engine forwards each connectivity event (``connect``,
``disconnect``, ``add_cell``, ``remove_cell``) and the arc lists are
edited at once, in the same order a fresh build would produce.  The
longest-path levels are repaired lazily, by :meth:`TimingGraph.repair`
at the next query, from the pins whose fanin changed: a changed level
re-evaluates its fanout, so a raise travels up the fanout cone and a
removal lowers levels recomputed from fanin, and the repaired levels
equal a fresh levelization exactly.  ``generation`` changes with every
structural event, so caches keyed on it retire with the structure they
were derived from.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Dict, Iterable, List, Tuple

from repro.netlist.cell import Cell, Pin
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist

#: process-wide source of graph generations: no two structural states
#: of any two graphs share a number
_generations = itertools.count(1)


class CombinationalLoopError(Exception):
    """Raised when the netlist contains a combinational cycle."""

    def __init__(self, pins: List[Pin]) -> None:
        self.pins = pins
        names = ", ".join(p.full_name for p in pins[:8])
        more = "" if len(pins) <= 8 else " (+%d more)" % (len(pins) - 8)
        super().__init__("combinational loop through: %s%s" % (names, more))


def cell_arcs(cell: Cell) -> List[Tuple[Pin, Pin]]:
    """The (input, output) timing arcs through one cell."""
    if cell.is_port:
        return []
    if cell.is_sequential:
        try:
            ck = cell.pin("CK")
            q = cell.pin("Q")
        except KeyError:
            return []
        return [(ck, q)]
    outs = cell.output_pins()
    return [(i, o) for i in cell.input_pins() for o in outs]


class TimingGraph:
    """Fanin/fanout arc maps plus a longest-path levelization."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        #: pin id -> list of (src_pin, kind); kind in {"net", "cell"}
        self.fanin: Dict[int, List[Tuple[Pin, str]]] = {}
        #: pin id -> list of (dst_pin, kind)
        self.fanout: Dict[int, List[Tuple[Pin, str]]] = {}
        self.level: Dict[int, int] = {}
        self._pins: Dict[int, Pin] = {}
        #: pins whose fanin changed since the last level repair
        self._seeds: Dict[int, Pin] = {}
        self.generation = next(_generations)
        self._build()

    # -- construction --------------------------------------------------

    def _register(self, pin: Pin) -> None:
        pid = id(pin)
        if pid not in self._pins:
            self._pins[pid] = pin
            self.fanin[pid] = []
            self.fanout[pid] = []
            self._seeds[pid] = pin

    def _add_arc(self, src: Pin, dst: Pin, kind: str) -> None:
        self._register(src)
        self._register(dst)
        self.fanin[id(dst)].append((src, kind))
        self.fanout[id(src)].append((dst, kind))
        self._seeds[id(dst)] = dst

    def _build(self) -> None:
        for cell in self.netlist.cells():
            for pin in cell.pins():
                self._register(pin)
            for src, dst in cell_arcs(cell):
                self._add_arc(src, dst, "cell")
        for net in self.netlist.nets():
            driver = net.driver()
            if driver is None:
                continue
            for sink in net.sinks():
                self._add_arc(driver, sink, "net")
        self._seeds.clear()
        self._levelize()

    def _levelize(self) -> None:
        """Longest-path levels via Kahn; detects combinational loops."""
        indeg = {pid: len(arcs) for pid, arcs in self.fanin.items()}
        queue = deque(pid for pid, d in indeg.items() if d == 0)
        self.level = {pid: 0 for pid in queue}
        done = 0
        while queue:
            pid = queue.popleft()
            done += 1
            lvl = self.level[pid]
            for dst, _kind in self.fanout[pid]:
                did = id(dst)
                if self.level.get(did, -1) < lvl + 1:
                    self.level[did] = lvl + 1
                indeg[did] -= 1
                if indeg[did] == 0:
                    queue.append(did)
        if done != len(self._pins):
            stuck = [self._pins[pid] for pid, d in indeg.items() if d > 0]
            raise CombinationalLoopError(stuck)

    # -- in-place maintenance ---------------------------------------------

    @property
    def stale(self) -> bool:
        """True while levels await :meth:`repair`."""
        return bool(self._seeds)

    def touch(self) -> None:
        """Start a new generation; called alone when a net comes or
        goes, which moves no arc."""
        self.generation = next(_generations)

    def _drop_arc(self, src: Pin, dst: Pin, kind: str) -> None:
        self.fanout[id(src)].remove((dst, kind))
        self.fanin[id(dst)].remove((src, kind))
        self._seeds[id(dst)] = dst

    def add_cell(self, cell: Cell) -> None:
        """Register a new cell's pins and its cell arcs."""
        for pin in cell.pins():
            self._register(pin)
        for src, dst in cell_arcs(cell):
            self._add_arc(src, dst, "cell")
        self.touch()

    def remove_cell(self, cell: Cell) -> None:
        """Forget a removed cell's pins and every arc touching them."""
        for pin in cell.pins():
            pid = id(pin)
            if pid not in self._pins:
                continue
            for src, kind in list(self.fanin[pid]):
                self._drop_arc(src, pin, kind)
            for dst, kind in list(self.fanout[pid]):
                self._drop_arc(pin, dst, kind)
            del self._pins[pid], self.fanin[pid], self.fanout[pid]
            self.level.pop(pid, None)
            self._seeds.pop(pid, None)
        self.touch()

    def connect(self, pin: Pin, net: Net) -> None:
        """``pin`` joined ``net``: add the net arcs it completes."""
        if pin.is_output:
            for sink in net.sinks():
                self._add_arc(pin, sink, "net")
        elif pin.is_input:
            driver = net.driver()
            if driver is not None:
                self._add_arc(driver, pin, "net")
        self.touch()

    def disconnect(self, pin: Pin, net: Net) -> None:
        """``pin`` left ``net``: drop the net arcs through it."""
        pid = id(pin)
        if pid in self._pins:
            for src, kind in list(self.fanin[pid]):
                if kind == "net":
                    self._drop_arc(src, pin, kind)
            for dst, kind in list(self.fanout[pid]):
                if kind == "net":
                    self._drop_arc(pin, dst, kind)
        self.touch()

    def repair(self) -> bool:
        """Bring the levels up to date with the arcs; False if it gave up.

        Seeds are re-evaluated from their fanin and every pin whose
        level moves re-queues its fanout, lowest tentative level first,
        until nothing moves.  The fixpoint of ``level = 1 + max(fanin
        levels)`` is unique on a DAG, so the result is the exact
        longest-path levelization.  A loop has no fixpoint: the work is
        capped at a multiple of the pin count, and past it the caller
        rebuilds, which raises :class:`CombinationalLoopError`.
        """
        seeds, self._seeds = self._seeds, {}
        level, fanin, fanout = self.level, self.fanin, self.fanout
        order = itertools.count()
        heap = [(level.get(pid, 0), next(order), pid) for pid in seeds]
        heapq.heapify(heap)
        queued = set(seeds)
        budget = 2 * len(self._pins) + len(seeds)
        while heap:
            budget -= 1
            if budget < 0:
                return False
            _key, _n, pid = heapq.heappop(heap)
            queued.discard(pid)
            new = 0
            for src, _kind in fanin[pid]:
                lvl = level.get(id(src), 0) + 1
                if lvl > new:
                    new = lvl
            if level.get(pid) == new:
                continue
            level[pid] = new
            for dst, _kind in fanout[pid]:
                did = id(dst)
                if did not in queued:
                    queued.add(did)
                    heapq.heappush(heap, (new + 1, next(order), did))
        return True

    # -- queries ---------------------------------------------------------

    def pins(self) -> Iterable[Pin]:
        return self._pins.values()

    def level_of(self, pin: Pin) -> int:
        return self.level.get(id(pin), 0)

    def fanin_arcs(self, pin: Pin) -> List[Tuple[Pin, str]]:
        return self.fanin.get(id(pin), [])

    def fanout_arcs(self, pin: Pin) -> List[Tuple[Pin, str]]:
        return self.fanout.get(id(pin), [])

    @property
    def num_pins(self) -> int:
        return len(self._pins)

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self.fanin.values())

    def max_level(self) -> int:
        return max(self.level.values(), default=0)
