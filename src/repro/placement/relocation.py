"""Circuit relocation (section 4.6): min-cost space creation.

"A mincost network optimization algorithm ... determines the best
combination of bin to bin cell moves that frees the local area for
timing optimizations."  The bin grid becomes a flow network: the
target bin supplies the area it must shed, bins with free capacity
absorb it, and flow travels over bin adjacency at unit cost per hop.
Realising the flow moves *non-critical* movable cells one hop at a
time, so critical logic is never disturbed.

The network has a single source, zero-cost sinks and uncapacitated
unit-cost edges, so every quantum independently pays the hop distance
to the bin that absorbs it.  The min-cost flow is therefore a
transportation along a breadth-first search tree rooted at the target:
absorbing bins are filled in BFS visit order (nondecreasing distance)
until the supply is met, and each one's quanta travel back along its
tree path.  Ties are broken by the BFS itself: neighbours are expanded
in ``grid.neighbors`` order and a bin's parent is its first
discoverer, so the solution is deterministic.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro import _profile as profile
from repro.design import Design
from repro.geometry import Point
from repro.image.bins import Bin
from repro.netlist.cell import Cell

#: Flow quantum in track^2 (one minimum-inverter of area).
_AREA_UNIT = 16.0


class CircuitRelocation:
    """Frees area in a bin by min-cost-flow cell migration.

    Either called as a stand-alone transform or from within another
    transform (cloning, buffering) to explicitly create space in a
    certain bin.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        #: (cell, old position) log of the last make_space call, so a
        #: calling transform can roll everything back on rejection.
        self.journal: List[Tuple[Cell, Point]] = []

    def make_space(self, target: Bin, area_needed: float,
                   protect: Optional[Set[str]] = None) -> bool:
        """Try to free ``area_needed`` track^2 in ``target``.

        ``protect`` names cells that must not move (the critical
        region).  Returns True if the bin ends with at least that much
        free area.
        """
        protect = protect or set()
        self.journal = []
        if target.free_area >= area_needed:
            return True
        deficit = area_needed - target.free_area
        _p0 = profile.begin()
        flow = self._solve_flow(target, deficit)
        profile.end("relocation.solve", _p0)
        if flow is None:
            return False
        self._realize_flow(flow, protect)
        return target.free_area >= area_needed - 1e-6

    def undo(self) -> int:
        """Roll back every move of the last ``make_space`` call."""
        count = 0
        for cell, old in reversed(self.journal):
            if cell.netlist is self.design.netlist:
                self.design.netlist.move_cell(cell, old)
                count += 1
        self.journal = []
        return count

    # -- flow model ----------------------------------------------------

    def _solve_flow(self, target: Bin,
                    deficit: float) -> Optional[Dict[Tuple, int]]:
        """Min-cost flow of area quanta from ``target`` to free bins.

        Returns ``{(u, v): quanta}`` over bin-index pairs, ordered by
        ``u`` in ``grid.bins()`` order and then ``v`` in neighbour
        order, or None when the free area cannot absorb the supply.
        """
        grid = self.design.grid
        supply = int(math.ceil(deficit / _AREA_UNIT))
        root = (target.ix, target.iy)
        parent: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {
            root: None}
        queue = deque([target])
        sinks: List[Tuple[Tuple[int, int], int]] = []
        left = supply
        while queue and left > 0:
            b = queue.popleft()
            if b is not target and b.free_area > 0:
                absorb = int(b.free_area / _AREA_UNIT)
                if absorb > 0:
                    take = min(absorb, left)
                    sinks.append(((b.ix, b.iy), take))
                    left -= take
            for nb in grid.neighbors(b):
                node = (nb.ix, nb.iy)
                if node not in parent:
                    parent[node] = (b.ix, b.iy)
                    queue.append(nb)
        if left > 0:
            return None
        edges: Dict[Tuple, int] = {}
        for node, quanta in sinks:
            while parent[node] is not None:
                edge = (parent[node], node)
                edges[edge] = edges.get(edge, 0) + quanta
                node = parent[node]

        def rank(edge):
            # grid.bins() runs over ix then iy, i.e. tuple order
            u, v = edge[0]
            around = [(nb.ix, nb.iy) for nb in grid.neighbors(grid.bin(*u))]
            return u, around.index(v)

        return dict(sorted(edges.items(), key=rank))

    # -- flow realisation ------------------------------------------------

    def _realize_flow(self, flow: Dict[Tuple, int],
                      protect: Set[str]) -> None:
        """Move non-critical cells along flow edges, one hop each.

        Edges are processed in order of remaining outflow so relay bins
        receive cells before they must pass area on.
        """
        grid = self.design.grid
        netlist = self.design.netlist
        remaining = dict(flow)
        # Sweep repeatedly: relay bins must receive cells before they
        # can pass area on, so an edge may only make progress on a
        # later sweep.  Stop when a full sweep moves nothing.
        while remaining:
            progressed = False
            for (u, v), quanta in list(remaining.items()):
                src = grid.bin(*u)
                dst = grid.bin(*v)
                budget = quanta * _AREA_UNIT
                candidates = sorted(
                    (c for c in src.cells
                     if c.is_movable and c.name not in protect),
                    key=lambda c: (-c.area, c.name),
                )
                moved_area = 0.0
                for cell in candidates:
                    if moved_area >= budget - 1e-9:
                        break
                    if cell.area <= budget - moved_area + _AREA_UNIT / 2:
                        self.journal.append((cell, cell.position))
                        netlist.move_cell(cell, dst.center)
                        moved_area += cell.area
                if moved_area <= 0:
                    continue
                progressed = True
                used = max(1, int(round(moved_area / _AREA_UNIT)))
                if quanta - used <= 0:
                    remaining.pop((u, v), None)
                else:
                    remaining[(u, v)] = quanta - used
            if not progressed:
                break
