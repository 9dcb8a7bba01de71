"""Incremental Steiner tree cache.

"The Steiner tree gets dynamically re-calculated when gate positions
change as well as when new cells are created or old ones deleted"
(section 3).  The cache subscribes to netlist events and invalidates
only the nets touched by a change; trees are rebuilt lazily on the next
query.

Behind the per-net cache sits a bounded memo keyed on geometry: the
ordered tuple of a net's placed pin positions.  Try-then-undo
transforms move cells back, so most invalidated nets are re-queried
over a point set already built earlier in the flow; ``build_steiner``
is a pure function of that tuple, so a memo hit is bit-identical to a
rebuild.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.geometry import Point
from repro.netlist.cell import Cell, Pin
from repro.netlist.net import Net
from repro.netlist.netlist import Netlist, NetlistListener
from repro.wirelength.rent import RentEstimator
from repro.wirelength.steiner import SteinerTree, build_steiner

#: Most point sets the geometry memo keeps per design (0 turns it
#: off).  A TPS flow on Des1 at scale 0.05 builds 3.5-4.5k distinct
#: sets; beyond the cap the oldest entry is evicted first.
MEMO_ENTRIES = 8192


class SteinerCache(NetlistListener):
    """Lazily maintained Steiner trees for every net of a netlist.

    ``bin_side`` plus a ``RentEstimator`` adds an intra-bin correction
    for pins whose positions coincide (they share a bin early in the
    flow); set ``bin_side`` to 0 to disable.
    """

    def __init__(self, netlist: Netlist,
                 rent: Optional[RentEstimator] = None) -> None:
        self.netlist = netlist
        self.rent = rent
        self.bin_side = 0.0
        self._trees: Dict[str, SteinerTree] = {}
        #: ordered placed-point tuple -> tree, insertion (FIFO) order
        self._memo: Dict[Tuple[Point, ...], SteinerTree] = {}
        self._hits = 0
        self._misses = 0
        self._memo_hits = 0
        netlist.add_listener(self)

    # -- queries -------------------------------------------------------

    def tree(self, net: Net) -> SteinerTree:
        """The Steiner tree over the net's placed pins (cached)."""
        cached = self._trees.get(net.name)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        key = tuple(net.placed_points())
        tree = self._memo.get(key)
        if tree is None:
            tree = build_steiner(key)
            if MEMO_ENTRIES:
                if len(self._memo) >= MEMO_ENTRIES:
                    del self._memo[next(iter(self._memo))]
                self._memo[key] = tree
        else:
            self._memo_hits += 1
        self._trees[net.name] = tree
        return tree

    def length(self, net: Net) -> float:
        """Estimated wire length of the net (tracks).

        Steiner length over distinct pin positions, plus the Rent-rule
        intra-bin correction for co-located pins when configured.
        """
        tree = self.tree(net)
        total = tree.length
        if self.rent is not None and self.bin_side > 0:
            colocated = len(net.placed_points()) - tree.num_terminals
            if colocated > 0:
                total += self.rent.intrabin_length(
                    self.bin_side, colocated + 1)
        return total

    def total_length(self) -> float:
        """Sum of estimated lengths over all nets."""
        return sum(self.length(n) for n in self.netlist.nets())

    @property
    def stats(self) -> Dict[str, int]:
        """``hits``/``misses`` of the per-net cache; ``memo_hits`` are
        the misses the geometry memo served without a build."""
        return {"hits": self._hits, "misses": self._misses,
                "memo_hits": self._memo_hits,
                "cached": len(self._trees)}

    def set_bin_side(self, side: float) -> None:
        """Update the intra-bin Rent correction scale (on refinement).

        Invalidate everything: the correction applies per-net.
        """
        if side != self.bin_side:
            self.bin_side = side

    # -- invalidation (netlist events) ----------------------------------

    def invalidate_net(self, net: Net) -> None:
        self._trees.pop(net.name, None)

    def invalidate_all(self) -> None:
        self._trees.clear()

    def _invalidate_cell_nets(self, cell: Cell) -> None:
        for pin in cell.pins():
            if pin.net is not None:
                self._trees.pop(pin.net.name, None)

    def on_cell_moved(self, cell: Cell, old_position) -> None:
        self._invalidate_cell_nets(cell)

    def on_connect(self, pin: Pin, net: Net) -> None:
        self._trees.pop(net.name, None)

    def on_disconnect(self, pin: Pin, net: Net) -> None:
        self._trees.pop(net.name, None)

    def on_net_removed(self, net: Net) -> None:
        self._trees.pop(net.name, None)
