"""The relocation transport is the exact min-cost flow of its network.

Circuit relocation's network has one source (the target bin), zero-cost
sinks (every other bin's free area quanta) and uncapacitated unit-cost
grid edges, so its optimum fills the nearest free bins first.  These
tests craft free-area maps on a bin grid and check the solve against
that optimum computed independently: flow conservation, shortest
paths, optimal cost, nearest-first choice and a deterministic
tie-break.
"""

import math
import random

import pytest

from repro.placement import CircuitRelocation
from repro.placement.relocation import _AREA_UNIT


def craft(design, nx, ny, free_of):
    """Resize the grid and give bin (ix, iy) ``free_of(ix, iy)`` free
    area; only the solve reads it, so the cells stay where they are."""
    grid = design.grid
    grid.resize(nx, ny)
    for b in grid.bins():
        b.area_used = b.effective_capacity - free_of(b.ix, b.iy)
    return grid


def received(flow):
    """Net inflow per bin index (the quanta each sink absorbed)."""
    net = {}
    for (u, v), quanta in flow.items():
        net[u] = net.get(u, 0) - quanta
        net[v] = net.get(v, 0) + quanta
    return net


def hops(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def optimum(grid, target, supply):
    """Min transport cost by brute force: cheapest quanta first."""
    offers = sorted(
        (hops((b.ix, b.iy), (target.ix, target.iy)),
         int(b.free_area / _AREA_UNIT))
        for b in grid.bins()
        if b is not target and b.free_area > 0)
    cost, left = 0, supply
    for dist, absorb in offers:
        take = min(absorb, left)
        cost += dist * take
        left -= take
    return cost if left == 0 else None


@pytest.mark.parametrize("seed", range(12))
def test_transport_is_optimal(tiny_design, seed):
    rng = random.Random(seed)
    nx, ny = rng.randint(2, 9), rng.randint(2, 9)
    grid = craft(tiny_design, nx, ny, lambda ix, iy: rng.choice(
        [-40.0, 0.0, 0.0, 10.0, 16.0, 40.0, 100.0, 333.0]))
    target = grid.bin(rng.randrange(nx), rng.randrange(ny))
    deficit = rng.uniform(1.0, 900.0)
    supply = int(math.ceil(deficit / _AREA_UNIT))
    reloc = CircuitRelocation(tiny_design)
    flow = reloc._solve_flow(target, deficit)
    best = optimum(grid, target, supply)
    if best is None:
        assert flow is None
        return
    root = (target.ix, target.iy)
    net = received(flow)
    # conservation: the target ships the supply, sinks keep at most
    # their free quanta, relays pass everything on
    assert net.pop(root, 0) == -supply
    for node, quanta in net.items():
        assert quanta >= 0
        if quanta:
            assert quanta <= int(grid.bin(*node).free_area / _AREA_UNIT)
    for (u, v), quanta in flow.items():
        assert quanta > 0 and hops(u, v) == 1
    # every quantum travels a shortest path, and the total is optimal
    cost = sum(flow.values())
    assert cost == sum(q * hops(node, root) for node, q in net.items())
    assert cost == best
    # nearest first: no unchosen absorbing bin is strictly nearer
    # than a chosen one
    chosen = [node for node, q in net.items() if q > 0]
    far = max(hops(node, root) for node in chosen)
    for b in grid.bins():
        node = (b.ix, b.iy)
        if (b is not target and int(b.free_area / _AREA_UNIT) > 0
                and node not in chosen):
            assert hops(node, root) >= far
    # deterministic, edges listed by source bin then neighbour order
    assert list(reloc._solve_flow(target, deficit).items()) \
        == list(flow.items())
    assert list(flow) == sorted(flow, key=lambda e: (
        e[0], [(n.ix, n.iy) for n in grid.neighbors(grid.bin(*e[0]))]
        .index(e[1])))


def test_ties_go_to_the_first_discovered_bin(tiny_design):
    # every neighbour of the centre has room for the whole supply
    grid = craft(tiny_design, 5, 5, lambda ix, iy: 64.0)
    target = grid.bin(2, 2)
    flow = CircuitRelocation(tiny_design)._solve_flow(target, 32.0)
    # grid.neighbors lists (+1, 0) first
    assert flow == {((2, 2), (3, 2)): 2}
    # two hops out, (3, 2)'s own first neighbour is reached first and
    # the path runs through its first discoverer
    grid = craft(tiny_design, 5, 5, lambda ix, iy: 64.0
                 if abs(ix - 2) + abs(iy - 2) == 2 else 0.0)
    flow = CircuitRelocation(tiny_design)._solve_flow(target, 32.0)
    assert flow == {((2, 2), (3, 2)): 2, ((3, 2), (4, 2)): 2}


def test_infeasible_supply_returns_none(tiny_design):
    grid = craft(tiny_design, 3, 3, lambda ix, iy: 20.0)
    flow = CircuitRelocation(tiny_design)._solve_flow(
        grid.bin(1, 1), 20.0 * 8 + 100.0)
    assert flow is None
