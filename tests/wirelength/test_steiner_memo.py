"""The Steiner cache's geometry memo: bit-identical, bounded, and paid
for by fewer builds rather than different results."""

from repro import _profile as profile
from repro.geometry import Point
from repro.netlist import Netlist
from repro.scenario import TPSConfig, TPSScenario
from repro.wirelength import SteinerCache, cache as cache_module
from repro.wirelength.steiner import build_steiner
from repro.workloads.presets import build_des_design


def fanout_net(library, sinks=4):
    nl = Netlist()
    drv = nl.add_cell("drv", library.smallest("INV"), position=Point(0, 0))
    net = nl.add_net("n")
    nl.connect(drv.pin("Z"), net)
    for i in range(sinks):
        s = nl.add_cell("s%d" % i, library.smallest("INV"),
                        position=Point(10.0 * (i + 1), 7.0 * (i % 3)))
        nl.connect(s.pin("A"), net)
    return nl, net, drv


def same_tree(a, b):
    return (a.points == b.points and a.edges == b.edges
            and a.num_terminals == b.num_terminals)


def test_memo_hit_equals_a_fresh_build(library):
    nl, net, drv = fanout_net(library)
    cache = SteinerCache(nl)
    first = cache.tree(net)
    nl.move_cell(drv, Point(55.0, 42.0))
    moved = cache.tree(net)
    nl.move_cell(drv, Point(0, 0))  # back: the memo serves this one
    again = cache.tree(net)
    assert cache.stats["memo_hits"] == 1
    assert cache.stats["misses"] == 3
    assert again is first
    assert same_tree(again, build_steiner(net.placed_points()))
    assert not same_tree(moved, first)


def test_memo_is_bounded_oldest_first(library, monkeypatch):
    monkeypatch.setattr(cache_module, "MEMO_ENTRIES", 3)
    nl, net, drv = fanout_net(library)
    cache = SteinerCache(nl)
    spots = [Point(float(x), 1.0) for x in range(6)]
    for p in spots:
        nl.move_cell(drv, p)
        assert same_tree(cache.tree(net),
                         build_steiner(net.placed_points()))
        assert len(cache._memo) <= 3
    nl.move_cell(drv, spots[-1])  # no move: still the cached tree
    nl.move_cell(drv, spots[-2])  # memoized
    cache.tree(net)
    nl.move_cell(drv, spots[0])  # evicted long ago: built again
    cache.tree(net)
    assert cache.stats["memo_hits"] == 1
    assert len(cache._memo) == 3


def test_memo_off_builds_every_miss(library, monkeypatch):
    monkeypatch.setattr(cache_module, "MEMO_ENTRIES", 0)
    nl, net, drv = fanout_net(library)
    cache = SteinerCache(nl)
    for p in (Point(1, 1), Point(2, 2), Point(1, 1)):
        nl.move_cell(drv, p)
        cache.tree(net)
    assert cache.stats["memo_hits"] == 0
    assert not cache._memo


def _tps(library):
    design = build_des_design("Des1", library, scale=0.05)
    profile.reset()
    TPSScenario(design, TPSConfig(seed=1)).run()
    builds = profile.counters()["steiner.build.calls"]
    return design, builds


def test_des1_flow_builds_fewer_trees_with_equal_results(library,
                                                         monkeypatch):
    was = profile.enabled()
    profile.enable(True)
    try:
        memo, memo_builds = _tps(library)
        monkeypatch.setattr(cache_module, "MEMO_ENTRIES", 0)
        plain, plain_builds = _tps(library)
    finally:
        profile.enable(was)
    # the per-net cache misses exactly as often: the memo only serves
    # them, and the flow takes the same decisions
    assert memo.steiner.stats["misses"] == plain.steiner.stats["misses"]
    assert plain_builds == plain.steiner.stats["misses"]
    assert memo_builds == (memo.steiner.stats["misses"]
                           - memo.steiner.stats["memo_hits"])
    assert memo_builds * 2 < plain_builds
    assert memo.worst_slack() == plain.worst_slack()
    assert memo.total_wirelength() == plain.total_wirelength()
    assert memo.total_cell_area() == plain.total_cell_area()
