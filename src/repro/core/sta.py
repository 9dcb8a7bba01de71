"""Array kernel for the incremental STA frontier sweep.

The object-graph engine (:mod:`repro.timing.engine`) flushes its dirty
sets with a levelized heap, recomputing one pin at a time.  Because
every timing arc goes from a strictly lower to a strictly higher level
(arrivals) — and the reverse for requireds — that heap order is
equivalent to an ascending (resp. descending) level-by-level sweep in
which each dirty pin is processed exactly once.  This kernel runs that
sweep over index arrays: the frontier at each level is an ``int`` array
and the node equations are vectorized gathers/segment-reductions.

The sweep pays a fixed round of numpy dispatches per level, the heap a
fixed cost per dirty pin, so each flush picks its kernel from the
pending work alone: a flush is *wide* — swept over arrays — when its
dirty seeds number at least ``WIDE_SEEDS_PER_LEVEL`` per level of the
timing graph, and *narrow* — run on the engine's own heap — otherwise.
Full retimes and placement mass moves on designs wide enough to pay
for the dispatches are wide; a transform's few-pin frontier is narrow.

The timing image is built lazily, by the first wide flush of a graph
generation.  The engine's value dicts stay authoritative: a narrow
flush records the pins whose values it moved, and the next wide flush
reloads just those into the image before sweeping.  Until then the
image is stale and :meth:`ArrayStaKernel.ready` is false, so endpoint
queries read the dicts.

Bit-equivalence contract (pinned by ``tests/core``):

* every float op replicates the object path's operand values and
  operation order (numpy float64 elementwise ops are IEEE-identical
  to the scalar ops they batch);
* segment max/min use ``reduceat`` — order-insensitive, so they equal
  the object path's ``max()``/``min()`` over the same values;
* net electrical views are shared with the engine's ``_net_elec``
  cache and analyzed for exactly the nets the object path would
  touch (including the finite-required gating of ``gate_delay``), so
  Steiner/analyze counters stay identical;
* damping, dirty-set growth, and the ``arrival_recomputes`` /
  ``arrival_changes`` / ``required_recomputes`` counters match the
  object path by construction;
* the engine's value dicts are updated for every changed pin, so all
  point queries (``slack``, ``arrival`` …) read identical state.

Attributes the object graph mutates *without* events — ``cell.gain``,
``cell.size`` (virtual resizes bypass the timing listener) — are
gathered live per flush for frontier cells only, which is both correct
(the object path reads them live at recompute) and O(frontier).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.library.types import TAU
from repro.netlist.cell import Pin
from repro.timing.engine import _EPS, INF, DelayMode, negative_slack_sum
from repro.timing.graph import TimingGraph

#: Dirty seeds (arrival plus required set sizes) per timing-graph level
#: at which the levelized sweep beats the heap.  It is
#: ``2 * c_level / (c_heap - c_sweep)``: a sweep costs c_level ≈ 50 µs
#: of numpy dispatch per level in each direction, and each recompute
#: costs c_heap ≈ 4.2 µs on the heap and c_sweep ≈ 1.8 µs in the
#: sweep (Des1, depths 40 and 102, Python 3.11 / numpy 2 on one x86
#: core).  The dispatch scan of benchmarks/bench_soa.py puts the
#: crossover at 20-30 on the larger presets; 40 leans to the heap.
WIDE_SEEDS_PER_LEVEL = 40

# arrival node kinds
_A_IN = 0      # input pin: wire arc from its net's driver
_A_PORT = 1    # output pin of a primary-input port
_A_CELL = 2    # output pin with fanin cell arcs
_A_ZERO = 3    # output pin with no fanin cell arcs

# required node kinds
_R_CAP = 0     # register D: setup check against the capture clock
_R_PORT = 1    # primary-output port input pin
_R_COMB = 2    # input pin with fanout cell arcs
_R_NONE = 3    # input pin with no fanout cell arcs
_R_OUT = 4     # output pin: back through net arcs


def _csr_ranges(start: np.ndarray, idx: np.ndarray):
    """Flat gather indices + per-row counts for CSR rows ``idx``."""
    cnt = start[idx + 1] - start[idx]
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), cnt
    off = np.cumsum(cnt) - cnt
    flat = (np.arange(total, dtype=np.int64)
            - np.repeat(off, cnt) + np.repeat(start[idx], cnt))
    return flat, cnt


def _seg_starts(cnt: np.ndarray) -> np.ndarray:
    """reduceat segment offsets for per-row counts (all rows > 0)."""
    out = np.cumsum(cnt)
    out[1:] = out[:-1]
    out[0] = 0
    return out


class _TimingImage:
    """Frozen index arrays for one timing-graph generation.

    Built by the first wide flush of a graph generation (every
    structural edit starts a new one); value arrays are loaded from
    the engine's dicts so a rebuilt image continues exactly where the
    engine's values stand.
    """

    def __init__(self, engine, graph: TimingGraph) -> None:
        self.generation = graph.generation
        nl = engine.netlist
        pins = list(graph.pins())
        n = len(pins)
        self.n = n
        self.pins = pins
        self.pidx: Dict[int, int] = {id(p): i for i, p in enumerate(pins)}
        self.fname = [p.full_name for p in pins]
        self.level = np.fromiter(
            (graph.level_of(p) for p in pins), dtype=np.int64, count=n)
        self.max_level = int(self.level.max()) if n else 0

        cells = nl.cells()
        self.cells = cells
        cidx = {id(c): i for i, c in enumerate(cells)}
        self.cidx = cidx

        # per-cell size-derived scalars; size mutations always flow
        # through the evented resize_cell API (the same contract the
        # CoreImage occupancy arrays rely on), so these stay current
        # via note_resize.  Gains are NOT cached: transforms assign
        # cell.gain directly, so kernels gather it live per frontier.
        ncells = len(cells)
        self.c_par = np.zeros(ncells)
        self.c_le = np.zeros(ncells)
        self.c_intr = np.zeros(ncells)
        self.c_drive = np.zeros(ncells)
        for ci, c in enumerate(cells):
            t = c.size.gate_type
            self.c_par[ci] = t.parasitic
            self.c_le[ci] = t.logical_effort
            self.c_intr[ci] = c.size.intrinsic_delay
            self.c_drive[ci] = c.size.drive_resistance

        nets = nl.nets()
        self.nets = nets
        nidx = {id(nt): j for j, nt in enumerate(nets)}
        self.owner = np.zeros(n, dtype=np.int64)
        self.net_of = np.full(n, -1, dtype=np.int64)
        self.driver_of = np.full(n, -1, dtype=np.int64)
        self.df = np.zeros(n)
        self.akind = np.zeros(n, dtype=np.int8)
        self.rkind = np.zeros(n, dtype=np.int8)
        self.ck_of = np.full(n, -1, dtype=np.int64)
        self.pin_clock_seq = np.zeros(n, dtype=bool)

        fi_cell: List[List[int]] = [[] for _ in range(n)]
        fo_cell: List[List[int]] = [[] for _ in range(n)]
        ao: List[List[int]] = [[] for _ in range(n)]
        ai: List[List[int]] = [[] for _ in range(n)]
        for i, pin in enumerate(pins):
            for src, kind in graph.fanin_arcs(pin):
                s = self.pidx[id(src)]
                ai[i].append(s)
                if kind == "cell":
                    fi_cell[i].append(s)
            for dst, kind in graph.fanout_arcs(pin):
                d = self.pidx[id(dst)]
                ao[i].append(d)
                if kind == "cell":
                    fo_cell[i].append(d)

        cap: List[List[int]] = [[] for _ in range(n)]
        for i, pin in enumerate(pins):
            cell = pin.cell
            self.owner[i] = cidx[id(cell)]
            self.df[i] = pin.spec.delay_factor
            if pin.net is not None:
                self.net_of[i] = nidx[id(pin.net)]
                driver = pin.net.driver()
                if driver is not None:
                    self.driver_of[i] = self.pidx[id(driver)]
            if pin.is_output:
                if cell.is_port:
                    self.akind[i] = _A_PORT
                elif fi_cell[i]:
                    self.akind[i] = _A_CELL
                else:
                    self.akind[i] = _A_ZERO
                self.rkind[i] = _R_OUT
            else:
                self.akind[i] = _A_IN
                if (cell.is_sequential and not pin.is_clock
                        and not pin.is_scan):
                    self.rkind[i] = _R_CAP
                    try:
                        self.ck_of[i] = self.pidx[id(cell.pin("CK"))]
                    except KeyError:
                        pass
                elif cell.is_port:
                    self.rkind[i] = _R_PORT
                elif fo_cell[i]:
                    self.rkind[i] = _R_COMB
                else:
                    self.rkind[i] = _R_NONE
            if pin.is_clock and cell.is_sequential:
                self.pin_clock_seq[i] = True
                cap[i] = [self.pidx[id(d)] for d in cell.input_pins()
                          if not d.is_clock]

        def _csr(rows: List[List[int]]):
            start = np.zeros(n + 1, dtype=np.int64)
            for i, row in enumerate(rows):
                start[i + 1] = start[i] + len(row)
            data = np.fromiter(
                (v for row in rows for v in row), dtype=np.int64,
                count=int(start[-1]))
            return start, data

        self.fi_start, self.fi_src = _csr(fi_cell)
        self.fo_start, self.fo_dst = _csr(fo_cell)
        self.ao_start, self.ao_dst = _csr(ao)
        self.ai_start, self.ai_src = _csr(ai)
        self.cap_start, self.cap_pin = _csr(cap)

        # net sink spans (input pins in net pin-list order) + shared
        # electrical scatter targets
        nnets = len(nets)
        ns_start = np.zeros(nnets + 1, dtype=np.int64)
        ns_pin: List[int] = []
        for j, net in enumerate(nets):
            for p in net._pins:
                if p.is_input:
                    ns_pin.append(self.pidx[id(p)])
            ns_start[j + 1] = len(ns_pin)
        self.ns_start = ns_start
        self.ns_pin = np.asarray(ns_pin, dtype=np.int64)
        self.net_valid = np.zeros(nnets, dtype=bool)
        self.ncap = np.zeros(nnets)
        self.wdel = np.zeros(n)
        self.elec_seen: List[Optional[object]] = [None] * nnets
        self.nidx = nidx

        # endpoints, in the exact order engine.endpoints() yields them
        self.ep = np.fromiter(
            (self.pidx[id(p)] for p in engine._endpoint_pins()),
            dtype=np.int64)

        # value arrays, loaded from the engine's (authoritative) dicts
        self.arr_l = np.zeros(n)
        self.arr_e = np.zeros(n)
        self.req = np.zeros(n)
        self.has_arr = np.zeros(n, dtype=bool)
        self.has_req = np.zeros(n, dtype=bool)
        self.reload(engine, pins)

    def reload(self, engine, pins) -> None:
        """Copy the engine's current values of ``pins`` into the arrays.

        Within one graph generation values are only ever added or
        overwritten (removals come with a structural edit, hence a new
        image), so a pin absent from the dicts was never set here.
        """
        arr, arrm, reqd = engine._arrival, engine._arrival_min, engine._required
        pidx = self.pidx
        for pin in pins:
            i = pidx[id(pin)]
            v = arr.get(pin)
            if v is not None:
                self.arr_l[i] = v
                self.arr_e[i] = arrm[pin]
                self.has_arr[i] = True
            r = reqd.get(pin)
            if r is not None:
                self.req[i] = r
                self.has_req[i] = True

    def note_resize(self, cell) -> None:
        """Refresh the cached size-derived scalars of one cell."""
        ci = self.cidx.get(id(cell))
        if ci is None:
            return
        t = cell.size.gate_type
        self.c_par[ci] = t.parasitic
        self.c_le[ci] = t.logical_effort
        self.c_intr[ci] = cell.size.intrinsic_delay
        self.c_drive[ci] = cell.size.drive_resistance


class ArrayStaKernel:
    """Per-flush choice between the engine's heap and a levelized
    array sweep (see the module docstring for the rule)."""

    def __init__(self) -> None:
        self._image: Optional[_TimingImage] = None
        #: pins whose dict values narrow flushes moved since the image
        #: last matched the dicts (tracked only while the image is of
        #: the current graph generation)
        self._stale: Set[Pin] = set()
        #: (graph generation, level count) of the last flush
        self._depth: Optional[tuple] = None
        self._stats = {"sweeps": 0, "narrow_flushes": 0,
                       "image_builds": 0, "image_reloads": 0,
                       "generations": 0,
                       "frontier_pins": 0, "levels_swept": 0}

    def stats(self) -> Dict[str, int]:
        """Copy of the kernel's counters.

        ``sweeps`` and ``narrow_flushes`` count wide (array) and narrow
        (heap) flushes; ``image_builds`` and ``image_reloads`` count
        fresh images and stale-value reloads, both of which happen only
        inside wide flushes; ``generations`` counts the timing-graph
        generations flushes ran on (at most one image each);
        ``frontier_pins`` and ``levels_swept`` measure sweep work.
        """
        return dict(self._stats)

    def drop(self) -> None:
        """Forget the image (value barrier: ``invalidate_all``)."""
        self._image = None
        self._stale = set()

    def net_touched(self, net) -> None:
        """A net's electrical view was invalidated by the engine."""
        im = self._image
        if im is not None:
            j = im.nidx.get(id(net))
            if j is not None:
                im.net_valid[j] = False

    def cell_resized(self, cell) -> None:
        """A cell's size changed (engine ``on_cell_resized``)."""
        if self._image is not None:
            self._image.note_resize(cell)

    def ready(self, engine) -> bool:
        """True when the image holds the engine's current values."""
        im, graph = self._image, engine._graph
        return (im is not None and graph is not None
                and im.generation == graph.generation
                and not self._stale)

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------

    def _levels(self, graph: TimingGraph) -> int:
        depth = self._depth
        if depth is None or depth[0] != graph.generation:
            depth = self._depth = (graph.generation, graph.max_level() + 1)
            self._stats["generations"] += 1
        return depth[1]

    def flush(self, engine, graph: TimingGraph) -> None:
        im = self._image
        if im is not None and im.generation != graph.generation:
            # a structural edit retired this generation's image
            im = self._image = None
            self._stale = set()
        seeds = len(engine._dirty_arr) + len(engine._dirty_req)
        if seeds < WIDE_SEEDS_PER_LEVEL * self._levels(graph):
            self._stats["narrow_flushes"] += 1
            changed = self._stale if im is not None else None
            engine._flush_arrivals(graph, changed)
            engine._flush_requireds(graph, changed)
            return
        if im is None:
            im = self._image = _TimingImage(engine, graph)
            self._stats["image_builds"] += 1
        elif self._stale:
            im.reload(engine, self._stale)
            self._stale = set()
            self._stats["image_reloads"] += 1
        self._stats["sweeps"] += 1
        req_extra = self._sweep_arrivals(engine, im)
        self._sweep_requireds(engine, im, req_extra)

    def _seed(self, im: _TimingImage, pins) -> np.ndarray:
        return np.fromiter((im.pidx[id(p)] for p in pins),
                           dtype=np.int64, count=len(pins))

    @staticmethod
    def _bucket(buckets, levels: np.ndarray, idx: np.ndarray) -> None:
        order = np.argsort(levels, kind="stable")
        sidx = idx[order]
        ulv, starts = np.unique(levels[order], return_index=True)
        for lv, piece in zip(ulv.tolist(),
                             np.split(sidx, starts[1:])):
            if buckets[lv] is None:
                buckets[lv] = []
            buckets[lv].append(piece)

    def _sweep_arrivals(self, engine, im: _TimingImage) -> np.ndarray:
        req_extra = np.zeros(im.n, dtype=bool)
        if not engine._dirty_arr:
            return req_extra
        stats = engine._stats
        nlev = im.max_level + 1
        in_d = np.zeros(im.n, dtype=bool)
        idx = self._seed(im, engine._dirty_arr)
        in_d[idx] = True
        buckets: List[Optional[List[np.ndarray]]] = [None] * nlev
        self._bucket(buckets, im.level[idx], idx)
        ch_idx: List[np.ndarray] = []
        ch_l: List[np.ndarray] = []
        ch_e: List[np.ndarray] = []

        for lv in range(nlev):
            chunks = buckets[lv]
            if not chunks:
                continue
            f = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            f = f[in_d[f]]
            if f.size == 0:
                continue
            in_d[f] = False
            self._stats["levels_swept"] += 1
            self._stats["frontier_pins"] += int(f.size)
            stats["arrival_recomputes"] += int(f.size)
            new_l, new_e = self._arrival_values(engine, im, f)
            keep = (im.has_arr[f]
                    & (np.abs(new_l - im.arr_l[f]) <= _EPS)
                    & (np.abs(new_e - im.arr_e[f]) <= _EPS))
            ch = f[~keep]
            if ch.size == 0:
                continue
            stats["arrival_changes"] += int(ch.size)
            vl = new_l[~keep]
            ve = new_e[~keep]
            im.arr_l[ch] = vl
            im.arr_e[ch] = ve
            im.has_arr[ch] = True
            ch_idx.append(ch)
            ch_l.append(vl)
            ch_e.append(ve)
            flat, _cnt = _csr_ranges(im.ao_start, ch)
            if flat.size:
                dsts = np.unique(im.ao_dst[flat])
                dsts = dsts[~in_d[dsts]]
                if dsts.size:
                    in_d[dsts] = True
                    self._bucket(buckets, im.level[dsts], dsts)
            cm = im.pin_clock_seq[ch]
            if cm.any():
                flat, _cnt = _csr_ranges(im.cap_start, ch[cm])
                if flat.size:
                    req_extra[im.cap_pin[flat]] = True

        arr, arrm = engine._arrival, engine._arrival_min
        pins = im.pins
        for chunk, vl, ve in zip(ch_idx, ch_l, ch_e):
            for i, late, early in zip(chunk.tolist(), vl.tolist(),
                                      ve.tolist()):
                p = pins[i]
                arr[p] = late
                arrm[p] = early
        engine._dirty_arr.clear()
        return req_extra

    def _sweep_requireds(self, engine, im: _TimingImage,
                         req_extra: np.ndarray) -> None:
        if engine._dirty_req:
            idx = self._seed(im, engine._dirty_req)
            req_extra[idx] = True
        if not req_extra.any():
            engine._dirty_req.clear()
            return
        stats = engine._stats
        nlev = im.max_level + 1
        in_d = req_extra
        idx = np.nonzero(in_d)[0]
        buckets: List[Optional[List[np.ndarray]]] = [None] * nlev
        self._bucket(buckets, im.level[idx], idx)
        ch_idx: List[np.ndarray] = []
        ch_v: List[np.ndarray] = []

        for lv in range(nlev - 1, -1, -1):
            chunks = buckets[lv]
            if not chunks:
                continue
            f = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            f = f[in_d[f]]
            if f.size == 0:
                continue
            in_d[f] = False
            self._stats["levels_swept"] += 1
            self._stats["frontier_pins"] += int(f.size)
            stats["required_recomputes"] += int(f.size)
            new = self._required_values(engine, im, f)
            old = im.req[f]
            with np.errstate(invalid="ignore"):
                keep = (im.has_req[f]
                        & ((np.isinf(new) & np.isinf(old) & (new == old))
                           | (np.abs(new - old) <= _EPS)))
            ch = f[~keep]
            if ch.size == 0:
                continue
            v = new[~keep]
            im.req[ch] = v
            im.has_req[ch] = True
            ch_idx.append(ch)
            ch_v.append(v)
            flat, _cnt = _csr_ranges(im.ai_start, ch)
            if flat.size:
                srcs = np.unique(im.ai_src[flat])
                srcs = srcs[~in_d[srcs]]
                if srcs.size:
                    in_d[srcs] = True
                    self._bucket(buckets, im.level[srcs], srcs)

        reqd = engine._required
        pins = im.pins
        for chunk, vv in zip(ch_idx, ch_v):
            for i, value in zip(chunk.tolist(), vv.tolist()):
                reqd[pins[i]] = value
        engine._dirty_req.clear()

    # ------------------------------------------------------------------
    # Node equations (vectorized twins of _compute_arrival/_required)
    # ------------------------------------------------------------------

    def _ensure_nets(self, engine, im: _TimingImage,
                     nets: np.ndarray) -> None:
        """Scatter electrical views for the nets a frontier touches.

        Shares the engine's ``_net_elec`` cache: a net analyzed here is
        analyzed exactly when (and only when) the object path would
        have called ``net_electrical`` for it, so Steiner/analyze
        counters and the cache's contents stay identical.
        """
        if nets.size == 0:
            return
        for j in np.unique(nets[~im.net_valid[nets]]).tolist():
            net = im.nets[j]
            elec = engine._net_elec.get(net.name)
            if elec is None:
                elec = engine.net_electrical(net)
            if im.elec_seen[j] is not elec:
                im.ncap[j] = elec.total_cap
                delays = elec.sink_wire_delay
                span = im.ns_pin[im.ns_start[j]:im.ns_start[j + 1]]
                if delays:
                    for k in span:
                        im.wdel[k] = delays.get(im.fname[k], 0.0)
                else:  # lumped models (WLM) carry no per-sink delay
                    im.wdel[span] = 0.0
                im.elec_seen[j] = elec
            im.net_valid[j] = True

    def _gain_delay(self, engine, im: _TimingImage,
                    owners: np.ndarray) -> np.ndarray:
        """Per-element gate delay under GAIN mode.

        Gains are gathered live per unique frontier cell — transforms
        assign ``cell.gain`` directly, with no event — exactly as the
        object path reads them at recompute time.  The size-derived
        effort terms come from the image's resize-maintained cache.
        """
        u, inv = np.unique(owners, return_inverse=True)
        default = engine.default_gain
        cells = im.cells
        gains = np.fromiter(
            (default if cells[ci].gain is None else cells[ci].gain
             for ci in u.tolist()),
            dtype=float, count=u.size)
        vals = TAU * (im.c_par[u] + im.c_le[u] * gains)
        return vals[inv]

    @staticmethod
    def _load_parts(im: _TimingImage, owners: np.ndarray):
        """Intrinsic/drive terms for LOAD-mode gate delay (cached per
        cell, refreshed by resize events)."""
        return im.c_intr[owners], im.c_drive[owners]

    def _arrival_values(self, engine, im: _TimingImage, f: np.ndarray):
        kinds = im.akind[f]
        new_l = np.zeros(f.size)
        new_e = np.zeros(f.size)
        ef = engine.early_factor
        load_mode = engine.mode is DelayMode.LOAD

        m = kinds == _A_IN
        if m.any():
            fi = f[m]
            drv = im.driver_of[fi]
            has = drv >= 0
            self._ensure_nets(engine, im, im.net_of[fi[has]])
            drv_c = np.where(has, drv, 0)
            raw = im.wdel[fi]
            vl = np.where(im.has_arr[drv_c], im.arr_l[drv_c], 0.0)
            ve = np.where(im.has_arr[drv_c], im.arr_e[drv_c], 0.0)
            new_l[m] = np.where(has, vl + raw * 1.0, 0.0)
            new_e[m] = np.where(has, ve + raw * ef, 0.0)

        m = kinds == _A_PORT
        if m.any():
            fi = f[m]
            base = np.fromiter(
                (engine.constraints.input_arrival(
                    im.cells[im.owner[i]].name) for i in fi.tolist()),
                dtype=float, count=fi.size)
            out_l = base.copy()
            out_e = base.copy()
            if load_mode:
                nets = im.net_of[fi]
                sel = nets >= 0
                if sel.any():
                    self._ensure_nets(engine, im, nets[sel])
                    load = im.ncap[nets[sel]]
                    pd = engine.port_drive_resistance
                    out_l[sel] = base[sel] + pd * load * 1.0
                    out_e[sel] = base[sel] + pd * load * ef
            new_l[m] = out_l
            new_e[m] = out_e

        m = kinds == _A_CELL
        if m.any():
            fi = f[m]
            owners = im.owner[fi]
            if load_mode:
                nets = im.net_of[fi]
                sel = nets >= 0
                if sel.any():
                    self._ensure_nets(engine, im, nets[sel])
                load = np.zeros(fi.size)
                load[sel] = im.ncap[nets[sel]]
                intr, drive = self._load_parts(im, owners)
                delay = intr + drive * load
            else:
                delay = self._gain_delay(engine, im, owners)
            flat, cnt = _csr_ranges(im.fi_start, fi)
            srcs = im.fi_src[flat]
            starts = _seg_starts(cnt)
            src_val_l = np.where(im.has_arr[srcs], im.arr_l[srcs], 0.0)
            src_val_e = np.where(im.has_arr[srcs], im.arr_e[srcs], 0.0)
            dfl = im.df[srcs]
            dl = np.repeat(delay * 1.0, cnt)
            de = np.repeat(delay * ef, cnt)
            new_l[m] = np.maximum.reduceat(src_val_l + dl * dfl, starts)
            new_e[m] = np.minimum.reduceat(src_val_e + de * dfl, starts)

        # _A_ZERO pins stay 0.0
        return new_l, new_e

    def _required_values(self, engine, im: _TimingImage,
                         f: np.ndarray) -> np.ndarray:
        kinds = im.rkind[f]
        new = np.full(f.size, INF)
        load_mode = engine.mode is DelayMode.LOAD

        m = kinds == _R_CAP
        if m.any():
            fi = f[m]
            ck = im.ck_of[fi]
            ck_c = np.where(ck >= 0, ck, 0)
            clk = np.where((ck >= 0) & im.has_arr[ck_c],
                           im.arr_l[ck_c], 0.0)
            new[m] = (engine.constraints.cycle_time + clk
                      - engine.constraints.setup_time)

        m = kinds == _R_PORT
        if m.any():
            fi = f[m]
            new[m] = np.fromiter(
                (engine.constraints.output_required(
                    im.cells[im.owner[i]].name) for i in fi.tolist()),
                dtype=float, count=fi.size)

        m = kinds == _R_COMB
        if m.any():
            fi = f[m]
            flat, cnt = _csr_ranges(im.fo_start, fi)
            dsts = im.fo_dst[flat]
            starts = _seg_starts(cnt)
            rq = np.where(im.has_req[dsts], im.req[dsts], INF)
            fin = rq != INF
            if load_mode:
                dnets = im.net_of[dsts]
                sel = fin & (dnets >= 0)
                if sel.any():
                    # gate_delay runs only for finite-required arcs in
                    # the object path; gate net analysis identically
                    self._ensure_nets(engine, im, dnets[sel])
                load = np.zeros(dsts.size)
                load[sel] = im.ncap[dnets[sel]]
                intr, drive = self._load_parts(im, im.owner[dsts])
                delay = intr + drive * load
            else:
                delay = self._gain_delay(engine, im, im.owner[dsts])
            dfp = np.repeat(im.df[fi], cnt)
            term = np.where(fin, rq - delay * dfp, INF)
            new[m] = np.minimum.reduceat(term, starts)

        m = kinds == _R_OUT
        if m.any():
            fi = f[m]
            nets = im.net_of[fi]
            has = nets >= 0
            if has.any():
                self._ensure_nets(engine, im, nets[has])
            nets_c = np.where(has, nets, 0)
            scnt = np.where(
                has, im.ns_start[nets_c + 1] - im.ns_start[nets_c], 0)
            sel = scnt > 0
            if sel.any():
                flat, cnt = _csr_ranges(im.ns_start, nets_c[sel])
                sinks = im.ns_pin[flat]
                starts = _seg_starts(cnt)
                rq = np.where(im.has_req[sinks], im.req[sinks], INF)
                term = np.where(rq != INF, rq - im.wdel[sinks], INF)
                out = np.full(fi.size, INF)
                out[sel] = np.minimum.reduceat(term, starts)
                new[m] = out

        # _R_NONE pins stay INF
        return new

    # ------------------------------------------------------------------
    # Vectorized endpoint queries
    # ------------------------------------------------------------------

    def _endpoint_slacks(self, im: _TimingImage) -> np.ndarray:
        ep = im.ep
        req = np.where(im.has_req[ep], im.req[ep], INF)
        arr = np.where(im.has_arr[ep], im.arr_l[ep], 0.0)
        return req - arr

    def worst_slack(self, engine) -> float:
        im = self._image
        if im.ep.size == 0:
            return INF
        s = self._endpoint_slacks(im)
        finite = s[s < INF]
        return float(finite.min()) if finite.size else INF

    def total_negative_slack(self, engine) -> float:
        return negative_slack_sum(
            self._endpoint_slacks(self._image).tolist())
