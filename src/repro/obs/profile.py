"""Kernel profiling: cheap wall-clock accounting of the hot kernels.

Spans (:mod:`repro.obs.tracer`) answer "which *transform* was slow";
this module answers the next question down — "which *kernel* inside
it".  Both compute cores instrument the same hot paths:

====================  =================================================
Kernel key            Where it is timed
====================  =================================================
``quad.assemble``     global quadratic-placement system assembly — the
                      object-graph net loop in
                      :mod:`repro.placement.quadratic` and its array
                      twin :func:`repro.core.quad.assemble_system`
``quad.dense``        the dense per-bin refinement assembly
                      (:func:`repro.core.quad.assemble_dense` and the
                      object path in
                      :mod:`repro.placement.quadratic_refine`)
``sta.sweep``         one incremental-STA flush — the levelized
                      frontier sweep of :mod:`repro.timing.engine`
                      (object) or :mod:`repro.core.sta` (array)
``bins.rebuild``      a full bin-grid occupancy rebuild
                      (``repro.image.grid.BinGrid._rebuild``)
``steiner.build``     one Steiner-tree construction
                      (:func:`repro.wirelength.steiner.build_steiner`);
                      geometry-memo hits of the Steiner cache skip it
``timing.graph``      one timing-graph build or level repair
                      (``repro.timing.engine.TimingEngine.graph``)
``relocation.solve``  one space-transport solve of circuit relocation
                      (``repro.placement.relocation``)
====================  =================================================

The accumulator is a process-global table of ``key → (calls,
seconds)``.  Its published counters are *integers* so they flow
through :class:`~repro.obs.tracer.CounterRegistry` (which drops
floats) into span counter deltas, the live sink, and ``/metrics`` as
``profile.<kernel>.calls`` / ``profile.<kernel>.us`` — which is
exactly what lets ``repro trace-diff`` attribute a transform slowdown
to a kernel instead of guessing.

Microseconds are wall clock, so every ``profile.*`` counter is exempt
from the span determinism contract: :func:`repro.obs.comparable`
strips the whole prefix, the same way it strips ``t0``/``dt``.

The hooks are deliberately branch-cheap — two ``perf_counter`` calls
and one dict update per kernel invocation, a few hundred nanoseconds
against kernels that run for micro- to milliseconds.  The measured
budget (``BENCH_trace.json``) is ≤2% on a traced Des3 TPS run.
``enable(False)`` turns the hooks into near-no-ops for A/B overhead
measurement; production leaves them on.

The implementation lives in :mod:`repro._profile` — a dependency-free
leaf module the hot kernels can import without pulling the whole
observability/persistence stack into a circular import; this module
is its public face and shares its process-global state.
"""

from __future__ import annotations

from repro._profile import (
    PROFILE_PREFIX,
    begin,
    counters,
    enable,
    enabled,
    end,
    reset,
    seconds_by_kernel,
)

__all__ = [
    "PROFILE_PREFIX",
    "begin",
    "counters",
    "enable",
    "enabled",
    "end",
    "reset",
    "seconds_by_kernel",
]
