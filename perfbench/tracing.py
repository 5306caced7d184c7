"""Span tracing for the traced benchmark run, installed from outside ``src/``.

A :class:`Tracer` records one span per call into a layer: name, start,
end, the enclosing span on the same thread (its parent) and the update
the call served.  Spans are kept in memory in flat arrays and written
out once, when the run ends.  Nothing inside the program is edited:
:func:`install_layer_probes` replaces public functions and methods of
each layer's module with timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`), so a layer's time
is never counted twice when the layers nest.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.update = array("i")
        self.thread = array("i")
        #: Quantities measured at span boundaries (bytes, columns, ...).
        self.counts: dict[str, float] = defaultdict(float)
        #: ``id(update object) -> stream index``, so spans on a thread
        #: that only sees the update object (a server's writer) carry
        #: the same update id as the generator's spans.
        self.update_ids: dict[int, int] = {}
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()
        #: ``(owner, attr, original)``; ``original`` is ``None`` when the
        #: attribute was inherited rather than defined on ``owner``.
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.update = -1
            with self._lock:
                local.thread = self._threads.setdefault(
                    threading.get_ident(), len(self._threads))
        return local

    def set_update(self, index: int) -> None:
        """Attribute this thread's following spans to update ``index``."""
        self._state().update = index

    def open(self, name: str) -> int:
        """Start a span; returns its index for :meth:`close`."""
        local = self._state()
        name_id = self._name_ids.get(name)
        if name_id is None:
            with self._lock:
                name_id = self._name_ids.setdefault(name, len(self.names))
                if name_id == len(self.names):
                    self.names.append(name)
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(local.stack[-1] if local.stack else -1)
            self.update.append(local.update)
            self.thread.append(local.thread)
            self.end.append(0.0)
            self.start.append(self.clock())
        local.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open one on this thread)."""
        self.end[index] = self.clock()
        self._state().stack.pop()

    # -- installing wrappers -----------------------------------------------
    def wrap(self, owner, attr: str, name: str | None, before=None,
             after=None, result=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``before(tracer, args, kwargs)`` runs inside the span before the
        call, ``after(tracer, args, kwargs, value)`` after it returns;
        ``result(value)`` may replace the returned value (used to wrap
        the trigger functions a compiler returns).  With ``name=None``
        no span is recorded (the call's time stays with its caller) and
        only the hooks run.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = None if name is None else tracer.open(name)
            try:
                if before is not None:
                    before(tracer, args, kwargs)
                value = original(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, value)
            finally:
                if index is not None:
                    tracer.close(index)
            return value if result is None else result(value)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if own else None))

    def wrap_function(self, fn, name: str):
        """A traced stand-in for a plain callable (keeps its attributes)."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__dict__.update(getattr(fn, "__dict__", {}))
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)  # was inherited: uncover it again
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> Path:
        """Write every span to ``path`` (NumPy ``.npz``) and return it."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            update=np.frombuffer(self.update, dtype=np.int32),
            thread=np.frombuffer(self.thread, dtype=np.int32),
        )
        return path


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so a parent is never charged negative
    time, whatever the children look like.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    result = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cursor = lo
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, cursor), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        result.append((hi - lo) - covered)
    return result


def aggregate(tracer: Tracer, selfs) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` (recursion folded) and summed ``self_s``.

    ``selfs`` are the spans' :func:`self_times`.  A span whose parent has
    the same name (``add_outer_inplace`` calling ``add_outer``,
    ``plan_program`` calling ``rank_program``) is one call of its layer,
    not two; its self time still counts.
    """
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0})
    name_id, parent = tracer.name_id, tracer.parent
    for i, sid in enumerate(name_id):
        entry = out[tracer.names[sid]]
        entry["self_s"] += selfs[i]
        p = parent[i]
        if p < 0 or name_id[p] != sid:
            entry["calls"] += 1
    return dict(out)


def thread_self_totals(tracer: Tracer, selfs) -> dict[int, float]:
    """Sum of span self times per thread (each must fit in wall time)."""
    totals: dict[int, float] = defaultdict(float)
    for i, thread in enumerate(tracer.thread):
        totals[thread] += selfs[i]
    return dict(totals)


# -- the layer probes -----------------------------------------------------------

_SPARSE_KERNELS = (
    "matmul", "matmul_into", "add", "add_into", "sub", "sub_into",
    "add_inplace", "add_outer", "add_outer_inplace", "scale", "scale_into",
)


def _outermost(tracer: Tracer, name: str) -> bool:
    """Whether the span just opened has no same-named parent."""
    stack = tracer._state().stack
    return len(stack) < 2 or tracer.names[tracer.name_id[stack[-2]]] != name


def _count_add_outer(tracer, args, kwargs):
    # View-write traffic of ``a += u v'``: the view is read and written once.
    if _outermost(tracer, "kernel.add_outer"):
        view = args[1]
        tracer.counts["kernel.add_outer.bytes"] += 2.0 * getattr(view, "nbytes", 0)


def _count_compaction(tracer, args, kwargs, value):
    if _outermost(tracer, "compaction"):
        tracer.counts["compaction.cols_in"] += args[1].shape[1]
        tracer.counts["compaction.rank_out"] += value[0].shape[1]


def _count_checkpoint_bytes(tracer, args, kwargs, value):
    tracer.counts["checkpoint.bytes"] += len(value)


def _count_retune(tracer, args, kwargs):
    # Re-configurations the re-planning monitor makes (not those made
    # while opening the session, nor the maintainer's own membership
    # re-checks on cadence).
    stack = tracer._state().stack
    if any(tracer.names[tracer.name_id[i]] == "replan.check" for i in stack):
        tracer.counts["replan.retunes"] += 1


def _writer_update(tracer, args, kwargs):
    update = args[1]
    tracer.set_update(tracer.update_ids.get(id(update), -1))


def install_layer_probes(tracer: Tracer, workspaces: list) -> None:
    """Wrap the public entry points of every measured layer.

    Must run before any session, server or PageRank maintainer is opened: the fused
    trigger compiler binds backend kernels when it compiles, so only
    kernels wrapped beforehand are seen.  ``workspaces`` collects every
    :class:`~repro.runtime.workspace.Workspace` created afterwards.
    """
    import repro.analytics.pagerank as pagerank
    import repro.iterative.general as general
    import repro.planner as planner
    import repro.planner.planner as planner_impl
    import repro.runtime.checkpoint as checkpoint
    import repro.runtime.session as session
    from repro.backends.dense import DenseBackend
    from repro.backends.sparse import SparseBackend
    from repro.runtime.batching import SessionBatcher
    from repro.runtime.drift import ReplanMonitor, SessionDriftMonitor
    from repro.runtime.heavylight import HeavyLightMaintainer
    from repro.runtime.serving import SessionEngine, ViewServer
    from repro.runtime.workspace import Workspace

    wrap = tracer.wrap

    # planner: opening plans and every re-pricing.
    for module in (planner, planner_impl):
        for fn in ("plan_program", "rank_program", "plan_general"):
            wrap(module, fn, "planner")

    # compiler: trigger derivation and both code generators; the
    # functions they return are traced as the trigger layer.
    wrap(session, "compile_program", "compiler")
    wrap(session, "compile_fused_trigger", "compiler",
         result=lambda fn: tracer.wrap_function(fn, "trigger.fused"))
    wrap(session, "compile_trigger_function", "compiler",
         result=lambda fn: tracer.wrap_function(fn, "trigger.generic"))

    # runtime.session: ingress, validation, flush.
    wrap(session.Session, "apply_update", "session.apply")
    wrap(session.Session, "_validate_update", "session.validate")
    wrap(session.Session, "flush", "session.flush")

    # deferral: uniform batching and heavy-light partitioning.
    wrap(SessionBatcher, "absorb", "deferral.absorb")
    wrap(SessionBatcher, "flush", "deferral.fold")
    wrap(HeavyLightMaintainer, "absorb", "deferral.absorb")
    wrap(HeavyLightMaintainer, "flush", "deferral.fold")
    wrap(HeavyLightMaintainer, "_fold_light", "deferral.fold")

    # delta.batch: QR+SVD compaction (the backend kernel it runs on).
    wrap(DenseBackend, "compact", "compaction", after=_count_compaction)
    wrap(SparseBackend, "compact", "compaction", after=_count_compaction)

    # backends: thin products and the O(n^2) view write (dense), and
    # every arithmetic kernel of the sparse backend.
    wrap(DenseBackend, "matmul", "kernel.matmul")
    wrap(DenseBackend, "matmul_into", "kernel.matmul")
    wrap(DenseBackend, "add_outer", "kernel.add_outer", before=_count_add_outer)
    wrap(DenseBackend, "add_outer_inplace", "kernel.add_outer",
         before=_count_add_outer)
    for kernel in _SPARSE_KERNELS:
        if kernel in SparseBackend.__dict__:
            wrap(SparseBackend, kernel, "kernel.sparse")

    # runtime.workspace: every arena created from now on.
    original_init = Workspace.__init__

    def register(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        workspaces.append(self)

    Workspace.__init__ = register
    tracer._patches.append((Workspace, "__init__", original_init))

    # runtime.drift: monitor bookkeeping, re-pricing, re-configuration.
    wrap(SessionDriftMonitor, "apply_update", "replan.monitor")
    wrap(ReplanMonitor, "apply_update", "replan.monitor")
    wrap(ReplanMonitor, "replan", "replan.check")
    for owner, attr in ((session.Session, "set_partition"),
                        (session.Session, "set_batching"),
                        (HeavyLightMaintainer, "retune")):
        wrap(owner, attr, None, before=_count_retune)

    # runtime.serving: ingress, writer-side apply, epoch publish, reads.
    wrap(ViewServer, "submit", "serve.submit")
    wrap(ViewServer, "read", "serve.read")
    wrap(SessionEngine, "apply", "serve.apply", before=_writer_update)
    wrap(ViewServer, "_make_snapshot", "serve.publish")

    # runtime.checkpoint: delta log, snapshot cuts, bytes written.
    wrap(checkpoint.Checkpointer, "note", "checkpoint.note")
    wrap(checkpoint.Checkpointer, "checkpoint", "checkpoint.cut")
    wrap(checkpoint, "serialize_state", "checkpoint.serialize",
         after=_count_checkpoint_bytes)

    # iterative + analytics: maintained iterates and the edit front end.
    for cls in (general.ReevalGeneral, general.IncrementalGeneral,
                general.HybridGeneral):
        wrap(cls, "refresh", "iterative.refresh")
    wrap(pagerank.IncrementalPageRank, "add_edge", "analytics.edit")
    wrap(pagerank.IncrementalPageRank, "remove_edge", "analytics.edit")
