"""IVM sessions: compile once, maintain forever.

:class:`Session` is the shared spine — program validation, view
storage, backend resolution, output accessors, revalidation — with two
strategies on top:

* :class:`IVMSession` — incremental maintenance (INCR): compile the
  triggers (Algorithm 1) and repair every view per factored update;
* :class:`ReevalSession` — the re-evaluation baseline (REEVAL): apply
  the update, recompute every statement.

Both take the same constructor surface, so experiments can swap
strategies without touching driver code.  :func:`open_session` is the
planner-driven entry point: ``open_session(program, inputs)`` measures
the inputs, asks :mod:`repro.planner` for the cheapest (strategy,
backend, mode) configuration, and returns the matching session with the
chosen :class:`~repro.planner.plan.MaintenancePlan` attached as
``session.plan``.

Two execution modes are supported for triggers:

* ``mode="interpret"`` — delta expressions are evaluated by the AST
  executor (FLOP-counted, the default);
* ``mode="codegen"`` — triggers are lowered to Python/NumPy source and
  ``exec``-compiled once (the paper's generated-code path).  Each
  trigger is *specialized* against the session's concrete dimensions
  and backend (:mod:`repro.compiler.codegen.fused`): the specialized
  function runs every kernel through the backend's ``*_into`` forms
  into buffers leased from a session
  :class:`~repro.runtime.workspace.Workspace` and repairs views **in
  place**, so a warmed-up dense session performs zero heap allocation
  per update.  The specialization is rank-polymorphic: rank-1 updates,
  batched rank-``k`` flushes and heavy-light rank-``r`` folds all run
  it, on buffers sized for the widest rank seen so far.  Only triggers
  with no in-place lowering (``inv``, dimensions the session cannot
  bind) compile — once, at construction — to the generic generated
  code instead.  Because views mutate in place on this path, treat
  matrices returned by ``session[...]``/``session.output()`` as *live*
  state — copy them if you need a snapshot that survives further
  updates.

Sessions also honor the plan's **batch recommendation** (Table 4):
when ``plan.batch_size > 1``, :func:`open_session` routes
``apply_update`` through a :class:`~repro.delta.batch.BatchCollector`
and flushes one QR+SVD-compacted rank-``r`` refresh per batch — on
width, on read (``session[...]``/``view()``/``output()``/
``revalidate()``), on target change, before any :meth:`with_plan`
switch, and within ``max_staleness`` updates (see
:meth:`Session.set_batching` and :mod:`repro.runtime.batching`).
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..backends import get_backend
from ..compiler.codegen.fused import (
    UPDATE_RANK,
    FusedUnsupported,
    compile_fused_trigger,
)
from ..compiler.codegen.python_gen import compile_trigger_function, outer_operands
from ..compiler.compile import compile_program
from ..compiler.optimizer import optimize_trigger
from ..compiler.program import Program
from ..compiler.trigger import Trigger
from ..cost import counters
from ..cost.ops import outer_update_flops
from ..delta.batch import DEFAULT_RTOL
from .batching import SessionBatcher
from .executor import evaluate
from .heavylight import HeavyLightMaintainer
from .updates import FactoredUpdate, InvalidUpdateError
from .views import ViewStore
from .workspace import Workspace


class Session:
    """Shared state and plumbing of every maintenance session.

    Parameters
    ----------
    program:
        The linear algebra program to maintain.
    inputs:
        Initial values for every declared input matrix — or a live
        :class:`~repro.runtime.views.ViewStore` to *adopt*: the store's
        state (inputs **and** materialized views) is carried over by
        value, converted to this session's backend, and nothing is
        re-evaluated.  Adoption is the online re-planning hand-off; see
        :meth:`with_plan`.
    dims:
        Bindings for symbolic dimension names used in the program.
    counter:
        FLOP/byte counter charged with all maintenance work.
    backend:
        Execution backend for view state and trigger math — a name
        (``"dense"``, ``"sparse"``), a
        :class:`~repro.backends.base.Backend` instance, or ``None`` for
        the dense default.  See :mod:`repro.backends`.
    """

    #: Strategy name reported by plans/monitors (set by subclasses).
    strategy = "ABSTRACT"

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        self.program = program
        self.counter = counter
        self.backend = get_backend(backend)
        self.update_count = 0
        self._batcher: SessionBatcher | None = None
        self._auto_batch = False
        self._batch_staleness: int | None = None
        self._partitioner: HeavyLightMaintainer | None = None
        self._auto_partition = False
        self._checkpointer = None
        if isinstance(inputs, ViewStore):
            # Adopt live state: one conversion pass, no re-evaluation.
            self.views = inputs.converted(self.backend)
            return
        self.views = ViewStore(dims, backend=self.backend)
        missing = set(program.input_names) - set(inputs)
        if missing:
            raise ValueError(f"missing initial values for inputs: {sorted(missing)}")
        for name in program.input_names:
            self.views.set(name, inputs[name])
        self._materialize_all()

    # -- queries ---------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        """Current value of a view or input, densely (do not mutate).

        Reads flush any batched pending updates first, so callers never
        observe state that lags the updates they already issued.
        """
        self.flush()
        return self.views.get_dense(name)

    def view(self, name: str) -> np.ndarray:
        """Explicit read accessor: flush pending updates, return densely."""
        return self[name]

    def output(self) -> np.ndarray:
        """Current value of the program's (first) output view, densely."""
        return self[self.program.outputs[0]]

    # -- maintenance -----------------------------------------------------
    def apply_update(self, update: FactoredUpdate) -> None:
        """Maintain the views for one factored update.

        With batching enabled (:meth:`set_batching`, or a plan whose
        ``batch_size > 1`` honored by :func:`open_session`), the update
        is queued in the session's :class:`BatchCollector` and applied
        on the next flush — on width, staleness, read, or plan switch.
        With heavy-light partitioning enabled (:meth:`set_partition`,
        or a plan whose ``partition == "heavy-light"``), the update is
        instead split by target row through the session's
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer` —
        partitioning takes precedence over uniform batching.

        Malformed updates — NaN/Inf factor entries, factor shapes the
        target view cannot absorb — are rejected with
        :class:`~repro.runtime.updates.InvalidUpdateError` *before* any
        view, batcher or accumulator is touched, so a bad update never
        poisons maintained state.
        """
        self._validate_update(update)
        if self._partitioner is not None:
            self._partitioner.absorb(self, update)
        elif self._batcher is not None:
            self._batcher.absorb(self, update)
        else:
            self._apply_now(update)
        self.update_count += 1
        if self._checkpointer is not None:
            self._checkpointer.note(update)

    def apply_updates(self, updates: Sequence[FactoredUpdate]) -> None:
        """Maintain the views across a sequence of updates, in order."""
        for update in updates:
            self.apply_update(update)

    def _apply_now(self, update: FactoredUpdate) -> None:
        """Apply one (possibly batch-compacted) update immediately."""
        raise NotImplementedError

    def _check_update_target(self, update: FactoredUpdate) -> None:
        """Raise early for updates no flush could ever apply."""
        if update.target not in self.views:
            raise KeyError(f"no view or input named {update.target!r}")

    def _validate_update(self, update: FactoredUpdate) -> None:
        """Reject malformed updates before they can touch any state."""
        update.validate_finite()
        self._check_update_target(update)
        if update.target not in self.views:
            return
        rows, cols = self.backend.shape(self.views.get(update.target))
        if update.u_block.shape[0] != rows or update.v_block.shape[0] != cols:
            raise InvalidUpdateError(
                f"update factors ({update.u_block.shape[0]} x "
                f"{update.v_block.shape[0]}) do not match {update.target!r} "
                f"({rows} x {cols})"
            )

    # -- checkpointing ---------------------------------------------------
    def attach_checkpointer(self, target, **options):
        """Attach a checkpoint policy; every applied update is logged.

        ``target`` is a directory (snapshots land there under a
        :class:`~repro.runtime.checkpoint.CheckpointManager`) or an
        existing :class:`~repro.runtime.checkpoint.Checkpointer` to
        re-point at this session; ``options`` pass through to the
        ``Checkpointer`` constructor (``every``, ``keep``, ``auto``,
        ``rank``, ``optimize``, ``delta_limit``).  Returns the attached
        checkpointer.
        """
        from .checkpoint import Checkpointer

        if isinstance(target, Checkpointer):
            checkpointer = target
            checkpointer.session = self
        else:
            checkpointer = Checkpointer(self, target, **options)
        self._checkpointer = checkpointer
        return checkpointer

    @property
    def checkpointer(self):
        """The attached :class:`Checkpointer`, or ``None``."""
        return self._checkpointer

    def restore(self):
        """Rebuild this session's state from its latest valid snapshot.

        Delegates to the attached checkpointer: the newest valid
        snapshot is loaded, the logged delta tail replays, and the
        returned *fresh* session (bitwise-identical to this one) takes
        over the checkpointer.  Raises
        :class:`~repro.runtime.checkpoint.CheckpointError` when no
        checkpointer is attached.
        """
        from .checkpoint import CheckpointError

        if self._checkpointer is None:
            raise CheckpointError(
                "no checkpointer attached (open_session(checkpoint=...) "
                "or session.attach_checkpointer(directory))"
            )
        return self._checkpointer.restore()

    # -- batching --------------------------------------------------------
    def set_batching(
        self,
        width: int | None,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        auto: bool = False,
    ) -> None:
        """Enable (``width > 1``) or disable (``None``/``<= 1``) batching.

        Pending updates are flushed before the policy changes.
        ``max_staleness`` caps the pending update count below the batch
        width (a read-lag bound; reads always flush regardless).
        ``auto=True`` marks the width as plan-derived so online
        re-planning (:class:`~repro.runtime.drift.ReplanMonitor`) may
        re-price it from live stream statistics — a user-forced width is
        never overridden.

        Achieved-compression statistics survive re-configuration (width
        re-tunes, :meth:`with_plan` switches): ``batch_stats`` keeps
        describing the whole stream, not just the tail segment.
        """
        self.flush()
        prior_stats = self._batcher.stats if self._batcher is not None else None
        self._auto_batch = auto
        self._batch_staleness = max_staleness
        if width is None or width <= 1:
            self._batcher = None
            return
        self._batcher = SessionBatcher(
            width, max_staleness=max_staleness, rtol=rtol,
            backend=self.backend,
        )
        if prior_stats is not None:
            self._batcher.stats = prior_stats

    def set_partition(
        self,
        mode: str | None,
        heavy_budget: int | None = None,
        rank_bound: int | None = None,
        retune_every: int | None = None,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        auto: bool = False,
        sketch=None,
        observe: bool | None = None,
    ) -> None:
        """Enable (``"heavy-light"``) or disable (``"uniform"``/``None``)
        heavy-light partitioned maintenance.

        Pending updates (batched *and* partitioned) are flushed before
        the policy changes — the flush-before-switch convention.  With
        ``"heavy-light"``, ``apply_update`` routes through a
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer`:
        heavy-hitter rows (at most ``heavy_budget``, chosen adaptively
        from the stream) merge eagerly into accumulator rows while the
        light tail defers into a compacted pending block folded at
        ``rank_bound``.  ``max_staleness`` caps the total pending
        update count (a read-lag bound; reads always flush regardless).
        ``auto=True`` marks the mode as plan-derived so online
        re-planning (:class:`~repro.runtime.drift.ReplanMonitor`) may
        re-tune it from live stream statistics — a user-forced mode is
        never overridden.  ``sketch`` optionally seeds the maintainer
        with an already-warm
        :class:`~repro.planner.plan.StreamSketch` (the monitor shares
        its own, so the heavy set starts from history, not cold);
        ``observe=False`` marks that sketch as externally fed so the
        maintainer does not double-count the stream (``None`` inherits
        the prior partitioner's setting, defaulting to self-observed).

        Achieved split statistics survive re-configuration (budget
        re-tunes, :meth:`with_plan` switches): ``partition_stats``
        keeps describing the whole stream, not just the tail segment.
        """
        self.flush()
        prior = self._partitioner
        self._auto_partition = auto
        if mode is None or mode == "uniform":
            self._partitioner = None
            return
        if mode != "heavy-light":
            raise ValueError(f"unknown partition mode {mode!r}")
        options = {}
        if heavy_budget is not None:
            options["budget"] = heavy_budget
        if rank_bound is not None:
            options["rank_bound"] = rank_bound
        if retune_every is not None:
            options["retune_every"] = retune_every
        if sketch is None and prior is not None:
            sketch = prior.sketch
            if observe is None:
                observe = prior.observe_stream
        self._partitioner = HeavyLightMaintainer(
            max_staleness=max_staleness, rtol=rtol, backend=self.backend,
            sketch=sketch, observe=observe if observe is not None else True,
            **options,
        )
        if prior is not None:
            self._partitioner.stats = prior.stats

    def flush(self) -> tuple[int, int, float]:
        """Apply any batched or partitioned pending updates now.

        Returns ``(batch_size, compacted_rank, dropped)`` summed over
        the active pending paths; a session with nothing pending is a
        no-op returning ``(0, 0, 0.0)``.
        """
        size, rank, dropped = 0, 0, 0.0
        if self._partitioner is not None:
            size, rank, dropped = self._partitioner.flush(self)
        if self._batcher is not None:
            b_size, b_rank, b_dropped = self._batcher.flush(self)
            size, rank, dropped = size + b_size, rank + b_rank, dropped + b_dropped
        return size, rank, dropped

    @property
    def batch_size(self) -> int:
        """The active batching width (1 = per-update application)."""
        return self._batcher.width if self._batcher is not None else 1

    @property
    def batch_stats(self):
        """Achieved :class:`~repro.runtime.batching.BatchStats` (or None)."""
        return self._batcher.stats if self._batcher is not None else None

    @property
    def partition(self) -> str:
        """The active partition mode (``"uniform"`` or ``"heavy-light"``)."""
        return "heavy-light" if self._partitioner is not None else "uniform"

    @property
    def partition_stats(self):
        """Achieved :class:`~repro.runtime.heavylight.HeavyLightStats`
        of the partitioned path (or ``None`` under uniform maintenance)."""
        return self._partitioner.stats if self._partitioner is not None else None

    # -- validation ------------------------------------------------------
    def _materialize_all(self) -> None:
        for stmt in self.program.statements:
            value = evaluate(
                stmt.expr,
                self.views.as_env(),
                dims=self.views.dims,
                counter=self.counter,
                backend=self.backend,
            )
            self.views.set(stmt.target.name, value)

    def rebuild(self) -> None:
        """Recompute every view from the current inputs, in place.

        The drift-recovery hook: maintained values are replaced by a
        fresh evaluation against ground truth (the current inputs), so
        accumulated floating-point drift resets to zero.  Batched
        pending updates flush first — they have not yet reached the
        inputs, and must not be lost to the re-evaluation.
        """
        self.flush()
        self._materialize_all()

    def with_plan(self, plan, rank: int = 1, optimize: bool = False) -> "Session":
        """A session in ``plan``'s configuration adopting this one's state.

        The online re-planning switch (:class:`ReplanMonitor`): view
        state crosses backends through
        :meth:`ViewStore.converted <repro.runtime.views.ViewStore.converted>`
        (one pass over stored entries — CSR state densifies, dense state
        re-enters the target representation policy), INCR plans
        (re)compile their triggers, and **no view is re-evaluated**.
        The update counter carries over and ``plan`` is attached as
        ``.plan``.  The old session must be discarded: converted arrays
        may share memory with it.

        Batched pending updates **flush before the switch** (the
        flush-before-switch convention): deltas must land in the state
        that crosses the backend boundary.  The batching policy carries
        over — a plan-derived width is re-read from the new plan, a
        user-forced width is kept verbatim.
        """
        self.flush()
        if getattr(plan, "nodes", 1) > 1:
            raise ValueError(
                "cannot switch into a sharded (nodes > 1) plan mid-stream; "
                "open a new session with open_session(..., nodes=N)"
            )
        backend = get_backend(plan.backend)
        if plan.strategy == "REEVAL":
            session: Session = ReevalSession(
                self.program, self.views, counter=self.counter,
                backend=backend,
            )
        elif plan.strategy == "INCR":
            session = IVMSession(
                self.program, self.views, rank=rank, optimize=optimize,
                mode=plan.mode, counter=self.counter, backend=backend,
            )
        else:
            raise ValueError(
                f"sessions support INCR or REEVAL, not {plan.strategy!r}"
            )
        session.update_count = self.update_count
        session.plan = plan
        if self._auto_batch:
            width = plan.batch_size
        elif self._batcher is not None:
            width = self._batcher.width
        else:
            width = None
        rtol = self._batcher.rtol if self._batcher is not None else DEFAULT_RTOL
        session.set_batching(width, max_staleness=self._batch_staleness,
                             rtol=rtol, auto=self._auto_batch)
        if self._batcher is not None and session._batcher is not None:
            # Compression accounting spans the whole stream, not just
            # the segment since the last switch.
            session._batcher.stats = self._batcher.stats
        # The partition policy carries over the same way: plan-derived
        # modes are re-read from the new plan, a user-forced mode is
        # kept verbatim; the warm sketch and split statistics follow.
        if self._auto_partition:
            if getattr(plan, "partition", "uniform") == "heavy-light":
                session.set_partition(
                    "heavy-light", heavy_budget=plan.heavy_budget,
                    max_staleness=self._partition_staleness(),
                    auto=True, sketch=self._partition_sketch(),
                    observe=self._partition_observe(),
                )
            else:
                session.set_partition("uniform", auto=True)
        elif self._partitioner is not None:
            prior = self._partitioner
            session.set_partition(
                "heavy-light", heavy_budget=prior.budget,
                rank_bound=prior.rank_bound, retune_every=prior.retune_every,
                max_staleness=prior.max_staleness, rtol=prior.rtol,
                sketch=prior.sketch, observe=prior.observe_stream,
            )
        if self._partitioner is not None and session._partitioner is not None:
            session._partitioner.stats = self._partitioner.stats
        # The checkpoint policy follows the live state: the delta log
        # keeps accumulating across the switch (snapshots capture the
        # new configuration), and the old session stops noting.
        if self._checkpointer is not None:
            checkpointer = self._checkpointer
            checkpointer.session = session
            checkpointer.rank = rank
            checkpointer.optimize = optimize
            session._checkpointer = checkpointer
            self._checkpointer = None
        return session

    def _partition_staleness(self) -> int | None:
        if self._partitioner is not None:
            return self._partitioner.max_staleness
        return self._batch_staleness

    def _partition_sketch(self):
        return self._partitioner.sketch if self._partitioner is not None else None

    def _partition_observe(self):
        if self._partitioner is not None:
            return self._partitioner.observe_stream
        return None

    def revalidate(self) -> float:
        """Recompute every view from the current inputs; return max drift.

        Useful for monitoring numerical error accumulated over long
        update streams.  Leaves the maintained values in place.  Acts
        as a read: batched pending updates flush first.
        """
        self.flush()
        env = {name: self.views.get(name) for name in self.program.input_names}
        worst = 0.0
        for stmt in self.program.statements:
            value = evaluate(stmt.expr, env, dims=self.views.dims,
                             backend=self.backend)
            drift = self.backend.max_abs(
                self.backend.sub(value, self.views.get(stmt.target.name))
            )
            worst = max(worst, drift)
            env[stmt.target.name] = value
        return worst


def _derive_triggers(program: Program, rank, optimize: bool
                     ) -> dict[str, Trigger]:
    """Algorithm 1 at update width ``rank``, optionally optimized."""
    triggers = compile_program(program, rank=rank)
    if optimize:
        triggers = {name: optimize_trigger(trigger)
                    for name, trigger in triggers.items()}
    return triggers


class IVMSession(Session):
    """Incrementally maintained program state (the INCR strategy).

    Adds to :class:`Session`:

    rank:
        Expected width of incoming factored updates.  Updates of any
        width are accepted in either mode at their true cost (widths
        only appear as array shapes).
    optimize:
        Run the Section 6 optimizer pipeline over each trigger.
    mode:
        ``"interpret"`` or ``"codegen"`` (see module docstring).
    """

    strategy = "INCR"

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        rank: int = 1,
        optimize: bool = False,
        mode: str = "interpret",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        if mode not in ("interpret", "codegen"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        super().__init__(program, inputs, dims, counter, backend)

        self.triggers: dict[str, Trigger] = _derive_triggers(
            program, rank, optimize)
        #: One compiled callable per trigger (codegen mode): the fused
        #: in-place form, or the generic one where fusion is impossible.
        self._compiled: dict[str, Callable] = {}
        self.workspace: Workspace | None = None
        if mode == "codegen":
            self._compile_codegen(
                _derive_triggers(program, UPDATE_RANK, optimize))

    def _compile_codegen(self, polymorphic: Mapping[str, Trigger]) -> None:
        """Compile each trigger once into the callable every update runs.

        Fused forms come from the ``polymorphic`` triggers, derived at
        the symbolic update rank, so one callable serves every update
        width; the derivation is structural, so they evaluate the same
        expressions in the same association order as :attr:`triggers`.
        Triggers the specializer cannot lower (symbolic dims it cannot
        bind, nodes without an in-place kernel) compile to the generic
        form — the interpreter contract is never at risk, only the
        allocation profile.
        """
        dims = self._bound_dims()
        self.workspace = Workspace()
        mutated: set[str] = set()
        for name, trigger in self.triggers.items():
            try:
                fn = compile_fused_trigger(
                    polymorphic[name], dims, backend=self.backend,
                    workspace=self.workspace,
                )
            except FusedUnsupported:
                fn = compile_trigger_function(trigger, backend=self.backend)
            else:
                mutated.update(trigger.updated_views)
            self._compiled[name] = fn
        # The fused path mutates views in place, so every view it will
        # touch must be session-owned (callers may have handed us their
        # arrays — including CSR objects ViewStore stores by
        # reference): one defensive copy per view, once, at compile
        # time.
        for name in mutated:
            arr = self.views.get(name)
            if isinstance(arr, np.ndarray):
                self.views._arrays[name] = np.array(
                    arr, dtype=np.float64, order="C"
                )
            else:
                self.views._arrays[name] = arr.copy()

    def _bound_dims(self) -> dict[str, int]:
        """User-supplied dims completed from the stored inputs' shapes."""
        dims = dict(self.views.dims)
        for sym in self.program.inputs:
            if sym.name not in self.views:
                continue
            shape = self.backend.shape(self.views.get(sym.name))
            for dim, size in zip((sym.shape.rows, sym.shape.cols), shape):
                name = getattr(dim, "name", None)
                if name is not None:
                    dims.setdefault(name, int(size))
        return dims

    # -- maintenance -----------------------------------------------------
    def _check_update_target(self, update: FactoredUpdate) -> None:
        if update.target not in self.triggers:
            raise KeyError(f"no trigger compiled for input {update.target!r}")

    def _apply_now(self, update: FactoredUpdate) -> None:
        """Maintain every view for one factored update (the INCR path)."""
        trigger = self.triggers.get(update.target)
        if trigger is None:
            raise KeyError(f"no trigger compiled for input {update.target!r}")
        if self.mode == "codegen":
            self._compiled[update.target](
                self.views._arrays, update.u_block, update.v_block,
                dims=self.views.dims,
            )
        else:
            self._interpret(trigger, update)

    def _interpret(self, trigger: Trigger, update: FactoredUpdate) -> None:
        env = self.views.as_env()
        u_name, v_name = (p.name for p in trigger.params)
        env[u_name] = update.u_block
        env[v_name] = update.v_block
        for assign in trigger.assigns:
            env[assign.target.name] = evaluate(
                assign.expr, env, dims=self.views.dims, counter=self.counter,
                backend=self.backend,
            )
        # Updates in the canonical factored shape ``view += U V'`` apply
        # through the backend's add_outer kernel — no dense delta is
        # materialized, and sparse view state stays sparse.  Anything
        # else (e.g. optimizer-rewritten exprs) evaluates generically.
        # Either way all factors were derived above from old values, so
        # application order cannot leak new state into deltas.
        outers: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        deltas: dict[str, np.ndarray] = {}
        for upd in trigger.updates:
            operands = outer_operands(upd.expr)
            if operands is not None and all(n in env for n in operands):
                factors = (env[operands[0]], env[operands[1]])
                self._charge_outer(upd.view.name, factors)
                outers[upd.view.name] = factors
            else:
                deltas[upd.view.name] = evaluate(
                    upd.expr, env, dims=self.views.dims, counter=self.counter,
                    backend=self.backend,
                )
        for name, (u_arr, v_arr) in outers.items():
            self.views.add_outer(name, u_arr, v_arr)
        for name, delta in deltas.items():
            self.views.add_in_place(name, delta)

    def _charge_outer(
        self, name: str, factors: tuple[np.ndarray, np.ndarray]
    ) -> None:
        """Charge a factored application like the evaluated form did."""
        u_arr, v_arr = factors
        current = self.views.get(name)
        rows, cols = self.backend.shape(current)
        self.counter.record("transpose", 0)
        self.counter.record(
            "matmul",
            outer_update_flops(self.backend, current, u_arr, v_arr),
            rows * cols * 8,
        )


class ReevalSession(Session):
    """The re-evaluation baseline (REEVAL): apply the update, recompute.

    Mirrors :class:`IVMSession`'s interface so experiments can swap the
    two strategies without touching driver code.
    """

    strategy = "REEVAL"

    def _apply_now(self, update: FactoredUpdate) -> None:
        """Apply the update to its input and re-evaluate every statement.

        This is where batching pays most: a width-``m`` batch costs one
        compaction plus *one* re-evaluation instead of ``m``.
        """
        self.views.add_outer(update.target, update.u_block, update.v_block)
        self._materialize_all()


class ShardedChainSession(Session):
    """INCR maintenance on a multiprocess shared-memory shard engine.

    Views live in ``multiprocessing.shared_memory`` segments shared with
    ``nodes`` persistent workers
    (:class:`~repro.distributed.sharded.ShardedEngine`); each factored
    update runs the chain recurrence with the big per-tile dgemms fanned
    out across workers and only thin rank-k factors crossing pipes.
    Requires the dense backend and a chain-shaped program (every
    statement a product of two existing views of one square input —
    :func:`~repro.distributed.sharded.chain_steps`).

    ``session.views`` aliases the shared segments, so reads are
    zero-copy *live* state — copy what must survive further updates.
    Measured traffic accumulates in ``session.engine.comm``.

    :meth:`with_plan` honors the flush-before-switch contract for node
    count changes: pending deltas drain, view state is copied out of
    shared memory, the workers stop, and only then does the ordinary
    single-process switch run.
    """

    strategy = "INCR"
    mode = "interpret"

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        nodes: int = 2,
        shard: str = "range",
        tile_rows: int | None = None,
        start_method: str = "spawn",
        timeout: float | None = None,
        supervise: bool = False,
        recover: str = "reeval",
    ):
        from ..distributed.partitioner import RowShardPartitioner
        from ..distributed.sharded import ShardedEngine, chain_steps
        from ..distributed.workers import DEFAULT_TIMEOUT

        if recover not in ("reeval", "fail"):
            raise ValueError(f"recover must be 'reeval' or 'fail', "
                             f"got {recover!r}")

        resolved_backend = get_backend(backend)
        if resolved_backend.name != "dense":
            raise ValueError(
                f"sharded sessions require the dense backend, "
                f"got {resolved_backend.name!r}"
            )
        if nodes < 2:
            raise ValueError(f"nodes must be >= 2 for a sharded session, "
                             f"got {nodes}")
        parsed = chain_steps(program)
        if parsed is None:
            raise ValueError(
                "nodes > 1 requires a chain-shaped program: one input, "
                "every statement a product of two existing views"
            )
        self._input_name, self._steps = parsed
        super().__init__(program, inputs, dims, counter, resolved_backend)
        seed = self.views.get_dense(self._input_name)
        if seed.ndim != 2 or seed.shape[0] != seed.shape[1]:
            raise ValueError(
                f"sharded maintenance needs a square input, "
                f"got shape {seed.shape}"
            )
        partitioner = RowShardPartitioner(seed.shape[0], nodes,
                                          strategy=shard, tile_rows=tile_rows)
        self.nodes = nodes
        self.shard = shard
        self.recover = recover
        #: One record per REEVAL fallback taken after an unrecoverable
        #: worker failure (see :meth:`_reeval_recover`).
        self.fallback_events: list[dict] = []
        self.engine = ShardedEngine(
            partitioner, start_method=start_method,
            timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
            supervise=supervise,
        )
        self._sharded = False
        self._shard_views()

    @property
    def recoveries(self) -> list:
        """Supervised worker recoveries logged by the cluster."""
        return self.engine.recoveries

    def _shard_names(self) -> list[str]:
        return [self._input_name] + [target for target, _, _ in self._steps]

    def _shard_views(self) -> None:
        """Copy every maintained view into shared memory and re-point
        the store at the segment-backed arrays (zero-copy reads).

        On any failure mid-sharding (a full ``/dev/shm`` raising
        :class:`~repro.distributed.shm.SharedMemoryBudgetError`, a
        worker dying during attach) the already-sharded views are
        copied back to private arrays and the cluster is shut down
        before the error propagates — the session's state stays intact
        for a single-process fallback.
        """
        done: list[str] = []
        try:
            for name in self._shard_names():
                shared = self.engine.put(name, self.views.get_dense(name))
                self.views._arrays[name] = shared
                done.append(name)
        except Exception:
            for name in done:
                self.views._arrays[name] = np.array(self.views._arrays[name])
            self.engine.close()
            raise
        self._sharded = True

    def _unshard(self) -> None:
        """Copy state out of shared memory and stop the workers."""
        if not self._sharded:
            return
        for name in self._shard_names():
            self.views._arrays[name] = np.array(self.views._arrays[name])
        self._sharded = False
        self.engine.close()

    def _apply_now(self, update: FactoredUpdate) -> None:
        from ..distributed.sharded import sharded_refresh
        from ..distributed.workers import WorkerFailedError

        if update.target != self._input_name:
            raise KeyError(
                f"sharded sessions maintain updates to "
                f"{self._input_name!r}, got {update.target!r}"
            )
        flops = outer_update_flops(
            self.backend, self.views.get(self._input_name),
            update.u_block, update.v_block,
        )
        self.counter.record("sharded_refresh",
                            flops * len(self._shard_names()))
        progress: list = []
        try:
            sharded_refresh(self.engine, self._input_name, self._steps,
                            update.u_block, update.v_block,
                            progress=progress)
        except WorkerFailedError as error:
            if self.recover != "reeval" or not self._sharded:
                raise
            self._reeval_recover(progress, update, error)

    def _reeval_recover(self, progress: list, update: FactoredUpdate,
                        error: Exception) -> None:
        """Recover from an unrecoverable cluster failure mid-refresh.

        The refresh's ``progress`` log pins down exactly how far the
        shared-memory state got (see
        :func:`~repro.distributed.sharded.sharded_refresh`): views
        whose ``"added"`` entry landed absorbed their delta, the one
        with an unmatched ``"adding"`` may hold torn rows, later ones
        are untouched.  Recovery migrates onto a single-process
        :class:`~repro.distributed.sharded.LocalShardEngine` (same
        tiles, same kernels):

        * input not yet absorbed → nothing durable changed; the whole
          refresh reruns locally (the INCR path, bitwise-identical
          arithmetic);
        * input absorbed → every derived view is re-evaluated from the
          consistent input via tiled ``matmul`` (the REEVAL path of
          Section 2 — more expensive, erases any torn rows).

        A torn *input* has no consistent basis on either path, so that
        case re-raises — restore from a checkpoint instead.  The
        session continues single-process; re-sharding is a fresh
        ``open_session(nodes=N)``.
        """
        from ..distributed.sharded import LocalShardEngine, sharded_refresh

        added = {entry[1] for entry in progress if entry[0] == "added"}
        adding = [entry[1] for entry in progress if entry[0] == "adding"]
        torn = (adding[-1]
                if adding and adding[-1] not in added else None)
        if torn == self._input_name:
            raise RuntimeError(
                f"input {self._input_name!r} torn mid-absorption; no "
                f"consistent basis to re-evaluate from — restore from a "
                f"checkpoint"
            ) from error
        local = LocalShardEngine(self.engine.part)
        for name in self._shard_names():
            # The shm mappings survive the cluster teardown (the store
            # still references them); copy out to private arrays.
            local.put(name, np.array(self.views._arrays[name]))
        if self._input_name in added:
            mode = "reeval"
            for target, left, right in self._steps:
                local.matmul(target, left, right)
        else:
            mode = "replay"
            sharded_refresh(local, self._input_name, self._steps,
                            update.u_block, update.v_block)
        for name in self._shard_names():
            self.views._arrays[name] = local.get(name)
        old, self.engine = self.engine, local
        old.close()
        self.nodes = 1
        self.fallback_events.append({
            "mode": mode, "torn": torn, "applied": sorted(added),
            "reason": str(error), "update_count": self.update_count,
        })

    def rebuild(self) -> None:
        """Re-evaluate from current inputs, then refill the segments.

        ``_materialize_all`` replaces the store's arrays with freshly
        evaluated private ones; the shared segments must be re-seeded
        and re-pointed so workers keep seeing the maintained state.
        """
        self.flush()
        if not self._sharded:
            super().rebuild()
            return
        self._materialize_all()
        for target, _, _ in self._steps:
            fresh = self.views.get_dense(target)
            shared = self.engine.get(target)
            if fresh is not shared:
                shared[...] = fresh
                self.views._arrays[target] = shared

    def with_plan(self, plan, rank: int = 1, optimize: bool = False) -> "Session":
        """Fall back to a single-process configuration.

        Flush-before-switch for node-count changes: pending deltas
        drain into shared memory, the views are copied out, the cluster
        shuts down, then the ordinary switch builds the new session
        from the private state.
        """
        self.flush()
        self._unshard()
        return super().with_plan(plan, rank=rank, optimize=optimize)

    def close(self) -> None:
        """Copy view state out of shared memory and stop the workers."""
        self._unshard()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def open_session(
    program: Program,
    inputs: Mapping[str, np.ndarray],
    dims: Mapping[str, int] | None = None,
    plan="auto",
    backend=None,
    mode: str | None = None,
    rank: int = 1,
    refresh_count: int | None = None,
    optimize: bool = False,
    counter: counters.Counter = counters.NULL_COUNTER,
    drift=None,
    replan=None,
    batch="auto",
    max_staleness: int | None = None,
    partition="auto",
    heavy_budget: int | None = None,
    serve=None,
    nodes=1,
    shard: str = "range",
    supervise: bool = False,
    checkpoint=None,
    catalog=None,
):
    """Open a maintenance session, planning the configuration if asked.

    Parameters
    ----------
    plan:
        ``"auto"`` (default) asks :func:`repro.planner.plan_program`
        for the cheapest (strategy, backend, mode) given the inputs'
        measured shapes and densities; ``"incr"`` / ``"reeval"`` force
        the strategy but still plan the other axes; a
        :class:`~repro.planner.plan.MaintenancePlan` is used verbatim.
    backend, mode:
        Explicit overrides that win over whatever the planner chose
        (``None`` defers to the plan).
    rank:
        Expected width of incoming factored updates (planning statistic
        and trigger compilation width).
    refresh_count:
        Expected number of updates this session will absorb; amortizes
        setup cost in planning and gates codegen.  ``None`` uses the
        planner default.
    drift:
        ``None`` (no monitoring), ``True`` (defaults), or a dict of
        :class:`~repro.runtime.drift.SessionDriftMonitor` options
        (``check_every``, ``tolerance``, ``action``).  With monitoring
        the return value is the monitor wrapping the session; the
        ``rebuild`` action recomputes all views from current inputs.
    replan:
        ``None`` (static plan), ``True`` (defaults), or a dict of
        :class:`~repro.runtime.drift.ReplanMonitor` options
        (``check_every``, ``switch_margin``, ``expected_refreshes``,
        plus the drift options).  Returns the re-planning monitor
        wrapping the session: the plan grid is re-priced from live
        state every ``check_every`` updates and the session switches
        strategy/backend mid-stream when it pays.  Subsumes ``drift``
        (options given there are folded in underneath).
    batch:
        ``"auto"`` (default) honors the resolved plan's
        ``batch_size``: when it is greater than 1 the session collects
        updates in a :class:`~repro.delta.batch.BatchCollector` and
        flushes one QR+SVD-compacted refresh per batch (reads, drift
        probes and plan switches flush early; see
        :meth:`Session.set_batching`).  ``"off"``/``None``/``1``
        disables batching; an integer forces that width regardless of
        the plan (re-planning never overrides a forced width).
    max_staleness:
        Upper bound on pending batched updates (a read-lag bound below
        the planned width); ``None`` leaves the width as the only bound.
        Applies to the heavy-light path too (total pending count).
    partition:
        ``"auto"`` (default) honors the resolved plan's ``partition``
        axis: when the planner recommended ``"heavy-light"`` (it needs
        a skew-measuring :class:`~repro.planner.plan.StreamSketch` in
        ``WorkloadStats.distinct_fraction`` to do so), ``apply_update``
        routes through a
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer` —
        heavy-hitter rows merge eagerly into accumulator rows, the
        light tail defers into a compacted pending block (see
        :meth:`Session.set_partition`); re-planning may re-tune the
        mode mid-stream.  ``"uniform"`` forces the split off;
        ``"heavy-light"`` forces it on regardless of the plan (never
        overridden by re-planning).  Partitioning takes precedence
        over uniform batching when both resolve on.
    heavy_budget:
        Heavy-set capacity for ``partition="heavy-light"``; ``None``
        takes the plan's recommendation or the runtime default
        (:data:`~repro.runtime.heavylight.DEFAULT_HEAVY_BUDGET`).
    serve:
        ``None`` (default) returns the single-threaded session/monitor;
        ``True`` (defaults) or a dict of
        :class:`~repro.runtime.serving.ViewServer` options
        (``max_staleness``, ``max_age``, ``views``, ``max_queue``)
        wraps it in a concurrent view server instead: one writer
        thread drains an ingress queue through ``apply_update`` (and
        runs any ``replan=``/``drift=`` monitor on that thread), while
        readers get lock-free snapshot reads of the last published
        epoch.  Note the server's ``max_staleness`` (its own key in the
        dict) is the *publication* bound, distinct from this
        function's batching ``max_staleness`` parameter.
    nodes:
        Worker-process budget for the planner's node-count axis.  An
        int ``N > 1`` prices the grid over ``(1, N)`` — the planner
        picks sharded execution only when the comm-cost model says it
        pays, so a tiny view still opens single-process; a tuple/list
        prices exactly those counts (``(4,)`` forces the 4-worker
        cell).  When the resolved plan has ``plan.nodes > 1`` the
        session is a :class:`ShardedChainSession` over a spawned
        :class:`~repro.distributed.workers.ProcessCluster` — call
        ``session.close()`` (or use it as a context manager) to copy
        state out of shared memory and stop the workers.
    shard:
        Shard strategy for sharded sessions: ``"range"`` (contiguous
        tile runs) or ``"hash"`` (round-robin tiles).  Maintenance
        results are bitwise identical either way; the axis exists for
        the skew/locality ablation.
    supervise:
        For sharded sessions: run the cluster under worker supervision
        (:class:`~repro.distributed.workers.ProcessCluster` with
        ``supervise=True``) — a killed or hung worker is detected,
        respawned, and its shard re-materialized with the in-flight
        call retried, so ``kill -9`` becomes a logged
        :class:`~repro.distributed.workers.RecoveryEvent` instead of a
        poisoned cluster.  When even supervision cannot save the
        cluster, the session falls back to single-process maintenance
        (:meth:`ShardedChainSession._reeval_recover`).  If the
        machine's shared-memory budget cannot hold the views at all
        (:class:`~repro.distributed.shm.SharedMemoryBudgetError`), the
        session opens single-process with a ``RuntimeWarning``
        regardless of this flag.
    checkpoint:
        ``None`` (off); a directory path enabling durable
        checkpointing there with default policy; or a dict of
        :class:`~repro.runtime.checkpoint.Checkpointer` options plus
        ``"directory"`` and optionally ``"restore"``: ``restore=True``
        requires a valid snapshot (raises
        :class:`~repro.runtime.checkpoint.CheckpointError` otherwise),
        ``restore="auto"`` resumes from one when present and falls
        through to a fresh planned session when not.  A restored
        session resumes on the checkpointed plan (single-process; pass
        ``nodes=`` on a fresh open to re-shard) and keeps
        checkpointing to the same directory.  With ``serve=`` the
        server's writer thread additionally cuts due snapshots at
        epoch-publish boundaries, so readers never block on a write.
        An existing :class:`~repro.runtime.checkpoint.Checkpointer`
        is re-attached as-is.
    catalog:
        A :class:`~repro.catalog.ViewCatalog` to register this program
        with instead of opening a private session: shared
        subexpressions are maintained once across every tenant on the
        catalog, and the catalog's own maintenance configuration
        (strategy/mode/backend, fixed at its construction) wins over
        this call's planning arguments.  Returns the tenant's
        :class:`~repro.catalog.CatalogSession` — or, with ``serve=``,
        a :class:`~repro.runtime.serving.ViewServer` over it whose
        snapshot captures are atomic against other tenants' writers.
        Incompatible session-shaping arguments (``nodes``, monitors,
        batching, checkpointing) are ignored on this path.

    Returns the session (or its monitor, or its view server), with the
    resolved :class:`~repro.planner.plan.MaintenancePlan` attached as
    ``.plan``.
    """
    if catalog is not None:
        tenant = catalog.open(program, inputs, dims=dims)
        if serve:
            serve_options = {} if serve is True else dict(serve)
            return tenant.serve(**serve_options)
        return tenant
    from ..distributed.shm import SharedMemoryBudgetError
    from ..planner import MaintenancePlan, WorkloadStats, plan_program
    from .checkpoint import CheckpointError, Checkpointer, restore_session
    from .drift import ReplanMonitor, SessionDriftMonitor
    from .serving import ViewServer

    ckpt_target = None
    ckpt_options: dict = {}
    ckpt_restore = False
    if checkpoint is not None:
        if isinstance(checkpoint, (Checkpointer, str, Path)):
            ckpt_target = checkpoint
        elif isinstance(checkpoint, Mapping):
            ckpt_options = dict(checkpoint)
            ckpt_target = ckpt_options.pop("directory", None)
            ckpt_restore = ckpt_options.pop("restore", False)
            if ckpt_target is None:
                raise ValueError("checkpoint dict needs a 'directory' entry")
            if ckpt_restore not in (False, True, "auto"):
                raise ValueError(
                    f"checkpoint restore must be True, False or 'auto', "
                    f"got {ckpt_restore!r}"
                )
        else:
            raise ValueError(
                f"checkpoint must be a directory, an options dict or a "
                f"Checkpointer, got {checkpoint!r}"
            )

    session: Session | None = None
    if ckpt_restore and not isinstance(ckpt_target, Checkpointer):
        try:
            session = restore_session(program, ckpt_target, counter=counter)
        except CheckpointError:
            if ckpt_restore is True:
                raise
            # restore="auto": no valid snapshot yet — plan fresh below.
            session = None

    if session is not None:
        # Resume on the checkpointed configuration: the snapshot's plan
        # wins over this call's plan/batch/partition arguments (they
        # describe a fresh open, not the state being resumed).
        resolved = getattr(session, "plan", None)
        if resolved is None:
            resolved = plan_program(
                program, inputs, stats=WorkloadStats(n=1, update_rank=rank),
                dims=dims)
            session.plan = resolved
    else:
        stats_kwargs = {"update_rank": rank}
        if refresh_count is not None:
            stats_kwargs["refresh_count"] = refresh_count
        stats = WorkloadStats(n=1, **stats_kwargs)

        if isinstance(nodes, (tuple, list)):
            node_grid = tuple(int(count) for count in nodes) or (1,)
        else:
            node_grid = (1, int(nodes)) if int(nodes) > 1 else (1,)

        if isinstance(plan, MaintenancePlan):
            resolved = plan
        elif plan in ("auto", None):
            resolved = plan_program(program, inputs, stats=stats, dims=dims,
                                    nodes=node_grid)
        elif isinstance(plan, str) and plan.upper() in ("INCR", "REEVAL"):
            resolved = plan_program(program, inputs, stats=stats, dims=dims,
                                    strategies=(plan.upper(),),
                                    nodes=node_grid)
        else:
            raise ValueError(
                f"plan must be 'auto', 'incr', 'reeval' or a MaintenancePlan, "
                f"got {plan!r}"
            )
        resolved = resolved.with_overrides(
            backend=backend and get_backend(backend).name, mode=mode)
        if resolved.strategy not in ("INCR", "REEVAL"):
            raise ValueError(
                f"sessions support INCR or REEVAL, not {resolved.strategy!r} "
                "(HYBRID exists only for the iterative maintainers)"
            )

        if resolved.nodes > 1:
            # Sharded execution runs the interpret-style tile kernels.
            resolved = resolved.with_overrides(mode="interpret")
            try:
                session = ShardedChainSession(
                    program, inputs, dims, counter=counter,
                    backend=resolved.backend, nodes=resolved.nodes,
                    shard=shard, supervise=supervise,
                )
            except SharedMemoryBudgetError as exc:
                # Out of /dev/shm: a sharded plan cannot hold its views.
                # Degrade to the single-process configuration instead of
                # failing the open — the planner's grid always prices it.
                warnings.warn(
                    f"shared-memory budget exhausted; opening the planned "
                    f"{resolved.nodes}-node session single-process instead "
                    f"({exc})",
                    RuntimeWarning, stacklevel=2,
                )
                resolved = dataclasses.replace(resolved, nodes=1)
                session = IVMSession(
                    program, inputs, dims, rank=rank, optimize=optimize,
                    mode=resolved.mode, counter=counter,
                    backend=resolved.backend,
                )
        elif resolved.strategy == "REEVAL":
            # Re-evaluation has no trigger code, so no execution mode.
            resolved = resolved.with_overrides(mode="interpret")
            session = ReevalSession(
                program, inputs, dims, counter=counter,
                backend=resolved.backend,
            )
        else:
            session = IVMSession(
                program, inputs, dims, rank=rank, optimize=optimize,
                mode=resolved.mode, counter=counter, backend=resolved.backend,
            )
        session.plan = resolved

        if batch == "auto" or batch is True:
            session.set_batching(resolved.batch_size,
                                 max_staleness=max_staleness, auto=True)
        elif batch == "off" or batch is None or batch is False:
            pass
        elif isinstance(batch, int) and not isinstance(batch, bool):
            if batch < 1:
                raise ValueError(f"batch width must be >= 1, got {batch!r}")
            if batch > 1:
                session.set_batching(batch, max_staleness=max_staleness)
        else:
            raise ValueError(
                f"batch must be 'auto', 'off', None or a width >= 1, "
                f"got {batch!r}"
            )

        if partition == "auto" or partition is True:
            if resolved.partition == "heavy-light":
                session.set_partition(
                    "heavy-light",
                    heavy_budget=heavy_budget or resolved.heavy_budget,
                    max_staleness=max_staleness, auto=True,
                )
            else:
                # Uniform for now, but plan-derived: re-planning may
                # still switch the split on when the stream turns skewed.
                session.set_partition("uniform", auto=True)
        elif (partition in ("uniform", "off") or partition is None
                or partition is False):
            session.set_partition("uniform")
        elif partition == "heavy-light":
            session.set_partition(
                "heavy-light", heavy_budget=heavy_budget,
                max_staleness=max_staleness,
            )
        else:
            raise ValueError(
                f"partition must be 'auto', 'uniform' or 'heavy-light', "
                f"got {partition!r}"
            )

    if ckpt_target is not None:
        options = dict(ckpt_options)
        if not isinstance(ckpt_target, Checkpointer):
            options.setdefault("rank", rank)
            options.setdefault("optimize", optimize)
        session.attach_checkpointer(ckpt_target, **options)

    result = session
    if replan:
        options = {} if replan is True else dict(replan)
        if drift:
            # Fold a drift= request underneath: its cadence becomes the
            # numerical probe schedule, its policy options pass through.
            drift_options = {} if drift is True else dict(drift)
            options.setdefault(
                "probe_every", drift_options.pop("check_every", 100))
            for key, value in drift_options.items():
                options.setdefault(key, value)
        options.setdefault("expected_refreshes", refresh_count)
        result = ReplanMonitor(session, **options)
        result.plan = resolved
    elif drift:
        options = {} if drift is True else dict(drift)
        result = SessionDriftMonitor(session, **options)
        result.plan = resolved
    if serve:
        # The server's writer thread becomes the session's (and any
        # monitor's) sole owner: replans and drift probes run there.
        serve_options = {} if serve is True else dict(serve)
        server = ViewServer(result, **serve_options)
        server.plan = resolved
        return server
    return result
