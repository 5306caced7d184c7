"""Fused, buffer-reusing trigger specialization (the zero-alloc path).

:mod:`.python_gen` lowers a trigger to *generic* Python: every kernel
allocates its result, every call re-dispatches through the backend, and
shapes are rediscovered per call.  That is the right artifact for
humans and for triggers with no in-place lowering — and the wrong one
for the steady state, where a session fires the same trigger millions
of times over matrices whose shapes never change.  This module is the
second, hotter lowering: given a trigger, a **bound** ``dims`` mapping
and a backend, :func:`generate_fused_trigger` resolves every expression
node's shape at *compile* time and emits a flat function whose
temporaries are **preallocated buffers** leased from a
:class:`~repro.runtime.workspace.Workspace`:

* every product/sum/scale runs through the backend's ``*_into``
  kernels (``np.matmul(..., out=)``, ufunc ``out=``) into its
  preassigned buffer — no result allocation;
* additions accumulate with ``+=``-style aliasing
  (``add_into(acc, t, acc)``);
* transposes of views and params are hoisted to one locals-binding at
  function top instead of being re-derived inside every expression;
* identity/zero leaves are materialized once, not per firing;
* update statements apply through :meth:`add_outer_inplace
  <repro.backends.base.Backend.add_outer_inplace>` — views mutate in
  place (dense) instead of being copied per firing.  All delta
  expressions are still evaluated before any view is touched, so the
  trigger contract (deltas read only old values) survives the loss of
  copy-on-write.

**Rank polymorphism.**  A trigger compiled at a *symbolic* update rank
(``compile_program(program, rank=UPDATE_RANK)``) yields buffer shapes
that are functions of the update width ``r``.  The callable
:func:`compile_fused_trigger` returns accepts any ``r``: its buffers
are leased once at the widest rank seen so far (``fn.__capacity__``),
re-leased once when a wider update arrives (the outgrown set goes back
to the allocator), and each width runs on C-contiguous ``(rows, cols)``
views of those buffers bound once per width — so rank-1 streams,
batched rank-``k`` flushes and heavy-light rank-``r`` folds all share
one in-place path, and memory follows the widest rank, not the sum.
A trigger compiled at a concrete rank accepts exactly that width.

After one warm-up firing per width the function performs **zero heap
allocation** on the dense backend (``tracemalloc``-verified in
``benchmarks/bench_fused_hotpath.py``); sparse state falls back to
allocation exactly where CSR structure forbids in-place writes.

Triggers containing nodes without an in-place lowering (``Inverse``),
or whose dimensions cannot be resolved from ``dims``, raise
:class:`FusedUnsupported` — callers (``IVMSession``) compile those
once into the generic :func:`~.python_gen.compile_trigger_function`
form instead.

Generated signature matches the generic path::

    def on_update_A(views, u_A, v_A, dims=None): ...

with ``fn.__source__`` (the emitted text), ``fn.__capacity__`` (the
update width the buffers are currently sized for) and
``fn.__workspace__`` attached.
"""

from __future__ import annotations

from types import FunctionType
from typing import Callable, Mapping

import numpy as np

from ...expr.ast import (
    Add,
    Expr,
    HStack,
    Identity,
    MatMul,
    MatrixSymbol,
    ScalarMul,
    Transpose,
    VStack,
    ZeroMatrix,
)
from ...expr.shapes import DimLike, NamedDim
from ...expr.visitors import walk
from ..trigger import Trigger
from .python_gen import _referenced_views, outer_operands


#: The symbolic update width fused triggers are compiled at: every
#: buffer shape becomes a function of the width bound per call.
UPDATE_RANK = NamedDim("update_rank")


class FusedUnsupported(TypeError):
    """The trigger cannot be lowered to the fused in-place form."""


def _resolve(dim, dims: Mapping[str, int]) -> int:
    """Resolve a DimLike to a concrete int or raise FusedUnsupported."""
    # Local twin of runtime.executor.resolve_dim raising the fallback
    # signal instead of EvaluationError (and avoiding an import cycle).
    if isinstance(dim, bool) or dim is None:
        raise FusedUnsupported(f"cannot resolve dimension {dim!r}")
    if isinstance(dim, int):
        return dim
    name = getattr(dim, "name", None)
    if name is not None:
        try:
            return int(dims[name])
        except KeyError:
            raise FusedUnsupported(f"unbound dimension {name!r}") from None
    atoms = getattr(dim, "atoms", None)
    if atoms is not None:
        return sum(_resolve(a, dims) for a in atoms) + int(dim.const)
    raise FusedUnsupported(f"cannot resolve dimension {dim!r}")


def _copy_into(out: np.ndarray, src) -> np.ndarray:
    """Materialize ``src`` into the buffer ``out`` (dense fast path)."""
    if isinstance(src, np.ndarray):
        np.copyto(out, src)
        return out
    return src.copy()  # sparse fallback: buffers cannot hold CSR


def _free_rank(trigger: Trigger, dims: Mapping[str, int]) -> str | None:
    """Name of the trigger's update-width dim when ``dims`` leaves it free."""
    name = getattr(trigger.params[0].shape.cols, "name", None)
    return name if name is not None and name not in dims else None


class _Emitter:
    """Accumulates generated lines, buffer specs and constant specs."""

    def __init__(self, dims: Mapping[str, int]):
        #: Bindings every shape must resolve against (validation only:
        #: specs keep their symbolic dims, resolved per update width).
        self.dims = dims
        self.lines: list[str] = []
        #: ``(name, rows, cols)`` of every workspace buffer, lease order.
        self.buffers: list[tuple[str, DimLike, DimLike]] = []
        #: name -> ``("eye", n)`` / ``("zeros", rows, cols)`` spec.
        self.constants: dict[str, tuple] = {}
        self._locals = 0

    def shape(self, expr: Expr) -> tuple[DimLike, DimLike]:
        rows, cols = expr.shape.rows, expr.shape.cols
        _resolve(rows, self.dims)
        _resolve(cols, self.dims)
        return rows, cols

    def buffer(self, rows: DimLike, cols: DimLike) -> str:
        name = f"_b{len(self.buffers)}"
        self.buffers.append((name, rows, cols))
        return name

    def local(self) -> str:
        self._locals += 1
        return f"_t{self._locals}"

    def emit(self, line: str) -> None:
        self.lines.append(f"    {line}")

    def constant(self, spec: tuple) -> str:
        name = f"_c{len(self.constants)}"
        self.constants[name] = spec
        return name


def _emit_expr(em: _Emitter, expr: Expr, transposed_views: Mapping[str, str]):
    """Emit statements computing ``expr``; return (fragment, buffer).

    ``fragment`` is the source naming the result (a function local);
    ``buffer`` is the name of the workspace buffer backing it, or
    ``None`` when the fragment merely aliases a view/param/constant.
    Buffer names are *globals* of the generated function (the leased
    arrays bind into its namespace), so results always land in fresh
    locals — assigning to a buffer name would shadow the binding.
    """
    if isinstance(expr, MatrixSymbol):
        return expr.name, None
    if isinstance(expr, Transpose):
        child = expr.child
        if isinstance(child, MatrixSymbol) and child.name in transposed_views:
            return transposed_views[child.name], None
        frag, _ = _emit_expr(em, child, transposed_views)
        return f"{frag}.T", None
    if isinstance(expr, Identity):
        rows, _ = em.shape(expr)
        return em.constant(("eye", rows)), None
    if isinstance(expr, ZeroMatrix):
        return em.constant(("zeros", *em.shape(expr))), None
    if isinstance(expr, MatMul):
        frag, _ = _emit_expr(em, expr.children[0], transposed_views)
        rows = em.shape(expr.children[0])[0]
        for child in expr.children[1:]:
            rhs, _ = _emit_expr(em, child, transposed_views)
            cols = em.shape(child)[1]
            buf = em.buffer(rows, cols)
            out = em.local()
            em.emit(f"{out} = _mm({frag}, {rhs}, {buf})")
            frag = out
        return frag, buf
    if isinstance(expr, Add):
        first = expr.children[0]
        frag, buf = _emit_expr(em, first, transposed_views)
        if buf is None:
            buf = em.buffer(*em.shape(first))
            out = em.local()
            em.emit(f"{out} = _copy({buf}, {frag})")
            frag = out
        for term in expr.children[1:]:
            out = em.local()
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                rhs, _ = _emit_expr(em, term.child, transposed_views)
                em.emit(f"{out} = _sub({frag}, {rhs}, {buf})")
            else:
                rhs, _ = _emit_expr(em, term, transposed_views)
                em.emit(f"{out} = _add({frag}, {rhs}, {buf})")
            frag = out
        return frag, buf
    if isinstance(expr, ScalarMul):
        frag, _ = _emit_expr(em, expr.child, transposed_views)
        buf = em.buffer(*em.shape(expr))
        out = em.local()
        em.emit(f"{out} = _scale({expr.coeff!r}, {frag}, {buf})")
        return out, buf
    if isinstance(expr, (HStack, VStack)):
        frags = [
            _emit_expr(em, child, transposed_views)[0]
            for child in expr.children
        ]
        buf = em.buffer(*em.shape(expr))
        out = em.local()
        cat = "_hcat" if isinstance(expr, HStack) else "_vcat"
        em.emit(f"{out} = {cat}([{', '.join(frags)}], {buf})")
        return out, buf
    raise FusedUnsupported(
        f"no in-place lowering for node {type(expr).__name__}"
    )


def _hoistable_transposes(trigger: Trigger) -> list[str]:
    """Names whose plain transpose the trigger reads (views and params)."""
    local = set(trigger.temp_names)
    names: list[str] = []
    exprs = [a.expr for a in trigger.assigns] + [u.expr for u in trigger.updates]
    for expr in exprs:
        for node in walk(expr):
            if (
                isinstance(node, Transpose)
                and isinstance(node.child, MatrixSymbol)
                and node.child.name not in local
                and node.child.name not in names
            ):
                names.append(node.child.name)
    return names


def generate_fused_trigger(
    trigger: Trigger,
    dims: Mapping[str, int],
    function_name: str | None = None,
) -> tuple[str, list[tuple[str, DimLike, DimLike]], dict[str, tuple]]:
    """Fused source plus its buffer plan and constant specs.

    Returns ``(source, buffers, constants)``: ``buffers`` lists the
    ``(name, rows, cols)`` scratch buffers the function expects bound in
    its globals (lease them from a workspace, in order), ``constants``
    maps names to ``("eye", n)`` / ``("zeros", rows, cols)`` specs.
    Dimensions stay symbolic: resolve them against ``dims`` plus, for a
    trigger whose update width ``dims`` leaves free, that width.
    """
    name = function_name or f"on_update_{trigger.input_name}"
    params = ", ".join(p.name for p in trigger.params)
    free = _free_rank(trigger, dims)
    em = _Emitter({**dims, free: 1} if free else dims)
    views = _referenced_views(trigger)

    # Bind every referenced view to a local before anything runs; hoist
    # transposes of stable operands (views and update params) so inner
    # expressions reuse one view object per firing.
    transposed: dict[str, str] = {}
    header = [
        f"def {name}(views, {params}, dims=None):",
        f'    """Fused in-place maintenance for updates to '
        f'{trigger.input_name}."""',
    ]
    for view in views:
        header.append(f"    {view} = views[{view!r}]")
    for sym in _hoistable_transposes(trigger):
        transposed[sym] = f"_T_{sym}"
        header.append(f"    _T_{sym} = {sym}.T")

    # Phase 1: assigns (delta factor blocks), old values only.  A bare
    # alias result (e.g. ``U_B := u_A``) is snapshotted into a buffer:
    # temporaries must never share storage with something a later
    # in-place application could mutate.
    for assign in trigger.assigns:
        frag, buf = _emit_expr(em, assign.expr, transposed)
        if buf is None:
            buf = em.buffer(*em.shape(assign.expr))
            out = em.local()
            em.emit(f"{out} = _copy({buf}, {frag})")
            frag = out
        em.emit(f"{assign.target.name} = {frag}")

    # Phase 2: evaluate every non-factored update delta before any view
    # mutates (in-place application breaks copy-on-write, so the
    # evaluate-all-then-apply-all order now carries the contract alone).
    applies: list[str] = []
    for update in trigger.updates:
        target = update.view.name
        operands = outer_operands(update.expr)
        if operands is not None:
            u_name, v_name = operands
            applies.append(
                f"views[{target!r}] = _outer({target}, {u_name}, {v_name})"
            )
        else:
            frag, _ = _emit_expr(em, update.expr, transposed)
            applies.append(f"views[{target!r}] = _applyadd({target}, {frag})")

    # Phase 3: apply all deltas in place.
    for line in applies:
        em.emit(line)

    source = "\n".join(header + em.lines) + "\n"
    return source, em.buffers, em.constants


def compile_fused_trigger(
    trigger: Trigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
) -> Callable:
    """Compile the fused form of ``trigger`` against concrete ``dims``.

    Scratch buffers are leased from ``workspace`` (one is created when
    ``None``) at compile time — at width 1 when the trigger's update
    width is symbolic and unbound by ``dims``, else at its fixed width
    — and re-leased once per capacity growth, each time in a fresh
    top-level lease scope: triggers compiled against the same workspace
    share buffers by shape, which is safe because trigger firings never
    interleave.  Raises :class:`FusedUnsupported` when the trigger
    contains a node with no in-place lowering or a dimension ``dims``
    does not bind; calling a fixed-width trigger at another width
    raises ``ValueError``.
    """
    from ...backends import get_backend
    from ...runtime.workspace import Workspace

    be = get_backend(backend)
    source, buffers, constants = generate_fused_trigger(trigger, dims)
    ws = workspace if workspace is not None else Workspace()
    free = _free_rank(trigger, dims)
    fixed = None if free else _resolve(trigger.params[0].shape.cols, dims)

    kernels: dict[str, object] = {
        "np": np,
        "_mm": be.matmul_into,
        "_add": be.add_into,
        "_sub": be.sub_into,
        "_scale": be.scale_into,
        "_hcat": be.hstack_into,
        "_vcat": be.vstack_into,
        "_outer": be.add_outer_inplace,
        "_applyadd": be.add_inplace,
        "_copy": _copy_into,
    }
    namespace: dict[str, object] = {}
    exec(compile(source, f"<fused-trigger:{trigger.input_name}>", "exec"),
         namespace)
    template = namespace[f"on_update_{trigger.input_name}"]

    leased: list[np.ndarray] = []
    by_width: dict[int, Callable] = {}
    made: dict[tuple, object] = {}  # constants, shared across widths

    def bound(width: int) -> Mapping[str, int]:
        return {**dims, free: width} if free else dims

    def grow(width: int) -> None:
        # Lease the whole plan at the new width, then hand the outgrown
        # set back, so the arena holds the widest buffers only.
        nonlocal leased
        at = bound(width)
        ws.begin()
        fresh = [ws.lease(_resolve(rows, at), _resolve(cols, at))
                 for _, rows, cols in buffers]
        kept = {id(buf) for buf in fresh}
        ws.release([buf for buf in leased if id(buf) not in kept])
        leased = fresh
        by_width.clear()
        on_update.__capacity__ = width  # type: ignore[attr-defined]

    def specialize(width: int) -> Callable:
        if fixed is not None and width != fixed:
            raise ValueError(
                f"trigger for {trigger.input_name!r} was compiled for "
                f"rank-{fixed} updates, got rank {width}"
            )
        if width > on_update.__capacity__:  # type: ignore[attr-defined]
            grow(width)
        at = bound(width)
        scope = dict(kernels)
        for (buf_name, rows, cols), buf in zip(buffers, leased):
            rows, cols = _resolve(rows, at), _resolve(cols, at)
            scope[buf_name] = buf.reshape(-1)[: rows * cols].reshape(rows, cols)
        for const_name, (kind, *shape) in constants.items():
            key = (kind, *(_resolve(d, at) for d in shape))
            if key not in made:
                made[key] = be.eye(*key[1:]) if kind == "eye" else be.zeros(*key[1:])
            scope[const_name] = made[key]
        fn = by_width[width] = FunctionType(
            template.__code__, scope, template.__name__,
            template.__defaults__,
        )
        return fn

    def on_update(views, u, v, dims=None):
        fn = by_width.get(u.shape[1])
        if fn is None:
            fn = specialize(u.shape[1])
        return fn(views, u, v, dims)

    on_update.__source__ = source  # type: ignore[attr-defined]
    on_update.__workspace__ = ws  # type: ignore[attr-defined]
    on_update.__capacity__ = 0  # type: ignore[attr-defined]
    grow(fixed if fixed is not None else 1)
    return on_update


__all__ = [
    "FusedUnsupported",
    "UPDATE_RANK",
    "compile_fused_trigger",
    "generate_fused_trigger",
]
