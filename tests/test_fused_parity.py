"""Fused in-place trigger path vs the interpreter (the parity oracle).

The fused specializer (:mod:`repro.compiler.codegen.fused`) re-lowers
every trigger into preallocated-buffer, ``out=``-kernel form; these
properties pin it to the interpreter across generated programs:
bit-for-bit on the dense backend (same BLAS kernels, same association
order, only the destination buffers differ), to tolerance on sparse
(CSR merges may reorder accumulation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import ExprPool, shaped_expr
from repro.compiler import Program, Statement, compile_program
from repro.compiler.codegen.fused import (
    UPDATE_RANK,
    FusedUnsupported,
    compile_fused_trigger,
    generate_fused_trigger,
)
from repro.expr import MatrixSymbol, inverse, matmul, transpose
from repro.runtime import FactoredUpdate
from repro.runtime.session import IVMSession

SETTINGS = dict(max_examples=40, deadline=None)
#: Update widths the dense parity property runs at (sessions compile at
#: rank 1, so every other width is an off-rank update).
RANKS = (1, 2, 4, 16, 32)


def _sessions(program, inputs, dims=None, backend=None, rank=1):
    """(interpret, fused-codegen) session pair over copied inputs."""
    make = lambda **kw: IVMSession(  # noqa: E731
        program, {k: np.array(v) for k, v in inputs.items()},
        dims=dims, backend=backend, rank=rank, **kw,
    )
    return make(mode="interpret"), make(mode="codegen")


def _is_fused(session, name):
    """Whether ``session`` runs ``name``'s trigger in the fused form."""
    return hasattr(session._compiled[name], "__capacity__")


def _drive_both(interp, fused, updates):
    for update in updates:
        interp.apply_update(update)
        fused.apply_update(update)


class TestGeneratedProgramParity:
    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_dense_bit_for_bit(self, data, seed):
        pool = ExprPool()
        n = data.draw(st.sampled_from([2, 3, 4]))
        depth = data.draw(st.integers(1, 3))
        expr = data.draw(shaped_expr(pool, n, n, depth))
        target = MatrixSymbol("V_out", n, n)
        inputs_syms = sorted(pool.symbols.values(), key=lambda s: s.name)
        if not inputs_syms:  # expr was pure Identity
            return
        program = Program(inputs_syms, [Statement(target, expr)])
        env = pool.env(seed)

        upd_sym = inputs_syms[0]
        rng = np.random.default_rng(seed + 1)
        for rank in RANKS:
            updates = [
                FactoredUpdate(
                    upd_sym.name,
                    rng.normal(size=(upd_sym.shape.rows, rank)),
                    rng.normal(size=(upd_sym.shape.cols, rank)),
                )
                for _ in range(4)
            ]
            interp, fused = _sessions(program, env)
            assert _is_fused(fused, upd_sym.name), "fused form did not compile"
            _drive_both(interp, fused, updates)
            for name in list(env) + ["V_out"]:
                assert np.array_equal(interp[name], fused[name]), (name, rank)

    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_sparse_backend_to_tolerance(self, data, seed):
        pytest.importorskip("scipy")
        pool = ExprPool()
        n = data.draw(st.sampled_from([2, 3, 4]))
        depth = data.draw(st.integers(1, 2))
        expr = data.draw(shaped_expr(pool, n, n, depth))
        target = MatrixSymbol("V_out", n, n)
        inputs_syms = sorted(pool.symbols.values(), key=lambda s: s.name)
        if not inputs_syms:
            return
        program = Program(inputs_syms, [Statement(target, expr)])
        env = pool.env(seed)
        upd_sym = inputs_syms[0]
        rng = np.random.default_rng(seed + 1)
        updates = [
            FactoredUpdate(
                upd_sym.name,
                rng.normal(size=(upd_sym.shape.rows, 1)),
                rng.normal(size=(upd_sym.shape.cols, 1)),
            )
            for _ in range(3)
        ]
        interp, fused = _sessions(program, env, backend="sparse")
        _drive_both(interp, fused, updates)
        for name in list(env) + ["V_out"]:
            np.testing.assert_allclose(
                interp[name], fused[name], rtol=1e-10, atol=1e-12,
            )


class TestChainParitySparseState:
    """Large CSR-backed chain: the sparse fallback legs stay correct."""

    def test_sparse_chain(self, rng):
        pytest.importorskip("scipy")
        n = 100
        a_sym = MatrixSymbol("A", n, n)
        b_sym = MatrixSymbol("B", n, n)
        program = Program([a_sym], [Statement(b_sym, matmul(a_sym, a_sym))])
        a0 = (rng.random((n, n)) < 0.02) * rng.normal(size=(n, n))
        updates = []
        for i in range(20):
            u = np.zeros((n, 1))
            u[i % n, 0] = 1.0
            v = 0.02 * rng.normal(size=(n, 1)) * (rng.random((n, 1)) < 0.05)
            updates.append(FactoredUpdate("A", u, v))
        interp, fused = _sessions(program, {"A": a0}, backend="sparse")
        _drive_both(interp, fused, updates)
        np.testing.assert_allclose(interp["B"], fused["B"], rtol=1e-9,
                                   atol=1e-12)


class TestFallbacks:
    def _a4(self, n=8):
        a_sym = MatrixSymbol("A", n, n)
        b_sym = MatrixSymbol("B", n, n)
        c_sym = MatrixSymbol("C", n, n)
        return Program(
            [a_sym],
            [Statement(b_sym, matmul(a_sym, a_sym)),
             Statement(c_sym, matmul(b_sym, b_sym))],
        )

    def test_off_rank_updates_stay_fused(self, rng, monkeypatch):
        import repro.runtime.session as session_module

        def no_generic(*args, **kwargs):
            raise AssertionError("generic trigger compiler was called")

        monkeypatch.setattr(session_module, "compile_trigger_function",
                            no_generic)
        n = 40
        program = self._a4(n)
        a0 = 0.1 * rng.normal(size=(n, n))
        interp, fused = _sessions(program, {"A": a0}, rank=1)
        fn = fused._compiled["A"]
        assert fn.__capacity__ == 1
        for rank in (1, 8, 3, 32, 1):
            wide = FactoredUpdate("A", 0.1 * rng.normal(size=(n, rank)),
                                  0.1 * rng.normal(size=(n, rank)))
            _drive_both(interp, fused, [wide])
            for name in ("A", "B", "C"):
                assert np.array_equal(interp[name], fused[name]), (name, rank)
        # One callable throughout, sized for the widest rank seen.
        assert fused._compiled["A"] is fn
        assert fn.__capacity__ == 32

    def test_capacity_growth_keeps_only_the_widest_buffers(self, rng):
        from repro.runtime.workspace import Workspace

        n = 16
        polymorphic = compile_program(self._a4(n), rank=UPDATE_RANK)["A"]
        grown, direct = Workspace(), Workspace()
        fn = compile_fused_trigger(polymorphic, {}, workspace=grown)
        views = {name: rng.normal(size=(n, n)) for name in ("A", "B", "C")}
        for rank in (2, 5, 9, 3):
            fn(views, rng.normal(size=(n, rank)), rng.normal(size=(n, rank)))
        assert fn.__capacity__ == 9
        widest = compile_fused_trigger(polymorphic, {}, workspace=direct)
        widest(views, rng.normal(size=(n, 9)), rng.normal(size=(n, 9)))
        assert grown.nbytes() == direct.nbytes()

    def test_concrete_rank_trigger_rejects_other_widths(self, rng):
        n = 6
        trigger = compile_program(self._a4(n), rank=2)["A"]
        fn = compile_fused_trigger(trigger, {})
        assert fn.__capacity__ == 2
        views = {name: rng.normal(size=(n, n)) for name in ("A", "B", "C")}
        with pytest.raises(ValueError, match="rank-2"):
            fn(views, rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))

    def test_inverse_trigger_falls_back_cleanly(self, rng):
        """A trigger the specializer cannot lower keeps the generic path."""
        from repro.compiler.trigger import Assign, Trigger, Update

        n = 4
        a_sym = MatrixSymbol("A", n, n)
        t_sym = MatrixSymbol("T0", n, n)
        u_sym = MatrixSymbol("u_A", n, 1)
        v_sym = MatrixSymbol("v_A", n, 1)
        trigger = Trigger(
            "A",
            (u_sym, v_sym),
            [Assign(t_sym, inverse(a_sym))],
            [Update(a_sym, matmul(u_sym, transpose(v_sym)))],
        )
        with pytest.raises(FusedUnsupported):
            compile_fused_trigger(trigger, {})

    def test_unbound_dimension_raises_fused_unsupported(self):
        from repro.expr import NamedDim

        n = NamedDim("n")
        program = Program(
            [MatrixSymbol("A", n, n)],
            [Statement(MatrixSymbol("B", n, n),
                       matmul(MatrixSymbol("A", n, n),
                              MatrixSymbol("A", n, n)))],
        )
        trigger = compile_program(program)["A"]
        with pytest.raises(FusedUnsupported):
            generate_fused_trigger(trigger, {})  # no binding for n

    def test_inverse_program_session_still_maintains(self, rng):
        """End to end: a program whose trigger may not fuse stays correct."""
        n = 6
        a_sym = MatrixSymbol("A", n, n)
        w_sym = MatrixSymbol("W", n, n)
        program = Program([a_sym], [Statement(w_sym, inverse(a_sym))])
        a0 = rng.normal(size=(n, n)) + 10.0 * np.eye(n)
        interp, fused = _sessions(program, {"A": a0})
        updates = [
            FactoredUpdate("A", 0.01 * rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 1)))
            for _ in range(3)
        ]
        _drive_both(interp, fused, updates)
        np.testing.assert_allclose(interp["W"], fused["W"], rtol=1e-8)


class TestGeneratedSource:
    def test_fused_source_shape(self):
        program = TestFallbacks()._a4(8)
        trigger = compile_program(program)["A"]
        source, buffers, constants = generate_fused_trigger(trigger, {})
        assert source.startswith("def on_update_A(views, u_A, v_A, dims=None):")
        # In-place application, no copy-on-write:
        assert "views['A'] = _outer(A, u_A, v_A)" in source
        assert ".copy()" not in source
        # Hoisted transposes bound once at function top:
        assert "_T_A = A.T" in source
        # Every temporary has a preplanned buffer:
        assert buffers, "no workspace buffers planned"
        assert all(rows > 0 and cols > 0 for _, rows, cols in buffers)

    def test_buffers_shared_across_triggers_by_shape(self, rng):
        from repro.runtime.workspace import Workspace

        n = 8
        program = TestFallbacks()._a4(n)
        triggers = compile_program(program)
        ws = Workspace()
        fn = compile_fused_trigger(triggers["A"], {}, workspace=ws)
        buffers_after_first = ws.buffer_count()
        fn2 = compile_fused_trigger(triggers["A"], {}, workspace=ws)
        assert ws.buffer_count() == buffers_after_first, (
            "identical trigger re-compile should reuse the arena's buffers"
        )
        assert fn.__workspace__ is fn2.__workspace__
