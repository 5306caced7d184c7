"""Per-layer metrics of the traced run, from spans and program counters.

Times are self times (span minus child spans) summed over every span of
the layer, in seconds, over the traced half of the run.  Counts are
calls with recursion folded (see :func:`tracing.aggregate`).  Counters
the program keeps itself (heavy-light and batch statistics, server
statistics) are read once at the end.
"""

from __future__ import annotations

from tracing import (
    Tracer,
    aggregate,
    install_layer_probes,
    self_times,
    thread_self_totals,
)

#: name -> (unit, better); the order is the order printed.
PER_LAYER = {
    "planner.calls": ("count", "lower"),
    "planner.s": ("s", "lower"),
    "compiler.compile_s": ("s", "lower"),
    "trigger.fused_calls": ("count", "higher"),
    "trigger.generic_calls": ("count", "lower"),
    "trigger.fused_s": ("s", "lower"),
    "trigger.generic_s": ("s", "lower"),
    "trigger.fused_share": ("ratio", "higher"),
    "kernel.matmul.calls": ("count", "lower"),
    "kernel.matmul.s": ("s", "lower"),
    "kernel.add_outer.calls": ("count", "lower"),
    "kernel.add_outer.s": ("s", "lower"),
    "kernel.add_outer.bytes": ("B", "lower"),
    "kernel.sparse.s": ("s", "lower"),
    "workspace.allocs": ("count", "lower"),
    "workspace.leases": ("count", "lower"),
    "session.apply_self_s": ("s", "lower"),
    "session.validate_s": ("s", "lower"),
    "session.flush_calls": ("count", "lower"),
    "session.flush_s": ("s", "lower"),
    "deferral.absorb_calls": ("count", "lower"),
    "deferral.absorb_s": ("s", "lower"),
    "deferral.fold_calls": ("count", "lower"),
    "deferral.fold_s": ("s", "lower"),
    "deferral.heavy_share": ("ratio", "higher"),
    "batch.compression": ("ratio", "higher"),
    "compaction.calls": ("count", "lower"),
    "compaction.s": ("s", "lower"),
    "compaction.cols_in": ("count", "lower"),
    "compaction.rank_out": ("count", "lower"),
    "compaction.ratio": ("ratio", "lower"),
    "replan.checks": ("count", "lower"),
    "replan.s": ("s", "lower"),
    "replan.retunes": ("count", "lower"),
    "replan.monitor_s": ("s", "lower"),
    "serve.epochs": ("count", "higher"),
    "serve.publish_s": ("s", "lower"),
    "serve.pending_at_publish_max": ("count", "lower"),
    "serve.queue_depth_max": ("count", "lower"),
    "serve.generator_late_ms": ("ms", "lower"),
    "checkpoint.cuts": ("count", "lower"),
    "checkpoint.epoch_cuts": ("count", "higher"),
    "checkpoint.cut_s": ("s", "lower"),
    "checkpoint.note_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "iterative.refresh_calls": ("count", "lower"),
    "iterative.refresh_s": ("s", "lower"),
    "analytics.edit_self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.updates_per_s": ("1/s", "higher"),
    "trace.untraced_updates_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}


def start() -> tuple[Tracer, list]:
    """A tracer with every layer probe installed, and the arena list."""
    tracer = Tracer()
    workspaces: list = []
    install_layer_probes(tracer, workspaces)
    return tracer, workspaces


def metrics(tracer: Tracer, workspaces: list, result, wall: float,
            untraced_updates_per_s: float) -> tuple[dict, list]:
    """Per-layer metrics plus the reasons any trace invariant failed."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    agg = aggregate(tracer, selfs)

    def calls(*names):
        return sum(agg[n]["calls"] for n in names if n in agg)

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    counts = tracer.counts
    stats = result.stats
    fused, generic = calls("trigger.fused"), calls("trigger.generic")
    cols_in = counts.get("compaction.cols_in", 0.0)
    traced_ups = result.updates / result.busy
    per_thread = thread_self_totals(tracer, selfs)
    values = {
        "planner.calls": calls("planner"),
        "planner.s": self_s("planner"),
        "compiler.compile_s": self_s("compiler"),
        "trigger.fused_calls": fused,
        "trigger.generic_calls": generic,
        "trigger.fused_s": self_s("trigger.fused"),
        "trigger.generic_s": self_s("trigger.generic"),
        "trigger.fused_share": fused / (fused + generic) if fused + generic else 0.0,
        "kernel.matmul.calls": calls("kernel.matmul"),
        "kernel.matmul.s": self_s("kernel.matmul"),
        "kernel.add_outer.calls": calls("kernel.add_outer"),
        "kernel.add_outer.s": self_s("kernel.add_outer"),
        "kernel.add_outer.bytes": counts.get("kernel.add_outer.bytes", 0.0),
        "kernel.sparse.s": self_s("kernel.sparse"),
        "workspace.allocs": sum(ws.allocations for ws in workspaces),
        "workspace.leases": sum(ws.leases for ws in workspaces),
        "session.apply_self_s": self_s("session.apply"),
        "session.validate_s": self_s("session.validate"),
        "session.flush_calls": calls("session.flush"),
        "session.flush_s": self_s("session.flush"),
        "deferral.absorb_calls": calls("deferral.absorb"),
        "deferral.absorb_s": self_s("deferral.absorb"),
        "deferral.fold_calls": stats.get("folds", 0),
        "deferral.fold_s": self_s("deferral.fold"),
        "deferral.heavy_share": stats.get("heavy_share", 0.0),
        "batch.compression": stats.get("compression", 1.0),
        "compaction.calls": calls("compaction"),
        "compaction.s": self_s("compaction"),
        "compaction.cols_in": cols_in,
        "compaction.rank_out": counts.get("compaction.rank_out", 0.0),
        "compaction.ratio": (counts.get("compaction.rank_out", 0.0) / cols_in
                             if cols_in else 1.0),
        "replan.checks": calls("replan.check"),
        "replan.s": self_s("replan.check"),
        "replan.retunes": counts.get("replan.retunes", 0.0),
        "replan.monitor_s": self_s("replan.monitor"),
        "serve.epochs": stats.get("epochs", 0),
        "serve.publish_s": self_s("serve.publish"),
        "serve.pending_at_publish_max": stats.get("pending_at_publish_max", 0),
        "serve.queue_depth_max": stats.get("queue_depth_max", 0),
        "serve.generator_late_ms": stats.get("generator_late_ms_p99", 0.0),
        "checkpoint.cuts": calls("checkpoint.cut"),
        "checkpoint.epoch_cuts": stats.get("epoch_cuts", 0),
        "checkpoint.cut_s": self_s("checkpoint.cut", "checkpoint.serialize"),
        "checkpoint.note_s": self_s("checkpoint.note"),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0.0),
        "iterative.refresh_calls": calls("iterative.refresh"),
        "iterative.refresh_s": self_s("iterative.refresh"),
        "analytics.edit_self_s": self_s("analytics.edit"),
        "trace.wall_s": wall,
        "trace.self_s": sum(per_thread.values()),
        "trace.spans": len(tracer),
        "trace.updates_per_s": traced_ups,
        "trace.untraced_updates_per_s": untraced_updates_per_s,
        "trace.overhead_pct": 100.0 * (untraced_updates_per_s / traced_ups - 1.0),
    }
    failures = [
        f"thread {thread}: self times sum to {total:.3f} s > wall {wall:.3f} s"
        for thread, total in per_thread.items() if total > wall
    ]
    out = {name: {"value": float(values[name]), "unit": unit}
           for name, (unit, _) in PER_LAYER.items()}
    return out, failures
