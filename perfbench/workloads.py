"""The four benchmark workloads, each driven through the public API.

Every workload draws its inputs from ``numpy.random.default_rng(seed)``
(the same seed gives the same matrices, graph and change stream), opens
its session, server or PageRank maintainer ``SETUPS`` times to time set-up, warms up
outside the timed window, then runs whole rounds of the same operations
until ``seconds`` of timed work have passed.  Generating a round's
changes and checking outputs happen between rounds, off the clock.

With a :class:`~tracing.Tracer` every operation is also recorded as a
root span (``op.update``, ``op.read``) tagged with its update index, so
the layer spans below it share that id.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import checks

PROGRAM = "input A(n, n);\nB := A * A;\nC := B * B;\n"

#: Set-ups timed per untraced run; ``setup_s`` reports their median.
#: A traced run opens once, so its layer totals describe one session.
SETUPS = 9
#: Row-update magnitude (keeps long streams tame on normalized inputs).
UPDATE_SCALE = 0.01

clock = time.perf_counter


@dataclass
class Result:
    """What one workload run measured (seconds throughout)."""

    setup: list = field(default_factory=list)
    update: list = field(default_factory=list)
    read: list = field(default_factory=list)
    fresh: list = field(default_factory=list)
    updates: int = 0
    reads: int = 0
    busy: float = 0.0
    checks: int = 0
    failures: list = field(default_factory=list)
    #: Submits the server refused or shed (open loop only).
    refused: int = 0
    #: Counters the program itself reports, for the traced run.
    stats: dict = field(default_factory=dict)

    def check(self, reason: str | None) -> None:
        self.checks += 1
        if reason is not None:
            self.failures.append(reason)

    @property
    def attempted(self) -> int:
        return self.updates + self.reads + self.checks

    @property
    def failed(self) -> int:
        return len(self.failures) + self.refused


class _Ops:
    """Root spans for the benchmark's own operations (no-ops untraced)."""

    def __init__(self, tracer):
        self.tracer = tracer

    def open(self, name: str, update: int = -1):
        if self.tracer is None:
            return None
        self.tracer.set_update(update)
        return self.tracer.open(name)

    def close(self, index) -> None:
        if index is not None:
            self.tracer.close(index)


def _program():
    from repro.frontend import parse_program

    return parse_program(PROGRAM)


def _normalized(rng, n: int) -> np.ndarray:
    from repro.workloads.generators import spectral_normalized

    return spectral_normalized(rng, n)


def _row_updates(rows, deltas):
    """Rank-1 row updates ``A[row] += delta`` as factored updates."""
    from repro.runtime.updates import FactoredUpdate

    n = deltas.shape[1]
    out = []
    for row, delta in zip(rows, deltas):
        u = np.zeros((n, 1))
        u[int(row), 0] = 1.0
        out.append(FactoredUpdate("A", u, delta.reshape(n, 1).copy()))
    return out


def _timed_setup(result: Result, ops: _Ops, open_fn, close_fn=None):
    """Open ``SETUPS`` times; keep the last, time each (median reported)."""
    handle = None
    for attempt in range(SETUPS if ops.tracer is None else 1):
        if handle is not None and close_fn is not None:
            close_fn(handle)
        handle = None
        gc.collect()  # the previous handle's garbage is not set-up time
        span = ops.open("op.setup")
        start = clock()
        handle = open_fn(attempt)
        result.setup.append(clock() - start)
        ops.close(span)
    return handle


# -- session workloads ------------------------------------------------------

@dataclass(frozen=True)
class SessionSpec:
    n: int
    read_every: int
    #: Updates (then one read) applied before the clock starts.
    warmup_updates: int
    check_every_reads: int
    open_options: dict
    zipf_theta: float | None = None


CHAIN_UNIFORM = SessionSpec(n=1024, read_every=64, warmup_updates=64,
                            check_every_reads=16,
                            open_options={"plan": "auto"})
# The 32 warm-up updates end before the monitor's first check at 64, so
# the move onto heavy-light partitioning falls inside the timed stream
# (it is what this workload is about).
ZIPF_REPLAN = SessionSpec(n=512, read_every=128, warmup_updates=32,
                          check_every_reads=32,
                          open_options={"plan": "auto",
                                        "replan": {"check_every": 64}},
                          zipf_theta=1.5)


def run_session(spec: SessionSpec, seed: int, seconds: float,
                tracer=None) -> Result:
    from repro.runtime.session import open_session
    from repro.workloads.zipf import zipf_probabilities

    result = Result()
    ops = _Ops(tracer)
    rng = np.random.default_rng(seed)
    n = spec.n
    a0 = _normalized(rng, n)
    program = _program()
    if spec.zipf_theta is not None:
        # One rank -> row permutation for the whole stream.
        permutation = rng.permutation(n)
        probabilities = zipf_probabilities(n, spec.zipf_theta)

    def draw(count: int):
        if spec.zipf_theta is None:
            rows = rng.integers(0, n, size=count)
        else:
            rows = permutation[rng.choice(n, size=count, p=probabilities)]
        deltas = UPDATE_SCALE * rng.standard_normal((count, n))
        return rows, deltas

    session = _timed_setup(
        result, ops,
        lambda _: open_session(program, {"A": a0.copy()},
                               **spec.open_options))
    shadow = a0.copy()
    out = np.empty_like(a0)
    index = 0

    def run_round(count: int, timed: bool) -> None:
        nonlocal index
        rows, deltas = draw(count)
        updates = _row_updates(rows, deltas)
        sends = []
        start = clock()
        for update in updates:
            span = ops.open("op.update", index)
            t0 = clock()
            session.apply_update(update)
            t1 = clock()
            ops.close(span)
            sends.append(t0)
            if timed:
                result.update.append(t1 - t0)
            index += 1
        # The reader copies C into its own buffer, so the read times the
        # flush and the copy, not the allocator.
        span = ops.open("op.read", index - 1)
        t0 = clock()
        np.copyto(out, session.output())
        t1 = clock()
        ops.close(span)
        if timed:
            result.read.append(t1 - t0)
            result.fresh.extend(t1 - s for s in sends)
            result.busy += t1 - start
            result.updates += count
            result.reads += 1
        np.add.at(shadow, rows, deltas)

    run_round(spec.warmup_updates, timed=False)
    while result.busy < seconds:
        run_round(spec.read_every, timed=True)
        if result.reads % spec.check_every_reads == 0:
            result.check(checks.check_chain(
                f"C after {index} updates", out, shadow))
    result.check(checks.check_chain(
        f"final C after {index} updates", np.array(session.output()), shadow))
    result.stats = _session_stats(session)
    return result


def _session_stats(handle) -> dict:
    """Deferral counters the (current) session reports itself."""
    session = getattr(handle, "session", handle)
    batch = session.batch_stats
    part = session.partition_stats
    if part is not None:
        absorbed = part.heavy_hits + part.light_hits
        return {"heavy_share": part.heavy_hits / absorbed if absorbed else 0.0,
                "compression": part.amortization, "folds": part.folds}
    if batch is not None:
        return {"heavy_share": 0.0, "compression": batch.compression,
                "folds": batch.flushes}
    return {"heavy_share": 0.0, "compression": 1.0, "folds": 0}


def chain_uniform(seed, seconds, workdir, tracer=None) -> Result:
    return run_session(CHAIN_UNIFORM, seed, seconds, tracer)


def zipf_replan(seed, seconds, workdir, tracer=None) -> Result:
    return run_session(ZIPF_REPLAN, seed, seconds, tracer)


# -- serve-ckpt ------------------------------------------------------------

SERVE_N = 512
SERVE_MAX_STALENESS = 32
#: Offered update rate.  An update published alone costs the writer
#: about 2.5 ms (apply 1.8-2.4 ms, publish 0.4 ms), so 100/s keeps it
#: about a quarter busy: the queue stays short and freshness tracks the
#: writer's work.  At 300/s it was two thirds busy, and checkpoint cuts
#: or a slower host tipped it into queueing (median freshness 2.5 ms on
#: a quiet host, 170-340 ms with both cores contended).
SERVE_RATE = 100.0
SERVE_READ_RATE = 1000.0
SERVE_WARMUP = 32
#: Mid-stream snapshots checked against recomputation: the first one
#: observed past each of this many evenly spaced points of the stream.
SERVE_SNAPSHOT_CHECKS = 4


def serve_ckpt(seed, seconds, workdir, tracer=None) -> Result:
    from repro.runtime.serving import ViewServer
    from repro.runtime.session import open_session

    result = Result()
    ops = _Ops(tracer)
    rng = np.random.default_rng(seed)
    n = SERVE_N
    a0 = _normalized(rng, n)
    program = _program()
    count = int(round(SERVE_RATE * seconds))
    reads = int(round(SERVE_READ_RATE * seconds))
    rows = rng.integers(0, n, size=SERVE_WARMUP + count)
    deltas = UPDATE_SCALE * rng.standard_normal((SERVE_WARMUP + count, n))
    updates = _row_updates(rows, deltas)
    if tracer is not None:
        tracer.update_ids.update((id(u), i) for i, u in enumerate(updates))

    def open_server(attempt):
        # The session is kept beside its server for the restore check.
        directory = workdir / f"ckpt-{attempt}"
        shutil.rmtree(directory, ignore_errors=True)
        session = open_session(program, {"A": a0.copy()},
                               checkpoint={"directory": str(directory)})
        return ViewServer(session, max_staleness=SERVE_MAX_STALENESS), session

    server, session = _timed_setup(result, ops, open_server,
                                   close_fn=lambda pair: pair[0].close())
    try:
        for update in updates[:SERVE_WARMUP]:
            server.submit(update)
        server.refresh()

        # The open-loop schedule: update i and read j are due at fixed
        # offsets from ``start`` whatever the server does.  Calls are
        # timed themselves; freshness is timed from the due time, so a
        # stall shows on every update queued behind it, and how late
        # the generator ran is reported on its own.
        due_updates = [i / SERVE_RATE for i in range(count)]
        due_reads = [j / SERVE_READ_RATE for j in range(reads)]
        events = sorted([(t, 0, i) for i, t in enumerate(due_updates)]
                        + [(t, 1, j) for j, t in enumerate(due_reads)])
        observed = []  # (epoch, seq, pending, published_at)
        # Keep only the snapshots to check (each holds a copy of C).
        marks = [SERVE_WARMUP + (k * count) // SERVE_SNAPSHOT_CHECKS
                 for k in range(1, SERVE_SNAPSHOT_CHECKS)]
        snapshots = []
        late = []
        depth = []
        start = time.monotonic() + 0.02
        for offset, kind, i in events:
            due = start + offset
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
            late.append(time.monotonic() - due)
            if kind == 0:
                span = ops.open("op.update", SERVE_WARMUP + i)
                t0 = clock()
                server.submit(updates[SERVE_WARMUP + i])
                result.update.append(clock() - t0)
                ops.close(span)
                result.updates += 1
            else:
                span = ops.open("op.read")
                t0 = clock()
                server.read("C")
                result.read.append(clock() - t0)
                ops.close(span)
                result.reads += 1
                snap = server.snapshot
                if not observed or snap.epoch != observed[-1][0]:
                    observed.append((snap.epoch, snap.seq, snap.pending,
                                     snap.published_at))
                    if marks and snap.seq >= marks[0]:
                        snapshots.append(snap)
                        marks = [m for m in marks if m > snap.seq]
            if tracer is not None:
                depth.append(server.stats.submitted - server.stats.applied)
        final = server.refresh()
        result.busy = final.published_at - start
        observed.append((final.epoch, final.seq, final.pending,
                         final.published_at))
        snapshots.append(final)
    finally:
        server.close()
    stats = server.stats
    result.refused = stats.rejected + stats.shed

    # Freshness: from an update's due time to the publication of the
    # first observed epoch whose seq covers it.
    cursor = 0
    for i in range(count):
        need = SERVE_WARMUP + i + 1
        while observed[cursor][1] < need:
            cursor += 1
        result.fresh.append(observed[cursor][3] - (start + due_updates[i]))

    result.check(checks.check_epochs(
        [o[:3] for o in observed], SERVE_MAX_STALENESS))
    result.check(None if stats.max_pending_at_publish <= SERVE_MAX_STALENESS
                 else f"published {stats.max_pending_at_publish} pending")
    # Snapshots against recomputation from the shadow prefix they cover.
    shadow = a0.copy()
    applied = 0
    for snap in snapshots:
        np.add.at(shadow, rows[applied:snap.seq], deltas[applied:snap.seq])
        applied = snap.seq
        result.check(checks.check_chain(
            f"served C at epoch {snap.epoch}", snap.views["C"], shadow))
    # Recoverability: latest checkpoint + logged tail == final state.
    restored = session.restore()
    result.check(checks.check_bitwise(
        "restored C", restored.views.get_dense("C"), final.views["C"]))
    for name in ("A", "B"):
        result.check(checks.check_bitwise(
            f"restored {name}", restored.views.get_dense(name),
            session.views.get_dense(name)))

    result.stats = {
        "epochs": stats.epochs,
        "epoch_cuts": stats.checkpoints,
        "pending_at_publish_max": stats.max_pending_at_publish,
        "queue_depth_max": max(depth) if depth else 0,
        "generator_late_ms_p99": 1e3 * float(np.percentile(late, 99)),
    }
    return result


# -- pagerank-sparse -------------------------------------------------------

PR_N = 2000
PR_OUT_DEGREE = 4.0
PR_READ_EVERY = 20
PR_CHECK_EVERY_READS = 200


def pagerank_sparse(seed, seconds, workdir, tracer=None) -> Result:
    from repro.analytics.pagerank import IncrementalPageRank
    from repro.workloads.generators import random_adjacency

    result = Result()
    ops = _Ops(tracer)
    rng = np.random.default_rng(seed)
    n = PR_N
    adjacency = random_adjacency(rng, n, PR_OUT_DEGREE)
    pagerank = _timed_setup(
        result, ops,
        lambda _: IncrementalPageRank(adjacency, k=checks.ITERATIONS,
                                      damping=checks.DAMPING,
                                      strategy="auto"))
    # Shadow graph: out-neighbour sets per source (column = source).
    out = [set(np.flatnonzero(adjacency[:, s]).tolist()) for s in range(n)]
    index = 0

    def draw_edit(k: int):
        # Alternate real inserts and deletes; never delete a node's last
        # out-edge, so no column turns dangling (dense) mid-stream.
        if k % 2 == 0:
            while True:
                s, t = (int(x) for x in rng.integers(0, n, size=2))
                if s != t and t not in out[s]:
                    out[s].add(t)
                    return True, s, t
        while True:
            s = int(rng.integers(0, n))
            if len(out[s]) >= 2:
                targets = sorted(out[s])
                t = targets[int(rng.integers(0, len(targets)))]
                out[s].discard(t)
                return False, s, t

    def shadow_adjacency() -> np.ndarray:
        adj = np.zeros((n, n))
        for s, targets in enumerate(out):
            adj[list(targets), s] = 1.0
        return adj

    ranks = np.empty((n, 1))

    def run_round(timed: bool) -> None:
        nonlocal index
        edits = [draw_edit(index + k) for k in range(PR_READ_EVERY)]
        sends = []
        start = clock()
        for insert, s, t in edits:
            span = ops.open("op.update", index)
            t0 = clock()
            if insert:
                pagerank.add_edge(s, t)
            else:
                pagerank.remove_edge(s, t)
            t1 = clock()
            ops.close(span)
            sends.append(t0)
            if timed:
                result.update.append(t1 - t0)
            index += 1
        span = ops.open("op.read", index - 1)
        t0 = clock()
        np.copyto(ranks, pagerank.ranks)
        t1 = clock()
        ops.close(span)
        if timed:
            result.read.append(t1 - t0)
            result.fresh.extend(t1 - s for s in sends)
            result.busy += t1 - start
            result.updates += len(edits)
            result.reads += 1

    run_round(timed=False)
    while result.busy < seconds:
        run_round(timed=True)
        if result.reads % PR_CHECK_EVERY_READS == 0:
            result.check(checks.check_pagerank(
                f"ranks after {index} edits", ranks, shadow_adjacency()))
    result.check(checks.check_pagerank(
        f"final ranks after {index} edits", np.array(pagerank.ranks),
        shadow_adjacency()))
    return result


WORKLOADS = {
    "chain-uniform": chain_uniform,
    "zipf-replan": zipf_replan,
    "serve-ckpt": serve_ckpt,
    "pagerank-sparse": pagerank_sparse,
}
