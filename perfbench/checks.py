"""Output checks computed apart from the program under test.

Every reference here is plain NumPy over the benchmark's own shadow
state (the inputs with every generated change applied), never a stored
copy of an earlier run's output and never a call into ``repro``.  Each
check returns ``None`` when the output passes and a one-line reason
when it does not.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance of maintained views against recomputation.  The
#: maintained chain drifts by about 1e-15 relative over a run; 1e-9
#: leaves six orders of magnitude of room and still catches any wrong
#: kernel, lost update or stale read.
RTOL = 1e-9

#: PageRank parameters the maintainer is opened with (and the reference uses).
DAMPING = 0.85
ITERATIONS = 16


def chain_reference(a: np.ndarray) -> np.ndarray:
    """``C = (A A)(A A)`` for ``B := A*A; C := B*B``."""
    b = a @ a
    return b @ b


def relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute difference over the reference's max magnitude."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != reference.shape:
        return float("inf")
    scale = float(np.max(np.abs(reference))) or 1.0
    return float(np.max(np.abs(value - reference))) / scale


def check_close(label: str, value: np.ndarray, reference: np.ndarray,
                rtol: float = RTOL) -> str | None:
    """``value`` equals ``reference`` within ``rtol`` (relative, max-norm)."""
    err = relative_error(value, reference)
    if not err <= rtol:  # also rejects NaN
        return f"{label}: relative error {err:.3e} exceeds {rtol:.0e}"
    return None


def check_chain(label: str, c: np.ndarray, a: np.ndarray) -> str | None:
    """A read of ``C`` equals the chain recomputed from shadow ``A``."""
    return check_close(label, c, chain_reference(a))


def pagerank_reference(adjacency: np.ndarray, damping: float = DAMPING,
                       iterations: int = ITERATIONS) -> np.ndarray:
    """Power iteration ``r <- d M r + (1-d)/n`` from the uniform vector.

    ``adjacency[t, s] = 1`` is an edge ``s -> t``; ``M`` is column
    stochastic, and a column with no out-edge spreads uniformly.
    """
    n = adjacency.shape[0]
    out_degree = adjacency.sum(axis=0)
    dangling = out_degree == 0
    m = adjacency / np.where(dangling, 1.0, out_degree)
    m[:, dangling] = 1.0 / n
    r = np.full((n, 1), 1.0 / n)
    for _ in range(iterations):
        r = damping * (m @ r) + (1.0 - damping) / n
    return r


def check_pagerank(label: str, ranks: np.ndarray,
                   adjacency: np.ndarray) -> str | None:
    """Ranks match the reference power iteration and sum to one."""
    ranks = np.asarray(ranks, dtype=np.float64).reshape(-1, 1)
    total = float(ranks.sum())
    if not abs(total - 1.0) <= RTOL:
        return f"{label}: ranks sum to {total!r}, not 1"
    return check_close(label, ranks, pagerank_reference(adjacency))


def check_epochs(observed, max_staleness: int) -> str | None:
    """Observed ``(epoch, seq, pending)`` never go back; pending is bounded.

    ``observed`` lists snapshots in the order the reader saw them.
    """
    last_epoch, last_seq = -1, -1
    for epoch, seq, pending in observed:
        if epoch < last_epoch or seq < last_seq:
            return (f"snapshot went backwards: epoch {epoch} seq {seq} after "
                    f"epoch {last_epoch} seq {last_seq}")
        if pending > max_staleness:
            return f"epoch {epoch} published {pending} pending > {max_staleness}"
        last_epoch, last_seq = epoch, seq
    return None


def check_bitwise(label: str, value: np.ndarray,
                  expected: np.ndarray) -> str | None:
    """Exact equality (the recoverability contract is bitwise)."""
    if not np.array_equal(np.asarray(value), np.asarray(expected)):
        return f"{label}: restored state differs from the live state"
    return None
