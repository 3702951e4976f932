"""Accelerated hot-path kernels behind the ``REPRO_KERNELS`` backend switch.

Profiles of the large-topology sweeps (``repro profile scaling``) are
dominated by two interpreter-bound loops: the balancer's candidate-block
evaluation in :mod:`repro.core.maxmin` and the per-request head-of-line
stepping of the consumption phase in :mod:`repro.protocols`.  Each of those
hotspots is factored here into a *kernel*: a pure function over plain arrays
with no simulator state, shipped as a (reference, accelerated) pair.

* The **reference** implementation is pure Python.  It is the compatibility
  contract: every accelerated implementation must reproduce its output
  bit-for-bit on every input (the differential suite in
  ``tests/test_perf_kernels.py`` enumerates this registry and checks).
* The **numpy** implementation vectorizes the same computation.

The backend is chosen by the ``REPRO_KERNELS`` environment variable
(``python`` | ``numpy``, default ``numpy``); any other value is an error.
The active backend also enters the result-cache key (see
:mod:`repro.runtime.cache`), so cached trials can never cross backends even
though backends are bit-identical by contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

#: Environment variable selecting the kernel backend.
KERNELS_ENV = "REPRO_KERNELS"

#: Every backend the switch understands.
KERNEL_BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: Backend used when ``REPRO_KERNELS`` is unset.
DEFAULT_BACKEND = "numpy"


def active_backend() -> str:
    """The backend named by ``$REPRO_KERNELS`` (validated), default ``numpy``."""
    value = os.environ.get(KERNELS_ENV, "").strip() or DEFAULT_BACKEND
    if value not in KERNEL_BACKENDS:
        raise ValueError(
            f"{KERNELS_ENV}={value!r} is not a kernel backend; "
            f"choose from {KERNEL_BACKENDS}"
        )
    return value


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelPair:
    """One hotspot kernel: the reference and its vectorized twin."""

    name: str
    summary: str
    reference: Callable
    numpy_impl: Callable

    def implementation(self, backend: str) -> Callable:
        """The callable for ``backend``."""
        if backend == "numpy":
            return self.numpy_impl
        if backend == "python":
            return self.reference
        raise ValueError(f"unknown kernel backend {backend!r}")

    def dispatch(self) -> Callable:
        """The callable for the currently active backend."""
        return self.implementation(active_backend())


KERNEL_REGISTRY: Dict[str, KernelPair] = {}


def register_kernel(pair: KernelPair) -> KernelPair:
    if pair.name in KERNEL_REGISTRY:
        raise ValueError(f"kernel {pair.name!r} registered twice")
    KERNEL_REGISTRY[pair.name] = pair
    return pair


def kernel_names() -> Tuple[str, ...]:
    """Every registered kernel name (the differential suite iterates this)."""
    return tuple(sorted(KERNEL_REGISTRY))


def get_kernel(name: str) -> KernelPair:
    try:
        return KERNEL_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; registered: {kernel_names()}") from None


# ---------------------------------------------------------------------- #
# Kernel 1: balancer-candidates — one repeater's preferable-swap block
# ---------------------------------------------------------------------- #
def _candidate_block_python(
    headroom: np.ndarray, recipient: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Valid ``left < right`` partner pairings of one repeater.

    ``headroom[k]`` is partner ``k``'s donation headroom (count minus
    distillation cost); ``recipient[r, c]`` is the produced pair's current
    count.  A pairing is preferable exactly when
    ``recipient + 1 <= min(headroom[r], headroom[c])`` (the paper's
    condition with the headroom already pre-subtracted).
    """
    rows = []
    cols = []
    k = len(headroom)
    for r in range(k):
        head_r = headroom[r]
        for c in range(r + 1, k):
            head_c = headroom[c]
            limit = head_r if head_r < head_c else head_c
            if recipient[r][c] + 1 <= limit:
                rows.append(r)
                cols.append(c)
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def _candidate_block_numpy(
    headroom: np.ndarray, recipient: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    limit = np.minimum(headroom[:, None], headroom[None, :])
    valid = (recipient + 1) <= limit
    rows, cols = np.nonzero(np.triu(valid, k=1))
    return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)


# ---------------------------------------------------------------------- #
# Kernel 2: serve-prefix — how many head-of-line requests a round can serve
# ---------------------------------------------------------------------- #
def _serve_prefix_python(codes: np.ndarray, budgets: np.ndarray) -> int:
    """Length of the maximal servable head-of-line prefix.

    ``codes[i]`` is the consumer-pair index of pending request ``i`` (head
    first); ``budgets[p]`` is how many consumptions pair ``p`` can fund
    right now (its ledger count floor-divided by its distillation cost).
    Serving a request spends one unit of its own pair's budget and nothing
    else, so the greedy stop-at-first-failure prefix is the first position
    whose pair has exhausted its budget.
    """
    remaining = list(budgets)
    served = 0
    for code in codes:
        if remaining[code] <= 0:
            return served
        remaining[code] -= 1
        served += 1
    return served


#: Block size of the vectorized serve-prefix scan: large enough that the
#: per-block ``np.bincount`` dominates, small enough that pinpointing the
#: failure inside the failing block stays cheap.
_SERVE_PREFIX_BLOCK = 4096


def _serve_prefix_numpy(codes: np.ndarray, budgets: np.ndarray) -> int:
    # Blockwise histogram scan: accumulate per-pair counts one block at a
    # time and stop at the first block whose running counts exceed any
    # budget.  Failures in later blocks sit at larger positions, so the
    # earliest in-block failure is the global one.
    n = len(codes)
    n_pairs = len(budgets)
    counts = np.zeros(n_pairs, dtype=np.int64)
    for start in range(0, n, _SERVE_PREFIX_BLOCK):
        block = codes[start : start + _SERVE_PREFIX_BLOCK]
        new_counts = counts + np.bincount(block, minlength=n_pairs)
        if np.any(new_counts > budgets):
            prefix = n
            for pair in np.flatnonzero(new_counts > budgets):
                # The budgets[pair]-th occurrence overall is the first to
                # fail; (budgets - counts) of them land in this block (a
                # pre-exhausted budget fails at the block's very first hit).
                need = max(int(budgets[pair]) - int(counts[pair]), 0)
                position = start + int(np.flatnonzero(block == pair)[need])
                prefix = min(prefix, position)
            return prefix
        counts = new_counts
    return n


register_kernel(
    KernelPair(
        name="balancer-candidates",
        summary="one repeater's preferable-swap block over partner headrooms",
        reference=_candidate_block_python,
        numpy_impl=_candidate_block_numpy,
    )
)
register_kernel(
    KernelPair(
        name="serve-prefix",
        summary="maximal servable head-of-line request prefix per round",
        reference=_serve_prefix_python,
        numpy_impl=_serve_prefix_numpy,
    )
)


# ---------------------------------------------------------------------- #
# Dispatch helpers used by the integration sites
# ---------------------------------------------------------------------- #
def candidate_block(headroom, recipient) -> Tuple[np.ndarray, np.ndarray]:
    """Valid candidate (row, col) pairings (see ``balancer-candidates``)."""
    return get_kernel("balancer-candidates").dispatch()(headroom, recipient)


def servable_prefix(codes, budgets) -> int:
    """Maximal servable head-of-line prefix length (see ``serve-prefix``)."""
    return get_kernel("serve-prefix").dispatch()(codes, budgets)
