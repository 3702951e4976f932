"""Nested swapping: the optimal planned-path cost model.

The paper measures its protocol against "the minimum number of swaps needed
were each consumption event satisfied by swaps along the shortest path",
which it identifies with *nested swapping*: recursively build distilled
pairs over each half of the path and join them at the midpoint.

The paper writes the recurrence as ``s(1)=0``, ``s(2)=D`` and
``s(n)=D(s(⌊n/2⌋)+s(⌈n/2⌉))`` for ``n>2``.  Taken literally this undercounts
(it gives ``s(3)=1`` at ``D=1``, but three hops need two swaps) and would
contradict the paper's own statement that the overhead metric can be no less
than 1.  We therefore default to the corrected recurrence

``s(1) = 0``,  ``s(n) = D (s(⌊n/2⌋) + s(⌈n/2⌉) + 1)``  for ``n >= 2``

which agrees with the paper at ``n = 2`` and reduces to the true minimum
``n - 1`` at ``D = 1``.  The literal paper recurrence remains available as
``variant="paper"`` and is compared in an ablation benchmark.
"""

from __future__ import annotations

import functools
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.balancer import SwapRecord
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable

#: Accepted values for the recurrence variant.
VARIANTS = ("exact", "paper")


def nested_swap_count(n_hops: int, distillation: float = 1.0, variant: str = "exact") -> float:
    """Swaps needed to build one usable pair over ``n_hops`` by nested swapping.

    Parameters
    ----------
    n_hops:
        Length (in generation-graph hops) of the path; must be >= 1.
    distillation:
        The uniform distillation overhead ``D`` (>= 1).
    variant:
        ``"exact"`` (default, corrected recurrence) or ``"paper"`` (the
        recurrence exactly as printed in the paper).
    """
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if distillation < 1.0:
        raise ValueError(f"distillation overhead D must be >= 1, got {distillation}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")

    @functools.lru_cache(maxsize=None)
    def recurse(hops: int) -> float:
        if hops == 1:
            return 0.0
        left = recurse(hops // 2)
        right = recurse(hops - hops // 2)
        if variant == "exact":
            return distillation * (left + right + 1.0)
        # Paper-literal recurrence: s(2) = D, s(n>2) = D (s(...) + s(...)).
        if hops == 2:
            return distillation
        return distillation * (left + right)

    return recurse(n_hops)


def sequential_swap_count(n_hops: int, distillation: float = 1.0) -> float:
    """Swaps needed for one usable pair over ``n_hops`` by hop-by-hop (sequential) swapping.

    ``t(1) = 0``, ``t(n) = D (t(n-1) + 1)``.  Equals the nested count at
    ``D = 1`` and grows much faster for ``D > 1`` -- which is exactly why the
    paper attributes its high-``D`` overhead to straying from the nested
    order.
    """
    if n_hops < 1:
        raise ValueError(f"n_hops must be >= 1, got {n_hops}")
    if distillation < 1.0:
        raise ValueError(f"distillation overhead D must be >= 1, got {distillation}")
    count = 0.0
    for _ in range(n_hops - 1):
        count = distillation * (count + 1.0)
    return count


def nested_schedule(path: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId, NodeId]]:
    """The swap order (repeater, left endpoint, right endpoint) for one raw end-to-end pair.

    The schedule is the post-order traversal of the balanced binary split of
    the path; executing the swaps in this order never requires a pair that
    has not been produced yet.
    """
    if len(path) < 2:
        raise ValueError("a swap path needs at least two nodes")
    schedule: List[Tuple[NodeId, NodeId, NodeId]] = []

    def recurse(lo: int, hi: int) -> None:
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        recurse(lo, mid)
        recurse(mid, hi)
        schedule.append((path[mid], path[lo], path[hi]))

    recurse(0, len(path) - 1)
    return schedule


def _uniform_overheads(overheads: Union[PairOverheads, float]) -> PairOverheads:
    if isinstance(overheads, (int, float)):
        return PairOverheads.uniform(distillation=float(overheads))
    return overheads


def required_link_pairs(
    path: Sequence[NodeId], overheads: Union[PairOverheads, float] = 1.0
) -> Dict[EdgeKey, int]:
    """Elementary pairs needed per link to nested-build one usable end-to-end pair.

    A one-hop segment needs ``D`` raw link pairs (to distil one usable pair).
    A longer segment needs ``D`` raw segment pairs, each consuming one
    distilled pair over each half, so the per-link requirements of the two
    halves are multiplied by ``D`` and summed.
    """
    overheads = _uniform_overheads(overheads)
    if len(path) < 2:
        raise ValueError("a swap path needs at least two nodes")

    def recurse(lo: int, hi: int) -> Dict[EdgeKey, int]:
        if hi - lo == 1:
            edge = edge_key(path[lo], path[hi])
            return {edge: overheads.pair_cost(*edge)}
        mid = (lo + hi) // 2
        cost = overheads.pair_cost(path[lo], path[hi])
        needs: Dict[EdgeKey, int] = {}
        for half in (recurse(lo, mid), recurse(mid, hi)):
            for edge, amount in half.items():
                needs[edge] = needs.get(edge, 0) + cost * amount
        return needs

    return recurse(0, len(path) - 1)


def execute_nested(
    ledger: PairCountLedger,
    path: Sequence[NodeId],
    overheads: Union[PairOverheads, float] = 1.0,
    round_index: int = 0,
) -> Optional[List[SwapRecord]]:
    """Perform nested swapping along ``path`` on a count ledger.

    Consumes elementary pairs from the ledger's link edges and, on success,
    leaves **one usable (already distilled) end-to-end pair's worth** of raw
    pairs removed -- i.e. it directly serves one consumption event without
    re-charging ``D`` at consumption time.  Returns the executed swap
    records, or ``None`` (without modifying the ledger) when the required
    link pairs are not all available.
    """
    overheads = _uniform_overheads(overheads)
    needs = required_link_pairs(path, overheads)
    for edge, amount in needs.items():
        if ledger.count(*edge) < amount:
            return None

    records: List[SwapRecord] = []

    def build(lo: int, hi: int, copies: int) -> None:
        """Build ``copies`` distilled pairs over the segment ``path[lo..hi]``."""
        if hi - lo == 1:
            cost = overheads.pair_cost(path[lo], path[hi])
            ledger.remove(path[lo], path[hi], cost * copies)
            return
        mid = (lo + hi) // 2
        cost = overheads.pair_cost(path[lo], path[hi])
        raw_needed = cost * copies
        build(lo, mid, raw_needed)
        build(mid, hi, raw_needed)
        for _ in range(raw_needed):
            records.append(
                SwapRecord(repeater=path[mid], left=path[lo], right=path[hi], round_index=round_index)
            )

    build(0, len(path) - 1, 1)
    return records
