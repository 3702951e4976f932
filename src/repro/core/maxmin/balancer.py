"""The max-min distributed balancing algorithm (paper, Section 4).

Every node ``x`` repeatedly looks at its current entanglement partners and
asks: is there a pair of partners ``(y, y')`` such that performing the swap
``y' <- x -> y`` is *preferable*?  The paper's condition is

``C_y(y') + 1  <=  min( C_x(y) - D_{x,y} ,  C_x(y') - D_{x,y'} )``

i.e. the swap is allowed only when the recipient pair, even after gaining a
pair, would still be no better off than either donor pair is after paying
its distillation cost.  Among preferable candidates the node performs the
one with minimal ``C_y(y')`` (other tie-break policies live in
:mod:`repro.core.maxmin.policy`).

Count accounting for one executed swap (consistent with equations (3)/(4)):

* ``C_x(y)``  decreases by ``D_{x,y}``  (the raw pairs distilled and swapped),
* ``C_x(y')`` decreases by ``D_{x,y'}``,
* ``C_y(y')`` increases by 1 (the produced pair),

and the swap counts as **one** swap operation toward the overhead metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.knowledge import GlobalKnowledge, KnowledgeModel
from repro.core.maxmin.ledger import PairCountLedger
from repro.core.maxmin.policy import BalancingPolicy, MinRecipientCountPolicy, SwapCandidate
from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable


@dataclass(frozen=True)
class SwapRecord:
    """One executed swap, for traces and the overhead metric."""

    repeater: NodeId
    left: NodeId
    right: NodeId
    round_index: int

    @property
    def produced_pair(self) -> EdgeKey:
        return edge_key(self.left, self.right)


class MaxMinBalancer:
    """Executes the balancing protocol over a :class:`PairCountLedger`.

    Parameters
    ----------
    ledger:
        The authoritative pair-count table.
    overheads:
        Per-pair distillation overheads ``D`` (a bare float is accepted and
        treated as a uniform overhead).  Non-integer values are rounded up
        when consuming counts, since counts are integers.
    policy:
        Candidate-selection policy; defaults to the paper's minimal
        recipient count rule.
    knowledge:
        What each node believes about remote counts; defaults to the
        paper's global knowledge.
    swaps_per_node_per_round:
        The "identical rate" at which every node performs the swapping
        process (the paper reports the results are insensitive to it).
    rng:
        Random stream for policies that need randomness.
    keep_records:
        Whether to retain a :class:`SwapRecord` per executed swap (required
        by some analyses; counters are always maintained).
    """

    def __init__(
        self,
        ledger: PairCountLedger,
        overheads: Union[PairOverheads, float] = 1.0,
        policy: Optional[BalancingPolicy] = None,
        knowledge: Optional[KnowledgeModel] = None,
        swaps_per_node_per_round: int = 1,
        rng: Optional[np.random.Generator] = None,
        keep_records: bool = True,
    ):
        if swaps_per_node_per_round <= 0:
            raise ValueError(
                f"swaps_per_node_per_round must be positive, got {swaps_per_node_per_round}"
            )
        self.ledger = ledger
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.policy = policy if policy is not None else MinRecipientCountPolicy()
        self.knowledge = knowledge if knowledge is not None else GlobalKnowledge(ledger)
        self.swaps_per_node_per_round = int(swaps_per_node_per_round)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.keep_records = keep_records
        self.swaps_performed = 0
        self.swaps_by_node: Dict[NodeId, int] = {}
        self.records: List[SwapRecord] = []
        self._cost_cache: Dict[EdgeKey, int] = {}

    # ------------------------------------------------------------------ #
    # Overhead helpers
    # ------------------------------------------------------------------ #
    def distillation_cost(self, node_a: NodeId, node_b: NodeId) -> int:
        """Integer count cost of using one ``(node_a, node_b)`` pair."""
        key = edge_key(node_a, node_b)
        cost = self._cost_cache.get(key)
        if cost is None:
            cost = self.overheads.pair_cost(node_a, node_b)
            self._cost_cache[key] = cost
        return cost

    def can_consume(self, node_a: NodeId, node_b: NodeId) -> bool:
        """Whether a consumption of pair ``(node_a, node_b)`` can be served right now."""
        return self.ledger.count(node_a, node_b) >= self.distillation_cost(node_a, node_b)

    def consume(self, node_a: NodeId, node_b: NodeId) -> int:
        """Serve one consumption: remove ``D`` raw pairs; returns pairs removed."""
        cost = self.distillation_cost(node_a, node_b)
        self.ledger.remove(node_a, node_b, cost)
        return cost

    def can_consume_sessions(self, sessions) -> bool:
        """Whether every Bell-pair session in ``sessions`` is affordable now.

        ``sessions`` is a list of canonical node pairs (e.g. from
        :func:`repro.protocols.fusion.group_sessions`); a group consumption
        is servable only when *all* of its sessions hold enough pairs.  A
        repeated pair must be affordable that many times over.  The
        single-session case is exactly :meth:`can_consume`.
        """
        needed: Dict[EdgeKey, int] = {}
        for node_a, node_b in sessions:
            key = edge_key(node_a, node_b)
            needed[key] = needed.get(key, 0) + self.distillation_cost(node_a, node_b)
        return all(
            self.ledger.count(key[0], key[1]) >= amount for key, amount in needed.items()
        )

    def consume_sessions(self, sessions) -> int:
        """Serve a group consumption: remove ``D`` pairs per session.

        Returns total pairs removed.  Callers must have checked
        :meth:`can_consume_sessions`; a shortfall raises mid-way like
        :meth:`consume` would, leaving earlier sessions consumed.
        """
        removed = 0
        for node_a, node_b in sessions:
            removed += self.consume(node_a, node_b)
        return removed

    # ------------------------------------------------------------------ #
    # Candidate enumeration (the paper's preferable condition)
    # ------------------------------------------------------------------ #
    def is_preferable(self, repeater: NodeId, left: NodeId, right: NodeId) -> bool:
        """Evaluate the paper's condition for ``left <- repeater -> right``."""
        candidate = self._evaluate_candidate(repeater, left, right)
        return candidate is not None

    def _evaluate_candidate(
        self, repeater: NodeId, left: NodeId, right: NodeId
    ) -> Optional[SwapCandidate]:
        if left == right or repeater in (left, right):
            return None
        left_count = self.ledger.count(repeater, left)
        right_count = self.ledger.count(repeater, right)
        cost_left = self.distillation_cost(repeater, left)
        cost_right = self.distillation_cost(repeater, right)
        if left_count < cost_left or right_count < cost_right:
            return None
        recipient = self.knowledge.recipient_count(repeater, left, right)
        if recipient is None:
            return None
        if recipient + 1 > min(left_count - cost_left, right_count - cost_right):
            return None
        return SwapCandidate(
            repeater=repeater,
            left=left,
            right=right,
            recipient_count=recipient,
            left_count=left_count,
            right_count=right_count,
        )

    def preferable_candidates(self, repeater: NodeId) -> List[SwapCandidate]:
        """All preferable swaps ``repeater`` could perform right now."""
        partner_counts = self.ledger.partners(repeater)
        partners = sorted(partner_counts, key=repr)
        # Pre-compute each partner's headroom (count minus distillation cost);
        # only partners with positive headroom can donate to a swap at all.
        headroom: Dict[NodeId, int] = {}
        for partner in partners:
            slack = partner_counts[partner] - self.distillation_cost(repeater, partner)
            if slack >= 1:
                headroom[partner] = slack
        eligible = [partner for partner in partners if partner in headroom]
        candidates: List[SwapCandidate] = []
        recipient_count = self.knowledge.recipient_count
        for index, left in enumerate(eligible):
            left_slack = headroom[left]
            for right in eligible[index + 1 :]:
                limit = min(left_slack, headroom[right])
                recipient = recipient_count(repeater, left, right)
                if recipient is None or recipient + 1 > limit:
                    continue
                candidates.append(
                    SwapCandidate(
                        repeater=repeater,
                        left=left,
                        right=right,
                        recipient_count=recipient,
                        left_count=partner_counts[left],
                        right_count=partner_counts[right],
                    )
                )
        return candidates

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def perform_swap(self, candidate: SwapCandidate, round_index: int = 0) -> SwapRecord:
        """Execute ``candidate``: update the ledger and the swap counters."""
        self.ledger.remove(candidate.repeater, candidate.left, self.distillation_cost(candidate.repeater, candidate.left))
        self.ledger.remove(candidate.repeater, candidate.right, self.distillation_cost(candidate.repeater, candidate.right))
        self.ledger.add(candidate.left, candidate.right, 1)
        self.swaps_performed += 1
        self.swaps_by_node[candidate.repeater] = self.swaps_by_node.get(candidate.repeater, 0) + 1
        record = SwapRecord(
            repeater=candidate.repeater,
            left=candidate.left,
            right=candidate.right,
            round_index=round_index,
        )
        if self.keep_records:
            self.records.append(record)
        return record

    def run_node(self, repeater: NodeId, round_index: int = 0) -> List[SwapRecord]:
        """Give ``repeater`` its turn: up to ``swaps_per_node_per_round`` preferable swaps."""
        performed: List[SwapRecord] = []
        for _ in range(self.swaps_per_node_per_round):
            candidates = self.preferable_candidates(repeater)
            choice = self.policy.choose(candidates, self.rng)
            if choice is None:
                break
            performed.append(self.perform_swap(choice, round_index))
        return performed

    def run_round(
        self,
        round_index: int = 0,
        node_order: Optional[Sequence[NodeId]] = None,
        refresh_knowledge: bool = True,
    ) -> List[SwapRecord]:
        """Run one full balancing round over every node.

        Nodes act sequentially within the round (the paper's algorithm is
        asynchronous; sequential execution with a rotating order is the
        standard discrete realisation).  ``node_order`` defaults to the
        ledger's node order rotated by the round index so no node is
        permanently advantaged.
        """
        if refresh_knowledge:
            self.knowledge.refresh(round_index, self.rng)
        nodes = list(node_order) if node_order is not None else self._rotated_nodes(round_index)
        performed: List[SwapRecord] = []
        for node in nodes:
            performed.extend(self.run_node(node, round_index))
        return performed

    def _rotated_nodes(self, round_index: int) -> List[NodeId]:
        nodes = self.ledger.nodes
        if not nodes:
            return []
        shift = round_index % len(nodes)
        return nodes[shift:] + nodes[:shift]

    # ------------------------------------------------------------------ #
    # Convergence check (used by tests and the fairness analysis)
    # ------------------------------------------------------------------ #
    def has_preferable_swap(self) -> bool:
        """Whether any node still has a preferable swap candidate."""
        return any(self.preferable_candidates(node) for node in self.ledger.nodes)

    def balance_to_convergence(self, max_rounds: int = 10_000) -> int:
        """With generation and consumption frozen, swap until no candidate remains.

        Returns the number of rounds used.  The paper argues the resulting
        allocation is max-min fair; the property-based tests check that no
        count can be increased without decreasing an already-smaller one.
        """
        for round_index in range(max_rounds):
            performed = self.run_round(round_index)
            if not performed:
                return round_index
        raise RuntimeError(f"balancing did not converge within {max_rounds} rounds")
