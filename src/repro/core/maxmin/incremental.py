"""Incremental max-min balancing engine.

:class:`~repro.core.maxmin.balancer.MaxMinBalancer` re-enumerates a node's
entire O(partners²) candidate set on every turn and rescans every node every
round, which is fine at paper scale (tens of nodes) and hopeless at the
hundreds-to-thousands of nodes the large-topology experiments need.  This
module keeps the exact same algorithm — same preferable condition, same
policy choice, same round structure, bit-identical ledger fixed points for
any deterministic policy — but makes each step cost O(affected) instead of
O(everything):

* **Dirty-set invalidation** — the engine subscribes to
  :meth:`PairCountLedger.add`/:meth:`remove <PairCountLedger.remove>`.  A
  mutation of edge ``(a, b)`` can only change candidates in three places:
  candidates of repeater ``a`` involving partner ``b``, candidates of
  repeater ``b`` involving partner ``a``, and candidates ``(x, a, b)`` whose
  *produced* pair is ``(a, b)`` (for repeaters ``x`` sharing pairs with both
  ends).  Exactly those entries are marked dirty; everything else stays
  cached.
* **Lazy re-evaluation** — dirty entries are re-evaluated only when their
  repeater is actually consulted (its turn in a round, or a convergence
  check).
* **Active-set convergence** — instead of a full per-round rescan, rounds
  visit only nodes that hold a cached candidate or dirty entries; all other
  nodes are skipped in O(1).  A node skipped this way would have enumerated
  an empty candidate list under the naive engine, so the executed swap
  sequence — and therefore the ledger fixed point — is unchanged.
* **Vectorized initial sweep** — under global knowledge each repeater's
  initial candidate set is computed with NumPy over a small per-repeater
  block (its eligible partners' headrooms and the counts between them,
  read from the ledger's partner views) rather than per-pair Python loops;
  no dense n x n matrix is ever built.

The optional ``self_check`` mode re-runs the naive enumeration beside every
incremental answer and raises on any divergence; the property tests use it
to assert equivalence candidate-by-candidate, not just at the fixed point.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.core.maxmin.balancer import MaxMinBalancer, SwapRecord
from repro.core.maxmin.knowledge import GlobalKnowledge
from repro.core.maxmin.ledger import PairCountLedger
from repro.core.maxmin.policy import SwapCandidate
from repro.perf.kernels import candidate_block

NodeId = Hashable
PairKey = Tuple[NodeId, NodeId]

#: The balancing engines the experiment layer can request by name.
BALANCER_ENGINES: Tuple[str, ...] = ("naive", "incremental")


def make_balancer(engine: str, ledger: PairCountLedger, **kwargs) -> MaxMinBalancer:
    """Build the balancing engine named ``engine`` over ``ledger``.

    ``"naive"`` is the original full-rescan :class:`MaxMinBalancer`;
    ``"incremental"`` is :class:`IncrementalMaxMinBalancer`.  Both accept the
    same keyword arguments and reach identical fixed points under any
    deterministic policy.
    """
    if engine == "naive":
        return MaxMinBalancer(ledger, **kwargs)
    if engine == "incremental":
        return IncrementalMaxMinBalancer(ledger, **kwargs)
    raise ValueError(f"unknown balancer engine {engine!r}; choose from {BALANCER_ENGINES}")


class IncrementalMaxMinBalancer(MaxMinBalancer):
    """Drop-in :class:`MaxMinBalancer` with incremental candidate maintenance.

    Additional parameters
    ---------------------
    self_check:
        When true, every incremental candidate list is verified against the
        naive O(partners²) enumeration and a :class:`RuntimeError` is raised
        on the first divergence.  Meant for tests; it removes the speedup.
    """

    def __init__(self, ledger: PairCountLedger, *args, self_check: bool = False, **kwargs):
        super().__init__(ledger, *args, **kwargs)
        self.self_check = bool(self_check)
        # repeater -> canonical (left, right) -> currently-valid candidate
        self._candidates: Dict[NodeId, Dict[PairKey, SwapCandidate]] = {}
        # repeater -> partners whose pairings must all be re-evaluated
        self._dirty_partners: Dict[NodeId, Set[NodeId]] = {}
        # repeater -> specific produced-pairs to re-evaluate
        self._dirty_pairs: Dict[NodeId, Set[PairKey]] = {}
        # repeaters whose whole candidate set must be rebuilt
        self._stale: Set[NodeId] = set()
        # repeaters currently holding at least one valid cached candidate
        self._active: Set[NodeId] = set()
        # repeater -> partners with donation headroom >= 1 (exact, kept
        # up to date on every mutation so pairing loops never touch the
        # small-count partners that dominate a balanced ledger)
        self._eligible: Dict[NodeId, Set[NodeId]] = {}
        # Uniform overheads collapse every distillation cost to one int.
        self._uniform_cost: Optional[int] = self.overheads.uniform_pair_cost()
        self.ledger.subscribe_groups(self._on_group_mutation)
        self._rebuild_all()

    # The knowledge model is settable after construction (the experiment
    # runner swaps in gossip knowledge that way); reassignment must drop
    # every cached candidate because believed counts may change wholesale.
    @property
    def knowledge(self):
        return self._knowledge

    @knowledge.setter
    def knowledge(self, model) -> None:
        self._knowledge = model
        # Every fast path (ledger-direct recipient reads, the vectorized
        # sweep, skipping invalidation on refresh) requires *exactly*
        # GlobalKnowledge: a subclass may override recipient_count or
        # refresh, so it gets the conservative treatment throughout.
        self._fast_global = type(model) is GlobalKnowledge
        if getattr(self, "_candidates", None) is not None:
            self.invalidate_all()

    def detach(self) -> None:
        """Stop observing the ledger (the engine must not be used afterwards)."""
        self.ledger.unsubscribe_groups(self._on_group_mutation)

    # ------------------------------------------------------------------ #
    # Invalidation
    # ------------------------------------------------------------------ #
    def _on_group_mutation(self, group, old: int, new: int) -> None:
        # The dirty-set machinery is keyed by the mutated group.  Bell-pair
        # mutations (size-2 groups) feed the pair invalidation below; GHZ
        # mutations (size >= 3) cannot change any swap candidate — swaps
        # produce and consume Bell pairs only — so they invalidate nothing.
        if len(group) == 2:
            self._on_mutation(group[0], group[1], old, new)

    def _on_mutation(self, node_a: NodeId, node_b: NodeId, old: int, new: int) -> None:
        cost = (
            self._uniform_cost
            if self._uniform_cost is not None
            else self.distillation_cost(node_a, node_b)
        )
        if new - cost >= 1:
            self._eligible.setdefault(node_a, set()).add(node_b)
            self._eligible.setdefault(node_b, set()).add(node_a)
        else:
            eligible = self._eligible.get(node_a)
            if eligible is not None:
                eligible.discard(node_b)
            eligible = self._eligible.get(node_b)
            if eligible is not None:
                eligible.discard(node_a)
        self._dirty_partners.setdefault(node_a, set()).add(node_b)
        self._dirty_partners.setdefault(node_b, set()).add(node_a)
        # The produced-pair count C_a(b) changed: candidates (x, a, b) must be
        # re-checked for every x sharing pairs with both ends.  Any other x
        # cannot hold (and can never have held) a valid (x, a, b) candidate.
        partners_a = self.ledger.partner_view(node_a)
        partners_b = self.ledger.partner_view(node_b)
        if len(partners_b) < len(partners_a):
            partners_a, partners_b = partners_b, partners_a
        key = self._pair_key(node_a, node_b)
        for x in partners_a:
            if x in partners_b:
                self._dirty_pairs.setdefault(x, set()).add(key)

    def invalidate_all(self) -> None:
        """Discard every cached candidate (e.g. after an external knowledge change)."""
        self._stale.update(self.ledger.nodes)
        self._stale.update(self._candidates)
        self._dirty_partners.clear()
        self._dirty_pairs.clear()

    @staticmethod
    def _pair_key(node_a: NodeId, node_b: NodeId) -> PairKey:
        if repr(node_a) <= repr(node_b):
            return (node_a, node_b)
        return (node_b, node_a)

    # ------------------------------------------------------------------ #
    # Flushing dirty state
    # ------------------------------------------------------------------ #
    def _headroom(self, repeater: NodeId, partner: NodeId, count: int) -> int:
        if self._uniform_cost is not None:
            return count - self._uniform_cost
        return count - self.distillation_cost(repeater, partner)

    def _recipient(self, repeater: NodeId, left: NodeId, right: NodeId) -> Optional[int]:
        if self._fast_global:
            return self.ledger.partner_view(left).get(right, 0)
        return self.knowledge.recipient_count(repeater, left, right)

    def _flush_node(self, repeater: NodeId) -> None:
        if repeater in self._stale:
            self._stale.discard(repeater)
            self._dirty_partners.pop(repeater, None)
            self._dirty_pairs.pop(repeater, None)
            self._rebuild_node(repeater)
            return
        dirty_partners = self._dirty_partners.pop(repeater, None)
        dirty_pairs = self._dirty_pairs.pop(repeater, None)
        if not dirty_partners and not dirty_pairs:
            return
        cache = self._candidates.setdefault(repeater, {})
        view = self.ledger.partner_view(repeater)
        eligible = self._eligible.get(repeater) or ()
        if dirty_partners:
            if cache:
                for key in [
                    k for k in cache if k[0] in dirty_partners or k[1] in dirty_partners
                ]:
                    del cache[key]
            for partner in dirty_partners:
                if partner not in eligible:
                    continue  # cannot donate: no pairing involving it is valid
                slack = self._headroom(repeater, partner, view[partner])
                partner_repr = repr(partner)
                for other in eligible:
                    if other is partner or other == partner:
                        continue
                    if other in dirty_partners and repr(other) < partner_repr:
                        continue  # both dirty: evaluate the pairing once
                    other_slack = self._headroom(repeater, other, view[other])
                    limit = slack if slack < other_slack else other_slack
                    key = self._pair_key(partner, other)
                    recipient = self._recipient(repeater, key[0], key[1])
                    if recipient is None or recipient + 1 > limit:
                        continue
                    cache[key] = SwapCandidate(
                        repeater=repeater,
                        left=key[0],
                        right=key[1],
                        recipient_count=recipient,
                        left_count=view[key[0]],
                        right_count=view[key[1]],
                    )
        if dirty_pairs:
            for key in dirty_pairs:
                if dirty_partners and (key[0] in dirty_partners or key[1] in dirty_partners):
                    continue  # already re-evaluated above
                left, right = key
                candidate = None
                if left in eligible and right in eligible:
                    left_slack = self._headroom(repeater, left, view[left])
                    right_slack = self._headroom(repeater, right, view[right])
                    limit = left_slack if left_slack < right_slack else right_slack
                    recipient = self._recipient(repeater, left, right)
                    if recipient is not None and recipient + 1 <= limit:
                        candidate = SwapCandidate(
                            repeater=repeater,
                            left=left,
                            right=right,
                            recipient_count=recipient,
                            left_count=view[left],
                            right_count=view[right],
                        )
                if candidate is not None:
                    cache[key] = candidate
                else:
                    cache.pop(key, None)
        if cache:
            self._active.add(repeater)
        else:
            self._active.discard(repeater)

    def _flush_all(self) -> None:
        # A full invalidation (knowledge reassignment, invalidate_all) marks
        # every node stale; re-evaluating the whole dirty set one naive
        # O(partners²) node at a time is then strictly worse than one
        # vectorized global sweep, which produces the identical candidate
        # sets through the balancer-candidates kernel.
        if (
            self._fast_global
            and self._stale
            and self._stale.issuperset(self.ledger.nodes)
        ):
            self._rebuild_all()
            return
        pending = set(self._stale)
        pending.update(self._dirty_partners)
        pending.update(self._dirty_pairs)
        for repeater in pending:
            self._flush_node(repeater)

    def _has_pending_work(self) -> bool:
        return bool(
            self._active or self._stale or self._dirty_partners or self._dirty_pairs
        )

    def _node_may_act(self, repeater: NodeId) -> bool:
        return (
            repeater in self._active
            or repeater in self._stale
            or repeater in self._dirty_partners
            or repeater in self._dirty_pairs
        )

    # ------------------------------------------------------------------ #
    # (Re)building candidate sets
    # ------------------------------------------------------------------ #
    def _rebuild_node(self, repeater: NodeId) -> None:
        cache = {
            (candidate.left, candidate.right): candidate
            for candidate in MaxMinBalancer.preferable_candidates(self, repeater)
        }
        if cache:
            self._candidates[repeater] = cache
            self._active.add(repeater)
        else:
            self._candidates.pop(repeater, None)
            self._active.discard(repeater)

    def _rebuild_all(self) -> None:
        self._candidates.clear()
        self._active.clear()
        self._dirty_partners.clear()
        self._dirty_pairs.clear()
        self._stale.clear()
        self._eligible.clear()
        for repeater in self.ledger.nodes:
            view = self.ledger.partner_view(repeater)
            partners = sorted(view, key=repr)
            slack = [self._headroom(repeater, partner, view[partner]) for partner in partners]
            eligible = [partner for partner, head in zip(partners, slack) if head >= 1]
            if eligible:
                self._eligible[repeater] = set(eligible)
            if not self._fast_global:
                self._rebuild_node(repeater)
            elif len(eligible) >= 2:
                headroom = [head for head in slack if head >= 1]
                self._vectorized_sweep(repeater, eligible, headroom)

    def _vectorized_sweep(
        self, repeater: NodeId, partners: List[NodeId], headroom: List[int]
    ) -> None:
        """Evaluate one repeater's whole candidate block under global knowledge.

        ``partners`` are the repeater's donation-eligible partners in
        ``repr`` order and ``headroom`` their counts minus distillation
        cost.  The k x k recipient block is read from the partners' ledger
        views, and the ``balancer-candidates`` kernel (see
        :mod:`repro.perf.kernels`) picks the valid pairings instead of a
        per-pair Python loop.  Memory stays O(partners²) per repeater; no
        n x n matrix is built.
        """
        views = [self.ledger.partner_view(partner) for partner in partners]
        block = [[view.get(other, 0) for other in partners] for view in views]
        rows, cols = candidate_block(
            np.array(headroom, dtype=np.int64), np.array(block, dtype=np.int64)
        )
        if rows.size == 0:
            return
        own = self.ledger.partner_view(repeater)
        cache: Dict[PairKey, SwapCandidate] = {}
        for r, c in zip(rows.tolist(), cols.tolist()):
            left, right = partners[r], partners[c]
            cache[(left, right)] = SwapCandidate(
                repeater=repeater,
                left=left,
                right=right,
                recipient_count=block[r][c],
                left_count=own[left],
                right_count=own[right],
            )
        self._candidates[repeater] = cache
        self._active.add(repeater)

    # ------------------------------------------------------------------ #
    # Overridden queries
    # ------------------------------------------------------------------ #
    def preferable_candidates(self, repeater: NodeId) -> List[SwapCandidate]:
        self._flush_node(repeater)
        cache = self._candidates.get(repeater)
        if not cache:
            result: List[SwapCandidate] = []
        else:
            result = [
                cache[key]
                for key in sorted(cache, key=lambda k: (repr(k[0]), repr(k[1])))
            ]
        if self.self_check:
            expected = MaxMinBalancer.preferable_candidates(self, repeater)
            if result != expected:
                raise RuntimeError(
                    f"incremental candidate set diverged for repeater {repeater!r}: "
                    f"incremental={result} naive={expected}"
                )
        return result

    def has_preferable_swap(self) -> bool:
        self._flush_all()
        return bool(self._active)

    def run_round(
        self,
        round_index: int = 0,
        node_order=None,
        refresh_knowledge: bool = True,
    ) -> List[SwapRecord]:
        if refresh_knowledge:
            self.knowledge.refresh(round_index, self.rng)
            if not self._fast_global:
                # Non-global knowledge can change any believed count on
                # refresh; the caches cannot survive it.
                self.invalidate_all()
        nodes = list(node_order) if node_order is not None else self._rotated_nodes(round_index)
        performed: List[SwapRecord] = []
        for node in nodes:
            if self._node_may_act(node):
                performed.extend(self.run_node(node, round_index))
        return performed

    def balance_to_convergence(self, max_rounds: int = 10_000) -> int:
        for round_index in range(max_rounds):
            if self._fast_global and not self._has_pending_work():
                return round_index
            performed = self.run_round(round_index)
            if not performed:
                return round_index
        raise RuntimeError(f"balancing did not converge within {max_rounds} rounds")
