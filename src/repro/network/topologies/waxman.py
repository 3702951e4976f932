"""Waxman geometric random graphs.

The classic internet-topology generator: nodes are placed uniformly in the
unit square and each pair is connected with probability
``alpha * exp(-d / (beta * L))`` where ``d`` is their Euclidean distance and
``L`` the maximum possible distance.  Geometric locality matches how
elementary entanglement generation actually works (only nearby nodes can
generate directly), so Waxman graphs are a natural "realistic" member of
the ablation topology family.

Sampling is row-blocked: row ``a`` decides the pairs ``(a, b > a)`` with one
``rng.random(n - a - 1)`` call, which consumes the generator exactly like
one scalar draw per pair in the same order, so a seed yields the same graph
(and leaves the generator in the same state) as a per-pair loop would.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from repro.network.topology import Topology

#: Relative distance from the vectorized probability inside which a draw is
#: re-decided with the scalar ``math`` expression.  ``np.hypot``/``np.exp``
#: may differ from ``math.hypot``/``math.exp`` in the last few ulps; this
#: window is thousands of ulps wide, so the two can never disagree outside it.
TIE_WINDOW = 1e-12


def edge_probability(
    alpha: float, scale: float, a: Tuple[float, float], b: Tuple[float, float]
) -> float:
    """The scalar Waxman probability ``alpha * exp(-|a - b| / scale)``."""
    return alpha * math.exp(-math.hypot(a[0] - b[0], a[1] - b[1]) / scale)


def accept_draws(
    draws: np.ndarray,
    probabilities: np.ndarray,
    exact_probability: Callable[[int], float],
) -> np.ndarray:
    """``draws[k] < p_k`` for one row, exactly as the scalar expression decides.

    ``probabilities`` are the vectorized edge probabilities; a draw within
    :data:`TIE_WINDOW` of its probability is re-decided against
    ``exact_probability(k)``, the scalar :func:`edge_probability` of column
    ``k``.
    """
    accept = draws < probabilities
    near = np.abs(draws - probabilities) <= TIE_WINDOW * probabilities
    for k in np.flatnonzero(near).tolist():
        accept[k] = draws[k] < exact_probability(k)
    return accept


def waxman_topology(
    n_nodes: int,
    alpha: float = 0.6,
    beta: float = 0.3,
    rng: Optional[np.random.Generator] = None,
    generation_rate: float = 1.0,
    max_attempts: int = 200,
) -> Topology:
    """Sample a connected Waxman generation graph on the unit square."""
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    generator = rng if rng is not None else np.random.default_rng()
    scale = beta * math.sqrt(2.0)
    for _ in range(max_attempts):
        coords = generator.random(2 * n_nodes)
        xs, ys = coords[0::2], coords[1::2]
        flat = coords.tolist()
        positions = {node: (flat[2 * node], flat[2 * node + 1]) for node in range(n_nodes)}
        topology = Topology(name=f"waxman-{n_nodes}", positions=positions)
        for node in range(n_nodes):
            topology.add_node(node, position=positions[node])
        for node_a in range(n_nodes - 1):
            first = node_a + 1
            xa, ya = positions[node_a]
            draws = generator.random(n_nodes - first)
            probabilities = alpha * np.exp(-np.hypot(xa - xs[first:], ya - ys[first:]) / scale)
            accept = accept_draws(
                draws,
                probabilities,
                lambda k: edge_probability(alpha, scale, positions[node_a], positions[first + k]),
            )
            for k in np.flatnonzero(accept).tolist():
                topology.add_edge(node_a, first + k, generation_rate)
        if topology.is_connected():
            return topology
    raise RuntimeError(
        f"failed to sample a connected Waxman({n_nodes}, alpha={alpha}, beta={beta}) graph "
        f"in {max_attempts} attempts; increase alpha or beta"
    )
