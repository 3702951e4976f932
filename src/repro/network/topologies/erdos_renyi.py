"""Erdős–Rényi random generation graphs (conditioned on connectivity).

Row ``a`` decides the pairs ``(a, b > a)`` with one ``rng.random(n - a - 1)``
call: the same draws, in the same order, as one scalar draw per pair, so a
seed yields the same graph and leaves the generator in the same state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.topology import Topology


def erdos_renyi_topology(
    n_nodes: int,
    edge_probability: float,
    rng: Optional[np.random.Generator] = None,
    generation_rate: float = 1.0,
    max_attempts: int = 200,
) -> Topology:
    """Sample a connected ``G(n, p)`` generation graph.

    Re-samples up to ``max_attempts`` times until a connected graph is
    obtained; raises :class:`RuntimeError` if that never happens (the caller
    picked a ``p`` far below the connectivity threshold).
    """
    if n_nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {n_nodes}")
    if not 0.0 < edge_probability <= 1.0:
        raise ValueError(f"edge_probability must be in (0, 1], got {edge_probability}")
    generator = rng if rng is not None else np.random.default_rng()
    for _ in range(max_attempts):
        topology = Topology(name=f"erdos-renyi-{n_nodes}-p{edge_probability:g}")
        for node in range(n_nodes):
            topology.add_node(node)
        for node_a in range(n_nodes - 1):
            first = node_a + 1
            accept = generator.random(n_nodes - first) < edge_probability
            for k in np.flatnonzero(accept).tolist():
                topology.add_edge(node_a, first + k, generation_rate)
        if topology.is_connected():
            return topology
    raise RuntimeError(
        f"failed to sample a connected G({n_nodes}, {edge_probability}) graph in "
        f"{max_attempts} attempts; increase edge_probability"
    )
