"""Classical channels.

The control-plane experiments need per-link byte accounting.  A
:class:`ClassicalChannel` models one point-to-point link; a
:class:`ClassicalNetwork` routes messages over a topology's edges using
shortest paths and accumulates the per-link load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.classical.messages import ClassicalMessage
from repro.network.topology import EdgeKey, Topology, edge_key

NodeId = Hashable


@dataclass
class ClassicalChannel:
    """A point-to-point classical link with latency and optional bandwidth."""

    node_a: NodeId
    node_b: NodeId
    latency: float = 0.0
    bandwidth_bits_per_round: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError("a classical channel must connect two distinct nodes")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth_bits_per_round is not None and self.bandwidth_bits_per_round <= 0:
            raise ValueError(
                f"bandwidth must be positive or None, got {self.bandwidth_bits_per_round}"
            )

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.node_a, self.node_b)

    def transfer_time(self, size_bits: int) -> float:
        """Time for a message of ``size_bits`` to cross this channel."""
        if size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {size_bits}")
        transmission = 0.0
        if self.bandwidth_bits_per_round is not None:
            transmission = size_bits / self.bandwidth_bits_per_round
        return self.latency + transmission


class ClassicalNetwork:
    """Classical connectivity following the generation graph's edges.

    Messages between non-adjacent nodes are forwarded along the shortest
    generation-graph path; per-edge bit counters record where control-plane
    load concentrates.
    """

    def __init__(self, topology: Topology, default_latency: float = 1.0):
        if default_latency < 0:
            raise ValueError(f"default_latency must be non-negative, got {default_latency}")
        self.topology = topology
        self.default_latency = default_latency
        self._channels: Dict[EdgeKey, ClassicalChannel] = {
            edge: ClassicalChannel(edge[0], edge[1], latency=default_latency)
            for edge in topology.edges()
        }
        self.bits_by_edge: Dict[EdgeKey, int] = {}
        self.messages_delivered = 0
        self.total_bits = 0

    def channel(self, node_a: NodeId, node_b: NodeId) -> ClassicalChannel:
        key = edge_key(node_a, node_b)
        if key not in self._channels:
            raise KeyError(f"no classical channel between {node_a!r} and {node_b!r}")
        return self._channels[key]

    def set_channel(self, channel: ClassicalChannel) -> None:
        """Install or replace a channel (e.g. to give one link higher latency)."""
        if not self.topology.has_edge(channel.node_a, channel.node_b):
            raise ValueError(
                f"({channel.node_a!r}, {channel.node_b!r}) is not an edge of {self.topology.name}"
            )
        self._channels[channel.key] = channel

    def deliver(self, message: ClassicalMessage) -> Tuple[float, List[EdgeKey]]:
        """Route ``message`` hop by hop; return ``(total latency, edges traversed)``."""
        path = self.topology.shortest_path(message.source, message.destination)
        if path is None:
            raise ValueError(
                f"no classical route between {message.source!r} and {message.destination!r}"
            )
        latency = 0.0
        edges: List[EdgeKey] = []
        for node_a, node_b in zip(path, path[1:]):
            channel = self.channel(node_a, node_b)
            latency += channel.transfer_time(message.size_bits)
            key = channel.key
            edges.append(key)
            self.bits_by_edge[key] = self.bits_by_edge.get(key, 0) + message.size_bits
        self.messages_delivered += 1
        self.total_bits += message.size_bits * max(len(edges), 1)
        return latency, edges

    def busiest_edges(self, top: int = 5) -> List[Tuple[EdgeKey, int]]:
        """The ``top`` edges carrying the most control-plane bits."""
        ranked = sorted(self.bits_by_edge.items(), key=lambda item: (-item[1], repr(item[0])))
        return ranked[:top]
