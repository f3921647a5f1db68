"""Network topologies for the virtual cluster.

The paper's experiments run on VSC3, a fat-tree machine, and justify the
use of *contiguous blocks of ranks* for multi-node failures by noting
that a switch fault takes out exactly such a block.  This module builds
the fat tree explicitly (with :mod:`networkx`), provides hop distances
for the latency model, and exposes the switch → ranks mapping used by
:mod:`repro.cluster.failures` to generate switch-fault failure sets.

:mod:`networkx` is imported only by the two methods that build or walk
the explicit graph (``FatTree.graph`` and its shortest-path
cross-check); hop counts are closed-form, so ``import repro`` and every
solve work without it (``pip install repro[topology]`` adds it).

Simpler topologies (ring, fully connected) are available for tests and
for isolating the influence of hop-dependent latency.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

from ..exceptions import ConfigurationError

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """Abstract base class: hop distances between compute nodes."""

    def __init__(self, n_nodes: int):
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)

    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between ranks ``src`` and ``dst``."""
        raise NotImplementedError

    def _check(self, rank: int) -> int:
        if not 0 <= rank < self.n_nodes:
            raise ConfigurationError(f"rank {rank} outside [0, {self.n_nodes})")
        return int(rank)


class FullyConnected(Topology):
    """Every pair of distinct nodes is one hop apart."""

    def hops(self, src: int, dst: int) -> int:
        src, dst = self._check(src), self._check(dst)
        return 0 if src == dst else 1


class Ring(Topology):
    """Nodes on a bidirectional ring; hop count is the ring distance."""

    def hops(self, src: int, dst: int) -> int:
        src, dst = self._check(src), self._check(dst)
        forward = (dst - src) % self.n_nodes
        return min(forward, self.n_nodes - forward)


class FatTree(Topology):
    """Two-level fat tree: leaf switches with ``radix`` nodes each.

    Ranks are assigned to leaf switches in contiguous blocks (rank
    ``r`` sits under leaf switch ``r // radix``), the standard layout
    that makes a switch fault kill a contiguous block of ranks —
    precisely the failure pattern the paper injects.

    Hop counts: same node 0; same leaf switch 2 (node→switch→node);
    different leaf switches 4 (node→leaf→spine→leaf→node).
    """

    def __init__(self, n_nodes: int, radix: int = 8):
        super().__init__(n_nodes)
        if radix < 1:
            raise ConfigurationError(f"radix must be >= 1, got {radix}")
        self.radix = int(radix)
        self.n_leaves = math.ceil(self.n_nodes / self.radix)

    def leaf_of(self, rank: int) -> int:
        """Index of the leaf switch hosting ``rank``."""
        return self._check(rank) // self.radix

    def ranks_under_leaf(self, leaf: int) -> tuple[int, ...]:
        """All ranks hosted by leaf switch ``leaf`` (a contiguous block)."""
        if not 0 <= leaf < self.n_leaves:
            raise ConfigurationError(f"leaf {leaf} outside [0, {self.n_leaves})")
        lo = leaf * self.radix
        hi = min(self.n_nodes, lo + self.radix)
        return tuple(range(lo, hi))

    def hops(self, src: int, dst: int) -> int:
        src, dst = self._check(src), self._check(dst)
        if src == dst:
            return 0
        if self.leaf_of(src) == self.leaf_of(dst):
            return 2
        return 4

    def graph(self) -> nx.Graph:
        """The explicit fat-tree graph (nodes, leaf switches, one spine).

        Node names: ``("node", rank)``, ``("leaf", i)``, ``("spine", 0)``.
        Provided for visualisation/analysis; hop counts use the closed
        form above (they agree with shortest paths on this graph).
        """
        import networkx as nx

        g = nx.Graph()
        g.add_node(("spine", 0), kind="spine")
        for leaf in range(self.n_leaves):
            g.add_node(("leaf", leaf), kind="leaf")
            g.add_edge(("leaf", leaf), ("spine", 0))
            for rank in self.ranks_under_leaf(leaf):
                g.add_node(("node", rank), kind="node")
                g.add_edge(("node", rank), ("leaf", leaf))
        return g

    @lru_cache(maxsize=None)
    def _shortest_path_hops(self, src: int, dst: int) -> int:
        """Hop count via explicit shortest path (cross-check for tests)."""
        import networkx as nx

        return nx.shortest_path_length(self.graph(), ("node", src), ("node", dst))


def make_topology(name: str, n_nodes: int, **kwargs: int) -> Topology:
    """Factory: ``"fat_tree"``, ``"ring"`` or ``"full"``."""
    name = name.lower().replace("-", "_")
    if name in ("fat_tree", "fattree"):
        return FatTree(n_nodes, **kwargs)
    if name == "ring":
        return Ring(n_nodes)
    if name in ("full", "fully_connected"):
        return FullyConnected(n_nodes)
    raise ConfigurationError(f"unknown topology {name!r}; expected fat_tree|ring|full")
