"""Topology container: named nodes and the cables between them.

This is a thin registry — actual forwarding behaviour lives in the node
objects themselves.  The experiment testbeds (paper Fig. 1: two hosts,
one OVS, one Floodlight box; plus the line and fan-in extensions) are
assembled by :func:`repro.scenarios.build_scenario` on top of this
container.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from ..simkit import Simulator
from .link import DuplexLink


class Topology:
    """Registry of nodes and duplex cables."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nodes: Dict[str, Any] = {}
        self._cables: Dict[Tuple[str, str], DuplexLink] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, name: str, node: Any) -> Any:
        """Register ``node`` under ``name``.  Names must be unique."""
        if name in self._nodes:
            raise ValueError(f"node {name!r} already exists")
        self._nodes[name] = node
        return node

    def replace_node(self, name: str, node: Any) -> Any:
        """Swap the object registered under ``name`` (must exist).

        Used when wiring has a chicken-and-egg order: a name is reserved
        (e.g. with ``None``) so cables can reference it, then the real
        object replaces the placeholder.
        """
        if name not in self._nodes:
            raise KeyError(f"no node named {name!r} to replace")
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Any:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}; have "
                           f"{sorted(self._nodes)}") from None

    def nodes(self) -> Iterator[Tuple[str, Any]]:
        """Iterate (name, node) pairs."""
        return iter(self._nodes.items())

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        """Number of registered nodes (placeholders included)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Cables
    # ------------------------------------------------------------------
    def add_cable(self, a: str, b: str, bandwidth_bps: float,
                  propagation_delay: float = 5e-6) -> DuplexLink:
        """Create a duplex cable between two registered nodes.

        The caller is responsible for connecting the cable's receive ends to
        the node objects (node APIs differ); the topology only tracks it.
        """
        if a not in self._nodes:
            raise KeyError(f"unknown node {a!r}")
        if b not in self._nodes:
            raise KeyError(f"unknown node {b!r}")
        key = (a, b)
        if key in self._cables or (b, a) in self._cables:
            raise ValueError(f"cable between {a!r} and {b!r} already exists")
        cable = DuplexLink(self.sim, f"{a}<->{b}", bandwidth_bps,
                           propagation_delay)
        self._cables[key] = cable
        return cable

    def cable(self, a: str, b: str) -> DuplexLink:
        """Look up the cable between ``a`` and ``b`` (order-insensitive)."""
        cable = self._cables.get((a, b)) or self._cables.get((b, a))
        if cable is None:
            raise KeyError(f"no cable between {a!r} and {b!r}")
        return cable

    def cables(self) -> Iterator[Tuple[Tuple[str, str], DuplexLink]]:
        """Iterate ((a, b), cable) pairs."""
        return iter(self._cables.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Topology(nodes={sorted(self._nodes)}, "
                f"cables={sorted(self._cables)})")
