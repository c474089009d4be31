"""Fault topology: nodes grouped into named domains (node → rack → site).

Correlated outages are the dominant dependability risk of a commercial
service — a PDU trips and a whole rack goes dark, a core switch reboots
and a site disappears.  :class:`FaultTopology` is the serialisable map
from node ids to those shared fault domains: nodes are grouped into
*racks* of ``rack_size`` consecutive ids, and racks into *sites* of
``site_racks`` consecutive racks.  Domains are named ``"node<i>"``,
``"rack<r>"``, ``"site<s>"``, and the injector addresses them by name —
in scripted domain schedules, in per-domain RNG substreams
(``faults.domain.<name>``), and in cascade edges.

The topology is a pure function of ``(total_nodes, rack_size,
site_racks)`` — all three live in :class:`~repro.faults.config.FaultConfig`
— so it never needs to be stored separately: every run's domain structure
is content-addressed through the config exactly like every other knob.
It is deliberately dependency-free (no numpy, no simulator imports) for
the same reason :class:`FaultConfig` is.

Cascade neighbourhoods (the *edges* failures propagate along):

- a node's peers are the other nodes of its rack (shared PDU/switch);
- a rack's peers are the other racks of its site when a site layer
  exists, otherwise every other rack (one flat failure domain).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property

_DOMAIN_RE = re.compile(r"^(node|rack|site)(\d+)$")


@dataclass(frozen=True)
class FaultTopology:
    """Node → rack → site grouping of one machine.

    ``rack_size == 0`` means no domain layer (every node its own fault
    domain, the pre-topology behaviour); a site layer additionally
    requires ``site_racks > 0``.  The last rack/site may be partial when
    the sizes do not divide evenly.
    """

    total_nodes: int
    rack_size: int = 0
    site_racks: int = 0

    def __post_init__(self) -> None:
        if self.total_nodes < 1:
            raise ValueError("topology needs at least one node")
        if self.rack_size < 0 or self.site_racks < 0:
            raise ValueError("rack_size and site_racks cannot be negative")
        if self.site_racks > 0 and self.rack_size == 0:
            raise ValueError("a site layer requires a rack layer (rack_size > 0)")

    # -- shape ---------------------------------------------------------------
    @property
    def n_racks(self) -> int:
        if self.rack_size == 0:
            return 0
        return math.ceil(self.total_nodes / self.rack_size)

    @property
    def n_sites(self) -> int:
        if self.site_racks == 0:
            return 0
        return math.ceil(self.n_racks / self.site_racks)

    # -- membership ----------------------------------------------------------
    def rack_of(self, node_id: int) -> int:
        """Rack index of ``node_id`` (works for commissioned ids too)."""
        if self.rack_size == 0:
            raise ValueError("topology has no rack layer")
        return node_id // self.rack_size

    def site_of(self, node_id: int) -> int:
        if self.site_racks == 0:
            raise ValueError("topology has no site layer")
        return self.rack_of(node_id) // self.site_racks

    def rack_nodes(self, rack: int) -> tuple[int, ...]:
        """Base-machine node ids of one rack."""
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"no such rack: {rack} (topology has {self.n_racks})")
        lo = rack * self.rack_size
        hi = min(lo + self.rack_size, self.total_nodes)
        return tuple(range(lo, hi))

    def site_nodes(self, site: int) -> tuple[int, ...]:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"no such site: {site} (topology has {self.n_sites})")
        lo_rack = site * self.site_racks
        hi_rack = min(lo_rack + self.site_racks, self.n_racks)
        nodes: list[int] = []
        for rack in range(lo_rack, hi_rack):
            nodes.extend(self.rack_nodes(rack))
        return tuple(nodes)

    def domain_nodes(self, name: str) -> tuple[int, ...]:
        """Node ids of a named domain (``node<i>``/``rack<r>``/``site<s>``)."""
        match = _DOMAIN_RE.match(name)
        if match is None:
            raise ValueError(
                f"malformed domain name {name!r} "
                "(expected node<i>, rack<r>, or site<s>)"
            )
        kind, index = match.group(1), int(match.group(2))
        if kind == "node":
            if not 0 <= index < self.total_nodes:
                raise ValueError(
                    f"no such node: {index} (topology has {self.total_nodes})"
                )
            return (index,)
        if kind == "rack":
            return self.rack_nodes(index)
        return self.site_nodes(index)

    def domains(self) -> tuple[str, ...]:
        """Every named group domain, racks first then sites."""
        names = [f"rack{r}" for r in range(self.n_racks)]
        names.extend(f"site{s}" for s in range(self.n_sites))
        return tuple(names)

    # -- cascade edges -------------------------------------------------------
    def node_peers(self, node_id: int) -> tuple[int, ...]:
        """Rack-mates a node failure can cascade to (empty without racks).

        Fixed for the topology's lifetime, so each node's tuple is built
        on its first failure and served from a memo after that.
        """
        peers = self._node_peers.get(node_id)
        if peers is None:
            peers = self._node_peers[node_id] = self._rack_mates(node_id)
        return peers

    @cached_property
    def _node_peers(self) -> dict[int, tuple[int, ...]]:
        return {}

    def _rack_mates(self, node_id: int) -> tuple[int, ...]:
        if self.rack_size == 0:
            return ()
        rack = self.rack_of(node_id)
        if rack >= self.n_racks:  # commissioned node beyond the base machine
            return ()
        return tuple(n for n in self.rack_nodes(rack) if n != node_id)

    def rack_peers(self, rack: int) -> tuple[str, ...]:
        """Racks a rack outage can cascade to (site-mates, or all racks)."""
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"no such rack: {rack} (topology has {self.n_racks})")
        if self.site_racks > 0:
            site = rack // self.site_racks
            lo = site * self.site_racks
            hi = min(lo + self.site_racks, self.n_racks)
            others = range(lo, hi)
        else:
            others = range(self.n_racks)
        return tuple(f"rack{r}" for r in others if r != rack)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultTopology":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown FaultTopology fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_config(cls, config, total_nodes: int) -> "FaultTopology":
        """The topology a :class:`FaultConfig` describes on a machine."""
        return cls(
            total_nodes=int(total_nodes),
            rack_size=config.domain_size,
            site_racks=config.site_racks,
        )
