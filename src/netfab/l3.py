"""Layer-3 switch: VLAN interfaces, longest-prefix routing, zone ACLs, conntrack."""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .packet import (FlowKey, Packet, PrefixTable, check_vid, ip_str,
                     packet_copy, prefix_mask)

ZONES = ("clean", "dmz", "public")
VERDICTS = ("permit", "deny-new")

CONN_TIMEOUT_US = 600_000_000  # 600 s idle

#: clean > dmz > public trust ordering; initiation allowed down the ordering,
#: replies admitted statefully. Read-only: it is the shared default argument
#: of every router and firewall that is given no policy.
DEFAULT_ZONE_POLICY = MappingProxyType({
    ("clean", "clean"): "permit",
    ("clean", "dmz"): "permit",
    ("clean", "public"): "permit",
    ("dmz", "dmz"): "permit",
    ("dmz", "public"): "permit",
    ("dmz", "clean"): "deny-new",
    ("public", "public"): "permit",
    ("public", "dmz"): "deny-new",
    ("public", "clean"): "deny-new",
})


class L3Error(Exception):
    pass


class DuplicateVid(L3Error):
    pass


class OverlappingSubnet(L3Error):
    pass


class UnknownVid(L3Error):
    pass


def check_zone(zone: str) -> str:
    if zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    return zone


@dataclass(frozen=True)
class VlanInterface:
    """One L3 interface, as an `[l3]` interface line declares it; the config
    and the router share the record."""
    vid: int
    ip: int
    prefix_len: int
    zone: str
    port: Optional[str] = None  # bound to a physical port instead of the trunk

    def __post_init__(self):
        check_vid(self.vid)
        check_zone(self.zone)
        if not 0 <= self.prefix_len <= 32:
            raise ValueError("prefix_len must be in [0, 32]")

    @property
    def network(self) -> int:
        return self.ip & prefix_mask(self.prefix_len)


@dataclass(frozen=True)
class Route:
    """One static route, as a `[route]` line declares it, or a connected
    subnet's route."""
    prefix: int
    prefix_len: int
    via_vid: Optional[int] = None
    gateway: Optional[int] = None


class ConnTable:
    """Established-connection table: a flow is established while its mirror
    was forwarded within the idle timeout."""

    def __init__(self):
        self.entries: dict[FlowKey, int] = {}

    def established(self, key: FlowKey, now: int) -> bool:
        seen = self.entries.get(key.mirrored())
        return seen is not None and now - seen <= CONN_TIMEOUT_US

    def sweep(self, now: int):
        stale = [k for k, t in self.entries.items() if now - t > CONN_TIMEOUT_US]
        for k in stale:
            del self.entries[k]

    def __len__(self) -> int:
        return len(self.entries)


class ZoneRouter:
    """Routing + zone-policy core of a Layer-3 switch (single engine owner).
    `policy` maps every (from zone, to zone) pair to its verdict; the router
    only reads it, so one table may serve many routers."""

    def __init__(self, policy: Mapping = DEFAULT_ZONE_POLICY):
        self.interfaces: dict[int, VlanInterface] = {}
        self.ports: dict[str, VlanInterface] = {}  # a port's one interface
        self.local_ips: set[int] = set()
        self.connected = PrefixTable()  # VlanInterface by subnet
        self.routes = PrefixTable()  # connected, then static Routes
        self.policy = policy
        self.conn = ConnTable()

    def add_interface(self, iface: VlanInterface) -> VlanInterface:
        if iface.vid in self.interfaces:
            raise DuplicateVid(f"interface for vid {iface.vid} already exists")
        # accepted subnets are disjoint, so at most one holds the new
        # address, while the new subnet may hold the addresses of several
        other = self.connected.lookup(iface.ip)
        if other is None:
            mask = prefix_mask(iface.prefix_len)
            network = iface.ip & mask
            for old in self.interfaces.values():
                if old.ip & mask == network:
                    other = old
                    break
        if other is not None:
            raise OverlappingSubnet(
                f"{ip_str(iface.network)}/{iface.prefix_len} overlaps vid {other.vid}")
        if iface.port is not None:
            other = self.ports.setdefault(iface.port, iface)
            if other is not iface:  # an untagged port carries one VLAN
                raise L3Error(
                    f"port {iface.port!r} already has vid {other.vid}")
        self.interfaces[iface.vid] = iface
        self.local_ips.add(iface.ip)
        self.connected.insert(iface.ip, iface.prefix_len, iface)
        self.routes.insert(iface.ip, iface.prefix_len,
                           Route(prefix=iface.network,
                                 prefix_len=iface.prefix_len, via_vid=iface.vid))
        return iface

    def add_route(self, route: Route) -> Route:
        """Install `route` and return it as installed. A gateway route is
        bound here, once, to the interface whose subnet holds the gateway
        (its `via_vid`), so `forward` reads the egress VID off the route."""
        if (route.via_vid is None) == (route.gateway is None):
            raise L3Error("route needs exactly one of via_vid/gateway")
        if route.gateway is not None:
            iface = self.connected.lookup(route.gateway)
            if iface is None:
                raise L3Error(
                    f"gateway {ip_str(route.gateway)} not on any attached subnet")
            route = Route(route.prefix, route.prefix_len, iface.vid,
                          route.gateway)
        elif route.via_vid not in self.interfaces:
            raise UnknownVid(f"no interface for vid {route.via_vid}")
        kept = self.routes.insert(route.prefix, route.prefix_len, route)
        if kept is not route:  # the table keeps the first entry for a prefix
            network = route.prefix & prefix_mask(route.prefix_len)
            raise L3Error(f"route {ip_str(network)}/{route.prefix_len} never "
                          f"takes effect: vid {kept.via_vid} already routes it")
        return route

    def route_lookup(self, dst_ip: int) -> Optional[Route]:
        """Longest-prefix match over connected + static routes; None = NoRoute."""
        return self.routes.lookup(dst_ip)

    def forward(self, packet: Packet, ingress_vid: int, now: int):
        """One routing step for a packet that arrived on the interface of
        `ingress_vid`.

        Returns ("forward", egress_vid, next_hop_ip_or_None, packet) or
        ("drop", reason) with reason in {no-route, acl, ttl}.
        """
        route = self.route_lookup(packet.dst_ip)
        if route is None:
            return ("drop", "no-route")
        egress_vid = route.via_vid
        zones = (self.interfaces[ingress_vid].zone,
                 self.interfaces[egress_vid].zone)
        key = packet.key
        if (self.policy[zones] == "deny-new"
                and not self.conn.established(key, now)):
            return ("drop", "acl")
        if packet.ttl <= 1:
            return ("drop", "ttl")
        self.conn.entries[key] = now
        return ("forward", egress_vid, route.gateway,
                packet_copy(packet, packet.src_ip, packet.dst_ip,
                            packet.src_port, packet.dst_port, packet.ttl - 1))

    def reset_dynamic(self):
        self.conn.entries.clear()
