"""Layer-3 switch: VLAN interfaces, longest-prefix routing, zone ACLs, conntrack."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .packet import (FlowKey, Packet, PrefixTable, check_vid, flow_key,
                     ip_str, prefix_mask)

ZONES = ("clean", "dmz", "public")
VERDICTS = ("permit", "deny-new")

DEFAULT_CONN_TIMEOUT_US = 600_000_000  # 600 s idle

#: clean > dmz > public trust ordering; initiation allowed down the ordering,
#: replies admitted statefully.
DEFAULT_ZONE_POLICY = {
    ("clean", "clean"): "permit",
    ("clean", "dmz"): "permit",
    ("clean", "public"): "permit",
    ("dmz", "dmz"): "permit",
    ("dmz", "public"): "permit",
    ("dmz", "clean"): "deny-new",
    ("public", "public"): "permit",
    ("public", "dmz"): "deny-new",
    ("public", "clean"): "deny-new",
}


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


@dataclass
class VlanInterface:
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
    prefix: int
    prefix_len: int
    via_vid: Optional[int] = None
    gateway: Optional[int] = None


class ConnTable:
    """Established-connection table: a flow is established while its mirror
    was forwarded within the idle timeout."""

    def __init__(self, timeout_us: int = DEFAULT_CONN_TIMEOUT_US):
        self.timeout_us = timeout_us
        self.entries: dict[FlowKey, int] = {}

    def note(self, key: FlowKey, now: int):
        self.entries[key] = now

    def established(self, key: FlowKey, now: int) -> bool:
        seen = self.entries.get(key.mirrored())
        return seen is not None and now - seen <= self.timeout_us

    def sweep(self, now: int):
        stale = [k for k, t in self.entries.items() if now - t > self.timeout_us]
        for k in stale:
            del self.entries[k]

    def __len__(self) -> int:
        return len(self.entries)


class ZonePolicy:
    def __init__(self, rules: Optional[dict] = None):
        self.rules = dict(DEFAULT_ZONE_POLICY)
        if rules:
            for (zf, zt), verdict in rules.items():
                self.set_rule(zf, zt, verdict)

    def set_rule(self, from_zone: str, to_zone: str, verdict: str):
        check_zone(from_zone)
        check_zone(to_zone)
        if verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        self.rules[(from_zone, to_zone)] = verdict

    def verdict(self, from_zone: str, to_zone: str) -> str:
        return self.rules.get((from_zone, to_zone), "deny-new")


class ZoneRouter:
    """Routing + zone-policy core of a Layer-3 switch (single engine owner)."""

    def __init__(self, name: str = "l3", policy: Optional[ZonePolicy] = None,
                 conn_timeout_us: int = DEFAULT_CONN_TIMEOUT_US):
        self.name = name
        self.interfaces: dict[int, VlanInterface] = {}
        self.local_ips: set[int] = set()
        self.connected = PrefixTable()  # VlanInterface by subnet
        self.routes = PrefixTable()  # connected, then static Routes
        self.policy = policy or ZonePolicy()
        self.conn = ConnTable(conn_timeout_us)
        self.drop_counts: dict[str, int] = {"no-route": 0, "acl": 0, "ttl": 0}

    def add_interface(self, vid: int, ip: int, prefix_len: int, zone: str,
                      port: Optional[str] = None) -> VlanInterface:
        iface = VlanInterface(vid=vid, ip=ip, prefix_len=prefix_len,
                              zone=zone, port=port)
        if vid in self.interfaces:
            raise DuplicateVid(f"interface for vid {vid} already exists")
        for other in self.interfaces.values():
            short = min(iface.prefix_len, other.prefix_len)
            if (iface.ip & prefix_mask(short)) == (other.ip & prefix_mask(short)):
                raise OverlappingSubnet(
                    f"{ip_str(iface.network)}/{iface.prefix_len} overlaps vid {other.vid}")
        self.interfaces[vid] = iface
        self.local_ips.add(ip)
        self.connected.insert(ip, prefix_len, iface)
        self.routes.insert(ip, prefix_len,
                           Route(prefix=iface.network, prefix_len=prefix_len,
                                 via_vid=vid))
        return iface

    def add_route(self, prefix: int, prefix_len: int,
                  via_vid: Optional[int] = None, gateway: Optional[int] = None) -> Route:
        if (via_vid is None) == (gateway is None):
            raise L3Error("route needs exactly one of via_vid/gateway")
        if via_vid is not None and via_vid not in self.interfaces:
            raise UnknownVid(f"no interface for vid {via_vid}")
        if gateway is not None and self._iface_for(gateway) is None:
            raise L3Error(f"gateway {ip_str(gateway)} not on any attached subnet")
        route = Route(prefix=prefix, prefix_len=prefix_len,
                      via_vid=via_vid, gateway=gateway)
        self.routes.insert(prefix, prefix_len, route)
        return route

    def _iface_for(self, addr: int) -> Optional[VlanInterface]:
        return self.connected.lookup(addr)

    def is_local_ip(self, addr: int) -> bool:
        return addr in self.local_ips

    def route_lookup(self, dst_ip: int) -> Optional[Route]:
        """Longest-prefix match over connected + static routes; None = NoRoute."""
        return self.routes.lookup(dst_ip)

    def resolve_egress(self, route: Route) -> tuple[int, Optional[int]]:
        """Resolve a route to (egress vid, next-hop ip or None for on-link)."""
        if route.via_vid is not None:
            return route.via_vid, None
        iface = self._iface_for(route.gateway)
        if iface is None:
            raise L3Error(f"gateway {ip_str(route.gateway)} unresolvable")
        return iface.vid, route.gateway

    def forward(self, packet: Packet, ingress_vid: int, now: int):
        """One routing step.

        Returns ("forward", egress_vid, next_hop_ip_or_None, packet) or
        ("drop", reason) with reason in {no-route, acl, ttl}.
        """
        if ingress_vid not in self.interfaces:
            raise UnknownVid(f"no interface for ingress vid {ingress_vid}")
        route = self.route_lookup(packet.dst_ip)
        if route is None:
            self.drop_counts["no-route"] += 1
            return ("drop", "no-route")
        egress_vid, next_hop = self.resolve_egress(route)
        zf = self.interfaces[ingress_vid].zone
        zt = self.interfaces[egress_vid].zone
        key = flow_key(packet)
        if self.policy.verdict(zf, zt) == "deny-new" and not self.conn.established(key, now):
            self.drop_counts["acl"] += 1
            return ("drop", "acl")
        if packet.ttl <= 1:
            self.drop_counts["ttl"] += 1
            return ("drop", "ttl")
        self.conn.note(key, now)
        out = Packet(packet.src_ip, packet.dst_ip, packet.protocol,
                     packet.src_port, packet.dst_port, packet.payload_bytes,
                     packet.ttl - 1, packet.meta)
        return ("forward", egress_vid, next_hop, out)

    def reset_dynamic(self):
        self.conn.entries.clear()
