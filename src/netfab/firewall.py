"""Zone firewall state: destination-scoped IP masquerade and a measured rate cap."""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .packet import (Packet, PORTLESS_PROTOCOLS, PrefixTable, in_network,
                     ip_str, prefix_mask)
from .l3 import ConnTable, DEFAULT_CONN_TIMEOUT_US

DEFAULT_CAP_BPS = 170_000_000
DEFAULT_QUEUE_FRAMES = 256
DEFAULT_NAT_CAPACITY = 1024
FIRST_NAT_PORT = 1024
LAST_NAT_PORT = 65535


class NatError(Exception):
    pass


class NoScope(NatError):
    pass


class PoolExhausted(NatError):
    pass


@dataclass(frozen=True)
class MasqueradeScope:
    network: int
    prefix_len: int
    external_ip: int

    def contains(self, addr: int) -> bool:
        return in_network(addr, self.network & prefix_mask(self.prefix_len),
                          self.prefix_len)


@dataclass
class NatEntry:
    inside: tuple[int, int]  # (ip, port)
    scope: MasqueradeScope
    outside: tuple[int, int]
    protocol: str
    last_activity: int
    remote_ip: Optional[int] = None  # discriminator for portless protocols


class PortAllocator:
    """Deterministic lowest-free allocation, per external address."""

    def __init__(self):
        self.freed: list[int] = []
        self.next_port = FIRST_NAT_PORT
        self.in_use: set[int] = set()

    def allocate(self) -> int:
        while self.freed:
            port = heapq.heappop(self.freed)
            if port not in self.in_use:
                self.in_use.add(port)
                return port
        if self.next_port > LAST_NAT_PORT:
            raise PoolExhausted("no free NAT port")
        port = self.next_port
        self.next_port += 1
        self.in_use.add(port)
        return port

    def release(self, port: int):
        if port in self.in_use:
            self.in_use.discard(port)
            heapq.heappush(self.freed, port)


class Firewall:
    """NAT + conntrack state of one firewall instance."""

    def __init__(self, name: str = "fw", nat_capacity: int = DEFAULT_NAT_CAPACITY,
                 idle_timeout_us: int = DEFAULT_CONN_TIMEOUT_US):
        self.name = name
        self.scopes = PrefixTable()
        self.external_ips: set[int] = set()
        self.nat_capacity = nat_capacity
        self.idle_timeout_us = idle_timeout_us
        self.by_inside: dict[tuple, NatEntry] = {}
        self.by_outside: dict[tuple, NatEntry] = {}
        self.allocators: dict[int, PortAllocator] = {}
        self.conn = ConnTable(idle_timeout_us)

    def add_scope(self, network: int, prefix_len: int, external_ip: int) -> MasqueradeScope:
        scope = MasqueradeScope(network & prefix_mask(prefix_len),
                                prefix_len, external_ip)
        self.scopes.insert(network, prefix_len, scope)
        self.external_ips.add(external_ip)
        self.allocators.setdefault(external_ip, PortAllocator())
        return scope

    def scope_for(self, dst_ip: int) -> Optional[MasqueradeScope]:
        """Destination selects the masquerade; longest prefix wins."""
        return self.scopes.lookup(dst_ip)

    def _inside_key(self, packet: Packet, scope: MasqueradeScope) -> tuple:
        if packet.protocol in PORTLESS_PROTOCOLS:
            return (packet.src_ip, 0, packet.protocol, scope, packet.dst_ip)
        return (packet.src_ip, packet.src_port, packet.protocol, scope, None)

    def masquerade_out(self, packet: Packet, now: int) -> Packet:
        """Rewrite an outbound packet's source to the scope's external endpoint."""
        scope = self.scope_for(packet.dst_ip)
        if scope is None:
            raise NoScope(f"no masquerade scope covers {ip_str(packet.dst_ip)}")
        key = self._inside_key(packet, scope)
        entry = self.by_inside.get(key)
        if entry is None:
            if len(self.by_inside) >= self.nat_capacity:
                self.sweep_expired(now)
            if len(self.by_inside) >= self.nat_capacity:
                raise PoolExhausted(
                    f"NAT table full ({self.nat_capacity} entries)")
            portless = packet.protocol in PORTLESS_PROTOCOLS
            if portless:
                out_port = 0
                okey = (scope.external_ip, 0, packet.protocol, packet.dst_ip)
                if okey in self.by_outside:
                    raise PoolExhausted(
                        "portless binding for this destination already in use")
            else:
                out_port = self.allocators[scope.external_ip].allocate()
                okey = (scope.external_ip, out_port, packet.protocol, None)
            entry = NatEntry(inside=(packet.src_ip, packet.src_port),
                             scope=scope,
                             outside=(scope.external_ip, out_port),
                             protocol=packet.protocol, last_activity=now,
                             remote_ip=packet.dst_ip if portless else None)
            self.by_inside[key] = entry
            self.by_outside[okey] = entry
        entry.last_activity = now
        return Packet(entry.outside[0], packet.dst_ip, packet.protocol,
                      entry.outside[1], packet.dst_port, packet.payload_bytes,
                      packet.ttl, packet.meta)

    def masquerade_in(self, packet: Packet, now: int) -> Optional[Packet]:
        """Reverse-translate an inbound packet; None means drop(no-binding)."""
        portless = packet.protocol in PORTLESS_PROTOCOLS
        if portless:
            okey = (packet.dst_ip, 0, packet.protocol, packet.src_ip)
        else:
            okey = (packet.dst_ip, packet.dst_port, packet.protocol, None)
        entry = self.by_outside.get(okey)
        if entry is None:
            return None
        if now - entry.last_activity > self.idle_timeout_us:
            self._remove(entry)
            return None
        if not entry.scope.contains(packet.src_ip):
            return None
        entry.last_activity = now
        return Packet(packet.src_ip, entry.inside[0], packet.protocol,
                      packet.src_port, entry.inside[1], packet.payload_bytes,
                      packet.ttl, packet.meta)

    def _remove(self, entry: NatEntry):
        scope = entry.scope
        if entry.protocol in PORTLESS_PROTOCOLS:
            ikey = (entry.inside[0], 0, entry.protocol, scope, entry.remote_ip)
            okey = (entry.outside[0], 0, entry.protocol, entry.remote_ip)
        else:
            ikey = (entry.inside[0], entry.inside[1], entry.protocol, scope, None)
            okey = (entry.outside[0], entry.outside[1], entry.protocol, None)
            self.allocators[entry.outside[0]].release(entry.outside[1])
        self.by_inside.pop(ikey, None)
        self.by_outside.pop(okey, None)

    def sweep_expired(self, now: int):
        stale = [e for e in self.by_inside.values()
                 if now - e.last_activity > self.idle_timeout_us]
        for e in stale:
            self._remove(e)
        self.conn.sweep(now)

    def nat_size(self) -> int:
        return len(self.by_inside)

    def reset_dynamic(self):
        self.by_inside.clear()
        self.by_outside.clear()
        self.allocators = {ip: PortAllocator() for ip in self.allocators}
        self.conn.entries.clear()


class Shaper:
    """Byte-budget FIFO modeling the measured forwarding cap of one direction."""

    def __init__(self, cap_bps: int = DEFAULT_CAP_BPS,
                 queue_frames: int = DEFAULT_QUEUE_FRAMES):
        self.cap_bps = cap_bps
        self.queue_frames = queue_frames
        self.queue: deque = deque()
        self.carry_bytes = 0.0
        self.drops = 0

    def offer(self, size: int, item) -> bool:
        """Queue an item; False when the queue is full (newest arrival dropped)."""
        if len(self.queue) >= self.queue_frames:
            self.drops += 1
            return False
        self.queue.append((size, item))
        return True

    def shape(self, now: int, interval_us: int) -> list:
        """Release queued items in FIFO order within the interval's byte budget."""
        if interval_us <= 0:
            raise ValueError("interval must be > 0")
        budget_bytes = self.cap_bps * interval_us / 8e6
        budget = budget_bytes + self.carry_bytes
        released = []
        while self.queue and self.queue[0][0] <= budget:
            size, item = self.queue.popleft()
            budget -= size
            released.append(item)
        # unused budget carries over, bounded by one interval's worth
        self.carry_bytes = min(budget, budget_bytes)
        return released

    def reset_dynamic(self):
        self.queue.clear()
        self.carry_bytes = 0.0
