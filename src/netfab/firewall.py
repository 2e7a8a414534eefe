"""Zone firewall state: destination-scoped IP masquerade and a measured rate cap."""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .packet import Packet, PrefixTable, ip_str, packet_copy, prefix_mask
from .l3 import ConnTable, CONN_TIMEOUT_US

DEFAULT_CAP_BPS = 170_000_000
QUEUE_FRAMES = 256  # per shaper
SHAPE_INTERVAL_US = 1_000  # shaper tick
DEFAULT_NAT_CAPACITY = 1024
FIRST_NAT_PORT = 1024
LAST_NAT_PORT = 65535


class NatError(Exception):
    pass


class NoScope(NatError):
    pass


class PoolExhausted(NatError):
    pass


# eq=False: NAT keys hold the scope by identity, hashed in C. The scope table
# keeps one scope per (network, prefix_len), so this keys bindings as values
# would. add_scope masks `network`.
@dataclass(frozen=True, eq=False)
class MasqueradeScope:
    network: int
    prefix_len: int
    external_ip: int


@dataclass
class NatEntry:
    """One binding, filed under inside_key, (ip, port, protocol, scope), in
    Firewall.by_inside and under outside_key, (external ip, port, protocol),
    in by_outside. An ICMP echo carries its identifier as the port."""
    inside_key: tuple
    outside_key: tuple
    last_activity: int


class PortAllocator:
    """Deterministic lowest-free allocation, per external address."""

    def __init__(self):
        self.freed: list[int] = []
        self.next_port = FIRST_NAT_PORT
        self.in_use: set[int] = set()

    def allocate(self) -> int:
        # a freed port left in_use as it was pushed, and leaves freed here
        if self.freed:
            port = heapq.heappop(self.freed)
        elif self.next_port > LAST_NAT_PORT:
            raise PoolExhausted("no free NAT port")
        else:
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

    def __init__(self, nat_capacity: int = DEFAULT_NAT_CAPACITY):
        self.scopes = PrefixTable()
        self.external_ips: set[int] = set()
        self.nat_capacity = nat_capacity
        self.by_inside: dict[tuple, NatEntry] = {}
        self.by_outside: dict[tuple, NatEntry] = {}
        self.allocators: dict[int, PortAllocator] = {}
        self.conn = ConnTable()

    def add_scope(self, network: int, prefix_len: int, external_ip: int) -> MasqueradeScope:
        scope = MasqueradeScope(network & prefix_mask(prefix_len),
                                prefix_len, external_ip)
        self.scopes.insert(network, prefix_len, scope)
        self.external_ips.add(external_ip)
        self.allocators.setdefault(external_ip, PortAllocator())
        return scope

    def masquerade_out(self, packet: Packet, now: int) -> Packet:
        """Rewrite an outbound packet's source to the external endpoint of
        the scope its destination selects; the longest prefix wins."""
        scope = self.scopes.lookup(packet.dst_ip)
        if scope is None:
            raise NoScope(f"no masquerade scope covers {ip_str(packet.dst_ip)}")
        protocol = packet.protocol
        ikey = (packet.src_ip, packet.src_port, protocol, scope)
        entry = self.by_inside.get(ikey)
        if entry is None:
            if len(self.by_inside) >= self.nat_capacity:
                self.sweep_expired(now)
            if len(self.by_inside) >= self.nat_capacity:
                raise PoolExhausted(
                    f"NAT table full ({self.nat_capacity} entries)")
            external = scope.external_ip
            okey = (external, self.allocators[external].allocate(), protocol)
            entry = NatEntry(ikey, okey, now)
            self.by_inside[ikey] = entry
            self.by_outside[okey] = entry
        entry.last_activity = now
        okey = entry.outside_key
        return packet_copy(packet, okey[0], packet.dst_ip, okey[1],
                           packet.dst_port, packet.ttl)

    def masquerade_in(self, packet: Packet, now: int) -> Optional[Packet]:
        """Reverse-translate an inbound packet; None means drop(no-binding)."""
        entry = self.by_outside.get(
            (packet.dst_ip, packet.dst_port, packet.protocol))
        if entry is None:
            return None
        if now - entry.last_activity > CONN_TIMEOUT_US:
            self._remove(entry)
            return None
        ikey = entry.inside_key
        scope = ikey[3]  # the reply must come from the scope's destinations
        if packet.src_ip & prefix_mask(scope.prefix_len) != scope.network:
            return None
        entry.last_activity = now
        return packet_copy(packet, packet.src_ip, ikey[0], packet.src_port,
                           ikey[1], packet.ttl)

    def _remove(self, entry: NatEntry):
        self.by_inside.pop(entry.inside_key, None)
        self.by_outside.pop(entry.outside_key, None)
        external, port, _ = entry.outside_key
        self.allocators[external].release(port)

    def sweep_expired(self, now: int):
        stale = [e for e in self.by_inside.values()
                 if now - e.last_activity > CONN_TIMEOUT_US]
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
    """Byte-budget FIFO modeling the measured forwarding cap of one direction,
    kept exact in bit-microseconds: a tick earns cap_bps × SHAPE_INTERVAL_US
    and a byte costs 8_000_000."""

    def __init__(self, cap_bps: int = DEFAULT_CAP_BPS):
        self.cap_bps = cap_bps
        self.queue: deque = deque()
        self.carry = 0

    def offer(self, size: int, item) -> bool:
        """Queue an item; False when the queue is full (newest arrival dropped)."""
        if len(self.queue) >= QUEUE_FRAMES:
            return False
        self.queue.append((size, item))
        return True

    def shape(self) -> list:
        """Release queued items in FIFO order within one tick's budget."""
        tick = self.cap_bps * SHAPE_INTERVAL_US
        budget = tick + self.carry
        released = []
        while self.queue and self.queue[0][0] * 8_000_000 <= budget:
            size, item = self.queue.popleft()
            budget -= size * 8_000_000
            released.append(item)
        # unused budget carries over, bounded by one tick's worth
        self.carry = min(budget, tick)
        return released

    def reset_dynamic(self):
        self.queue.clear()
        self.carry = 0
