"""Deterministic discrete-event core: time, links, hosts, middleboxes, metrics."""
from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .firewall import Firewall, NoScope, PoolExhausted, Shaper
from .l2 import Switch
from .l3 import ZonePolicy, ZoneRouter
from .packet import (Arp, BROADCAST, Frame, MacAddress, Packet, PrefixTable,
                     flow_key, frame_copy, ip_str, make_frame, prefix_mask,
                     vlan_tag)
from .resilience import LoadBalancer, Unavailable

DEFAULT_PROP_US = 5
DEFAULT_LINK_QUEUE = 256
DEFAULT_SHAPE_INTERVAL_US = 1_000
FDB_AGE_SWEEP_US = 60_000_000
NAT_SWEEP_US = 10_000_000
ARP_RETRY_US = 1_000_000
BULK_WINDOW = 65_536
BULK_SEGMENT = 1_460
BULK_ACK_EVERY = 4
RTO_INITIAL_US = 1_000_000
RTO_MIN_US = 200_000
RTO_MAX_US = 60_000_000
CBR_PACKET = 1_500
PING_INTERVAL_US = 1_000_000


class UnknownTarget(Exception):
    pass


def bulk_transfer_time(rate_cap_bps: float, total_bytes: float) -> float:
    """Ideal lower bound (seconds) for a transfer through a rate-capped path."""
    if rate_cap_bps <= 0:
        raise ValueError("rate_cap must be > 0")
    return total_bytes * 8 / rate_cap_bps


@dataclass
class TrafficSpec:
    kind: str  # cbr | bulk | ping
    src: str
    dst: str
    flow_id: str
    dst_ip: int = 0
    start_us: int = 0
    stop_us: Optional[int] = None
    rate_bps: int = 0
    total_bytes: int = 0
    count: int = 0
    src_port: int = 0
    dst_port: int = 0


@dataclass
class Link:
    link_id: str
    a: tuple[str, object]
    b: tuple[str, object]
    bandwidth_bps: int
    prop_us: int = DEFAULT_PROP_US
    up: bool = True
    queue_cap: int = DEFAULT_LINK_QUEUE
    busy_until: list = field(default_factory=lambda: [0, 0])
    pending: list = field(default_factory=lambda: [0, 0])
    bytes_dir: list = field(default_factory=lambda: [0, 0])


@dataclass
class FlowStats:
    offered_packets: int = 0
    offered_bytes: int = 0
    offered_payload: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    delivered_payload: int = 0
    first_tx: Optional[int] = None
    completed_at: Optional[int] = None


class BulkSender:
    """Sender side of one bulk flow: a byte sequence space sent go-back-N
    and one retransmission timer (RFC 6298: SRTT/RTTVAR, Karn's rule,
    doubling backoff), in integer microseconds."""

    __slots__ = ("spec", "una", "next", "high", "timed", "srtt", "rttvar",
                 "rto", "deadline", "armed")

    def __init__(self, spec: TrafficSpec):
        self.spec = spec
        self.una = 0  # first unacknowledged byte
        self.next = 0  # next byte to send
        self.high = 0  # one past the highest byte ever sent
        self.timed: Optional[tuple] = None  # (end byte, sent at) being timed
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = RTO_INITIAL_US
        self.deadline: Optional[int] = None  # timer expiry; None when off
        self.armed: Optional[int] = None  # time of the live "rto" event

    def measure(self, rtt: int):
        if self.srtt is None:
            self.srtt, self.rttvar = rtt, rtt // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - rtt)) // 4
            self.srtt = (7 * self.srtt + rtt) // 8
        self.rto = min(max(self.srtt + max(1, 4 * self.rttvar), RTO_MIN_US),
                       RTO_MAX_US)


class Metrics:
    def __init__(self):
        self.flows: dict[str, FlowStats] = {}
        self.drops: Counter = Counter()
        self.fw_window: dict[str, Counter] = defaultdict(Counter)
        self.unavailable = 0
        self.frames_created = 0
        self.frames_consumed = 0
        self.frames_filtered = 0
        self.host_delivered = 0

    def flow(self, fid: str) -> FlowStats:
        st = self.flows.get(fid)
        if st is None:
            st = FlowStats()
            self.flows[fid] = st
        return st

    def drop(self, node: str, reason: str):
        self.drops[(node, reason)] += 1

    def dropped_total(self) -> int:
        return sum(self.drops.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"frames_created={self.frames_created}",
            f"frames_consumed={self.frames_consumed}",
            f"frames_filtered={self.frames_filtered}",
            f"host_delivered={self.host_delivered}",
            f"drops_total={self.dropped_total()}",
            f"unavailable={self.unavailable}",
        ]
        for (node, reason), n in sorted(self.drops.items()):
            lines.append(f"drop.{node}.{reason}={n}")
        for fw in sorted(self.fw_window):
            lines.append(f"fw_forwarded_bytes.{fw}={sum(self.fw_window[fw].values())}")
        lines.append("flow\toffered_B\tdelivered_B\tpayload_B\tcompleted_s")
        for fid in sorted(self.flows):
            st = self.flows[fid]
            done = f"{st.completed_at / 1e6:.6f}" if st.completed_at is not None else "-"
            lines.append(f"{fid}\t{st.offered_bytes}\t{st.delivered_bytes}"
                         f"\t{st.delivered_payload}\t{done}")
        return lines


class Engine:
    """Single-owner event loop; identical (scenario, seed) gives identical traces."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.seed = seed
        self.hash_salt = seed.to_bytes(8, "big", signed=True)
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.nodes: dict[str, "Node"] = {}
        self.links: dict[str, Link] = {}
        self.link_at: dict[tuple, Link] = {}
        self._ends: dict[tuple, tuple] = {}  # -> link, direction, far node, port
        # handler(kind, target, payload) by kind; others go to node.on_event
        self._handlers = {"deliver": self._deliver, "fault": self._apply_fault}
        self.metrics = Metrics()
        self.trace_enabled = trace
        self.trace_lines: list[str] = []

    # -- construction ------------------------------------------------------

    def add_node(self, node: "Node") -> "Node":
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name}")
        self.nodes[node.name] = node
        return node

    def add_link(self, a_node: str, a_port, b_node: str, b_port,
                 bandwidth_bps: int, prop_us: int = DEFAULT_PROP_US,
                 queue_cap: int = DEFAULT_LINK_QUEUE) -> Link:
        link_id = f"{a_node}:{a_port}-{b_node}:{b_port}"
        link = Link(link_id, (a_node, a_port), (b_node, b_port),
                    bandwidth_bps, prop_us, queue_cap=queue_cap)
        self.links[link_id] = link
        self.link_at[(a_node, a_port)] = link
        self.link_at[(b_node, b_port)] = link
        self._ends[(a_node, a_port)] = (link, 0, self.nodes[b_node], b_port)
        self._ends[(b_node, b_port)] = (link, 1, self.nodes[a_node], a_port)
        return link

    # -- event machinery ---------------------------------------------------

    def schedule(self, at: int, kind: str, target: str, payload=None):
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, target, payload))

    def inject_fault(self, at_us: int, action: str, target: str):
        if action not in ("fail_node", "fail_link", "recover"):
            raise ValueError(f"unknown fault action {action!r}")
        if target not in self.nodes and target not in self.links:
            raise UnknownTarget(target)
        self.schedule(at_us, "fault", target, action)

    def run_until(self, t_end_us: int) -> Metrics:
        if t_end_us < self.now:
            raise ValueError("cannot run backwards")
        heap, pop = self._heap, heapq.heappop
        handlers, on_event = self._handlers, self._node_event
        while heap and heap[0][0] <= t_end_us:
            at, _seq, kind, target, payload = pop(heap)
            self.now = at
            handlers.get(kind, on_event)(kind, target, payload)
        self.now = t_end_us
        return self.metrics

    def _deliver(self, _kind, target: str, payload):
        (link, direction, node, port), frame = payload
        link.pending[direction] -= 1
        self.metrics.frames_consumed += 1
        if not link.up:
            self.metrics.drop(link.link_id, "link-down")
        elif node.failed:
            self.metrics.drop(target, "fault")
            self.trace(target, "drop", None, None, "node failed")
        else:
            node.on_frame(port, frame)

    def _node_event(self, kind: str, target: str, payload):
        node = self.nodes.get(target)
        if node is not None and not (kind == "traffic" and node.failed):
            node.on_event(kind, payload)

    def _apply_fault(self, _kind, target: str, action: str):
        self.trace(target, "fault", None, None, action)
        if target in self.links:
            self.links[target].up = action == "recover"
            return
        node = self.nodes[target]
        if action == "recover":
            node.failed = False
            node.reset_dynamic()
        else:
            node.failed = True

    # -- frame transport ---------------------------------------------------

    def send(self, node_name: str, port, frame: Frame):
        end = self._ends.get((node_name, port))
        if end is None:
            self.metrics.drop(node_name, "no-link")
            return
        link, direction, far_node, _far_port = end
        if not link.up:
            self.metrics.drop(node_name, "link-down")
            return
        pending = link.pending
        if pending[direction] >= link.queue_cap:
            self.metrics.drop(node_name, "queue")
            return
        size = frame.size_bytes
        busy = link.busy_until
        start = max(self.now, busy[direction])
        busy[direction] = done = start + size * 8_000_000 // link.bandwidth_bps
        pending[direction] += 1
        link.bytes_dir[direction] += size
        self.metrics.frames_created += 1
        self.schedule(done + link.prop_us, "deliver", far_node.name,
                      (end, frame))

    def residual_frames(self) -> int:
        return sum(l.pending[0] + l.pending[1] for l in self.links.values())

    # -- trace -------------------------------------------------------------

    def trace(self, node: str, ev: str, vlan, flow, info: str):
        if not self.trace_enabled:
            return
        vstr = str(vlan) if vlan is not None else "-"
        fstr = str(flow) if flow is not None else "-"
        self.trace_lines.append(
            f"t={self.now}\tnode={node}\tev={ev}\tvlan={vstr}\tflow={fstr}\tinfo={info}")

    def trace_text(self) -> str:
        return "\n".join(self.trace_lines) + ("\n" if self.trace_lines else "")


class Node:
    kind = "node"

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.failed = False
        engine.add_node(self)

    def on_frame(self, port, frame: Frame):
        raise NotImplementedError

    def on_event(self, kind: str, payload):
        pass

    def _repeat(self, kind: str, interval_us: int) -> bool:
        """Schedule the next event of a periodic kind; True when the node is
        up to do this one's work. Ticks keep running while a node is failed."""
        self.engine.schedule(self.engine.now + interval_us, kind, self.name)
        return not self.failed

    def reset_dynamic(self):
        pass


class Resolver:
    """ARP for one node: learned MACs, packets held until their reply, and a
    request repeated every ARP_RETRY_US while packets wait, keyed by
    (scope, ip). A scope is what the node sends on: a port, a VLAN or a
    firewall side. The node's `emit(scope, payload, dst_mac)` puts a frame
    on a scope and its `ip_on(scope)` is its own address there."""

    # one per host in a campus scenario: no per-instance __dict__
    __slots__ = ("node", "cache", "pending", "last_req")

    def __init__(self, node: Node):
        self.node = node
        self.cache: dict[tuple, MacAddress] = {}
        self.pending: dict[tuple, list[Packet]] = {}
        self.last_req: dict[tuple, int] = {}

    def send(self, scope, ip: int, packet: Packet):
        """Send packet to ip's MAC, or hold it and ask for that MAC."""
        key = (scope, ip)
        mac = self.cache.get(key)
        node = self.node
        if mac is not None:
            node.emit(scope, packet, mac)
            return
        self.pending.setdefault(key, []).append(packet)
        now = node.engine.now
        last = self.last_req.get(key)
        if last is None or now - last >= ARP_RETRY_US:
            self.last_req[key] = now
            req = Arp("request", node.ip_on(scope), node.mac, ip)
            node.emit(scope, req, BROADCAST)

    def learn(self, scope, arp: Arp):
        """Cache the sender of arp; a reply also sends what was held for it."""
        key = (scope, arp.sender_ip)
        self.cache[key] = arp.sender_mac
        if arp.op == "reply":
            for packet in self.pending.pop(key, ()):
                self.node.emit(scope, packet, arp.sender_mac)

    def clear(self):
        self.cache.clear()
        self.pending.clear()
        self.last_req.clear()


class SwitchNode(Node):
    kind = "switch"

    def __init__(self, engine: Engine, name: str, fdb_aging_us=None):
        super().__init__(engine, name)
        kwargs = {"hash_salt": engine.hash_salt}
        if fdb_aging_us is not None:
            kwargs["fdb_aging_us"] = fdb_aging_us
        self.switch = Switch(name, **kwargs)
        engine.schedule(FDB_AGE_SWEEP_US, "age_tick", name)

    def on_frame(self, port, frame: Frame):
        for out_port, out_frame in self.switch.ingress(port, frame, self.engine.now):
            self.engine.send(self.name, out_port, out_frame)

    def on_event(self, kind: str, payload):
        if kind == "age_tick" and self._repeat(kind, FDB_AGE_SWEEP_US):
            self.switch.age_fdb(self.engine.now)

    def reset_dynamic(self):
        self.switch.reset_dynamic()


class HostNode(Node):
    kind = "host"

    def __init__(self, engine: Engine, name: str, mac: MacAddress, ip: int,
                 prefix_len: int, gw_ip: Optional[int] = None,
                 group: Optional[str] = None):
        super().__init__(engine, name)
        self.mac = mac
        self.ip = ip
        self.prefix_len = prefix_len
        self.mask = prefix_mask(prefix_len)
        self.gw_ip = gw_ip
        self.group = group
        self.port = 0
        self.arp = Resolver(self)
        self.bulk_send: dict[str, BulkSender] = {}
        self.bulk_recv: dict[str, dict] = {}
        self.ping_seen: Counter = Counter()
        self.generators: list[TrafficSpec] = []

    # -- traffic -----------------------------------------------------------

    def add_generator(self, spec: TrafficSpec):
        idx = len(self.generators)
        self.generators.append(spec)
        self.engine.schedule(spec.start_us, "traffic", self.name, ("start", idx))

    def on_event(self, kind: str, payload):
        if kind == "rto":
            self._on_rto(payload)
            return
        if kind != "traffic":
            return
        if payload[0] == "ping":
            _, idx, seq = payload
            self._send_ping(self.generators[idx], idx, seq)
            return
        _, idx = payload
        spec = self.generators[idx]
        now = self.engine.now
        if spec.kind == "cbr":
            if spec.stop_us is not None and now >= spec.stop_us:
                return
            payload_bytes = CBR_PACKET - 40
            pkt = Packet(src_ip=self.ip, dst_ip=spec.dst_ip, protocol="udp",
                         src_port=spec.src_port, dst_port=spec.dst_port,
                         payload_bytes=payload_bytes,
                         meta=("cbr", spec.flow_id))
            self.send_packet(pkt, offered=True)
            interval = CBR_PACKET * 8 * 1_000_000 // spec.rate_bps
            self.engine.schedule(now + interval, "traffic", self.name, ("start", idx))
        elif spec.kind == "bulk":
            self.bulk_send[spec.flow_id] = BulkSender(spec)
            self._bulk_pump(spec.flow_id)
        elif spec.kind == "ping":
            self._send_ping(spec, idx, 0)

    def _send_ping(self, spec: TrafficSpec, idx: int, seq: int):
        pkt = Packet(src_ip=self.ip, dst_ip=spec.dst_ip, protocol="icmp",
                     payload_bytes=56, meta=("ping", spec.flow_id, "req", seq))
        self.send_packet(pkt, offered=True)
        if seq + 1 < spec.count:
            self.engine.schedule(self.engine.now + PING_INTERVAL_US, "traffic",
                                 self.name, ("ping", idx, seq + 1))

    def _bulk_pump(self, fid: str):
        st = self.bulk_send[fid]
        spec = st.spec
        total = spec.total_bytes
        while st.next < total and st.next - st.una < BULK_WINDOW:
            seg = min(BULK_SEGMENT, total - st.next)
            pkt = Packet(src_ip=self.ip, dst_ip=spec.dst_ip, protocol="tcp",
                         src_port=spec.src_port, dst_port=spec.dst_port,
                         payload_bytes=seg,
                         meta=("bulk", fid, "data", seg, total, st.next))
            st.next += seg
            if st.next > st.high:  # new data; Karn: only it is timed
                st.high = st.next
                if st.timed is None:
                    st.timed = (st.next, self.engine.now)
            self.send_packet(pkt, offered=True)
        if st.deadline is None and st.una < st.next:
            self._start_rto(fid, st)

    def _start_rto(self, fid: str, st: BulkSender):
        """Set the timer to expire RTO from now. The flow keeps one live
        "rto" event: a later deadline is met when that event fires early."""
        now = self.engine.now
        st.deadline = now + st.rto
        if st.armed is None or st.armed > st.deadline:
            st.armed = st.deadline
            self.engine.schedule(st.deadline, "rto", self.name, fid)

    def _on_rto(self, fid: str):
        st = self.bulk_send[fid]
        now = self.engine.now
        if st.armed != now:
            return  # superseded by an earlier deadline
        st.armed = None
        if st.deadline is None:
            return
        if now < st.deadline:
            st.armed = st.deadline
            self.engine.schedule(st.deadline, "rto", self.name, fid)
            return
        st.deadline = None
        if self.failed:
            self._start_rto(fid, st)
            return
        # expiry: back off, forget the timed segment, resend from una
        st.rto = min(2 * st.rto, RTO_MAX_US)
        st.timed = None
        st.next = st.una
        self._bulk_pump(fid)

    # -- sending -----------------------------------------------------------

    def _next_hop(self, dst_ip: int) -> int:
        if (dst_ip ^ self.ip) & self.mask == 0 or self.gw_ip is None:
            return dst_ip
        return self.gw_ip

    def send_packet(self, packet: Packet, offered: bool = False):
        if offered and packet.meta:
            st = self.engine.metrics.flow(packet.meta[1])
            st.offered_packets += 1
            st.offered_bytes += packet.size
            st.offered_payload += packet.payload_bytes
            if st.first_tx is None:
                st.first_tx = self.engine.now
            if self.engine.trace_enabled:
                self.engine.trace(self.name, "tx", None, flow_key(packet),
                                  f"kind={packet.meta[0]}")
        self.arp.send(self.port, self._next_hop(packet.dst_ip), packet)

    def emit(self, port, payload, dst_mac: MacAddress):
        self.engine.send(self.name, port, make_frame(self.mac, dst_mac, payload))

    def ip_on(self, _port) -> int:
        return self.ip

    # -- receiving ---------------------------------------------------------

    def on_frame(self, port, frame: Frame):
        payload = frame.payload
        if isinstance(payload, Arp):
            self._on_arp(payload)
            return
        if not isinstance(payload, Packet):
            self.engine.metrics.frames_filtered += 1
            return
        if frame.dst != self.mac and not frame.dst.is_broadcast:
            self.engine.metrics.frames_filtered += 1
            return
        if payload.dst_ip != self.ip:
            self.engine.metrics.frames_filtered += 1
            return
        self._deliver(payload)

    def _on_arp(self, arp: Arp):
        if arp.target_ip != self.ip:
            self.engine.metrics.frames_filtered += 1
            return
        self.arp.learn(self.port, arp)
        if arp.op == "request":
            reply = Arp("reply", self.ip, self.mac, arp.sender_ip)
            self.emit(self.port, reply, arp.sender_mac)

    def _deliver(self, pkt: Packet):
        m = self.engine.metrics
        meta = pkt.meta
        is_forward = bool(meta) and not (
            meta[0] == "bulk" and meta[2] == "ack") and not (
            meta[0] == "ping" and meta[2] == "rep")
        if meta and is_forward:
            st = m.flow(meta[1])
            st.delivered_packets += 1
            st.delivered_bytes += pkt.size
            if meta[0] != "bulk":  # bulk counts each byte once, in order
                st.delivered_payload += pkt.payload_bytes
            m.host_delivered += 1
            if self.engine.trace_enabled:
                self.engine.trace(self.name, "rx", None, flow_key(pkt),
                                  f"kind={meta[0]}")
        if not meta:
            return
        if meta[0] == "bulk":
            self._on_bulk(pkt)
        elif meta[0] == "ping":
            self._on_ping(pkt)

    def _on_bulk(self, pkt: Packet):
        _, fid, kind, *rest = pkt.meta
        if kind == "data":
            # only the next in-order segment is taken; an ACK goes every
            # BULK_ACK_EVERY segments, at completion, and at once on an
            # out-of-order or duplicate segment
            seg, total, offset = rest
            st = self.bulk_recv.setdefault(fid, {"received": 0, "segs": 0})
            in_order = offset == st["received"]
            if in_order:
                st["received"] += seg
                st["segs"] += 1
                flow = self.engine.metrics.flow(fid)
                flow.delivered_payload += seg
                if st["received"] >= total and flow.completed_at is None:
                    flow.completed_at = self.engine.now
            if (not in_order or st["segs"] % BULK_ACK_EVERY == 0
                    or st["received"] >= total):
                ack = Packet(src_ip=self.ip, dst_ip=pkt.src_ip, protocol="tcp",
                             src_port=pkt.dst_port, dst_port=pkt.src_port,
                             payload_bytes=0,
                             meta=("bulk", fid, "ack", st["received"]))
                self.send_packet(ack)
        else:  # cumulative ack
            acked = rest[0]
            st = self.bulk_send.get(fid)
            if st is None:
                return
            if acked > st.una:
                now = self.engine.now
                st.una = acked
                st.next = max(st.next, acked)
                if st.timed is not None and acked >= st.timed[0]:
                    st.measure(now - st.timed[1])
                    st.timed = None
                # RFC 6298 (5.2), (5.3): off when all is acked, else restart
                st.deadline = None
                if acked < st.next:
                    self._start_rto(fid, st)
            self._bulk_pump(fid)

    def _on_ping(self, pkt: Packet):
        _, fid, kind, seq = pkt.meta
        if kind == "req":
            reply = Packet(src_ip=self.ip, dst_ip=pkt.src_ip, protocol="icmp",
                           payload_bytes=pkt.payload_bytes,
                           meta=("ping", fid, "rep", seq))
            self.send_packet(reply)
        else:
            self.ping_seen[fid] += 1
            st = self.engine.metrics.flow(fid)
            st.completed_at = self.engine.now

    def reset_dynamic(self):
        self.arp.clear()


class L3Node(Node):
    kind = "l3"

    def __init__(self, engine: Engine, name: str, mac: MacAddress,
                 router: Optional[ZoneRouter] = None):
        super().__init__(engine, name)
        self.mac = mac
        self.router = router or ZoneRouter(name)
        self.trunk_port = "trunk"
        ifaces = reversed(self.router.interfaces.values())  # first one wins
        self.port_iface = {i.port: i for i in ifaces if i.port is not None}
        self.arp = Resolver(self)
        engine.schedule(FDB_AGE_SWEEP_US, "age_tick", name)

    def on_event(self, kind: str, payload):
        if kind == "age_tick" and self._repeat(kind, FDB_AGE_SWEEP_US):
            self.router.conn.sweep(self.engine.now)

    def emit(self, vid: int, frame_payload, dst_mac: MacAddress):
        iface = self.router.interfaces[vid]
        frame = make_frame(self.mac, dst_mac, frame_payload)
        if iface.port is not None:
            self.engine.send(self.name, iface.port, frame)
        else:
            self.engine.send(self.name, self.trunk_port,
                             frame_copy(frame, frame.size_bytes + 4, vlan_tag(vid)))

    def ip_on(self, vid: int) -> int:
        return self.router.interfaces[vid].ip

    def on_frame(self, port, frame: Frame):
        if port == self.trunk_port:
            if frame.tag is None or frame.tag.vid not in self.router.interfaces:
                self.engine.metrics.drop(self.name, "vlan")
                return
            inner = frame_copy(frame, frame.size_bytes - 4, None)
            vid = frame.tag.vid
        else:
            iface = self.port_iface.get(port)
            if iface is None or frame.tag is not None:
                self.engine.metrics.drop(self.name, "vlan")
                return
            inner, vid = frame, iface.vid
        iface = self.router.interfaces[vid]
        payload = inner.payload
        if isinstance(payload, Arp):
            self._on_arp(vid, iface, payload)
            return
        if not isinstance(payload, Packet):
            self.engine.metrics.frames_filtered += 1
            return
        if inner.dst != self.mac and not inner.dst.is_broadcast:
            self.engine.metrics.frames_filtered += 1
            return
        if self.router.is_local_ip(payload.dst_ip):
            self.engine.metrics.frames_filtered += 1
            return
        result = self.router.forward(payload, vid, self.engine.now)
        if result[0] == "drop":
            reason = result[1]
            self.engine.metrics.drop(self.name, reason)
            self.engine.trace(self.name, "drop", vid, flow_key(payload), reason)
            return
        _, egress_vid, next_hop, out = result
        target = next_hop if next_hop is not None else out.dst_ip
        self.arp.send(egress_vid, target, out)

    def _on_arp(self, vid: int, iface, arp: Arp):
        self.arp.learn(vid, arp)
        if arp.op == "request" and arp.target_ip == iface.ip:
            reply = Arp("reply", iface.ip, self.mac, arp.sender_ip)
            self.emit(vid, reply, arp.sender_mac)

    def reset_dynamic(self):
        self.arp.clear()
        self.router.reset_dynamic()


@dataclass
class FirewallSide:
    side: str  # "inside" | "outside"
    mode: str = "routed"  # "routed" | "inline"
    ip: Optional[int] = None
    prefix_len: int = 24
    zone: str = "dmz"
    gw_ip: Optional[int] = None
    peer_mac: Optional[MacAddress] = None  # inline: far-end router MAC
    routes: list = field(default_factory=list)  # (net, plen, via_ip)


class FirewallNode(Node):
    kind = "firewall"

    def __init__(self, engine: Engine, name: str, mac: MacAddress,
                 fw: Firewall, inside: FirewallSide, outside: FirewallSide,
                 cap_bps: int, queue_frames: int = 256,
                 shape_interval_us: int = DEFAULT_SHAPE_INTERVAL_US,
                 enforce_zones: bool = True):
        super().__init__(engine, name)
        self.mac = mac
        self.fw = fw
        self.sides = {"inside": inside, "outside": outside}
        self.cap_bps = cap_bps
        self.shape_interval_us = shape_interval_us
        self.enforce_zones = enforce_zones
        self.policy = ZonePolicy()
        self.shapers = {s: Shaper(cap_bps, queue_frames) for s in self.sides}
        self.tick_scheduled = {s: False for s in self.sides}
        self.next_hops = {s: self._next_hop_table(cfg)
                          for s, cfg in self.sides.items()}
        self.arp = Resolver(self)
        engine.schedule(NAT_SWEEP_US, "age_tick", name)

    @staticmethod
    def _next_hop_table(cfg: FirewallSide) -> PrefixTable:
        """Next hop by destination: the connected subnet (on-link, None),
        then the side routes, then 0/0 to the gateway."""
        table = PrefixTable()
        if cfg.ip is not None:
            table.insert(cfg.ip, cfg.prefix_len, None)
        for net, plen, via in cfg.routes:
            table.insert(net, plen, via)
        if cfg.gw_ip is not None:
            table.insert(0, 0, cfg.gw_ip)
        return table

    def on_event(self, kind: str, payload):
        now = self.engine.now
        if kind == "age_tick":
            if self._repeat(kind, NAT_SWEEP_US):
                self.fw.sweep_expired(now)
        elif kind == "shape_tick":
            side = payload
            self.tick_scheduled[side] = False
            if self.failed:
                return
            released = self.shapers[side].shape(now, self.shape_interval_us)
            for pkt, mac_hint in released:
                self._emit_packet(side, pkt, mac_hint)
            if self.shapers[side].queue:
                self._schedule_tick(side)

    def _schedule_tick(self, side: str):
        if self.tick_scheduled[side]:
            return
        self.tick_scheduled[side] = True
        interval = self.shape_interval_us
        next_at = (self.engine.now // interval + 1) * interval
        self.engine.schedule(next_at, "shape_tick", self.name, side)

    def _enqueue(self, out_side: str, pkt: Packet, mac_hint):
        if not self.shapers[out_side].offer(pkt.size, (pkt, mac_hint)):
            self.engine.metrics.drop(self.name, "queue")
            return
        self._schedule_tick(out_side)

    def _emit_packet(self, out_side: str, pkt: Packet, mac_hint):
        self.engine.metrics.fw_window[self.name][self.engine.now // 1_000_000] += pkt.size
        if mac_hint is not None:
            self.emit(out_side, pkt, mac_hint)
            return
        next_hop = self.next_hops[out_side].lookup(pkt.dst_ip)
        self.arp.send(out_side, pkt.dst_ip if next_hop is None else next_hop, pkt)

    def emit(self, side: str, payload, dst_mac: MacAddress):
        self.engine.send(self.name, side, make_frame(self.mac, dst_mac, payload))

    def ip_on(self, side: str) -> int:
        return self.sides[side].ip or 0

    def on_frame(self, side, frame: Frame):
        out_side = "outside" if side == "inside" else "inside"
        cfg = self.sides[side]
        payload = frame.payload
        now = self.engine.now
        if isinstance(payload, Arp):
            self._on_arp(side, cfg, out_side, frame, payload)
            return
        if not isinstance(payload, Packet):
            self.engine.metrics.frames_filtered += 1
            return
        if cfg.mode == "routed" and frame.dst != self.mac and not frame.dst.is_broadcast:
            self.engine.metrics.frames_filtered += 1
            return
        pkt = payload
        if pkt.protocol == "probe":
            # health checks are control-plane: no NAT, no shaping
            hint = frame.dst if self.sides[out_side].mode == "inline" else None
            self._emit_packet(out_side, pkt, hint)
            return
        if side == "inside":
            self._outbound(pkt, frame, now)
        else:
            self._inbound(pkt, frame, now)

    def _denied(self, from_side: str, to_side: str, key, now: int) -> bool:
        """Zone policy denies a new flow and key is not a reply: drop it."""
        verdict = self.policy.verdict(self.sides[from_side].zone,
                                      self.sides[to_side].zone)
        if verdict != "deny-new" or self.fw.conn.established(key, now):
            return False
        self.engine.metrics.drop(self.name, "acl")
        self.engine.trace(self.name, "drop", None, key, "acl")
        return True

    def _outbound(self, pkt: Packet, frame: Frame, now: int):
        out_cfg = self.sides["outside"]
        engine = self.engine
        key = flow_key(pkt)
        if self.enforce_zones and self._denied("inside", "outside", key, now):
            return
        try:
            out = self.fw.masquerade_out(pkt, now)
            if engine.trace_enabled:
                engine.trace(self.name, "nat", None, key,
                             f"out via {ip_str(out.src_ip)}:{out.src_port}")
        except NoScope:
            out = pkt
        except PoolExhausted:
            engine.metrics.drop(self.name, "nat-full")
            engine.trace(self.name, "drop", None, key, "nat-full")
            return
        self.fw.conn.note(key, now)
        hint = frame.dst if out_cfg.mode == "inline" else None
        self._enqueue("outside", out, hint)

    def _inbound(self, pkt: Packet, frame: Frame, now: int):
        in_cfg = self.sides["inside"]
        if pkt.dst_ip in self.fw.external_ips:
            translated = self.fw.masquerade_in(pkt, now)
            if translated is None:
                self.engine.metrics.drop(self.name, "no-binding")
                self.engine.trace(self.name, "drop", None, flow_key(pkt),
                                  "no-binding")
                return
            if self.engine.trace_enabled:
                self.engine.trace(
                    self.name, "nat", None, flow_key(pkt),
                    f"in to {ip_str(translated.dst_ip)}:{translated.dst_port}")
            hint = in_cfg.peer_mac if in_cfg.mode == "inline" else None
            self._enqueue("inside", translated, hint)
            return
        if in_cfg.mode == "inline":
            # transit toward the L3 switch, which owns zone policy here
            self._enqueue("inside", pkt, frame.dst)
            return
        # routed inbound to an untranslated address: stateful zone check
        key = flow_key(pkt)
        if self._denied("outside", "inside", key, now):
            return
        self.fw.conn.note(key, now)
        self._enqueue("inside", pkt, None)

    def _on_arp(self, side: str, cfg: FirewallSide, out_side: str,
                frame: Frame, arp: Arp):
        if cfg.mode == "routed" or side == "outside":
            self.arp.learn(side, arp)
        owned = arp.target_ip == cfg.ip or (
            side == "outside" and arp.target_ip in self.fw.external_ips)
        if arp.op == "request" and owned:
            reply = Arp("reply", arp.target_ip, self.mac, arp.sender_ip)
            self.emit(side, reply, arp.sender_mac)
            return
        if cfg.mode == "inline":
            # transparent for the spanned segment's address resolution
            self.engine.send(self.name, out_side, frame)

    def reset_dynamic(self):
        self.fw.reset_dynamic()
        for s in self.shapers.values():
            s.reset_dynamic()
        self.tick_scheduled = {s: False for s in self.sides}
        self.arp.clear()


class BalancerNode(Node):
    kind = "balancer"

    def __init__(self, engine: Engine, name: str, mac: MacAddress, ip: int,
                 peer_ip: int, lb: LoadBalancer):
        super().__init__(engine, name)
        self.mac = mac
        self.ip = ip
        self.peer_ip = peer_ip
        self.lb = lb
        engine.schedule(lb.probe_interval_us, "probe_tick", name)

    def on_event(self, kind: str, payload):
        if kind != "probe_tick" or not self._repeat(kind,
                                                    self.lb.probe_interval_us):
            return
        due = self.lb.probe_tick(self.engine.now)
        self._drain_transitions()
        for pid in due:
            pkt = Packet(src_ip=self.ip, dst_ip=self.peer_ip, protocol="probe",
                         meta=("probe", self.name, "req", pid))
            self.engine.trace(self.name, "probe", None, flow_key(pkt),
                              f"send path={pid}")
            self.engine.send(self.name, pid, make_frame(self.mac, BROADCAST, pkt))

    def _drain_transitions(self):
        for pid, state in self.lb.transitions:
            self.engine.trace(self.name, f"path_{state}", None, None,
                              f"path={pid}")
        self.lb.transitions.clear()

    def on_frame(self, port, frame: Frame):
        payload = frame.payload
        if port == "front":
            self._from_front(frame, payload)
        else:
            self._from_back(port, frame, payload)

    def _from_front(self, frame: Frame, payload):
        up = self.lb.up_paths()
        if isinstance(payload, Arp):
            owner = self.lb.dest_override.get(payload.target_ip)
            pid = owner if owner in up else (up[0] if up else None)
            if pid is None:
                self.engine.metrics.drop(self.name, "unavailable")
                return
            self.engine.send(self.name, pid, frame)
            return
        if not isinstance(payload, Packet):
            self.engine.metrics.frames_filtered += 1
            return
        key = flow_key(payload)
        try:
            pid = self.lb.dispatch(key, payload.dst_ip)
        except Unavailable:
            self.engine.metrics.unavailable += 1
            self.engine.metrics.drop(self.name, "unavailable")
            self.engine.trace(self.name, "drop", None, key, "unavailable")
            return
        if self.engine.trace_enabled:
            self.engine.trace(self.name, "tx", None, key, f"dispatch path={pid}")
        self.engine.send(self.name, pid, frame)

    def _from_back(self, port, frame: Frame, payload):
        if isinstance(payload, Packet) and payload.protocol == "probe" \
                and payload.dst_ip == self.ip:
            meta = payload.meta
            if meta and meta[0] == "probe" and meta[2] == "req":
                reply = Packet(src_ip=self.ip, dst_ip=payload.src_ip,
                               protocol="probe",
                               meta=("probe", self.name, "rep", meta[3]))
                self.engine.send(self.name, port,
                                 make_frame(self.mac, BROADCAST, reply))
            elif meta and meta[0] == "probe" and meta[2] == "rep":
                self.engine.trace(self.name, "probe", None, flow_key(payload),
                                  f"reply path={port}")
                self.lb.on_probe_reply(port, self.engine.now)
                self._drain_transitions()
            return
        self.engine.send(self.name, "front", frame)

    def reset_dynamic(self):
        self.lb.reset_dynamic()
