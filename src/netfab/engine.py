"""Deterministic discrete-event core: time, links, hosts, middleboxes, metrics."""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import gcd
from typing import Mapping, Optional

from .firewall import (Firewall, NoScope, PoolExhausted, SHAPE_INTERVAL_US,
                       Shaper)
from .l2 import Switch
from .l3 import DEFAULT_ZONE_POLICY, ZoneRouter
from .packet import (Arp, BROADCAST, FlowKey, Frame, Packet, PrefixTable,
                     ip_str, make_frame, node_mac, prefix_mask, segment)
from .resilience import PROBE_INTERVAL_US, LoadBalancer, Unavailable

DEFAULT_PROP_US = 5
DEFAULT_LINK_QUEUE = 256
FDB_AGE_SWEEP_US = 60_000_000
NAT_SWEEP_US = 10_000_000
ARP_RETRY_US = 1_000_000
ARP_PENDING_MAX = 101  # Linux neighbour unres_qlen
BULK_WINDOW = 65_536
BULK_SEGMENT = 1_460
BULK_ACK_EVERY = 4
BULK_LOSS_WINDOW = BULK_ACK_EVERY * BULK_SEGMENT  # always draws an ACK
RTO_INITIAL_US = 1_000_000
RTO_MIN_US = 200_000
RTO_MAX_US = 60_000_000
CBR_PACKET = 1_500
PING_INTERVAL_US = 1_000_000
FAULT_ACTIONS = ("fail_node", "fail_link", "recover")
FAULT_FIRST = 1 << 62  # taken off a fault's sequence number


class UnknownTarget(Exception):
    pass


@dataclass
class TrafficSpec:
    """One flow a host generates, as a `[traffic]` line declares it. The
    host sends to `dst_ip`; a flow declared by `dst` alone gets a copy with
    the host's address filled in."""
    kind: str  # cbr | bulk | ping
    src: str
    flow_id: str
    dst: Optional[str] = None  # a host's name
    dst_ip: Optional[int] = None
    start_us: int = 0
    stop_us: Optional[int] = None
    rate_bps: int = 0
    total_bytes: int = 0
    count: int = 0
    src_port: int = 0
    dst_port: int = 0


def cbr_interval_us(rate_bps: int) -> int:
    """The whole microseconds between a cbr flow's packets at rate_bps."""
    return CBR_PACKET * 8 * 1_000_000 // rate_bps


def link_id_of(a: tuple, b: tuple) -> str:
    """The id of the link from end a to end b, each (node, port)."""
    return f"{a[0]}:{a[1]}-{b[0]}:{b[1]}"


@dataclass(slots=True)
class Direction:
    """One direction of a link: a FIFO toward the far end (`node`, `port`)
    with the link's settings, so a frame hop reads this record alone.
    A frame of `size` bytes serializes in size * `ser_num` // `ser_den` µs,
    where `ser_num`/`ser_den` is 8_000_000/bandwidth reduced by their gcd:
    the same floor with smaller operands (size // 125 at 1 Gbps).
    `busy_until` is when the last frame sent finishes serializing and
    `pending` counts the frames in flight. A link points to its directions
    and none points back; `node` holds no reference to the engine."""
    link_id: str
    ser_num: int
    ser_den: int
    prop_us: int
    queue_cap: int
    node: "Node"
    port: object
    up: bool = True
    busy_until: int = 0
    pending: int = 0


@dataclass(slots=True)
class Link:
    """A full-duplex link between ends a and b, each (node, port): two
    independent directions, a to b and b to a."""
    link_id: str
    a: tuple
    b: tuple
    directions: tuple

    @property
    def up(self) -> bool:
        return self.directions[0].up

    @up.setter
    def up(self, up: bool):
        for d in self.directions:
            d.up = up

    @property
    def pending(self) -> tuple:
        """Frames in flight a to b and b to a."""
        to_b, to_a = self.directions
        return to_b.pending, to_a.pending


@dataclass
class FlowStats:
    offered_packets: int = 0
    offered_bytes: int = 0
    offered_payload: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    delivered_payload: int = 0
    completed_at: Optional[int] = None


class BulkSender:
    """Sender side of one bulk flow: a byte sequence space sent go-back-N
    and one retransmission timer (RFC 6298: SRTT/RTTVAR, Karn's rule,
    doubling backoff), in integer microseconds. The window falls to
    BULK_LOSS_WINDOW on an expiry and grows back by the bytes each new ACK
    covers (RFC 5681 slow start, with no ssthresh)."""

    __slots__ = ("spec", "template", "una", "next", "high", "timed", "srtt",
                 "rttvar", "rto", "deadline", "armed", "window", "stats")

    def __init__(self, spec: TrafficSpec, src_ip: int):
        self.spec = spec
        self.template = Packet(  # each segment is a copy of it
            src_ip=src_ip, dst_ip=spec.dst_ip, protocol="tcp",
            src_port=spec.src_port, dst_port=spec.dst_port)
        self.una = 0  # first unacknowledged byte
        self.next = 0  # next byte to send
        self.high = 0  # one past the highest byte ever sent
        self.timed: Optional[tuple] = None  # (end byte, sent at) being timed
        self.srtt: Optional[int] = None
        self.rttvar = 0
        self.rto = RTO_INITIAL_US
        self.deadline: Optional[int] = None  # timer expiry; None when off
        self.armed: Optional[int] = None  # time of the live "rto" event
        self.window = BULK_WINDOW  # bytes that may be unacknowledged
        self.stats: Optional[FlowStats] = None  # the flow's, once it offers

    def measure(self, rtt: int):
        if self.srtt is None:
            self.srtt, self.rttvar = rtt, rtt // 2
        else:
            self.rttvar = (3 * self.rttvar + abs(self.srtt - rtt)) // 4
            self.srtt = (7 * self.srtt + rtt) // 8
        self.rto = min(max(self.srtt + max(1, 4 * self.rttvar), RTO_MIN_US),
                       RTO_MAX_US)


class FlowSender:
    """Sender side of one cbr or ping flow: its packet template, checked
    once, the microseconds between its packets, and its stats once it
    offers. A cbr flow's "traffic" events and a ping flow's "ping" events
    carry it."""

    __slots__ = ("spec", "template", "interval", "stats")

    def __init__(self, spec: TrafficSpec, src_ip: int):
        self.spec = spec
        if spec.kind == "cbr":
            self.template = Packet(
                src_ip=src_ip, dst_ip=spec.dst_ip, protocol="udp",
                src_port=spec.src_port, dst_port=spec.dst_port,
                payload_bytes=CBR_PACKET - 40, meta=("cbr", spec.flow_id))
            self.interval = cbr_interval_us(spec.rate_bps)
        else:
            self.template = Packet(src_ip=src_ip, dst_ip=spec.dst_ip,
                                   protocol="icmp", payload_bytes=56)
            self.interval = PING_INTERVAL_US
        self.stats: Optional[FlowStats] = None


@dataclass(slots=True)
class FlowReceiver:
    """Receiver side of one flow: its stats, a bulk flow's in-order bytes
    and segments taken, and the template of its answers (a bulk flow's ACKs,
    a ping flow's echo replies), which goes back to the source tuple of the
    last packet answered."""
    stats: FlowStats
    received: int = 0
    segs: int = 0
    reply: Optional[Packet] = None


class Metrics:
    def __init__(self):
        self.flows: dict[str, FlowStats] = {}
        self.drops: Counter = Counter()
        self.fw_bytes: Counter = Counter()  # forwarded, by firewall
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

    def drop(self, node: str, reason: str, n: int = 1):
        self.drops[(node, reason)] += n

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
        for fw, n in sorted(self.fw_bytes.items()):
            lines.append(f"fw_forwarded_bytes.{fw}={n}")
        lines.append("flow\toffered_B\tdelivered_B\tpayload_B\tcompleted_s")
        for fid in sorted(self.flows):
            st = self.flows[fid]
            done = f"{st.completed_at / 1e6:.6f}" if st.completed_at is not None else "-"
            lines.append(f"{fid}\t{st.offered_bytes}\t{st.delivered_bytes}"
                         f"\t{st.delivered_payload}\t{done}")
        return lines


@functools.lru_cache(maxsize=4096)
def _flow_text(flow: FlowKey) -> str:
    """str(flow), formatted once: a run traces each flow many times."""
    return str(flow)


def trace_line(t: int, node: str, ev: str, vlan, flow, info: str) -> str:
    """The text form of one trace record: six tab-separated key=value fields."""
    vstr = "-" if vlan is None else vlan
    fstr = "-" if flow is None else _flow_text(flow)
    return f"t={t}\tnode={node}\tev={ev}\tvlan={vstr}\tflow={fstr}\tinfo={info}"


class Engine:
    """Single-owner event loop; identical (scenario, seed) gives identical traces.

    It owns its nodes, links and queued events, and none points back to it:
    each node method that needs the engine takes it as its first argument.
    So dropping an engine frees it at once, by reference counting alone.

    `trace` is None or a sink called with each record (t, node, ev, vlan,
    flow, info) as it happens; `trace_line` is a record's text."""

    def __init__(self, seed: int = 0, trace=None):
        self.seed = seed
        self.hash_salt = seed.to_bytes(8, "big", signed=True)
        self.now = 0
        self._seq = 0
        self._heap: list = []
        self.nodes: dict[str, "Node"] = {}
        self.links: dict[str, Link] = {}
        self.link_at: dict[tuple, Link] = {}
        self._ends: dict[tuple, Direction] = {}  # by the end sending on it
        self.metrics = Metrics()
        self.trace_sink = trace
        self.trace_enabled = trace is not None

    # -- construction ------------------------------------------------------

    def add_node(self, node: "Node") -> "Node":
        if node.name in self.nodes:
            raise ValueError(f"duplicate node {node.name}")
        self.nodes[node.name] = node
        return node

    def add_link(self, a_node: str, a_port, b_node: str, b_port,
                 bandwidth_bps: int, prop_us: int = DEFAULT_PROP_US,
                 queue_cap: int = DEFAULT_LINK_QUEUE) -> Link:
        a, b = (a_node, a_port), (b_node, b_port)
        link_id = link_id_of(a, b)
        g = gcd(8_000_000, bandwidth_bps)
        num, den = 8_000_000 // g, bandwidth_bps // g
        self._ends[a] = to_b = Direction(link_id, num, den, prop_us, queue_cap,
                                         self.nodes[b_node], b_port)
        self._ends[b] = to_a = Direction(link_id, num, den, prop_us, queue_cap,
                                         self.nodes[a_node], a_port)
        link = self.links[link_id] = Link(link_id, a, b, (to_b, to_a))
        self.link_at[a] = self.link_at[b] = link
        return link

    # -- event machinery ---------------------------------------------------

    def schedule(self, at: int, kind: str, target, payload=None):
        """Queue event `kind` on `target` at time `at`: timers and traffic
        on their node; deliveries enter in `send`, faults in `inject_fault`.
        All take the next number of one sequence, which orders events at the
        same time in the order they were queued."""
        self._seq += 1
        heappush(self._heap, (at, self._seq, kind, target, payload))

    def inject_fault(self, at_us: int, action: str, target: str):
        """Queue `action` on link or node `target`. It applies before every
        other event of its microsecond, however late it was queued: its
        sequence number sorts before all the others'."""
        if action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {action!r}")
        obj = self.links.get(target) or self.nodes.get(target)
        if obj is None:
            raise UnknownTarget(target)
        self._seq += 1
        heappush(self._heap,
                 (at_us, self._seq - FAULT_FIRST, "fault", obj, action))

    def run_until(self, t_end_us: int) -> Metrics:
        if t_end_us < self.now:
            raise ValueError("cannot run backwards")
        heap, pop, metrics = self._heap, heappop, self.metrics
        while heap:
            at, seq, kind, target, payload = pop(heap)
            if at > t_end_us:  # the first event past the horizon goes back
                heappush(heap, (at, seq, kind, target, payload))
                break
            self.now = at
            if kind == "deliver":
                # frame `payload` reaches the far end of direction `target`
                target.pending -= 1
                metrics.frames_consumed += 1
                node = target.node
                if not target.up:
                    metrics.drop(target.link_id, "link-down")
                elif node.failed:
                    metrics.drop(node.name, "fault")
                    self.trace(node.name, "drop", None, None, "node failed")
                else:
                    node.on_frame(self, target.port, payload)
            elif kind == "fault":
                self._apply_fault(target, payload)
            else:
                target.on_event(self, kind, payload)
        self.now = t_end_us
        return metrics

    def _apply_fault(self, target, action: str):
        if isinstance(target, Link):
            self.trace(target.link_id, "fault", None, None, action)
            target.up = action == "recover"
            # a LAG member leaves its bundle while its link is down (IEEE
            # 802.1AX); a plain switch port stays up and drops as link-down
            for d in target.directions:
                node = d.node
                cfg = node.switch.ports.get(d.port) if node.kind == "switch" else None
                if cfg is not None and cfg.lag_group is not None:
                    node.switch.set_port_up(d.port, target.up)
            return
        self.trace(target.name, "fault", None, None, action)
        if action == "recover":
            target.failed = False
            target.reset_dynamic()
        else:
            target.failed = True

    # -- frame transport ---------------------------------------------------

    def send(self, node_name: str, port, frame: Frame):
        direction = self._ends.get((node_name, port))
        if direction is None:
            self.metrics.drop(node_name, "no-link")
            return
        if not direction.up:
            self.metrics.drop(node_name, "link-down")
            return
        if direction.pending >= direction.queue_cap:
            self.metrics.drop(node_name, "queue")
            return
        now, busy = self.now, direction.busy_until
        direction.busy_until = done = (now if now > busy else busy) + (
            frame.size_bytes * direction.ser_num // direction.ser_den)
        direction.pending += 1
        self.metrics.frames_created += 1
        self._seq = seq = self._seq + 1
        heappush(self._heap,
                 (done + direction.prop_us, seq, "deliver", direction, frame))

    def residual_frames(self) -> int:
        return sum(sum(l.pending) for l in self.links.values())

    # -- trace -------------------------------------------------------------

    def trace(self, node: str, ev: str, vlan, flow, info: str):
        if self.trace_enabled:
            self.trace_sink(self.now, node, ev, vlan, flow, info)


class Node:
    kind = "node"

    def __init__(self, engine: Engine, name: str):
        self.name = name
        self.mac = node_mac(name)
        self.failed = False
        engine.add_node(self)

    def on_frame(self, engine: Engine, port, frame: Frame):
        raise NotImplementedError

    def on_event(self, engine: Engine, kind: str, payload):
        pass

    def egress(self, scope) -> tuple:
        """(port, tag) a frame sent on scope leaves by: a scope is the port
        it names, untagged, unless the node's kind says otherwise."""
        return scope, None

    def emit(self, engine: Engine, scope, payload, dst_mac: bytes):
        """Frame payload to dst_mac and send it on scope."""
        port, tag = self.egress(scope)
        engine.send(self.name, port, make_frame(self.mac, dst_mac, payload,
                                                tag))

    def _repeat(self, engine: Engine, kind: str, interval_us: int) -> bool:
        """Schedule the next event of a periodic kind; True when the node is
        up to do this one's work. Ticks keep running while a node is failed."""
        engine.schedule(engine.now + interval_us, kind, self)
        return not self.failed

    def reset_dynamic(self):
        pass


class Resolver:
    """ARP for one node: learned next hops, packets held until their reply,
    and a request repeated every ARP_RETRY_US while packets wait, keyed by
    (scope, ip). At most ARP_PENDING_MAX packets wait for one MAC; a new one
    pushes out the oldest, counted as an `arp-pending` drop. A scope is what
    the node sends on: a port, a VLAN or a firewall side. A learned entry
    holds how a frame to it leaves, (port, tag, MAC), built once from the
    node's `egress(scope)`, as a Linux neighbour entry caches its hardware
    header. A node hands `send` a burst, the packets it has for one next
    hop, as netmap and DPDK move packets in batches: one lookup serves the
    burst, and each packet goes on to `make_frame` and `Engine.send` in
    order. The owning node passes the engine and itself to each call, so a
    resolver holds no reference to either; the node's `ip_on(scope)` is its
    own address there."""

    # one per host in a campus scenario: no per-instance __dict__
    __slots__ = ("cache", "pending", "last_req")

    def __init__(self):
        self.cache: dict[tuple, tuple] = {}  # (port, tag, MAC)
        self.pending: dict[tuple, list[Packet]] = {}
        self.last_req: dict[tuple, int] = {}

    def send(self, engine: Engine, node: Node, scope, ip: int, packets):
        """Send packets, in order, to ip's MAC, or hold them and ask for
        that MAC."""
        key = (scope, ip)
        hop = self.cache.get(key)
        if hop is not None:
            port, tag, mac = hop
            name, src, send = node.name, node.mac, engine.send
            for packet in packets:
                send(name, port, make_frame(src, mac, packet, tag))
            return
        held = self.pending.setdefault(key, [])
        held.extend(packets)
        over = len(held) - ARP_PENDING_MAX
        if over > 0:  # the oldest make room
            del held[:over]
            engine.metrics.drop(node.name, "arp-pending", over)
        now = engine.now
        last = self.last_req.get(key)
        if last is None or now - last >= ARP_RETRY_US:
            self.last_req[key] = now
            req = Arp("request", node.ip_on(scope), node.mac, ip)
            node.emit(engine, scope, req, BROADCAST)

    def learn(self, engine: Engine, node: Node, scope, arp: Arp):
        """Cache the sender of arp; a reply also sends what was held for it."""
        ip = arp.sender_ip
        key = (scope, ip)
        self.cache[key] = (*node.egress(scope), arp.sender_mac)
        if arp.op == "reply" and key in self.pending:
            self.send(engine, node, scope, ip, self.pending.pop(key))

    def clear(self):
        self.cache.clear()
        self.pending.clear()
        self.last_req.clear()


class SwitchNode(Node):
    kind = "switch"

    def __init__(self, engine: Engine, name: str):
        super().__init__(engine, name)
        self.switch = Switch(name, hash_salt=engine.hash_salt)
        engine.schedule(FDB_AGE_SWEEP_US, "age_tick", self)

    def on_frame(self, engine: Engine, port, frame: Frame):
        out = self.switch.ingress(port, frame, engine.now)
        if out is None:
            engine.metrics.drop(self.name, "vlan")
            return
        for out_port, out_frame in out:
            engine.send(self.name, out_port, out_frame)

    def on_event(self, engine: Engine, kind: str, payload):
        if kind == "age_tick" and self._repeat(engine, kind, FDB_AGE_SWEEP_US):
            self.switch.age_fdb(engine.now)

    def reset_dynamic(self):
        self.switch.reset_dynamic()


class HostNode(Node):
    kind = "host"

    def __init__(self, engine: Engine, name: str, ip: int, prefix_len: int,
                 gw_ip: Optional[int] = None):
        super().__init__(engine, name)
        self.ip = ip
        self.mask = prefix_mask(prefix_len)
        self.gw_ip = gw_ip
        self.port = 0
        self.arp = Resolver()
        self.bulk_send: dict[str, BulkSender] = {}
        self.recv: dict[str, FlowReceiver] = {}
        self.ping_seen: dict[str, int] = {}  # echo replies, by flow

    # -- traffic -----------------------------------------------------------
    # a failed host keeps each flow's schedule and sends nothing; a flow's
    # packets are copies of one template, checked when the flow starts

    def add_generator(self, engine: Engine, spec: TrafficSpec):
        engine.schedule(spec.start_us, "traffic", self, spec)

    def on_event(self, engine: Engine, kind: str, payload):
        if kind == "traffic":
            # payload: the flow's TrafficSpec at its start, then a cbr
            # flow's FlowSender
            if payload.__class__ is FlowSender:
                self._send_cbr(engine, payload)
            else:
                self._start(engine, payload)
        elif kind == "ping":  # payload: (its FlowSender, sequence number)
            self._send_ping(engine, *payload)
        elif kind == "rto":  # payload: the flow's BulkSender
            self._on_rto(engine, payload)

    def _start(self, engine: Engine, spec: TrafficSpec):
        if spec.kind == "cbr":
            self._send_cbr(engine, FlowSender(spec, self.ip))
        elif spec.kind == "bulk":
            self.bulk_send[spec.flow_id] = st = BulkSender(spec, self.ip)
            if self.failed:  # starts once the timer finds the host up
                self._start_rto(engine, st)
            else:
                self._bulk_pump(engine, st)
        elif spec.kind == "ping":
            self._send_ping(engine, FlowSender(spec, self.ip), 0)

    def _send_cbr(self, engine: Engine, flow: FlowSender):
        now = engine.now
        stop = flow.spec.stop_us
        if stop is not None and now >= stop:
            return
        if not self.failed:
            self._offer(engine, flow, flow.template.meta)
        engine.schedule(now + flow.interval, "traffic", self, flow)

    def _send_ping(self, engine: Engine, flow: FlowSender, seq: int):
        spec = flow.spec
        if not self.failed:
            self._offer(engine, flow, ("ping", spec.flow_id, "req", seq))
        if seq + 1 < spec.count:
            engine.schedule(engine.now + flow.interval, "ping", self,
                            (flow, seq + 1))

    def _offer(self, engine: Engine, flow: FlowSender, meta: tuple):
        """Send a copy of flow's template carrying meta."""
        if flow.stats is None:  # a flow is in the summary once it offers
            flow.stats = engine.metrics.flow(flow.spec.flow_id)
        tpl = flow.template
        self.send_packet(engine, (segment(tpl, tpl.payload_bytes, meta),),
                         flow.stats)

    def _bulk_pump(self, engine: Engine, st: BulkSender):
        """Send the window's worth of segments as one burst."""
        spec = st.spec
        fid, total, tpl = spec.flow_id, spec.total_bytes, st.template
        window = []
        while st.next < total and st.next - st.una < st.window:
            seg = min(BULK_SEGMENT, total - st.next)
            window.append(segment(tpl, seg,
                                  ("bulk", fid, "data", seg, total, st.next)))
            st.next += seg
            if st.next > st.high:  # new data; Karn: only it is timed
                st.high = st.next
                if st.timed is None:
                    st.timed = (st.next, engine.now)
        if window:
            if st.stats is None:  # a flow is in the summary once it offers
                st.stats = engine.metrics.flow(fid)
            self.send_packet(engine, window, st.stats)
        if st.deadline is None and st.una < st.next:
            self._start_rto(engine, st)

    def _start_rto(self, engine: Engine, st: BulkSender):
        """Set the timer to expire RTO from now. The flow keeps one live
        "rto" event: a later deadline is met when that event fires early."""
        now = engine.now
        st.deadline = now + st.rto
        if st.armed is None or st.armed > st.deadline:
            st.armed = st.deadline
            engine.schedule(st.deadline, "rto", self, st)

    def _on_rto(self, engine: Engine, st: BulkSender):
        now = engine.now
        if st.armed != now:
            return  # superseded by an earlier deadline
        st.armed = None
        if st.deadline is None:
            return
        if now < st.deadline:
            st.armed = st.deadline
            engine.schedule(st.deadline, "rto", self, st)
            return
        st.deadline = None
        if self.failed:
            self._start_rto(engine, st)
            return
        # expiry: back off, forget the timed segment, resend from una
        st.rto = min(2 * st.rto, RTO_MAX_US)
        st.window = BULK_LOSS_WINDOW
        st.timed = None
        st.next = st.una
        self._bulk_pump(engine, st)

    # -- sending -----------------------------------------------------------

    def send_packet(self, engine: Engine, packets,
                    stats: Optional[FlowStats] = None):
        """Send packets, all of one flow, through one choice of next hop;
        with the flow's stats each counts as offered."""
        if stats is not None:
            stats.offered_packets += len(packets)
            for packet in packets:
                stats.offered_bytes += packet.size
                stats.offered_payload += packet.payload_bytes
                if engine.trace_enabled:
                    engine.trace(self.name, "tx", None, packet.key,
                                 f"kind={packet.meta[0]}")
        dst_ip = packets[0].dst_ip  # on-link, else through the gateway
        if (dst_ip ^ self.ip) & self.mask and self.gw_ip is not None:
            dst_ip = self.gw_ip
        self.arp.send(engine, self, self.port, dst_ip, packets)

    def ip_on(self, _port) -> int:
        return self.ip

    # -- receiving ---------------------------------------------------------

    def on_frame(self, engine: Engine, port, frame: Frame):
        payload = frame.payload
        if isinstance(payload, Arp):
            self._on_arp(engine, payload)
            return
        if not isinstance(payload, Packet):
            engine.metrics.frames_filtered += 1
            return
        if frame.dst != self.mac and frame.dst != BROADCAST:
            engine.metrics.frames_filtered += 1
            return
        if payload.dst_ip != self.ip:
            engine.metrics.frames_filtered += 1
            return
        self._deliver(engine, payload)

    def _on_arp(self, engine: Engine, arp: Arp):
        if arp.target_ip != self.ip:
            engine.metrics.frames_filtered += 1
            return
        self.arp.learn(engine, self, self.port, arp)
        if arp.op == "request":
            reply = Arp("reply", self.ip, self.mac, arp.sender_ip)
            self.emit(engine, self.port, reply, arp.sender_mac)

    def _deliver(self, engine: Engine, pkt: Packet):
        meta = pkt.meta
        if not meta:
            return
        kind, fid = meta[0], meta[1]
        if kind == "bulk" and meta[2] == "ack":
            self._on_ack(engine, fid, meta[3])
            return
        if kind == "ping" and meta[2] == "rep":
            self.ping_seen[fid] = self.ping_seen.get(fid, 0) + 1
            engine.metrics.flow(fid).completed_at = engine.now
            return
        rx = self.recv.get(fid)
        if rx is None:
            rx = self.recv[fid] = FlowReceiver(engine.metrics.flow(fid))
        st = rx.stats
        st.delivered_packets += 1
        st.delivered_bytes += pkt.size
        engine.metrics.host_delivered += 1
        if engine.trace_enabled:
            engine.trace(self.name, "rx", None, pkt.key, f"kind={kind}")
        if kind == "bulk":
            self._on_bulk_data(engine, pkt, rx)
            return
        st.delivered_payload += pkt.payload_bytes  # bulk's: once, in order
        if kind == "ping":
            self.send_packet(engine, (segment(
                self._reply_template(rx, pkt), pkt.payload_bytes,
                ("ping", fid, "rep", meta[3])),))

    def _reply_template(self, rx: FlowReceiver, pkt: Packet) -> Packet:
        """rx's answer template, built anew, checked, when pkt comes from
        another tuple than the last packet answered: an answer goes back to
        the tuple its packet came from."""
        reply = rx.reply
        if (reply is None or reply.dst_ip != pkt.src_ip
                or reply.dst_port != pkt.src_port
                or reply.src_port != pkt.dst_port):
            rx.reply = reply = Packet(
                src_ip=self.ip, dst_ip=pkt.src_ip, protocol=pkt.protocol,
                src_port=pkt.dst_port, dst_port=pkt.src_port)
        return reply

    def _on_bulk_data(self, engine: Engine, pkt: Packet, rx: FlowReceiver):
        # only the next in-order segment is taken; an ACK goes every
        # BULK_ACK_EVERY segments, at completion, and at once on an
        # out-of-order or duplicate segment
        _, fid, _, seg, total, offset = pkt.meta
        in_order = offset == rx.received
        if in_order:
            rx.received += seg
            rx.segs += 1
            flow = rx.stats
            flow.delivered_payload += seg
            if rx.received >= total and flow.completed_at is None:
                flow.completed_at = engine.now
        if (not in_order or rx.segs % BULK_ACK_EVERY == 0
                or rx.received >= total):
            self.send_packet(engine, (segment(
                self._reply_template(rx, pkt), 0,
                ("bulk", fid, "ack", rx.received)),))

    def _on_ack(self, engine: Engine, fid: str, acked: int):
        """A cumulative ACK at the sender."""
        st = self.bulk_send.get(fid)
        if st is None:
            return
        if acked > st.una:
            now = engine.now
            st.window = min(st.window + acked - st.una, BULK_WINDOW)
            st.una = acked
            st.next = max(st.next, acked)
            if st.timed is not None and acked >= st.timed[0]:
                st.measure(now - st.timed[1])
                st.timed = None
            # RFC 6298 (5.2), (5.3): off when all is acked, else restart
            st.deadline = None
            if acked < st.next:
                self._start_rto(engine, st)
        self._bulk_pump(engine, st)

    def reset_dynamic(self):
        self.arp.clear()


class L3Node(Node):
    kind = "l3"

    def __init__(self, engine: Engine, name: str, router: ZoneRouter):
        super().__init__(engine, name)
        self.router = router
        self.arp = Resolver()
        engine.schedule(FDB_AGE_SWEEP_US, "age_tick", self)

    def on_event(self, engine: Engine, kind: str, payload):
        if kind == "age_tick" and self._repeat(engine, kind, FDB_AGE_SWEEP_US):
            self.router.conn.sweep(engine.now)

    def egress(self, vid: int) -> tuple:
        """An interface bound to a port sends on it untagged, any other on
        the trunk tagged with its VID."""
        port = self.router.interfaces[vid].port
        return (port, None) if port is not None else ("trunk", vid)

    def ip_on(self, vid: int) -> int:
        return self.router.interfaces[vid].ip

    def on_frame(self, engine: Engine, port, frame: Frame):
        # reads the payload and destination in place: untagging needs no copy
        vid = frame.tag
        if port == "trunk":
            if vid not in self.router.interfaces:  # None is never a key
                engine.metrics.drop(self.name, "vlan")
                return
        else:
            iface = self.router.ports.get(port)
            if iface is None or vid is not None:
                engine.metrics.drop(self.name, "vlan")
                return
            vid = iface.vid
        iface = self.router.interfaces[vid]
        payload = frame.payload
        if isinstance(payload, Arp):
            self._on_arp(engine, vid, iface, payload)
            return
        if not isinstance(payload, Packet):
            engine.metrics.frames_filtered += 1
            return
        if frame.dst != self.mac and frame.dst != BROADCAST:
            engine.metrics.frames_filtered += 1
            return
        if payload.dst_ip in self.router.local_ips:
            engine.metrics.frames_filtered += 1
            return
        result = self.router.forward(payload, vid, engine.now)
        if result[0] == "drop":
            reason = result[1]
            engine.metrics.drop(self.name, reason)
            engine.trace(self.name, "drop", vid, payload.key, reason)
            return
        _, egress_vid, next_hop, out = result
        target = next_hop if next_hop is not None else out.dst_ip
        self.arp.send(engine, self, egress_vid, target, (out,))

    def _on_arp(self, engine: Engine, vid: int, iface, arp: Arp):
        self.arp.learn(engine, self, vid, arp)
        if arp.op == "request" and arp.target_ip == iface.ip:
            reply = Arp("reply", iface.ip, self.mac, arp.sender_ip)
            self.emit(engine, vid, reply, arp.sender_mac)

    def reset_dynamic(self):
        self.arp.clear()
        self.router.reset_dynamic()


@dataclass
class FirewallSide:
    """One side of a firewall, as its `[firewall]` line declares it."""
    mode: str = "routed"  # "routed" | "inline"
    ip: Optional[int] = None
    prefix_len: int = 24
    zone: str = "dmz"
    gw: Optional[int] = None
    routes: list = field(default_factory=list)  # (net, plen, via_ip)


@dataclass(slots=True, eq=False)
class SideState:
    """One firewall side at run time: its engine port and settings, whether
    zone policy denies new flows arriving on it, its next hops and shaper,
    whether its shape_tick is queued, and, on an inline inside, the MAC its
    last packet came from, where reverse-NAT'd packets go (a transparent
    bridge learns stations from source addresses too, IEEE 802.1D). The two
    sides of a node hold no reference to each other or to the engine, so
    reference counting alone frees them with it."""
    port: str
    cfg: FirewallSide
    deny_new: bool
    next_hops: PrefixTable
    shaper: Shaper
    tick_scheduled: bool = False
    peer_mac: Optional[bytes] = None


class FirewallNode(Node):
    kind = "firewall"

    def __init__(self, engine: Engine, name: str, fw: Firewall,
                 inside: FirewallSide, outside: FirewallSide, cap_bps: int,
                 enforce_zones: bool = True,
                 policy: Mapping = DEFAULT_ZONE_POLICY):
        super().__init__(engine, name)
        self.fw = fw
        # zones and policy are fixed, so each direction's verdict is too:
        # outbound is checked only with enforce_zones, routed inbound always
        self.inside = self._side("inside", inside, enforce_zones and (
            policy[inside.zone, outside.zone] == "deny-new"), cap_bps)
        self.outside = self._side("outside", outside, policy[
            outside.zone, inside.zone] == "deny-new", cap_bps)
        self.sides = {"inside": self.inside, "outside": self.outside}
        self.arp = Resolver()
        engine.schedule(NAT_SWEEP_US, "age_tick", self)

    @staticmethod
    def _side(port: str, cfg: FirewallSide, deny_new: bool,
              cap_bps: int) -> SideState:
        """The side's record. Next hop by destination: the connected subnet
        (on-link, None), then the side routes, then 0/0 to the gateway."""
        table = PrefixTable()
        if cfg.ip is not None:
            table.insert(cfg.ip, cfg.prefix_len, None)
        for net, plen, via in cfg.routes:
            table.insert(net, plen, via)
        if cfg.gw is not None:
            table.insert(0, 0, cfg.gw)
        return SideState(port, cfg, deny_new, table, Shaper(cap_bps))

    def on_event(self, engine: Engine, kind: str, payload):
        if kind == "age_tick":
            if self._repeat(engine, kind, NAT_SWEEP_US):
                self.fw.sweep_expired(engine.now)
        elif kind == "shape_tick":
            side = payload  # the side's SideState
            side.tick_scheduled = False
            if self.failed:
                return
            released = side.shaper.shape()
            if released:
                self._emit(engine, side, released)
            if side.shaper.queue:
                self._schedule_tick(engine, side)

    def _schedule_tick(self, engine: Engine, side: SideState):
        """The side's next shape_tick; its caller knows none is pending."""
        side.tick_scheduled = True
        next_at = (engine.now // SHAPE_INTERVAL_US + 1) * SHAPE_INTERVAL_US
        engine.schedule(next_at, "shape_tick", self, side)

    def _enqueue(self, engine: Engine, side: SideState, pkt: Packet,
                 mac_hint):
        if not side.shaper.offer(pkt.size, (pkt, mac_hint)):
            engine.metrics.drop(self.name, "queue")
        elif not side.tick_scheduled:
            self._schedule_tick(engine, side)

    def _emit(self, engine: Engine, side: SideState, items: list):
        """Send items, (packet, MAC hint) pairs, on side in FIFO order, run
        by run: a run of hinted packets straight to their MAC, a run of
        others to one destination IP through one next-hop lookup and one
        resolver call."""
        size, runs, last = 0, [], None  # runs: (MAC or IP, packets)
        for pkt, hint in items:
            size += pkt.size
            to = pkt.dst_ip if hint is None else hint
            if to != last:
                last, run = to, []
                runs.append((to, run))
            run.append(pkt)
        engine.metrics.fw_bytes[self.name] += size
        port = side.port
        for to, run in runs:
            if to.__class__ is int:
                next_hop = side.next_hops.lookup(to)
                self.arp.send(engine, self, port,
                              to if next_hop is None else next_hop, run)
            else:  # a side's scope is its port, untagged
                name, mac, send = self.name, self.mac, engine.send
                for pkt in run:
                    send(name, port, make_frame(mac, to, pkt))

    def ip_on(self, port: str) -> int:
        return self.sides[port].cfg.ip or 0

    def on_frame(self, engine: Engine, port, frame: Frame):
        side = self.sides[port]
        out = self.outside if side is self.inside else self.inside
        payload = frame.payload
        if isinstance(payload, Arp):
            self._on_arp(engine, side, out, frame, payload)
            return
        if not isinstance(payload, Packet):
            engine.metrics.frames_filtered += 1
            return
        if side.cfg.mode == "routed":
            if frame.dst != self.mac and frame.dst != BROADCAST:
                engine.metrics.frames_filtered += 1
                return
        elif side is self.inside and payload.protocol != "probe":
            side.peer_mac = frame.src
        hint = frame.dst if out.cfg.mode == "inline" else None
        if payload.protocol == "probe":
            # health checks are control-plane: no NAT, no shaping
            self._emit(engine, out, [(payload, hint)])
            return
        self._forward(engine, side, out, payload, hint)

    def _forward(self, engine: Engine, side: SideState, out: SideState,
                 pkt: Packet, hint):
        """Pass pkt, which arrived on `side`, to `out`'s shaper: reverse NAT
        and inline transit on the outside, else the zone check, NAT on the
        inside, and a conntrack note."""
        fw = self.fw
        now, key = engine.now, pkt.key
        if side is self.outside:
            if pkt.dst_ip in fw.external_ips:
                translated = fw.masquerade_in(pkt, now)
                if translated is None:
                    engine.metrics.drop(self.name, "no-binding")
                    engine.trace(self.name, "drop", None, key, "no-binding")
                    return
                if engine.trace_enabled:
                    engine.trace(self.name, "nat", None, key, "in to "
                                 f"{ip_str(translated.dst_ip)}:"
                                 f"{translated.dst_port}")
                self._enqueue(engine, out, translated, out.peer_mac)
                return
            if out.cfg.mode == "inline":
                # transit toward the L3 switch, which owns zone policy here
                self._enqueue(engine, out, pkt, hint)
                return
        # a new flow where zone policy denies it: only replies pass
        if side.deny_new and not fw.conn.established(key, now):
            engine.metrics.drop(self.name, "acl")
            engine.trace(self.name, "drop", None, key, "acl")
            return
        if side is self.inside:
            try:
                pkt = fw.masquerade_out(pkt, now)
                if engine.trace_enabled:
                    engine.trace(self.name, "nat", None, key,
                                 f"out via {ip_str(pkt.src_ip)}:{pkt.src_port}")
            except NoScope:
                pass
            except PoolExhausted:
                engine.metrics.drop(self.name, "nat-full")
                engine.trace(self.name, "drop", None, key, "nat-full")
                return
        fw.conn.entries[key] = now
        self._enqueue(engine, out, pkt, hint)

    def _on_arp(self, engine: Engine, side: SideState, out: SideState,
                frame: Frame, arp: Arp):
        cfg = side.cfg
        if cfg.mode == "routed":  # an inline side resolves no next hop
            self.arp.learn(engine, self, side.port, arp)
        owned = arp.target_ip == cfg.ip or (
            side is self.outside and arp.target_ip in self.fw.external_ips)
        if arp.op == "request" and owned:
            reply = Arp("reply", arp.target_ip, self.mac, arp.sender_ip)
            self.emit(engine, side.port, reply, arp.sender_mac)
            return
        if cfg.mode == "inline":
            # transparent for the spanned segment's address resolution
            engine.send(self.name, out.port, frame)

    def reset_dynamic(self):
        # a pending shape_tick stays queued, so tick_scheduled stays as it is
        self.fw.reset_dynamic()
        for side in self.sides.values():
            side.shaper.reset_dynamic()
        self.inside.peer_mac = None
        self.arp.clear()


class BalancerNode(Node):
    kind = "balancer"

    def __init__(self, engine: Engine, name: str, ip: int, peer_ip: int,
                 lb: LoadBalancer):
        super().__init__(engine, name)
        self.ip = ip
        self.peer_ip = peer_ip
        self.lb = lb
        engine.schedule(PROBE_INTERVAL_US, "probe_tick", self)

    def on_event(self, engine: Engine, kind: str, payload):
        if kind != "probe_tick" or not self._repeat(engine, kind,
                                                     PROBE_INTERVAL_US):
            return
        due = self.lb.probe_tick(engine.now)
        self._drain_transitions(engine)
        for pid in due:
            pkt = Packet(src_ip=self.ip, dst_ip=self.peer_ip, protocol="probe",
                         meta=("probe", self.name, "req", pid))
            engine.trace(self.name, "probe", None, pkt.key,
                         f"send path={pid}")
            engine.send(self.name, pid, make_frame(self.mac, BROADCAST, pkt))

    def _drain_transitions(self, engine: Engine):
        for pid, state in self.lb.transitions:
            engine.trace(self.name, f"path_{state}", None, None,
                         f"path={pid}")
        self.lb.transitions.clear()

    def on_frame(self, engine: Engine, port, frame: Frame):
        payload = frame.payload
        if port == "front":
            self._from_front(engine, frame, payload)
        else:
            self._from_back(engine, port, frame, payload)

    def _from_front(self, engine: Engine, frame: Frame, payload):
        if isinstance(payload, Arp):
            up = self.lb.up
            owner = self.lb.dest_override.get(payload.target_ip)
            pid = owner if owner in up else (up[0] if up else None)
            if pid is None:
                engine.metrics.drop(self.name, "unavailable")
                return
            engine.send(self.name, pid, frame)
            return
        if not isinstance(payload, Packet):
            engine.metrics.frames_filtered += 1
            return
        key = payload.key
        try:
            pid = self.lb.dispatch(key, payload.dst_ip)
        except Unavailable:
            engine.metrics.unavailable += 1
            engine.metrics.drop(self.name, "unavailable")
            engine.trace(self.name, "drop", None, key, "unavailable")
            return
        if engine.trace_enabled:
            engine.trace(self.name, "tx", None, key, f"dispatch path={pid}")
        engine.send(self.name, pid, frame)

    def _from_back(self, engine: Engine, port, frame: Frame, payload):
        if isinstance(payload, Packet) and payload.protocol == "probe" \
                and payload.dst_ip == self.ip:
            meta = payload.meta
            if meta and meta[0] == "probe" and meta[2] == "req":
                reply = Packet(src_ip=self.ip, dst_ip=payload.src_ip,
                               protocol="probe",
                               meta=("probe", self.name, "rep", meta[3]))
                engine.send(self.name, port,
                            make_frame(self.mac, BROADCAST, reply))
            elif meta and meta[0] == "probe" and meta[2] == "rep":
                engine.trace(self.name, "probe", None, payload.key,
                             f"reply path={port}")
                self.lb.on_probe_reply(port, engine.now)
                self._drain_transitions(engine)
            return
        engine.send(self.name, "front", frame)

    def reset_dynamic(self):
        self.lb.reset_dynamic()
