import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from netfab.engine import Engine, FirewallNode, FirewallSide, HostNode
from netfab.firewall import (FIRST_NAT_PORT, Firewall, NoScope,
                             PoolExhausted, PortAllocator, Shaper)
from netfab.packet import (FlowKey, Packet, PORTLESS_PROTOCOLS, PROTOCOLS,
                           flow_key, ip_addr, ip_network, make_frame,
                           packet_copy)
from netfab.scenario import build_engine, parse_scenario, validate_scenario
from test_acceptance import FIREWALL_RIG


def out_pkt(src, sport, dst="192.0.2.9", dport=80, proto="tcp"):
    if proto in PORTLESS_PROTOCOLS:
        sport = dport = 0
    return Packet(src_ip=ip_addr(src), dst_ip=ip_addr(dst), protocol=proto,
                  src_port=sport, dst_port=dport, payload_bytes=100)


def default_fw(capacity=1024):
    fw = Firewall(nat_capacity=capacity)
    net, plen = ip_network("0.0.0.0/0")
    fw.add_scope(net, plen, ip_addr("203.0.113.1"))
    return fw


class TestMasqueradeOut:
    def test_first_allocation(self):
        fw = default_fw()
        got = fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        assert (got.src_ip, got.src_port) == (ip_addr("203.0.113.1"), 1024)
        assert (got.dst_ip, got.dst_port) == (ip_addr("192.0.2.9"), 80)

    def test_second_flow_next_port(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        got = fw.masquerade_out(out_pkt("10.1.1.5", 4001), now=0)
        assert got.src_port == 1025

    def test_same_flow_reuses_binding(self):
        fw = default_fw()
        a = fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        b = fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=5)
        assert a.src_port == b.src_port
        assert fw.nat_size() == 1

    def test_destination_selects_scope(self):
        fw = Firewall()
        net_a, len_a = ip_network("198.51.100.0/24")
        net_b, len_b = ip_network("0.0.0.0/0")
        fw.add_scope(net_a, len_a, ip_addr("203.0.113.10"))
        fw.add_scope(net_b, len_b, ip_addr("203.0.113.20"))
        got = fw.masquerade_out(out_pkt("10.1.1.5", 4000, dst="198.51.100.7"),
                                now=0)
        assert got.src_ip == ip_addr("203.0.113.10")
        other = fw.masquerade_out(out_pkt("10.1.1.5", 4000, dst="192.0.2.9"),
                                  now=0)
        assert other.src_ip == ip_addr("203.0.113.20")

    def test_equal_prefix_first_scope_wins(self):
        fw = Firewall()
        net, plen = ip_network("198.51.100.0/24")
        fw.add_scope(net, plen, ip_addr("203.0.113.10"))
        fw.add_scope(net, plen, ip_addr("203.0.113.20"))
        got = fw.masquerade_out(out_pkt("10.1.1.5", 4000, dst="198.51.100.7"),
                                now=0)
        assert got.src_ip == ip_addr("203.0.113.10")

    def test_no_scope(self):
        fw = Firewall()
        net, plen = ip_network("198.51.100.0/24")
        fw.add_scope(net, plen, ip_addr("203.0.113.10"))
        with pytest.raises(NoScope):
            fw.masquerade_out(out_pkt("10.1.1.5", 4000, dst="192.0.2.9"), now=0)

    def test_capacity_exhausted(self):
        fw = default_fw(capacity=2)
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        fw.masquerade_out(out_pkt("10.1.1.6", 4000), now=0)
        with pytest.raises(PoolExhausted):
            fw.masquerade_out(out_pkt("10.1.1.7", 4000), now=0)

    def test_echo_identifier_translated_like_a_port(self):
        """Two inside hosts ping one remote through one scope: each echo's
        identifier gets its own outside value, and each reply, whose ports
        are the request's swapped, goes back to its own host."""
        fw = default_fw()
        outs = [fw.masquerade_out(out_pkt(src, 0, proto="icmp", dport=0),
                                  now=0) for src in ("10.1.1.5", "10.1.1.6")]
        assert [o.src_port for o in outs] == [1024, 1025]
        for src, out in zip(("10.1.1.5", "10.1.1.6"), outs):
            reply = Packet(src_ip=out.dst_ip, dst_ip=out.src_ip,
                           protocol="icmp", src_port=out.dst_port,
                           dst_port=out.src_port)
            back = fw.masquerade_in(reply, now=1)
            assert (back.dst_ip, back.dst_port) == (ip_addr(src), 0)


class TestMasqueradeIn:
    def test_reply_reverse_translates(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        reply = Packet(src_ip=ip_addr("192.0.2.9"), dst_ip=ip_addr("203.0.113.1"),
                       protocol="tcp", src_port=80, dst_port=1024)
        back = fw.masquerade_in(reply, now=1)
        assert (back.dst_ip, back.dst_port) == (ip_addr("10.1.1.5"), 4000)

    def test_unsolicited_dropped(self):
        fw = default_fw()
        stray = Packet(src_ip=ip_addr("192.0.2.9"), dst_ip=ip_addr("203.0.113.1"),
                       protocol="tcp", src_port=80, dst_port=5000)
        assert fw.masquerade_in(stray, now=0) is None

    def test_reply_after_expiry_dropped(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        reply = Packet(src_ip=ip_addr("192.0.2.9"), dst_ip=ip_addr("203.0.113.1"),
                       protocol="tcp", src_port=80, dst_port=1024)
        assert fw.masquerade_in(reply, now=601_000_000) is None


def test_side_route_longer_than_connected_subnet_wins():
    outside = FirewallSide(ip=ip_addr("192.0.2.1"), prefix_len=24,
                           gw=ip_addr("192.0.2.254"),
                           routes=[(ip_addr("192.0.2.128"), 25,
                                    ip_addr("192.0.2.2"))])
    node = FirewallNode(Engine(), "fw", Firewall(),
                        FirewallSide(), outside, cap_bps=10**9)
    next_hop = node.outside.next_hops.lookup
    assert next_hop(ip_addr("192.0.2.200")) == ip_addr("192.0.2.2")
    assert next_hop(ip_addr("192.0.2.7")) is None  # on-link
    assert next_hop(ip_addr("198.51.100.1")) == ip_addr("192.0.2.254")


@pytest.mark.parametrize("from_side, zones, dropped", [
    ("inside", True, 1), ("inside", False, 0),
    ("outside", True, 1), ("outside", False, 1)])
def test_zone_check_gates_outbound_only_with_zones_on(from_side, zones,
                                                       dropped):
    """A new flow from the public side to the dmz side is deny-new: zones=on
    gates outbound flows, and routed inbound flows are always checked."""
    near, far = ip_addr("10.0.0.2"), ip_addr("198.18.0.9")
    inside_zone, outside_zone = (("public", "dmz") if from_side == "inside"
                                 else ("dmz", "public"))
    eng = Engine()
    node = FirewallNode(
        eng, "fw", Firewall(),
        FirewallSide(ip=ip_addr("10.0.0.1"), zone=inside_zone),
        FirewallSide(ip=ip_addr("198.18.0.1"), zone=outside_zone),
        cap_bps=10**9, enforce_zones=zones)
    src, dst = (near, far) if from_side == "inside" else (far, near)
    pkt = Packet(src_ip=src, dst_ip=dst, protocol="tcp", src_port=40_000,
                 dst_port=80)
    node.on_frame(eng, from_side, make_frame(b"\x02" + bytes(5), node.mac, pkt))
    assert eng.metrics.drops[("fw", "acl")] == dropped


class TestSweep:
    def test_idle_removed_strict(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        fw.sweep_expired(now=600_000_000)
        assert fw.nat_size() == 1
        fw.sweep_expired(now=600_000_001)
        assert fw.nat_size() == 0
        fw.sweep_expired(now=601_000_000)
        assert fw.nat_size() == 0

    @pytest.mark.parametrize("at, kept", [(600_000_000, True),
                                          (600_000_001, False)])
    def test_reply_at_the_idle_edge(self, at, kept):
        """A binding idle for exactly the 600 s timeout still translates;
        one microsecond more and it is gone, as the sweep does."""
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        reply = Packet(src_ip=ip_addr("192.0.2.9"),
                       dst_ip=ip_addr("203.0.113.1"), protocol="tcp",
                       src_port=80, dst_port=1024)
        assert (fw.masquerade_in(reply, now=at) is not None) == kept
        assert fw.nat_size() == int(kept)

    def test_empty_noop(self):
        fw = default_fw()
        fw.sweep_expired(now=10**9)
        assert fw.nat_size() == 0

    def test_port_reused_after_expiry(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        fw.sweep_expired(now=601_000_000)
        got = fw.masquerade_out(out_pkt("10.1.1.6", 5000), now=601_000_000)
        assert got.src_port == 1024


class TestBijection:
    def test_64_flows_distinct_and_reversible(self):
        fw = default_fw(capacity=64)
        outside = set()
        for i in range(64):
            src = f"10.1.{i // 200 + 1}.{i % 200 + 2}"
            got = fw.masquerade_out(out_pkt(src, 4000 + i), now=0)
            outside.add((got.src_ip, got.src_port))
        assert len(outside) == 64
        for i in range(64):
            src = f"10.1.{i // 200 + 1}.{i % 200 + 2}"
            reply = Packet(src_ip=ip_addr("192.0.2.9"),
                           dst_ip=ip_addr("203.0.113.1"), protocol="tcp",
                           src_port=80, dst_port=1024 + i)
            back = fw.masquerade_in(reply, now=1)
            assert (back.dst_ip, back.dst_port) == (ip_addr(src), 4000 + i)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 250), st.integers(1024, 60000)),
                    min_size=1, max_size=60,
                    unique_by=lambda t: t))
    def test_injective_both_ways(self, flows):
        fw = default_fw()
        seen_out = {}
        for host, sport in flows:
            p = out_pkt(f"10.1.1.{host}", sport)
            got = fw.masquerade_out(p, now=0)
            key = (got.src_ip, got.src_port)
            assert key not in seen_out
            seen_out[key] = (p.src_ip, p.src_port)
        for (oip, oport), inside in seen_out.items():
            reply = Packet(src_ip=ip_addr("192.0.2.9"), dst_ip=oip,
                           protocol="tcp", src_port=80, dst_port=oport)
            back = fw.masquerade_in(reply, now=1)
            assert (back.dst_ip, back.dst_port) == inside


def test_freed_ports_come_back_lowest_first_then_fresh_ones():
    ports = PortAllocator()
    taken = [ports.allocate() for _ in range(5)]
    assert taken == list(range(FIRST_NAT_PORT, FIRST_NAT_PORT + 5))
    for port in (taken[3], taken[1], taken[2]):
        ports.release(port)
    assert [ports.allocate() for _ in range(4)] == [*taken[1:4],
                                                    FIRST_NAT_PORT + 5]


class TestShaper:
    def test_saturating_release_matches_cap(self):
        shaper = Shaper(cap_bps=170_000_000)
        released_bytes = 0
        interval = 1_000  # 1 ms ticks over 10 s
        offered_per_tick = 1_000_000_000 * interval // 8_000_000  # 1 Gbps
        for _ in range(10_000):
            filled = 0
            while filled + 1500 <= offered_per_tick:
                shaper.offer(1500, "pkt")
                filled += 1500
            for _ in shaper.shape():
                released_bytes += 1500
        expect = 170_000_000 * 10 / 8
        assert abs(released_bytes - expect) / expect < 0.02

    def test_under_cap_all_released(self):
        shaper = Shaper(cap_bps=170_000_000)
        for _ in range(10):
            shaper.offer(1500, "pkt")
        out = shaper.shape()
        assert len(out) == 10 and not shaper.queue

    def test_zero_offered(self):
        shaper = Shaper()
        assert shaper.shape() == []

    def test_overflow_drops_newest(self):
        shaper = Shaper()
        for i in range(256):
            assert shaper.offer(100, i)
        assert not shaper.offer(100, "newest")
        assert [i for _, i in shaper.queue] == list(range(256))

    def test_fifo_order(self):
        shaper = Shaper(cap_bps=8_000_000)
        for i in range(5):
            shaper.offer(100, i)
        assert shaper.shape() == [0, 1, 2, 3, 4]

    def test_budget_exact_at_a_cap_of_no_whole_bytes_per_tick(self):
        """At 512,800 bps a tick earns 64.1 B, so 640 ticks earn exactly
        41,024 B: a backlog of 64 B packets releases 641 of them."""
        shaper = Shaper(cap_bps=512_800)
        released = 0
        for _ in range(640):
            while shaper.offer(64, "pkt"):
                pass
            released += len(shaper.shape())
        assert released == 641 == 640 * 512_800 // (64 * 8_000)


@st.composite
def translated_packets(draw):
    """What the NAT translates: tcp and udp, and icmp with its 16-bit echo
    identifier in the port fields. Probes are never translated."""
    protocol = draw(st.sampled_from(sorted(PROTOCOLS - PORTLESS_PROTOCOLS)))
    port = st.integers(0, 65535)
    return Packet(src_ip=draw(st.integers(0, 2**32 - 1)),
                  dst_ip=draw(st.integers(0, 2**32 - 1)), protocol=protocol,
                  src_port=draw(port), dst_port=draw(port),
                  payload_bytes=draw(st.integers(0, 1480)),
                  ttl=draw(st.integers(1, 255)),
                  meta=draw(st.sampled_from(
                      [(), ("cbr", "c"), ("bulk", "b", "data", 9, 90, 18)])))


def checked(p):
    """p built again through Packet's checks."""
    return Packet(p.src_ip, p.dst_ip, p.protocol, p.src_port, p.dst_port,
                  p.payload_bytes, p.ttl, p.meta)


def assert_same_as_checked(p):
    want = checked(p)
    assert p == want and hash(p) == hash(want) and p.size == want.size
    assert p.key == want.key


class TestUncheckedCopies:
    @given(translated_packets())
    def test_nat_and_ttl_copies_equal_checked_packets(self, p):
        fw = default_fw()
        out = fw.masquerade_out(p, now=0)
        assert_same_as_checked(out)
        assert out.src_ip == ip_addr("203.0.113.1")
        assert out.src_port == 1024
        reply = Packet(src_ip=p.dst_ip, dst_ip=out.src_ip, protocol=p.protocol,
                       src_port=p.dst_port, dst_port=out.src_port,
                       payload_bytes=p.payload_bytes, ttl=p.ttl, meta=p.meta)
        back = fw.masquerade_in(reply, now=1)
        assert_same_as_checked(back)
        assert (back.dst_ip, back.dst_port) == (p.src_ip, p.src_port)
        assert (back.ttl, back.meta, back.payload_bytes) == (
            p.ttl, p.meta, p.payload_bytes)
        routed = packet_copy(p, p.src_ip, p.dst_ip, p.src_port, p.dst_port,
                             p.ttl - 1)
        assert_same_as_checked(routed)
        assert routed == dataclasses.replace(p, ttl=p.ttl - 1)

    def test_replace_sets_size(self):
        p = Packet(src_ip=1, dst_ip=2, protocol="udp", payload_bytes=100)
        assert dataclasses.replace(p).size == 140
        assert dataclasses.replace(p, payload_bytes=7).size == 47
        with pytest.raises(ValueError):
            dataclasses.replace(p, size=10)  # set from payload_bytes only

    def test_replace_sets_key(self):
        p = Packet(src_ip=1, dst_ip=2, protocol="udp", src_port=3, dst_port=4)
        assert dataclasses.replace(p, dst_port=5).key == (1, 2, "udp", 3, 5)
        with pytest.raises(ValueError):
            dataclasses.replace(p, key=FlowKey(1, 2, "udp", 3, 4))

    @given(translated_packets())
    def test_nat_and_ttl_copies_carry_their_flow_key(self, p):
        """The key a packet carries is its 5-tuple, also on the unchecked
        copies that NAT and routing make."""
        fw = default_fw()
        out = fw.masquerade_out(p, now=0)
        reply = Packet(src_ip=p.dst_ip, dst_ip=out.src_ip, protocol=p.protocol,
                       src_port=p.dst_port, dst_port=out.src_port)
        back = fw.masquerade_in(reply, now=1)
        routed = packet_copy(p, p.src_ip, p.dst_ip, p.src_port, p.dst_port,
                             p.ttl - 1)
        for q in (p, out, back, routed):
            assert q.key.__class__ is FlowKey
            assert q.key == FlowKey(q.src_ip, q.dst_ip, q.protocol,
                                    q.src_port, q.dst_port)
            assert flow_key(q) is q.key


def test_two_inside_hosts_ping_one_remote():
    """h1 and a second inside host h3 each ping h2 through one masquerade
    scope. With echo bindings keyed by the remote address, h3's first echo
    found h1's binding and was dropped as nat-full for the binding's 600 s
    idle time."""
    text = FIREWALL_RIG.format(duration=4, total=0)
    for old, new in [
            ("ports=h:access:10,f:access:10",
             "ports=h:access:10,h3:access:10,f:access:10"),
            ("name=h2 ", "name=h3 ip=10.0.0.10/24 gw=10.0.0.1 vlan=10\n"
                         "name=h2 "),
            ("a=h2:0 ", "a=h3:0 b=si:h3 bw=1000000000\na=h2:0 "),
            ("kind=bulk src=h1 dst=h2 flow=xfer total=0 sport=40000 "
             "dport=5001", "kind=ping src=h1 dst=h2 flow=p1 count=3\n"
                           "kind=ping src=h3 dst=h2 flow=p3 count=3")]:
        assert old in text
        text = text.replace(old, new)
    cfg = parse_scenario(text)
    validate_scenario(cfg)
    eng = build_engine(cfg)
    eng.run_until(cfg.duration_us)
    for host, fid in (("h1", "p1"), ("h3", "p3")):
        st_ = eng.metrics.flows[fid]
        assert st_.offered_packets == st_.delivered_packets == 3
        assert eng.nodes[host].ping_seen[fid] == 3
        assert st_.completed_at is not None
    assert eng.metrics.drops[("fw", "nat-full")] == 0
    assert eng.nodes["fw"].fw.nat_size() == 2


class TestFirewallRigPath:
    """The criterion 3/4 rig: one backlogged NAT'd transfer through the
    170 Mbps shaper."""

    def test_checks_run_once_per_flow_template_and_one_tick_per_side(
            self, monkeypatch):
        cfg = parse_scenario(FIREWALL_RIG.format(duration=0.2,
                                                 total=2_000_000_000))
        validate_scenario(cfg)
        eng = build_engine(cfg)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(Packet, "__post_init__",
                            counted("checks", Packet.__post_init__))
        for name in ("masquerade_out", "masquerade_in"):
            monkeypatch.setattr(Firewall, name,
                                counted(name, getattr(Firewall, name)))
        send_packet = HostNode.send_packet

        def host_send(host, engine, packets, *args, **kwargs):
            calls["acks"] += sum(p.meta[2] == "ack" for p in packets)
            return send_packet(host, engine, packets, *args, **kwargs)

        monkeypatch.setattr(HostNode, "send_packet", host_send)
        fw = eng.nodes["fw"]
        backlogged = 0
        for t in range(250, cfg.duration_us + 1, 250):
            eng.run_until(t)
            pending = Counter(e[4] for e in eng._heap
                              if e[2] == "shape_tick" and e[3] is fw)
            for side in fw.sides.values():
                assert pending[side] == (1 if side.shaper.queue else 0), (
                    t, side.port)
            backlogged += bool(fw.outside.shaper.queue)
        offered = eng.metrics.flows["xfer"].offered_packets
        assert backlogged > 0
        # every segment and ACK is translated, and none is checked again:
        # the checks run once on the data template and once on the ACK
        # template, however many packets are copied from them
        assert 0 < calls["masquerade_out"] <= offered
        assert 0 < calls["masquerade_in"] <= calls["acks"]
        assert offered > 1_000 and calls["acks"] > 100
        assert calls["checks"] == 2

    def test_recover_of_a_busy_firewall_keeps_one_tick_per_side(self):
        """A recover empties the shaper queues but leaves a pending
        shape_tick queued; the next arrival must not schedule a second one,
        which would double the side's rate."""
        bulk = "kind=bulk src=h1 dst=h2 flow=xfer total=0"
        text = FIREWALL_RIG.format(duration=2.5, total=0)
        assert bulk in text
        text = text.replace(bulk, "kind=cbr src=h1 dst=h2 flow=xfer "
                                  "rate=500000000")
        text += "\n[fault]\nat=1.0001 action=recover target=fw\n"
        cfg = parse_scenario(text)
        validate_scenario(cfg)
        eng = build_engine(cfg)
        fw = eng.nodes["fw"]
        for t in range(1_000_000, 1_010_001, 250):
            eng.run_until(t)
            pending = Counter(e[4] for e in eng._heap
                              if e[2] == "shape_tick" and e[3] is fw)
            for side in fw.sides.values():
                assert pending[side] <= 1, (t, side.port)
                if side.shaper.queue:
                    assert pending[side] == 1, (t, side.port)
        eng.run_until(1_500_000)
        before = eng.metrics.flows["xfer"].delivered_bytes
        eng.run_until(2_500_000)
        mbps = (eng.metrics.flows["xfer"].delivered_bytes - before) * 8 / 1e6
        assert abs(mbps - 170.0) <= 170.0 * 0.01
