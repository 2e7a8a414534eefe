import pytest
from hypothesis import given, settings, strategies as st

from netfab.engine import Engine, FirewallNode, FirewallSide
from netfab.firewall import (Firewall, NoScope, PoolExhausted, Shaper)
from netfab.packet import MacAddress, Packet, flow_key, ip_addr, ip_network


def out_pkt(src, sport, dst="192.0.2.9", dport=80, proto="tcp"):
    if proto in ("icmp", "probe"):
        sport = dport = 0
    return Packet(src_ip=ip_addr(src), dst_ip=ip_addr(dst), protocol=proto,
                  src_port=sport, dst_port=dport, payload_bytes=100)


def default_fw(capacity=1024):
    fw = Firewall("fw", nat_capacity=capacity)
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
        fw = Firewall("fw")
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
        fw = Firewall("fw")
        net, plen = ip_network("198.51.100.0/24")
        fw.add_scope(net, plen, ip_addr("203.0.113.10"))
        fw.add_scope(net, plen, ip_addr("203.0.113.20"))
        got = fw.masquerade_out(out_pkt("10.1.1.5", 4000, dst="198.51.100.7"),
                                now=0)
        assert got.src_ip == ip_addr("203.0.113.10")

    def test_no_scope(self):
        fw = Firewall("fw")
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
    outside = FirewallSide("outside", ip=ip_addr("192.0.2.1"), prefix_len=24,
                           gw_ip=ip_addr("192.0.2.254"),
                           routes=[(ip_addr("192.0.2.128"), 25,
                                    ip_addr("192.0.2.2"))])
    node = FirewallNode(Engine(), "fw", MacAddress(bytes(6)), Firewall("fw"),
                        FirewallSide("inside"), outside, cap_bps=10**9)
    next_hop = node.next_hops["outside"].lookup
    assert next_hop(ip_addr("192.0.2.200")) == ip_addr("192.0.2.2")
    assert next_hop(ip_addr("192.0.2.7")) is None  # on-link
    assert next_hop(ip_addr("198.51.100.1")) == ip_addr("192.0.2.254")


class TestSweep:
    def test_idle_removed_strict(self):
        fw = default_fw()
        fw.masquerade_out(out_pkt("10.1.1.5", 4000), now=0)
        fw.sweep_expired(now=600_000_000)
        assert fw.nat_size() == 1
        fw.sweep_expired(now=601_000_000)
        assert fw.nat_size() == 0

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


class TestShaper:
    def test_saturating_release_matches_cap(self):
        shaper = Shaper(cap_bps=170_000_000, queue_frames=256)
        released_bytes = 0
        interval = 1_000  # 1 ms ticks over 10 s
        offered_per_tick = 1_000_000_000 * interval // 8_000_000  # 1 Gbps
        now = 0
        for _ in range(10_000):
            filled = 0
            while filled + 1500 <= offered_per_tick:
                shaper.offer(1500, "pkt")
                filled += 1500
            for _ in shaper.shape(now, interval):
                released_bytes += 1500
            now += interval
        expect = 170_000_000 * 10 / 8
        assert abs(released_bytes - expect) / expect < 0.02

    def test_under_cap_all_released(self):
        shaper = Shaper(cap_bps=170_000_000)
        for _ in range(10):
            shaper.offer(1500, "pkt")
        out = shaper.shape(0, 1_000_000)
        assert len(out) == 10 and not shaper.queue

    def test_zero_offered(self):
        shaper = Shaper()
        assert shaper.shape(0, 1_000) == []

    def test_overflow_drops_newest(self):
        shaper = Shaper(queue_frames=2)
        assert shaper.offer(100, "a")
        assert shaper.offer(100, "b")
        assert not shaper.offer(100, "c")
        assert shaper.drops == 1
        assert [i for _, i in shaper.queue] == ["a", "b"]

    def test_fifo_order(self):
        shaper = Shaper(cap_bps=8_000_000)
        for i in range(5):
            shaper.offer(100, i)
        assert shaper.shape(0, 1_000_000) == [0, 1, 2, 3, 4]
