import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from netfab.l3 import (DEFAULT_ZONE_POLICY, DuplicateVid, L3Error,
                       OverlappingSubnet, Route, VlanInterface, ZoneRouter)
from netfab.packet import Packet, ip_addr, ip_network


def make_router():
    r = ZoneRouter()
    r.add_interface(VlanInterface(10, ip_addr("10.0.10.1"), 24, "dmz"))
    r.add_interface(VlanInterface(20, ip_addr("192.0.2.1"), 24, "public"))
    r.add_interface(VlanInterface(30, ip_addr("10.0.30.1"), 24, "clean"))
    return r


def pkt(src, dst, proto="tcp", sport=4000, dport=80, ttl=64):
    kwargs = {}
    if proto in ("icmp", "probe"):
        sport = dport = 0
    return Packet(src_ip=ip_addr(src), dst_ip=ip_addr(dst), protocol=proto,
                  src_port=sport, dst_port=dport, ttl=ttl)


class TestInterfaces:
    def test_sixty_six_interfaces(self):
        r = ZoneRouter()
        for k in range(1, 67):
            r.add_interface(VlanInterface(
                k, ip_addr(f"10.{k // 256}.{k % 256}.1"), 24, "dmz"))
        assert len(r.interfaces) == 66

    def test_duplicate_vid(self):
        r = ZoneRouter()
        r.add_interface(VlanInterface(5, ip_addr("10.0.5.1"), 24, "dmz"))
        with pytest.raises(DuplicateVid):
            r.add_interface(VlanInterface(5, ip_addr("10.0.6.1"), 24, "dmz"))

    def test_overlapping_subnet(self):
        r = ZoneRouter()
        r.add_interface(VlanInterface(1, ip_addr("10.0.1.1"), 24, "dmz"))
        with pytest.raises(OverlappingSubnet):
            r.add_interface(VlanInterface(2, ip_addr("10.0.1.129"), 25, "dmz"))

    @pytest.mark.parametrize("subnet", ["10.0.0.0/16", "10.0.1.0/24"])
    def test_new_subnet_holding_an_old_one(self, subnet):
        """A new subnet that holds an older interface's address overlaps
        it, as an equal one does, and the error names that VID."""
        r = ZoneRouter()
        r.add_interface(VlanInterface(1, ip_addr("10.1.0.1"), 16, "dmz"))
        r.add_interface(VlanInterface(2, ip_addr("10.0.1.1"), 24, "dmz"))
        net, plen = ip_network(subnet)
        with pytest.raises(OverlappingSubnet,
                           match=f"^{subnet} overlaps vid 2$"):
            r.add_interface(VlanInterface(3, net + 9, plen, "dmz"))

    def test_port_with_two_interfaces(self):
        r = ZoneRouter()
        r.add_interface(VlanInterface(1, ip_addr("10.0.1.1"), 24, "dmz",
                                      port="fw"))
        with pytest.raises(L3Error, match="^port 'fw' already has vid 1$"):
            r.add_interface(VlanInterface(2, ip_addr("10.0.2.1"), 24, "dmz",
                                          port="fw"))
        assert r.ports == {"fw": r.interfaces[1]} and 2 not in r.interfaces


class TestRouteLookup:
    def test_longest_prefix_wins(self):
        r = ZoneRouter()
        r.add_interface(VlanInterface(1, ip_addr("172.16.0.1"), 30, "dmz"))
        net_a, len_a = ip_network("10.0.0.0/16")
        net_b, len_b = ip_network("10.0.1.0/24")
        r.add_route(Route(net_a, len_a, gateway=ip_addr("172.16.0.2")))
        r.add_route(Route(net_b, len_b, via_vid=1))
        assert r.route_lookup(ip_addr("10.0.1.7")).prefix_len == 24
        assert r.route_lookup(ip_addr("10.0.2.7")).prefix_len == 16

    def test_gateway_route_bound_to_its_interface_at_insert(self):
        r = make_router()
        gw = ip_addr("192.0.2.254")
        net, plen = ip_network("198.51.100.0/24")
        route = r.add_route(Route(net, plen, gateway=gw))
        assert route == Route(net, plen, via_vid=20, gateway=gw)
        assert r.route_lookup(ip_addr("198.51.100.7")) is route
        p = pkt("10.0.30.5", "198.51.100.7")
        assert r.forward(p, 30, 0) == (
            "forward", 20, gw, dataclasses.replace(p, ttl=63))

    def test_gateway_on_no_subnet_refused_at_insert(self):
        r = make_router()
        net, plen = ip_network("198.51.100.0/24")
        with pytest.raises(
                L3Error, match="^gateway 203.0.113.1 not on any attached subnet$"):
            r.add_route(Route(net, plen, gateway=ip_addr("203.0.113.1")))
        assert r.route_lookup(ip_addr("198.51.100.7")) is None

    def test_no_route(self):
        r = make_router()
        assert r.route_lookup(ip_addr("203.0.113.1")) is None

    def test_order_invariant(self):
        routes = [("10.0.0.0", 8), ("10.128.0.0", 9), ("10.129.0.0", 16),
                  ("10.129.4.0", 24)]
        probes = ["10.129.4.9", "10.129.9.9", "10.200.1.1", "10.1.1.1"]
        results = set()
        for perm in itertools.permutations(routes):
            r = ZoneRouter()
            r.add_interface(VlanInterface(1, ip_addr("172.16.0.1"), 30, "dmz"))
            for net, plen in perm:
                r.add_route(Route(ip_addr(net), plen,
                                  gateway=ip_addr("172.16.0.2")))
            results.add(tuple(r.route_lookup(ip_addr(p)).prefix_len for p in probes))
        assert len(results) == 1


class TestZonePolicy:
    def test_table_total_default_deny(self):
        for zf in ("clean", "dmz", "public"):
            for zt in ("clean", "dmz", "public"):
                assert DEFAULT_ZONE_POLICY[zf, zt] in ("permit", "deny-new")

    def test_default_policy_is_read_only(self):
        """Every router and firewall given no policy shares the default
        table, so no one of them may change it for the others."""
        with pytest.raises(TypeError):
            DEFAULT_ZONE_POLICY["public", "clean"] = "permit"
        with pytest.raises(TypeError):
            del DEFAULT_ZONE_POLICY["clean", "dmz"]
        assert DEFAULT_ZONE_POLICY["public", "clean"] == "deny-new"

    def test_public_to_dmz_denied(self):
        r = make_router()
        res = r.forward(pkt("192.0.2.50", "10.0.10.5"), ingress_vid=20, now=0)
        assert res == ("drop", "acl")

    def test_established_reply_permitted(self):
        r = make_router()
        out = r.forward(pkt("10.0.10.5", "192.0.2.50"), ingress_vid=10, now=0)
        assert out[0] == "forward" and out[1] == 20
        reply = pkt("192.0.2.50", "10.0.10.5", sport=80, dport=4000)
        back = r.forward(reply, ingress_vid=20, now=1_000_000)
        assert back[0] == "forward" and back[1] == 10

    def test_dmz_to_clean_denied(self):
        r = make_router()
        assert r.forward(pkt("10.0.10.5", "10.0.30.5"), 10, 0) == ("drop", "acl")

    def test_clean_to_dmz_permitted(self):
        r = make_router()
        assert r.forward(pkt("10.0.30.5", "10.0.10.5"), 30, 0)[0] == "forward"

    def test_reply_after_timeout_denied(self):
        r = make_router()
        r.forward(pkt("10.0.10.5", "192.0.2.50"), 10, 0)
        reply = pkt("192.0.2.50", "10.0.10.5", sport=80, dport=4000)
        # idle for exactly the 600 s timeout is still established
        assert r.forward(reply, 20, 600_000_000)[0] == "forward"
        assert r.forward(reply, 20, 600_000_001) == ("drop", "acl")
        late = 601_000_000
        assert r.forward(reply, 20, late) == ("drop", "acl")


class TestForward:
    def test_no_route_drop(self):
        r = make_router()
        assert r.forward(pkt("10.0.10.5", "203.0.113.9"), 10, 0) == ("drop", "no-route")

    def test_ttl_decrement_and_drop(self):
        r = make_router()
        out = r.forward(pkt("10.0.10.5", "192.0.2.50"), 10, 0)
        assert out[3].ttl == 63
        assert r.forward(pkt("10.0.10.5", "192.0.2.50", ttl=1), 10, 0) == ("drop", "ttl")

    def test_single_emission(self):
        r = make_router()
        out = r.forward(pkt("10.0.10.5", "192.0.2.50"), 10, 0)
        assert out[0] == "forward"  # exactly one (vid, packet), never a flood


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32),
                          st.sampled_from(["172.16.0.2", "172.16.0.3"])),
                min_size=1, max_size=8)
       .map(lambda specs: specs + [(net, plen, "172.16.0.3")
                                   for net, plen, _ in specs[::2]]),
       st.integers(0, 2**32 - 1))
def test_lpm_matches_linear_scan(route_specs, probe):
    from netfab.packet import prefix_mask, in_network
    r = ZoneRouter()
    r.add_interface(VlanInterface(1, ip_addr("172.16.0.1"), 30, "dmz"))
    # connected first, then routes in insertion order; a longer prefix
    # replaces the best so far, and an equal one, which would never take
    # effect, is refused
    best = Route(prefix=ip_addr("172.16.0.0"), prefix_len=30, via_vid=1)
    if not in_network(probe, best.prefix, 30):
        best = None
    installed = {(ip_addr("172.16.0.0"), 30)}
    for net, plen, gw in route_specs:
        net &= prefix_mask(plen)
        if (net, plen) in installed:
            with pytest.raises(L3Error, match="never takes effect"):
                r.add_route(Route(net, plen, gateway=ip_addr(gw)))
            continue
        installed.add((net, plen))
        route = r.add_route(Route(net, plen, gateway=ip_addr(gw)))
        if in_network(probe, net, plen) and (best is None
                                             or plen > best.prefix_len):
            best = route
    assert r.route_lookup(probe) == best


def test_route_prefix_with_host_bits_matches():
    r = ZoneRouter()
    r.add_interface(VlanInterface(1, ip_addr("172.16.0.1"), 30, "dmz"))
    route = r.add_route(Route(ip_addr("10.1.2.3"), 16,
                              gateway=ip_addr("172.16.0.2")))
    assert r.route_lookup(ip_addr("10.1.9.9")) == route


def test_forward_copies_packet_with_ttl_one_less():
    r = make_router()
    p = Packet(src_ip=ip_addr("10.0.30.5"), dst_ip=ip_addr("10.0.10.5"),
               protocol="udp", src_port=5000, dst_port=53, payload_bytes=100,
               ttl=9, meta=("cbr", "f1"))
    before = dataclasses.replace(p)
    verdict, vid, next_hop, out = r.forward(p, ingress_vid=30, now=0)
    assert (verdict, vid, next_hop) == ("forward", 10, None)
    assert out is not p
    assert out == dataclasses.replace(p, ttl=8)
    assert hash(out) == hash(dataclasses.replace(p, ttl=8))
    assert p == before and p.ttl == 9
