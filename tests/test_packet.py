import pytest
from hypothesis import given, strategies as st

from netfab.packet import (AlreadyTagged, BROADCAST, Frame, InvalidVid,
                           MacAddress, NotTagged, Packet, PrefixTable,
                           classify_dst, flow_key, in_network, ip_addr, ip_str,
                           make_frame, pop_tag, prefix_mask, push_tag)


def mac(text):
    return MacAddress.parse(text)


def untagged(size=64):
    return Frame(src=mac("00:10:4b:00:00:01"), dst=mac("00:10:4b:00:00:02"),
                 payload=size - 18, size_bytes=size)


class TestTagging:
    def test_push_tag_adds_four_bytes(self):
        f = push_tag(untagged(64), vid=5)
        assert f.size_bytes == 68
        assert f.tag.vid == 5
        assert f.tag.tpid == 0x8100

    def test_push_on_tagged_frame_rejected(self):
        f = push_tag(untagged(), vid=5)
        with pytest.raises(AlreadyTagged):
            push_tag(f, vid=7)

    def test_push_invalid_vid(self):
        for vid in (0, 4095, -3):
            with pytest.raises(InvalidVid):
                push_tag(untagged(), vid=vid)

    def test_round_trip_identity(self):
        orig = untagged(100)
        back, vid = pop_tag(push_tag(orig, vid=62))
        assert back == orig
        assert vid == 62

    def test_pop_untagged_rejected(self):
        with pytest.raises(NotTagged):
            pop_tag(untagged())

    def test_pop_max_size(self):
        f = push_tag(untagged(1518), vid=9)
        assert f.size_bytes == 1522
        back, _ = pop_tag(f)
        assert back.size_bytes == 1518

    @given(st.integers(min_value=1, max_value=4094),
           st.integers(min_value=64, max_value=1518),
           st.integers(min_value=0, max_value=7))
    def test_push_pop_property(self, vid, size, pcp):
        orig = untagged(size)
        tagged = push_tag(orig, vid=vid, pcp=pcp)
        assert 64 <= tagged.size_bytes <= 1522
        back, got = pop_tag(tagged)
        assert back == orig and got == vid


class TestClassify:
    def test_broadcast(self):
        f = Frame(src=mac("00:10:4b:00:00:01"), dst=BROADCAST,
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "broadcast"

    def test_multicast(self):
        f = Frame(src=mac("00:10:4b:00:00:01"), dst=mac("01:00:5e:00:00:01"),
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "multicast"

    def test_unicast(self):
        f = Frame(src=mac("00:10:4b:00:00:01"), dst=mac("00:10:4b:aa:bb:cc"),
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "unicast"

    @given(st.binary(min_size=6, max_size=6))
    def test_partition(self, raw):
        f = Frame(src=mac("00:10:4b:00:00:01"), dst=MacAddress(raw),
                  payload=46, size_bytes=64)
        cls = classify_dst(f)
        assert cls in ("unicast", "broadcast", "multicast")
        if raw == b"\xff" * 6:
            assert cls == "broadcast"
        elif raw[0] & 1:
            assert cls == "multicast"
        else:
            assert cls == "unicast"


class TestFlowKey:
    def test_tcp_five_tuple(self):
        p = Packet(src_ip=ip_addr("10.1.1.2"), dst_ip=ip_addr("192.0.2.9"),
                   protocol="tcp", src_port=4000, dst_port=80)
        k = flow_key(p)
        assert (ip_str(k.src_ip), k.src_port, ip_str(k.dst_ip), k.dst_port,
                k.protocol) == ("10.1.1.2", 4000, "192.0.2.9", 80, "tcp")

    def test_icmp_zero_ports(self):
        p = Packet(src_ip=1, dst_ip=2, protocol="icmp")
        assert flow_key(p)[3:] == (0, 0)

    def test_payload_does_not_affect_key(self):
        a = Packet(src_ip=1, dst_ip=2, protocol="udp", src_port=5, dst_port=6,
                   payload_bytes=10)
        b = Packet(src_ip=1, dst_ip=2, protocol="udp", src_port=5, dst_port=6,
                   payload_bytes=999)
        assert flow_key(a) == flow_key(b)

    def test_ports_required_zero_for_portless(self):
        with pytest.raises(ValueError):
            Packet(src_ip=1, dst_ip=2, protocol="icmp", src_port=5)


class TestFrameBounds:
    def test_undersize_rejected(self):
        with pytest.raises(ValueError):
            untagged(63)

    def test_oversize_untagged_rejected(self):
        with pytest.raises(ValueError):
            untagged(1519)

    def test_make_frame_pads_to_minimum(self):
        p = Packet(src_ip=1, dst_ip=2, protocol="icmp")
        f = make_frame(mac("00:10:4b:00:00:01"), mac("00:10:4b:00:00:02"), p)
        assert f.size_bytes == 64


prefixes = st.tuples(st.integers(0, 2**32 - 1),
                     st.one_of(st.sampled_from([0, 32]), st.integers(0, 32)))


@given(st.lists(prefixes, max_size=12)
       .map(lambda entries: entries + entries[::3]),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
def test_prefix_table_matches_linear_scan(entries, probes):
    table = PrefixTable()
    for i, (net, plen) in enumerate(entries):
        table.insert(net, plen, i)
    # probe the inserted prefixes themselves as well as random addresses
    for addr in probes + [net for net, _ in entries]:
        best = None
        for i, (net, plen) in enumerate(entries):
            if in_network(addr, net & prefix_mask(plen), plen) and (
                    best is None or plen > entries[best][1]):
                best = i
        assert table.lookup(addr) == best

