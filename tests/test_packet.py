import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from conftest import classify_dst
from netfab.packet import (AlreadyTagged, Arp, BROADCAST, Frame, InvalidVid,
                           NotTagged, Packet, PrefixTable, flow_key,
                           frame_flow_key, in_network, ip_addr, ip_network,
                           ip_str, make_frame, node_mac, pop_tag,
                           prefix_mask, push_tag)

SRC, DST = bytes.fromhex("00104b000001"), bytes.fromhex("00104b000002")


def untagged(size=64):
    return Frame(src=SRC, dst=DST, payload=size - 18, size_bytes=size)


class TestTagging:
    def test_push_tag_adds_four_bytes(self):
        f = push_tag(untagged(64), vid=5)
        assert f.size_bytes == 68
        assert f.tag == 5

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

    def test_checked_frame_rejects_invalid_tag(self):
        for vid in (0, 4095):
            with pytest.raises(InvalidVid):
                Frame(src=SRC, dst=DST, payload=50, size_bytes=68, tag=vid)

    def test_pop_untagged_rejected(self):
        with pytest.raises(NotTagged):
            pop_tag(untagged())

    def test_pop_max_size(self):
        f = push_tag(untagged(1518), vid=9)
        assert f.size_bytes == 1522
        back, _ = pop_tag(f)
        assert back.size_bytes == 1518

    @given(st.integers(min_value=1, max_value=4094),
           st.integers(min_value=64, max_value=1518))
    def test_push_pop_property(self, vid, size):
        orig = untagged(size)
        tagged = push_tag(orig, vid=vid)
        assert 64 <= tagged.size_bytes <= 1522
        back, got = pop_tag(tagged)
        assert back == orig and got == vid


class TestClassify:
    def test_broadcast(self):
        f = Frame(src=SRC, dst=BROADCAST,
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "broadcast"

    def test_multicast(self):
        f = Frame(src=SRC, dst=bytes.fromhex("01005e000001"),
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "multicast"

    def test_unicast(self):
        f = Frame(src=SRC, dst=bytes.fromhex("00104baabbcc"),
                  payload=46, size_bytes=64)
        assert classify_dst(f) == "unicast"

    @given(st.binary(min_size=6, max_size=6))
    def test_partition(self, raw):
        f = Frame(src=SRC, dst=raw,
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
            Packet(src_ip=1, dst_ip=2, protocol="probe", src_port=5)


class TestFrameBounds:
    def test_undersize_rejected(self):
        with pytest.raises(ValueError):
            untagged(63)

    def test_oversize_untagged_rejected(self):
        with pytest.raises(ValueError):
            untagged(1519)

    @pytest.mark.parametrize("n", [0, 5, 7])
    def test_length_other_than_six_rejected(self, n):
        with pytest.raises(ValueError):
            Frame(src=bytes(n), dst=BROADCAST, payload=46, size_bytes=64)
        with pytest.raises(ValueError):
            Frame(src=BROADCAST, dst=bytes(n), payload=46, size_bytes=64)

    def test_make_frame_pads_to_minimum(self):
        p = Packet(src_ip=1, dst_ip=2, protocol="icmp")
        f = make_frame(SRC, DST, p)
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


# parts of dotted-quad text: canonical octets, numbers past 255, leading
# zeros, signs, whitespace, non-ASCII digits, empty parts and stray text
octet_texts = st.one_of(
    st.integers(0, 255).map(str),
    st.integers(0, 999).map(str),
    st.builds("{}{}".format, st.sampled_from(["0", "00", "000"]),
              st.integers(0, 255)),
    st.builds("{}{}".format, st.sampled_from(["+", "-", " ", "\t"]),
              st.integers(0, 255)),
    st.builds("{}{}".format, st.integers(0, 255), st.sampled_from(
        [" ", "\n", "/24", "x"])),
    st.text(st.sampled_from("0123456789١٣１²⅕"),
            min_size=1, max_size=3),
    st.text(max_size=3),
)
dotted_texts = st.one_of(
    st.lists(octet_texts, min_size=3, max_size=5).map(".".join),
    st.lists(st.integers(0, 255).map(str), min_size=3, max_size=5)
    .map(".".join),
    st.text(max_size=16),
)


def ipaddress_value(text: str):
    """The reference: ipaddress's int for text, or None when it refuses."""
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError:
        return None


@settings(max_examples=500)
@given(dotted_texts)
def test_ip_addr_accepts_what_ipaddress_accepts(text):
    want = ipaddress_value(text)
    if want is None:
        with pytest.raises(ValueError):
            ip_addr(text)
    else:
        assert ip_addr(text) == want


@given(st.one_of(st.integers(0, 2**32 - 1),
                 st.sampled_from([0, 1, 255, 256, 2**24, 2**32 - 1])))
def test_ip_str_matches_ipaddress(addr):
    text = ip_str(addr)
    assert text == str(ipaddress.IPv4Address(addr))
    assert ip_addr(text) == addr


@pytest.mark.parametrize("addr", [-1, 2**32])
def test_ip_str_refuses_out_of_range(addr):
    with pytest.raises(ValueError):
        ipaddress.IPv4Address(addr)
    with pytest.raises(ValueError):
        ip_str(addr)


@given(dotted_texts, st.one_of(st.integers(0, 32).map(str), octet_texts))
def test_ip_network_agrees_with_ipaddress(addr, plen):
    """Every "a.b.c.d/len" ip_network reads, ipaddress reads the same, and
    it reads every canonical one."""
    text = f"{addr}/{plen}"
    try:
        got = ip_network(text)
    except ValueError:
        assert ipaddress_value(addr) is None or plen not in map(str, range(33))
        return
    net = ipaddress.IPv4Network(text, strict=False)
    assert got == (int(net.network_address), net.prefixlen)


class TestMacAddressValue:
    def test_flags(self):
        """The group bit is bit 0 of the first octet; a node's own address
        is unicast and locally administered."""
        assert BROADCAST == b"\xff" * 6 and BROADCAST[0] & 1
        assert len(node_mac("h1")) == 6 and node_mac("h1")[0] == 0x02


def test_non_ip_flow_key_from_low_mac_octets():
    """A frame without an IP packet hashes on the last four octets of each
    MAC address."""
    f = make_frame(bytes.fromhex("02aa01020304"),
                   bytes.fromhex("02bb0a0b0c0d"), 46)
    assert frame_flow_key(f) == (0x01020304, 0x0a0b0c0d, "icmp", 0, 0)


class TestLeanConstructors:
    src, dst = SRC, DST

    def test_make_frame_untagged_limit(self):
        assert make_frame(self.src, self.dst, 1500).size_bytes == 1518
        with pytest.raises(ValueError):
            make_frame(self.src, self.dst, 1501)

    def test_make_frame_tagged_limit(self):
        tag = 10
        assert make_frame(self.src, self.dst, 1500, tag).size_bytes == 1522
        for payload in (1501, 1505):
            with pytest.raises(ValueError):
                make_frame(self.src, self.dst, payload, tag)

    def test_make_frame_minimum(self):
        assert make_frame(self.src, self.dst, 0).size_bytes == 64
        assert make_frame(self.src, self.dst, 0, 10).size_bytes == 68
        arp = Arp("request", 1, self.src, 2)
        assert make_frame(self.src, BROADCAST, arp).size_bytes == 64

    @given(st.integers(0, 1500), st.booleans())
    def test_make_frame_equals_checked_frame(self, n, tagged):
        tag = 7 if tagged else None
        p = Packet(src_ip=1, dst_ip=2, protocol="udp", src_port=5,
                   dst_port=6, payload_bytes=max(0, n - 40))
        for payload, payload_bytes in ((n, n), (p, p.size)):
            size = max(64, payload_bytes + 18) + (4 if tagged else 0)
            if size > (1522 if tagged else 1518):
                continue
            got = make_frame(self.src, self.dst, payload, tag)
            want = Frame(self.src, self.dst, payload, size, tag)
            assert got == want and hash(got) == hash(want)
