import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceSwitch
from netfab.l2 import (FDB_AGING_US, FLOW_CACHE_ENTRIES, InvalidVid,
                       NoLiveMember, PortConfig, Switch, UnknownPort,
                       lag_select)
from netfab.packet import (BROADCAST, Arp, FlowKey, Packet, make_frame,
                           push_tag)

MULTICAST = bytes.fromhex("01005e000001")


def mac(i):
    return bytes([0x00, 0x10, 0x4b, 0, i >> 8, i & 0xFF])


def bcast_frame(src_i):
    return make_frame(mac(src_i), BROADCAST, 46)


def uni_frame(src_i, dst_i):
    return make_frame(mac(src_i), mac(dst_i), 46)


def build_switch(ports):
    """ports: list of (port_id, mode, vid_or_allowed)."""
    sw = Switch("sw")
    for spec in ports:
        pid, mode, v = spec[:3]
        lag = spec[3] if len(spec) > 3 else None
        if mode == "access":
            sw.configure_port(pid, PortConfig("access", vid=v, lag_group=lag))
        else:
            sw.configure_port(pid, PortConfig("trunk", allowed=v,
                                              lag_group=lag))
    return sw


def flood_oracle(ports, ingress_port, vid):
    """Enumeration oracle: every other up member of the VLAN, one per LAG."""
    expected = set()
    groups = set()
    ingress_lag = dict((p[0], p[3] if len(p) > 3 else None) for p in ports)[ingress_port]
    for spec in sorted(ports):
        pid, mode, v = spec[:3]
        lag = spec[3] if len(spec) > 3 else None
        member = v == vid if mode == "access" else vid in v
        if pid == ingress_port or not member:
            continue
        if lag is not None:
            if lag == ingress_lag or lag in groups:
                continue
            groups.add(lag)
        expected.add(pid)
    return expected


class TestIngress:
    def test_broadcast_confined_to_vlan(self):
        ports = [(1, "access", 10), (2, "access", 10), (3, "access", 20),
                 (4, "trunk", {10, 20})]
        sw = build_switch(ports)
        out = sw.ingress(1, bcast_frame(1), now=0)
        got = {p for p, _ in out}
        assert got == flood_oracle(ports, 1, 10) == {2, 4}
        by_port = dict(out)
        assert by_port[2].tag is None
        assert by_port[4].tag is not None and by_port[4].tag == 10

    def test_tagged_frame_shared_on_egress(self):
        """A tagged frame leaves every trunk as the arriving object, and
        every access port gets one shared copy without the 4-byte tag."""
        sw = build_switch([(1, "trunk", {10}), (2, "trunk", {10}),
                           (3, "trunk", {10, 20}), (4, "access", 10),
                           (5, "access", 10)])
        frame = push_tag(bcast_frame(1), vid=10)
        by_port = dict(sw.ingress(1, frame, now=0))
        assert set(by_port) == {2, 3, 4, 5}
        assert by_port[2] is frame and by_port[3] is frame
        assert by_port[4] is by_port[5]
        assert by_port[4].tag is None
        assert by_port[4].size_bytes == frame.size_bytes - 4

    def test_learning_suppresses_flood(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 10)])
        # A at port 1, B at port 2; replay a two-frame learning exchange
        sw.ingress(1, uni_frame(1, 2), now=0)
        sw.ingress(2, uni_frame(2, 1), now=1)
        out = sw.ingress(1, uni_frame(1, 2), now=2)
        assert [p for p, _ in out] == [2]

    def test_disallowed_vid_dropped(self):
        sw = build_switch([(1, "trunk", {10, 20}), (2, "access", 10)])
        f = push_tag(uni_frame(1, 2), vid=30)
        assert sw.ingress(1, f, now=0) is None

    def test_untagged_on_trunk_dropped(self):
        sw = build_switch([(1, "trunk", {10}), (2, "access", 10)])
        assert sw.ingress(1, bcast_frame(1), now=0) is None

    def test_never_emits_on_ingress_port(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        out = sw.ingress(1, bcast_frame(1), now=0)
        assert all(p != 1 for p, _ in out)

    def test_unknown_port_raises(self):
        sw = build_switch([(1, "access", 10)])
        with pytest.raises(UnknownPort):
            sw.ingress(99, bcast_frame(1), now=0)

    def test_numbered_and_named_ports_flood_in_text_order(self):
        """A `[switch]` line may name some ports by number and others by
        name; the switch orders them all by their text."""
        sw = build_switch([("up", "access", 10), (2, "access", 10),
                           (1, "access", 10)])
        assert [p for p, _ in sw.ingress(1, bcast_frame(1), now=0)] == [
            2, "up"]
        assert [p for p, _ in sw.ingress("up", bcast_frame(2), now=1)] == [
            1, 2]

    def test_move_port_without_recabling(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 20)])
        out = sw.ingress(1, bcast_frame(1), now=0)
        assert {p for p, _ in out} == {2}
        sw.configure_port(1, PortConfig("access", vid=20))
        out = sw.ingress(1, bcast_frame(1), now=1)
        assert {p for p, _ in out} == {3}

    def test_configure_purges_stale_fdb(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        assert (10, mac(1)) in sw.fdb
        sw.configure_port(1, PortConfig("access", vid=20))
        assert (10, mac(1)) not in sw.fdb

    def test_purge_keeps_the_vlans_the_port_still_carries(self):
        sw = build_switch([(1, "trunk", {10, 20}), (2, "access", 10),
                           (3, "access", 20)])
        for vid in (10, 20):
            sw.ingress(1, push_tag(uni_frame(1, 2), vid=vid), now=0)
        sw.ingress(2, uni_frame(2, 1), now=1)
        sw.configure_port(1, PortConfig("trunk", allowed={20}))
        assert set(sw.fdb) == {(20, mac(1)), (10, mac(2))}

    def test_group_source_not_learned(self):
        """A group address is never a station, so it is not learned, and a
        frame to it floods even after it has been seen as a source."""
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 10)])
        out = sw.ingress(1, make_frame(MULTICAST, mac(2), 46), now=0)
        assert {p for p, _ in out} == {2, 3}
        assert sw.fdb == {}
        out = sw.ingress(2, make_frame(mac(2), MULTICAST, 46), now=1)
        assert {p for p, _ in out} == {1, 3}
        assert list(sw.fdb) == [(10, mac(2))]

    def test_empty_trunk_rejected(self):
        sw = Switch("sw")
        with pytest.raises(InvalidVid):
            sw.configure_port(1, PortConfig("trunk", allowed=set()))

    @pytest.mark.parametrize("bad", [0, 4095, 10.0, "10"])
    def test_trunk_vid_refused_as_check_vid_refuses_it(self, bad):
        """A float equal to a VID passes a subset test, so the trunk check
        refuses what `check_vid` refuses, with its message."""
        message = f"vid must be in [1, 4094], got {bad!r}"
        with pytest.raises(InvalidVid, match=re.escape(message)):
            PortConfig("trunk", allowed={bad})

    def test_trunk_vids_kept_as_given(self):
        allowed = frozenset({10, 20})
        assert PortConfig("trunk", allowed=allowed).allowed is allowed
        assert PortConfig("trunk", allowed=[20, 10]).vids == allowed


class TestAging:
    def test_aged_out_after_strictly_more(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        sw.age_fdb(now=301_000_000)
        assert sw.fdb == {}

    def test_boundary_retained(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        sw.age_fdb(now=300_000_000)
        assert (10, mac(1)) in sw.fdb

    def test_empty_fdb_noop(self):
        sw = build_switch([(1, "access", 10)])
        sw.age_fdb(now=10**9)
        assert sw.fdb == {}


class TestLagSelect:
    def key(self, rng):
        return FlowKey(rng.getrandbits(32), rng.getrandbits(32), "tcp",
                       rng.getrandbits(16), rng.getrandbits(16))

    def test_single_member(self):
        assert lag_select([7], FlowKey(1, 2, "tcp", 3, 4)) == 7

    def test_deterministic(self):
        k = FlowKey(1, 2, "tcp", 3, 4)
        assert lag_select([3, 5], k) == lag_select([3, 5], k)

    def test_roughly_uniform(self):
        rng = random.Random(1234)
        counts = {3: 0, 5: 0}
        for _ in range(10_000):
            counts[lag_select([3, 5], self.key(rng))] += 1
        assert abs(counts[3] - 5000) <= 500

    def test_member_down_only_remaps_its_flows(self):
        rng = random.Random(99)
        keys = [self.key(rng) for _ in range(2000)]
        full = {k: lag_select([1, 2, 3], k) for k in keys}
        reduced = {k: lag_select([1, 3], k) for k in keys}
        for k in keys:
            if full[k] != 2:
                assert reduced[k] == full[k]

    def test_no_live_member(self):
        with pytest.raises(NoLiveMember):
            lag_select([], FlowKey(1, 2, "tcp", 3, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flood_matches_membership_oracle(data):
    n_ports = data.draw(st.integers(min_value=2, max_value=8))
    ports = []
    for pid in range(1, n_ports + 1):
        if data.draw(st.booleans()):
            ports.append((pid, "access", data.draw(st.integers(1, 5))))
        else:
            allowed = data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=5))
            ports.append((pid, "trunk", allowed))
    sw = build_switch(ports)
    ingress = data.draw(st.sampled_from([p[0] for p in ports]))
    mode = ports[ingress - 1][1]
    if mode == "access":
        vid = ports[ingress - 1][2]
        frame = bcast_frame(1)
    else:
        vid = data.draw(st.sampled_from(sorted(ports[ingress - 1][2])))
        frame = push_tag(bcast_frame(1), vid=vid)
    out = sw.ingress(ingress, frame, now=0)
    assert {p for p, _ in out} == flood_oracle(ports, ingress, vid)
    # tag discipline on every emission
    for p, f in out:
        cfg = sw.ports[p]
        if cfg.mode == "access":
            assert f.tag is None
        else:
            assert f.tag is not None and f.tag == vid


def _port_spec(draw, vids):
    if draw(st.booleans()):
        return "access", {"vid": draw(st.sampled_from(vids))}
    return "trunk", {"allowed": draw(st.sets(st.sampled_from(vids),
                                             min_size=1))}


def _frame(draw, macs, vids):
    src = draw(st.sampled_from(macs + [MULTICAST]))  # never learned
    dst = draw(st.sampled_from(macs + [BROADCAST, MULTICAST]))
    payload = draw(st.one_of(
        st.integers(0, 100),
        st.builds(Packet, src_ip=st.integers(1, 4), dst_ip=st.integers(1, 4),
                  protocol=st.just("udp"), src_port=st.integers(1, 6),
                  dst_port=st.integers(1, 3))))
    frame = make_frame(src, dst, payload)
    if draw(st.booleans()):
        frame = push_tag(frame, draw(st.sampled_from(vids)))
    return frame


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_switch_matches_reference(data):
    """The table-driven switch against the per-frame port scan it replaced:
    the same emissions (port, equal frame, order), the same refusals and
    FDB after every frame, port change, age sweep and reset."""
    draw = data.draw
    vids = [1, 2, 3]
    salt = draw(st.binary(max_size=4))
    sw, ref = Switch("sw", hash_salt=salt), ReferenceSwitch("sw", hash_salt=salt)
    n_ports = draw(st.integers(2, 8))
    # LAG groups of 2-3 ports, not necessarily adjacent in port order
    order = draw(st.permutations(range(1, n_ports + 1)))
    groups = dict.fromkeys(order)
    i = 0
    while i < n_ports:
        size = draw(st.sampled_from([1, 1, 2, 3]))
        if size > 1:
            groups.update(dict.fromkeys(order[i:i + size], f"g{i}"))
        i += size
    for p in range(1, n_ports + 1):
        mode, kw = _port_spec(draw, vids)
        sw.configure_port(p, PortConfig(mode, lag_group=groups[p], **kw))
        ref.configure_port(p, mode, lag_group=groups[p], **kw)
    macs = [mac(i) for i in range(1, 6)]
    now = 0
    for _ in range(draw(st.integers(1, 40))):
        now += draw(st.integers(0, 100_000_000))
        action = draw(st.sampled_from(["frame"] * 6 + ["configure", "up",
                                                       "age", "reset"]))
        port = draw(st.integers(1, n_ports))
        if action == "frame":
            frame = _frame(draw, macs, vids)
            refused = ref.counters[port]["drop_frames"]
            out, ref_out = sw.ingress(port, frame, now), ref.ingress(port, frame, now)
            assert (out is None) == (ref.counters[port]["drop_frames"] > refused)
            assert (out or []) == ref_out
        elif action == "configure":
            mode, kw = _port_spec(draw, vids)
            lag = draw(st.sampled_from([None, "g0", "g9"]))
            sw.configure_port(port, PortConfig(mode, lag_group=lag, **kw))
            ref.configure_port(port, mode, lag_group=lag, **kw)
        elif action == "up":
            up = not ref.ports[port].up
            for s in (sw, ref):
                s.set_port_up(port, up)
        elif action == "age":
            for s in (sw, ref):
                s.age_fdb(now)
        else:
            for s in (sw, ref):
                s.reset_dynamic()
        assert sw.fdb == ref.fdb


class TestFdbRefresh:
    def test_station_seen_again_keeps_one_entry(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        sw.ingress(1, uni_frame(1, 2), now=200_000_000)
        assert list(sw.fdb) == [(10, mac(1))]
        entry = sw.fdb[(10, mac(1))]
        assert (entry.port, entry.last_seen) == (1, 200_000_000)
        sw.age_fdb(now=500_000_000)  # 300 s after the last frame
        assert (10, mac(1)) in sw.fdb
        sw.age_fdb(now=500_000_001)
        assert sw.fdb == {}

    def test_moved_station_relearned_on_new_port(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        sw.ingress(2, uni_frame(1, 2), now=5)
        assert list(sw.fdb) == [(10, mac(1))]
        entry = sw.fdb[(10, mac(1))]
        assert (entry.port, entry.last_seen) == (2, 5)
        out = sw.ingress(3, uni_frame(3, 1), now=6)
        assert [p for p, _ in out] == [2]


class TestFlowCache:
    """A known flow forwards from its cached row exactly as the port
    records would, however the stations, the FDB and the ports change
    under it."""

    def ports_of(self, out):
        return [p for p, _ in out]

    def test_cached_flow_follows_every_change(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 10), (4, "access", 10)])
        sw.ingress(2, bcast_frame(2), now=0)  # station 2 behind port 2
        for t in (1, 2):
            assert self.ports_of(sw.ingress(1, uni_frame(1, 2), now=t)) == [2]
        assert len(sw._flows) == 1
        # a hit refreshes the source's entry as learning does
        assert sw.fdb[(10, mac(1))].last_seen == 2

        # station move: 2 now behind port 3
        sw.ingress(3, bcast_frame(2), now=10)
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2), now=11)) == [3]
        # the source moves: its entry follows it, and back again
        assert self.ports_of(sw.ingress(4, uni_frame(1, 2), now=12)) == [3]
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2), now=13)) == [3]
        assert sw.fdb[(10, mac(1))].port == 1

        # aging: station 2 is forgotten while station 1 keeps sending
        later = 11 + FDB_AGING_US
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2), now=later)) == [3]
        sw.age_fdb(later + 1)
        assert (10, mac(2)) not in sw.fdb
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 2)) == [2, 3, 4]

        # the destination's port goes down, then its VLAN changes
        sw.ingress(3, bcast_frame(2), now=later + 3)
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 4)) == [3]
        sw.set_port_up(3, False)
        assert sw.ingress(1, uni_frame(1, 2), now=later + 5) == []
        sw.set_port_up(3, True)
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 6)) == [3]
        sw.configure_port(3, PortConfig("access", vid=20))
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 7)) == [2, 4]

        # a reset forgets every station
        sw.ingress(2, bcast_frame(2), now=later + 8)
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 9)) == [2]
        sw.reset_dynamic()
        assert sw.fdb == {}
        assert self.ports_of(sw.ingress(1, uni_frame(1, 2),
                                        now=later + 10)) == [2, 4]

    @pytest.mark.parametrize("ingress, egress", [
        (("access", 10), [("access", 10)]),
        (("access", 10), [("trunk", {10, 20})]),
        (("trunk", {10, 20}), [("access", 10)]),
        (("trunk", {10, 20}), [("trunk", {10, 30})]),
        (("access", 10), [("trunk", {10}, "g"), ("trunk", {10}, "g")]),
        (("trunk", {10}), [("trunk", {10}, "g"), ("access", 10, "g")]),
    ], ids=["access-access", "access-trunk", "trunk-access", "trunk-trunk",
            "access-lag", "trunk-lag"])
    @pytest.mark.parametrize("payload", [
        Packet(0x0a000001, 0x0a000002, "udp", 4000, 5001),
        Arp("reply", 0x0a000001, mac(1), 0x0a000002),
    ], ids=["ip", "arp"])
    def test_hit_emits_what_a_miss_emits(self, ingress, egress, payload):
        """A frame leaves a known flow's row as the port records would send
        it: same ports, tags, sizes and payload object, and as the arriving
        frame itself wherever its tag stays."""
        sw = build_switch([(1, *ingress)] + [(p, *spec) for p, spec
                                             in enumerate(egress, start=2)])
        tag = 10 if ingress[0] == "trunk" else None
        station = bcast_frame(2)
        if egress[0][0] == "trunk":
            station = push_tag(station, 10)
        sw.ingress(2, station, now=0)
        frame = make_frame(mac(1), mac(2), payload, tag)

        def emitted(now):
            out = sw.ingress(1, frame, now)
            for _, f in out:
                assert f.payload is payload
                assert (f is frame) == (f.tag == tag)
            return [(p, f.tag, f.size_bytes) for p, f in out]

        made = emitted(1)  # the miss that makes the row
        assert (1, tag, mac(1), mac(2)) in sw._flows
        hit = emitted(2)
        assert sw.fdb[(10, mac(1))].last_seen == 2
        sw._flows.clear()
        assert emitted(3) == hit == made
        assert len(hit) == 1

    def test_table_stays_within_its_bound(self):
        """91 stations on each side make 8281 known flows, more than the
        table holds: a full table starts over and no flow is misforwarded."""
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 10)])
        side = 91
        assert side * side > FLOW_CACHE_ENTRIES
        for i in range(1, 2 * side + 1):
            sw.ingress(1 if i <= side else 2, bcast_frame(i), now=0)
        for i in range(1, side + 1):
            for j in range(side + 1, 2 * side + 1):
                out = sw.ingress(1, uni_frame(i, j), now=1)
                assert self.ports_of(out) == [2]
                assert len(sw._flows) <= FLOW_CACHE_ENTRIES
        assert len(sw._flows) == side * side - FLOW_CACHE_ENTRIES

    def test_lag_memo_stays_within_its_bound(self):
        """More flows than FLOW_CACHE_ENTRIES leave one LAG group: the memo
        of LAG choices starts over when full, and every choice is still the
        one `lag_select` makes."""
        sw = build_switch([(1, "access", 10), (2, "trunk", {10}, "g"),
                           (3, "trunk", {10}, "g"), (4, "trunk", {10}, "g")])
        sw.ingress(2, push_tag(bcast_frame(2), 10), now=0)
        flows = 20_000
        assert flows > FLOW_CACHE_ENTRIES
        for i in range(flows):
            pkt = Packet(0x0a000001, 0x0a000002, "udp", 1 + i, 5001)
            out = sw.ingress(1, make_frame(mac(1), mac(2), pkt), now=1)
            assert self.ports_of(out) == [lag_select([2, 3, 4], pkt.key)]
            assert len(sw._lag_memo) <= FLOW_CACHE_ENTRIES

    def test_station_between_members_of_its_group_has_not_moved(self):
        """A station whose frames arrive on either member of one LAG group
        keeps its entry up to date, frame by frame, and other flows keep
        their rows: it has not moved, because its entry names the group's
        aggregator (IEEE 802.1AX), and either member gives the same egress."""
        sw = build_switch([(1, "trunk", {10}, "g"), (2, "trunk", {10}, "g"),
                           (3, "access", 10), (4, "access", 10)])
        sw.ingress(4, bcast_frame(4), now=0)
        assert self.ports_of(sw.ingress(3, uni_frame(3, 4), now=1)) == [4]
        row = (3, None, mac(3), mac(4))
        assert row in sw._flows
        to_group = None
        for t, member in enumerate((1, 2, 1, 2, 2, 1), start=2):
            tagged = push_tag(uni_frame(1, 3), 10)
            assert self.ports_of(sw.ingress(member, tagged, now=t)) == [3]
            assert (sw.fdb[(10, mac(1))].port,
                    sw.fdb[(10, mac(1))].last_seen) == (("g",), t)
            assert row in sw._flows
            out = self.ports_of(sw.ingress(3, uni_frame(3, 1), now=t))
            assert to_group in (None, out) and out[0] in (1, 2)
            to_group = out
        assert self.ports_of(sw.ingress(3, uni_frame(3, 4), now=9)) == [4]

    def test_no_row_leads_back_into_the_ingress_group(self):
        """Station 2 is learned on member 2 of group g and station 1 sends
        to it from member 1: the group is one bridge port, so the frame is
        filtered from the first frame on, and station 2 showing up on
        member 1 changes nothing."""
        sw = build_switch([(1, "trunk", {10}, "g"), (2, "trunk", {10}, "g"),
                           (3, "access", 10)])
        sw.ingress(2, push_tag(bcast_frame(2), 10), now=0)
        for t in (1, 2):
            assert sw.ingress(1, push_tag(uni_frame(1, 2), 10), now=t) == []
        sw.ingress(1, push_tag(bcast_frame(2), 10), now=3)
        assert sw.ingress(1, push_tag(uni_frame(1, 2), 10), now=4) == []
        assert sw._flows == {}

    def test_known_unicast_never_hairpins_into_its_lag(self):
        """IEEE 802.1D never forwards a frame to its reception port, and
        under IEEE 802.1AX a LAG's aggregator is that port: a frame from
        member 1 to a station learned on member 2 of the same group is
        filtered, not sent out member 2."""
        sw = build_switch([(1, "trunk", {10}, "g"), (2, "trunk", {10}, "g"),
                           (3, "access", 10)])
        sw.ingress(2, push_tag(bcast_frame(2), 10), now=0)
        assert sw.ingress(1, push_tag(uni_frame(1, 2), 10), now=1) == []
        assert sw.fdb[(10, mac(2))].port == ("g",)
