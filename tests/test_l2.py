import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceSwitch
from netfab.l2 import InvalidVid, NoLiveMember, Switch, UnknownPort, lag_select
from netfab.packet import (BROADCAST, FlowKey, MacAddress, Packet, make_frame,
                           push_tag)


def mac(i):
    return MacAddress(bytes([0x00, 0x10, 0x4b, 0, i >> 8, i & 0xFF]))


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
            sw.configure_port(pid, "access", vid=v, lag_group=lag)
        else:
            sw.configure_port(pid, "trunk", allowed=v, lag_group=lag)
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
        assert by_port[4].tag is not None and by_port[4].tag.vid == 10

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
        before = sw.counters[1]["drop_frames"]
        assert sw.ingress(1, f, now=0) == []
        assert sw.counters[1]["drop_frames"] == before + 1

    def test_untagged_on_trunk_dropped(self):
        sw = build_switch([(1, "trunk", {10}), (2, "access", 10)])
        assert sw.ingress(1, bcast_frame(1), now=0) == []

    def test_never_emits_on_ingress_port(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        out = sw.ingress(1, bcast_frame(1), now=0)
        assert all(p != 1 for p, _ in out)

    def test_unknown_port_raises(self):
        sw = build_switch([(1, "access", 10)])
        with pytest.raises(UnknownPort):
            sw.ingress(99, bcast_frame(1), now=0)

    def test_move_port_without_recabling(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10),
                           (3, "access", 20)])
        out = sw.ingress(1, bcast_frame(1), now=0)
        assert {p for p, _ in out} == {2}
        sw.configure_port(1, "access", vid=20)
        out = sw.ingress(1, bcast_frame(1), now=1)
        assert {p for p, _ in out} == {3}

    def test_configure_purges_stale_fdb(self):
        sw = build_switch([(1, "access", 10), (2, "access", 10)])
        sw.ingress(1, uni_frame(1, 2), now=0)
        assert (10, mac(1)) in sw.fdb
        sw.configure_port(1, "access", vid=20)
        assert (10, mac(1)) not in sw.fdb

    def test_empty_trunk_rejected(self):
        sw = Switch("sw")
        with pytest.raises(InvalidVid):
            sw.configure_port(1, "trunk", allowed=set())


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
            assert f.tag is not None and f.tag.vid == vid


def _port_spec(draw, vids):
    if draw(st.booleans()):
        return "access", {"vid": draw(st.sampled_from(vids))}
    return "trunk", {"allowed": draw(st.sets(st.sampled_from(vids),
                                             min_size=1))}


def _frame(draw, macs, vids):
    src = draw(st.sampled_from(macs))
    dst = draw(st.sampled_from(macs + [BROADCAST, MacAddress.parse(
        "01:00:5e:00:00:01")]))
    payload = draw(st.one_of(
        st.integers(0, 100),
        st.builds(Packet, src_ip=st.integers(1, 4), dst_ip=st.integers(1, 4),
                  protocol=st.just("udp"), src_port=st.integers(1, 6),
                  dst_port=st.integers(1, 3))))
    frame = make_frame(src, dst, payload)
    if draw(st.booleans()):
        frame = push_tag(frame, draw(st.sampled_from(vids)),
                         pcp=draw(st.sampled_from([0, 0, 0, 5])))
    return frame


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_switch_matches_reference(data):
    """The table-driven switch against the per-frame port scan it replaced:
    the same emissions (port, equal frame, order), counters and FDB after
    every frame, port change and age sweep."""
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
        for s in (sw, ref):
            s.configure_port(p, mode, lag_group=groups[p], **kw)
    macs = [mac(i) for i in range(1, 6)]
    now = 0
    for _ in range(draw(st.integers(1, 40))):
        now += draw(st.integers(0, 100_000_000))
        action = draw(st.sampled_from(["frame"] * 6 + ["configure", "up",
                                                       "age"]))
        port = draw(st.integers(1, n_ports))
        if action == "frame":
            frame = _frame(draw, macs, vids)
            assert sw.ingress(port, frame, now) == ref.ingress(port, frame, now)
        elif action == "configure":
            mode, kw = _port_spec(draw, vids)
            lag = draw(st.sampled_from([None, "g0", "g9"]))
            for s in (sw, ref):
                s.configure_port(port, mode, lag_group=lag, **kw)
        elif action == "up":
            up = not ref.ports[port].up
            for s in (sw, ref):
                s.set_port_up(port, up)
        else:
            for s in (sw, ref):
                s.age_fdb(now)
        assert sw.counters == ref.counters
        assert sw.fdb == ref.fdb
