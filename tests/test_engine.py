import dataclasses
import gc
import hashlib
import pickle
import weakref
from collections import Counter, deque

import pytest

from conftest import TraceLines, bulk_transfer_time
from test_acceptance import FIREWALL_RIG
from netfab.engine import (ARP_PENDING_MAX, BULK_LOSS_WINDOW, BULK_WINDOW,
                           BulkSender, Engine, FirewallNode, FirewallSide,
                           FlowStats, HostNode, L3Node, Node, SwitchNode,
                           TrafficSpec, UnknownTarget)
from netfab.firewall import Firewall
from netfab.l2 import PortConfig, Switch
from netfab.l3 import VlanInterface, ZoneRouter
from netfab.packet import (BROADCAST, Arp, FlowKey, Packet, ip_addr,
                           make_frame, node_mac, push_tag)
from netfab.scenario import (FaultDecl, build_engine, build_spring8_redundant,
                             load_scenario, parse_scenario, serialize_scenario,
                             validate_scenario)


def mac(i):
    return node_mac(f"h{i}")


def big_frame():
    # 1442B payload -> 1482B packet -> 1500B untagged frame
    pkt = Packet(src_ip=ip_addr("10.0.0.1"), dst_ip=ip_addr("10.0.0.2"),
                 protocol="udp", src_port=1, dst_port=2, payload_bytes=1442)
    f = make_frame(mac(1), mac(2), pkt)
    assert f.size_bytes == 1500
    return f


def lan(eng, bw=100_000_000, hosts=2):
    """hosts on one access switch, same subnet."""
    sw = SwitchNode(eng, "sw")
    out = []
    for i in range(1, hosts + 1):
        sw.switch.configure_port(f"p{i}", PortConfig("access", vid=1))
        h = HostNode(eng, f"h{i}", ip_addr(f"10.0.0.{i}"), 24)
        eng.add_link(h.name, 0, "sw", f"p{i}", bw)
        out.append(h)
    return out


class TestTransport:
    def test_serialization_100mbps(self):
        eng = Engine()
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 100_000_000)
        eng.send("h1", 0, big_frame())
        at, _, kind, direction, _ = eng._heap[0]
        assert (kind, direction.node.name) == ("deliver", "h2")
        assert at == 120 + 5  # 1500B at 100 Mbps plus propagation

    def test_serialization_1gbps(self):
        eng = Engine()
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 1_000_000_000)
        eng.send("h1", 0, big_frame())
        assert eng._heap[0][0] == 12 + 5

    def test_back_to_back_frames_queue_on_wire(self):
        eng = Engine()
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 100_000_000)
        eng.send("h1", 0, big_frame())
        eng.send("h1", 0, big_frame())
        arrivals = sorted(e[0] for e in eng._heap)
        assert arrivals == [125, 245]

    def test_directions_are_independent(self):
        """Each direction of a link is its own FIFO with its own queue."""
        eng = Engine()
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", ip_addr("10.0.0.2"), 24)
        link = eng.add_link("h1", 0, "h2", 0, 100_000_000, queue_cap=3)
        eng.send("h1", 0, big_frame())
        eng.send("h2", 0, big_frame())
        assert sorted((e[0], e[3].node.name) for e in eng._heap) == [
            (125, "h1"), (125, "h2")]
        for _ in range(3):
            eng.send("h1", 0, big_frame())
        assert link.pending == (3, 1)
        assert eng.metrics.drops == {("h1", "queue"): 1}
        eng.send("h2", 0, big_frame())
        assert link.pending == (3, 2)
        assert eng.metrics.drops == {("h1", "queue"): 1}

    def test_same_time_events_fire_in_schedule_order(self):
        eng = Engine()
        order = []

        class Probe(SwitchNode):
            def on_event(self, engine, kind, payload):
                order.append(payload)

        sw = Probe(eng, "sw")
        for i in range(5):
            eng.schedule(100, "tick", sw, i)
        eng.run_until(100)
        assert order == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("send_first", [True, False])
    def test_same_time_delivery_and_event_fire_in_queue_order(self,
                                                              send_first):
        """`send` and `schedule` push onto one heap with one sequence, so a
        delivery and an event due at the same microsecond fire in the order
        they were queued."""
        eng = Engine()
        order = []

        class Probe(Node):
            def on_frame(self, engine, port, frame):
                order.append("frame")

            def on_event(self, engine, kind, payload):
                order.append(kind)

        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        probe = Probe(eng, "p")
        eng.add_link("h1", 0, "p", 0, 100_000_000)
        steps = [lambda: eng.send("h1", 0, big_frame()),
                 lambda: eng.schedule(125, "tick", probe)]
        for step in steps if send_first else reversed(steps):
            step()
        assert sorted(e[0] for e in eng._heap) == [125, 125]
        eng.run_until(125)
        assert order == (["frame", "tick"] if send_first
                         else ["tick", "frame"])

    def test_empty_run(self):
        eng = Engine()
        m = eng.run_until(1_000_000)
        assert eng.now == 1_000_000
        assert m.frames_created == 0 and m.dropped_total() == 0

    def test_run_backwards_rejected(self):
        eng = Engine()
        eng.run_until(50)
        with pytest.raises(ValueError):
            eng.run_until(10)

    def test_send_without_link(self):
        eng = Engine()
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        eng.send("h1", 0, big_frame())
        assert eng.metrics.drops[("h1", "no-link")] == 1


class TestBulkTime:
    def test_one_gigabyte_at_cap(self):
        assert bulk_transfer_time(170e6, 1e9) == pytest.approx(47.0588, abs=1e-3)

    def test_one_minute_case(self):
        # 256 MB/min of detector data fits in a minute at ~34 Mbps
        assert bulk_transfer_time(34.13e6, 256e6 / 60 * 60) <= 61

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            bulk_transfer_time(0, 100)


class TestEndToEnd:
    def test_ping_round_trip(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=3))
        eng.run_until(5_000_000)
        assert h1.ping_seen["p1"] == 3
        st = eng.metrics.flows["p1"]
        assert st.offered_packets == 3 and st.delivered_packets == 3
        assert st.completed_at is not None

    def test_bulk_completes_and_delivers_all_bytes(self):
        eng = Engine()
        h1, h2 = lan(eng)
        total = 100_000
        h1.add_generator(eng, TrafficSpec(kind="bulk", src="h1", dst="h2",
                                          flow_id="b1", dst_ip=h2.ip,
                                          total_bytes=total, src_port=40000,
                                          dst_port=5001))
        eng.run_until(10_000_000)
        st = eng.metrics.flows["b1"]
        assert st.completed_at is not None
        assert st.delivered_payload == total
        # a 100 kB transfer on a quiet 100 Mbps LAN lands well under 100 ms
        assert st.completed_at < 100_000

    def test_cbr_within_capacity_no_loss(self):
        eng = Engine()
        h1, h2 = lan(eng, bw=100_000_000)
        h1.add_generator(eng, TrafficSpec(kind="cbr", src="h1", dst="h2",
                                          flow_id="c1", dst_ip=h2.ip,
                                          rate_bps=34_130_000, src_port=40000,
                                          dst_port=5001, stop_us=2_000_000))
        eng.run_until(3_000_000)
        st = eng.metrics.flows["c1"]
        assert st.delivered_packets == st.offered_packets > 1000
        assert eng.metrics.drops[("h1", "queue")] == 0

    def test_cbr_over_slow_link_drops(self):
        eng = Engine()
        h1, h2 = lan(eng, bw=10_000_000)
        h1.add_generator(eng, TrafficSpec(kind="cbr", src="h1", dst="h2",
                                          flow_id="c1", dst_ip=h2.ip,
                                          rate_bps=34_130_000, src_port=40000,
                                          dst_port=5001, stop_us=2_000_000))
        eng.run_until(3_000_000)
        st = eng.metrics.flows["c1"]
        assert st.delivered_packets < st.offered_packets
        assert eng.metrics.dropped_total() > 0

    def test_arp_pending_list_is_bounded(self):
        """The gateway never answers: the oldest held packet makes room for
        each new one past ARP_PENDING_MAX, as Linux's unres_qlen does."""
        eng = Engine()
        SwitchNode(eng, "sw").switch.configure_port(
            "p1", PortConfig("access", vid=1))
        gw = ip_addr("10.0.0.254")
        h1 = HostNode(eng, "h1", ip_addr("10.0.0.1"), 24, gw_ip=gw)
        eng.add_link("h1", 0, "sw", "p1", 100_000_000)
        h1.add_generator(eng, TrafficSpec(
            kind="cbr", src="h1", dst="remote", flow_id="c1",
            dst_ip=ip_addr("10.9.0.1"), rate_bps=1_000_000, src_port=40000,
            dst_port=5001, stop_us=10_000_000))
        eng.run_until(10_000_000)
        held = h1.arp.pending[(0, gw)]
        offered = eng.metrics.flows["c1"].offered_packets
        assert len(held) == ARP_PENDING_MAX < offered
        dropped = eng.metrics.drops[("h1", "arp-pending")]
        assert dropped == offered - ARP_PENDING_MAX
        oldest = held[0]
        newest = Packet(src_ip=h1.ip, dst_ip=gw, protocol="udp")
        h1.arp.send(eng, h1, 0, gw, (newest,))
        assert held[-1] is newest and all(p is not oldest for p in held)
        assert len(held) == ARP_PENDING_MAX

    def test_frame_conservation(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=5))
        eng.run_until(10_000_000)
        m = eng.metrics
        assert m.frames_created == m.frames_consumed + eng.residual_frames()
        assert eng.residual_frames() == 0


def test_dropped_engine_frees_every_node(gc_off):
    """Nothing points back into an engine, so once a run's engine is
    dropped, reference counting alone frees it and its nodes and leaves no
    cyclic garbage; the metrics it returned still read the same."""
    gc.collect()
    eng = build_engine(build_spring8_redundant())
    metrics = eng.run_until(3_000_000)
    summary = metrics.summary_lines()
    refs = [weakref.ref(eng), *(weakref.ref(n) for n in eng.nodes.values())]
    assert len(refs) > 500
    del eng
    assert [r for r in refs if r() is not None] == []
    assert gc.collect() == 0
    assert metrics.summary_lines() == summary


def test_running_engine_survives_a_pickle_round_trip():
    """A copy of an engine stopped mid-run, made through pickle, shares no
    state with it: the copy and then the original each run on to the
    summary of a fresh run."""
    expected = build_engine(build_spring8_redundant()).run_until(
        3_000_000).summary_lines()
    eng = build_engine(build_spring8_redundant())
    eng.run_until(500_000)
    clone = pickle.loads(pickle.dumps(eng))
    assert clone.run_until(3_000_000).summary_lines() == expected
    assert eng.run_until(3_000_000).summary_lines() == expected


def floats_reachable(root) -> list[str]:
    """The path to each float reachable from root through dicts, lists,
    tuples, sets, deques and the attributes of netfab objects."""
    found, seen, stack = [], set(), [(root, "engine")]
    while stack:
        obj, path = stack.pop()
        if isinstance(obj, float):
            found.append(path)
        if isinstance(obj, (int, float, str, bytes, type(None))) \
                or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            for k, v in obj.items():
                stack += [(k, f"{path} key {k!r}"), (v, f"{path}[{k!r}]")]
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack += [(v, f"{path}[{i}]") for i, v in enumerate(obj)]
        else:
            assert type(obj).__module__.startswith("netfab."), (path, obj)
            names = list(getattr(obj, "__dict__", ()))
            for cls in type(obj).__mro__:
                names += cls.__dict__.get("__slots__", ())
            stack += [(getattr(obj, n), f"{path}.{n}") for n in names
                      if hasattr(obj, n)]
    return found


def test_simulated_state_holds_no_float():
    """Every simulated quantity is an integer: after a campus run and a
    backlogged pass through the firewall rig, no float is reachable from
    either engine, its nodes, links, metrics or event heap."""
    campus = build_engine(build_spring8_redundant())
    campus.run_until(3_000_000)
    rig = build_engine(parse_scenario(FIREWALL_RIG.format(
        duration=0.2, total=2_000_000_000)))
    rig.run_until(200_000)
    assert rig.metrics.fw_bytes["fw"] > 0
    for eng in (campus, rig):
        assert floats_reachable(eng) == []


class TestFaults:
    def test_unknown_target_rejected(self):
        eng = Engine()
        with pytest.raises(UnknownTarget):
            eng.inject_fault(0, "fail_node", "nope")

    def test_unknown_action_rejected(self):
        eng = Engine()
        lan(eng)
        with pytest.raises(ValueError):
            eng.inject_fault(0, "explode", "h1")

    def test_failed_link_drops_traffic(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=5))
        eng.inject_fault(1_500_000, "fail_link", "h2:0-sw:p2")
        eng.run_until(10_000_000)
        assert h1.ping_seen["p1"] == 2  # pings at t=0 and t=1s only
        assert eng.metrics.drops[("sw", "link-down")] > 0

    def test_failed_node_drops_then_recovers(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=6))
        eng.inject_fault(1_500_000, "fail_node", "h2")
        eng.inject_fault(3_500_000, "recover", "h2")
        eng.run_until(10_000_000)
        assert 2 < h1.ping_seen["p1"] < 6
        assert eng.metrics.drops[("h2", "fault")] > 0

    def test_recover_clears_learned_state(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=1))
        eng.run_until(1_000_000)
        assert h1.arp.cache
        eng.inject_fault(1_100_000, "fail_node", "h1")
        eng.inject_fault(1_200_000, "recover", "h1")
        eng.run_until(2_000_000)
        assert not h1.arp.cache

    def test_l3_switch_frames_each_interface_as_it_is_bound(self):
        """An L3 switch's ARP entry holds the egress its interface gives: a
        routed packet leaves untagged on an interface's `port=`, tagged on
        the trunk otherwise, framed as the switch's own ARP frames on that
        interface; `recover` empties the entries."""
        eng = Engine()
        router = ZoneRouter()
        router.add_interface(VlanInterface(10, ip_addr("10.0.10.254"), 24,
                                           "dmz"))
        router.add_interface(VlanInterface(20, ip_addr("10.0.20.254"), 24,
                                           "dmz", port="p"))
        r = L3Node(eng, "r", router)
        sw = SwitchNode(eng, "sw")
        sw.switch.configure_port("h", PortConfig("access", vid=10))
        sw.switch.configure_port("up", PortConfig("trunk", allowed={10}))
        h1 = HostNode(eng, "h1", ip_addr("10.0.10.1"), 24,
                      gw_ip=ip_addr("10.0.10.254"))
        h2 = HostNode(eng, "h2", ip_addr("10.0.20.1"), 24,
                      gw_ip=ip_addr("10.0.20.254"))
        eng.add_link("h1", 0, "sw", "h", 100_000_000)
        eng.add_link("sw", "up", "r", "trunk", 100_000_000)
        eng.add_link("h2", 0, "r", "p", 100_000_000)
        sent = []

        def send(node, port, frame, send=eng.send):
            if node == "r":
                sent.append((port, frame.tag, type(frame.payload)))
            send(node, port, frame)

        eng.send = send
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip,
                                          count=2))
        eng.run_until(2_000_000)
        assert h1.ping_seen["p1"] == 2
        assert r.arp.cache == {(10, h1.ip): ("trunk", 10, h1.mac),
                               (20, h2.ip): ("p", None, h2.mac)}
        by_egress = {}
        for port, tag, kind in sent:
            by_egress.setdefault((port, tag), set()).add(kind)
        assert by_egress == {("trunk", 10): {Arp, Packet},
                             ("p", None): {Arp, Packet}}
        eng.inject_fault(2_100_000, "fail_node", "r")
        eng.inject_fault(2_200_000, "recover", "r")
        eng.run_until(2_300_000)
        assert r.arp.cache == {}

    def test_failed_host_keeps_its_flow_schedules(self):
        """h1 on the firewall rig fails at 0.5 s and recovers at 1.5 s. It
        offers nothing in between, then each flow goes on where its schedule
        stands: cbr every 12 ms from 1.5 s, the ping's seqs 2 and 3 (seq 1,
        due at 1 s, falls in the outage), and a bulk flow due at 1 s starts
        when its retransmission timer finds h1 up. Dropping a failed host's
        traffic events used to end its cbr and ping flows for good: 42 cbr
        packets and 1 ping offered by 4 s, and the bulk flow never began."""
        bulk = ("kind=bulk src=h1 dst=h2 flow=xfer total=0 sport=40000 "
                "dport=5001")
        text = FIREWALL_RIG.format(duration=4, total=0)
        assert bulk in text
        text = text.replace(bulk, "\n".join([
            "kind=cbr src=h1 dst=h2 flow=c rate=1000000 sport=40000",
            "kind=ping src=h1 dst=h2 flow=p count=4",
            "kind=bulk src=h1 dst=h2 flow=b total=100000 start=1 "
            "sport=40001 dport=5001"]))
        text += ("\n[fault]\nat=0.5 action=fail_node target=h1\n"
                 "at=1.5 action=recover target=h1\n")
        eng = build_engine(parse_scenario(text))
        flows = eng.metrics.flows

        def offered():
            return {f: st.offered_packets for f, st in sorted(flows.items())}

        eng.run_until(500_000)
        assert offered() == {"c": 42, "p": 1}  # sends at 0, 12, ... 492 ms
        eng.run_until(1_499_999)
        assert offered() == {"c": 42, "p": 1}
        eng.run_until(4_000_000)
        assert flows["c"].offered_packets == 42 + 209  # 1.5 s ... 3.996 s
        assert flows["p"].offered_packets == 3
        assert eng.nodes["h1"].ping_seen["p"] == 3
        assert flows["b"].completed_at is not None
        assert flows["b"].delivered_payload == 100_000

    def test_no_frame_leaves_by_its_ingress_bridge_port(self, monkeypatch):
        """spring8-redundant with fw1 failed at 1 s: over the whole run, no
        switch sends a frame out of the bridge port it came in on, where a
        LAG group is one bridge port (IEEE 802.1D, 802.1AX)."""
        from_lags, hairpins = 0, []
        ingress = Switch.ingress

        def watch(self, port, frame, now):
            nonlocal from_lags
            out = ingress(self, port, frame, now)
            ports = self.ports
            lag = ports[port].lag_group
            for egress, _ in out or ():
                group = ports[egress].lag_group
                from_lags += lag is not None
                if (egress if group is None else (group,)) == (
                        port if lag is None else (lag,)):
                    hairpins.append((self.name, port, egress, now))
            return out

        monkeypatch.setattr(Switch, "ingress", watch)
        cfg = load_scenario("spring8-redundant")
        cfg.faults.append(FaultDecl(1_000_000, "fail_node", "fw1"))
        build_engine(cfg).run_until(cfg.duration_us)
        assert from_lags > 0  # frames that arrived on a LAG member went on
        assert hairpins == []

    @pytest.mark.parametrize("member", ["agg1:up1-bb:a1x",
                                        "agg1:up2-bb:a1y"])
    def test_failed_lag_member_leaves_its_bundle(self, member):
        """spring8-redundant with one agg1-bb LAG member failed at 0.5 s.
        While the dead member kept its place in the bundle's hashing and
        flood plan, every one of these flows and `daq` stalled."""
        cfg = load_scenario("spring8-redundant")
        cfg.faults += [FaultDecl(500_000, "fail_link", member),
                       FaultDecl(3_500_000, "recover", member)]
        for i in range(8):
            cfg.traffic.append(TrafficSpec(
                "bulk", f"bl{i // 2 + 1:02d}h{i % 2 + 2}", f"n{i}",
                dst=f"ext{i % 2 + 1}", start_us=1_000_000, total_bytes=200_000,
                src_port=40_000 + i, dst_port=5001))
        eng = build_engine(cfg)
        eng.run_until(3_000_000)
        flows = eng.metrics.flows
        assert len(flows) == 10
        assert [f for f, st in flows.items() if st.completed_at is None] == []
        assert not any(r == "link-down" for _, r in eng.metrics.drops)
        ends = [(eng.nodes[n].switch, p) for n, p in (eng.links[member].a,
                                                       eng.links[member].b)]
        assert all(p in sw.down for sw, p in ends)
        eng.run_until(4_000_000)
        assert not any(p in sw.down for sw, p in ends)


# the criterion-3 NAT firewall rig at a 10 Mbps cap, fed 50 Mbps for 0.5 s
SHAPER_RIG = """
[engine]
seed=1 duration=2

[vlan]
vid=10 name=dmz subnet=10.0.0.0/24
vid=20 name=public subnet=198.18.0.0/24

[switch]
name=si ports=h:access:10,f:access:10
name=so ports=h:access:20,f:access:20

[firewall]
name=fw inside=routed:10.0.0.1/24:dmz outside=routed:198.18.0.1/24:public cap=10000000 nat_capacity=1024 zones=on

[masquerade]
node=fw network=0.0.0.0/0 external=198.18.0.61

[host]
name=h1 ip=10.0.0.9/24 gw=10.0.0.1 vlan=10
name=h2 ip=198.18.0.9/24 gw=198.18.0.1 vlan=20

[link]
a=h1:0 b=si:h bw=1000000000
a=si:f b=fw:inside bw=1000000000
a=h2:0 b=so:h bw=1000000000
a=so:f b=fw:outside bw=1000000000

[traffic]
kind=cbr src=h1 dst=h2 flow=c1 rate=50000000 stop=0.5 sport=40000 dport=5001
"""


class TestDropCounts:
    """Each dropped frame or packet is counted once, in `Metrics.drops`."""

    def test_untagged_frame_on_a_trunk_is_a_vlan_drop(self):
        eng = Engine()
        sw = SwitchNode(eng, "sw")
        sw.switch.configure_port("t", PortConfig("trunk", allowed={10}))
        sw.switch.configure_port("p", PortConfig("access", vid=10))
        HostNode(eng, "h1", ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "sw", "t", 100_000_000)
        eng.add_link("h2", 0, "sw", "p", 100_000_000)
        for _ in range(3):
            eng.send("h1", 0, big_frame())  # untagged: the trunk refuses it
        eng.send("h1", 0, push_tag(big_frame(), 10))  # carried to h2
        eng.run_until(1_000_000)
        m = eng.metrics
        assert m.drops[("sw", "vlan")] == 3 == m.dropped_total()
        assert m.frames_created == m.frames_consumed == 5

    def test_frame_on_no_l3_interface_is_a_vlan_drop(self):
        """An L3 switch routes only what arrives on one of its interfaces:
        a trunk frame tagged with a VID it has no interface for or sent
        untagged, a tagged frame on an interface's port, and a frame on a
        port with no interface are each one vlan drop."""
        eng = Engine()
        router = ZoneRouter()
        router.add_interface(VlanInterface(10, ip_addr("10.0.0.254"), 24,
                                           "dmz"))
        router.add_interface(VlanInterface(20, ip_addr("10.0.20.1"), 24,
                                           "dmz", port="p"))
        L3Node(eng, "r", router)
        for i, port in enumerate(("trunk", "p", "q"), 1):
            HostNode(eng, f"h{i}", ip_addr(f"10.0.0.{i}"), 24)
            eng.add_link(f"h{i}", 0, "r", port, 100_000_000)
        eng.send("h1", 0, push_tag(big_frame(), 30))
        eng.send("h1", 0, big_frame())
        eng.send("h2", 0, push_tag(big_frame(), 20))
        eng.send("h3", 0, big_frame())
        eng.run_until(1_000_000)
        assert eng.metrics.drops == {("r", "vlan"): 4}

    def test_host_takes_its_own_and_broadcast_but_not_a_group_address(self):
        """A host accepts a frame to its own MAC or to broadcast; any other
        group address is filtered, since no host joins a multicast group."""
        eng = Engine()
        lan(eng)
        pkt = Packet(src_ip=ip_addr("10.0.0.1"), dst_ip=ip_addr("10.0.0.2"),
                     protocol="udp", payload_bytes=100, meta=("cbr", "c1"))
        for dst in (mac(2), BROADCAST, bytes.fromhex("01005e000001")):
            eng.send("h1", 0, make_frame(mac(1), dst, pkt))
        eng.run_until(1_000_000)
        m = eng.metrics
        assert m.host_delivered == 2 == m.flows["c1"].delivered_packets
        assert m.frames_filtered == 1
        assert m.dropped_total() == 0

    def test_shaper_overflow_is_one_queue_drop(self):
        cfg = parse_scenario(SHAPER_RIG)
        eng = build_engine(cfg)
        refused = []
        for shaper in (s.shaper for s in eng.nodes["fw"].sides.values()):
            def offer(size, item, offer=shaper.offer):
                taken = offer(size, item)
                refused.append(not taken)
                return taken
            shaper.offer = offer
        eng.run_until(cfg.duration_us)
        m, st = eng.metrics, eng.metrics.flows["c1"]
        assert sum(refused) > 0
        assert m.drops == {("fw", "queue"): sum(refused)}
        assert st.offered_packets == st.delivered_packets + sum(refused)


class TestDeterminism:
    def run_digest(self, seed):
        lines = TraceLines()
        eng = Engine(seed=seed, trace=lines)
        h1, h2, h3 = lan(eng, hosts=3)
        h1.add_generator(eng, TrafficSpec(kind="cbr", src="h1", dst="h2",
                                          flow_id="c1", dst_ip=h2.ip,
                                          rate_bps=8_000_000, src_port=40000,
                                          dst_port=5001, stop_us=500_000))
        h3.add_generator(eng, TrafficSpec(kind="ping", src="h3", dst="h1",
                                          flow_id="p1", dst_ip=h1.ip, count=3))
        eng.run_until(4_000_000)
        blob = lines.text() + "\n".join(eng.metrics.summary_lines())
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_same_seed_same_trace(self):
        assert self.run_digest(42) == self.run_digest(42)

    def test_trace_line_format(self):
        lines = TraceLines()
        eng = Engine(seed=1, trace=lines)
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="ping", src="h1", dst="h2",
                                          flow_id="p1", dst_ip=h2.ip, count=1))
        eng.run_until(1_000_000)
        assert lines
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            keys = [f.split("=", 1)[0] for f in fields]
            assert keys == ["t", "node", "ev", "vlan", "flow", "info"]


class TestBulkRecovery:
    def test_fw1_failure_mid_transfer_completes(self):
        """`daq` crosses fw1 on spring8-redundant; with fw1 failed at 0.4 s
        it stalled at 4,810,700 of 10,000,000 bytes before retransmission."""
        cfg = load_scenario("spring8-redundant")
        cfg.faults.append(FaultDecl(400_000, "fail_node", "fw1"))
        eng = build_engine(cfg)
        eng.run_until(cfg.duration_us)
        st = eng.metrics.flows["daq"]
        assert st.completed_at is not None
        assert st.delivered_payload == 10_000_000
        assert st.offered_payload > 10_000_000  # retransmissions are offered

    def test_link_failure_and_recovery_mid_transfer(self):
        lines = TraceLines()
        eng = Engine(trace=lines)
        h1, h2 = lan(eng)
        total = 2_000_000  # about 0.17 s at 100 Mbps without the outage
        h1.add_generator(eng, TrafficSpec(kind="bulk", src="h1", dst="h2",
                                          flow_id="b1", dst_ip=h2.ip,
                                          total_bytes=total, src_port=40000,
                                          dst_port=5001))
        eng.inject_fault(50_000, "fail_link", "h2:0-sw:p2")
        eng.inject_fault(400_000, "recover", "h2:0-sw:p2")
        eng.run_until(10_000_000)
        st = eng.metrics.flows["b1"]
        assert st.completed_at is not None and st.completed_at > 400_000
        assert st.delivered_payload == total  # no byte counted twice
        assert h2.recv["b1"].received == total
        assert st.offered_payload > total
        assert eng.metrics.drops[("sw", "link-down")] > 0
        # the first resend, lost on the dead link, doubles the RTO from its
        # 200 ms floor: the second comes 400 ms later
        sent = sorted({int(line.split("\t")[0][2:]) for line in lines
                       if "\tnode=h1\tev=tx\t" in line})
        resent = [t for t in sent if t > 50_000]
        assert resent[1] - resent[0] == 400_000

    def test_segments_after_a_gap_wait_for_it(self):
        """A 300 µs outage drops a few segments inside the window; the
        transfer completes with each byte counted once, and the segments
        behind the gap reach the receiver twice."""
        eng = Engine()
        h1, h2 = lan(eng)
        total = 500_000
        h1.add_generator(eng, TrafficSpec(kind="bulk", src="h1", dst="h2",
                                          flow_id="b1", dst_ip=h2.ip,
                                          total_bytes=total, src_port=40000,
                                          dst_port=5001))
        eng.inject_fault(20_000, "fail_link", "h2:0-sw:p2")
        eng.inject_fault(20_300, "recover", "h2:0-sw:p2")
        eng.run_until(5_000_000)
        st = eng.metrics.flows["b1"]
        assert st.completed_at is not None
        assert st.delivered_payload == total == h2.recv["b1"].received
        segments = -(-total // 1460)
        assert st.delivered_packets > segments  # refused segments came again

    def test_resend_after_rto_fits_a_short_bottleneck_queue(self):
        """A 10 Mbps link with an 8-frame queue behind a 1 Gbps one. Resending
        the whole 64 KiB window after each expiry overran the queue every
        time: 105,120 of 150,000 bytes in 60 s, with 327 queue drops."""
        eng = Engine()
        sw = SwitchNode(eng, "sw")
        for i, bw, queue in ((1, 1_000_000_000, 256), (2, 10_000_000, 8)):
            sw.switch.configure_port(f"p{i}", PortConfig("access", vid=1))
            HostNode(eng, f"h{i}", ip_addr(f"10.0.0.{i}"), 24)
            eng.add_link(f"h{i}", 0, "sw", f"p{i}", bw, queue_cap=queue)
        h1, h2 = eng.nodes["h1"], eng.nodes["h2"]
        h1.add_generator(eng, TrafficSpec(kind="bulk", src="h1", dst="h2",
                                          flow_id="b1", dst_ip=h2.ip,
                                          total_bytes=150_000, src_port=40000,
                                          dst_port=5001))
        eng.run_until(60_000_000)
        st = eng.metrics.flows["b1"]
        assert st.delivered_payload == 150_000
        assert st.completed_at < 15_000_000
        assert 0 < eng.metrics.drops[("sw", "queue")] < 100
        # slow start: the window fell to 4 segments and grew back with ACKs
        assert BULK_LOSS_WINDOW < h1.bulk_send["b1"].window <= BULK_WINDOW

    def test_loss_free_window_stays_at_64k(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(eng, TrafficSpec(kind="bulk", src="h1", dst="h2",
                                          flow_id="b1", dst_ip=h2.ip,
                                          total_bytes=500_000, src_port=40000,
                                          dst_port=5001))
        eng.run_until(1_000_000)
        assert eng.metrics.flows["b1"].completed_at is not None
        assert h1.bulk_send["b1"].window == BULK_WINDOW

    def test_receiver_takes_only_the_next_segment(self):
        eng = Engine()
        h1, h2 = lan(eng)

        def data(offset):
            return Packet(src_ip=h1.ip, dst_ip=h2.ip, protocol="tcp",
                          src_port=1, dst_port=2, payload_bytes=1460,
                          meta=("bulk", "b", "data", 1460, 5840, offset))

        # in order, gap, in order, duplicate, in order, last
        for offset, taken in ((0, 1460), (2920, 1460), (1460, 2920),
                              (1460, 2920), (2920, 4380), (4380, 5840)):
            h2._deliver(eng, data(offset))
            assert h2.recv["b"].received == taken
        assert eng.metrics.flows["b"].delivered_payload == 5840
        # ACKs (held for h1's MAC): at once for the gap and the duplicate,
        # then on the fourth segment taken, which completes the flow
        acks = [p.meta[3] for p in h2.arp.pending[(0, h1.ip)]]
        assert acks == [1460, 2920, 5840]

    def test_rto_follows_rfc6298(self):
        def sender():
            return BulkSender(TrafficSpec(kind="bulk", src="a", dst="b",
                                          flow_id="f",
                                          dst_ip=ip_addr("10.0.0.2")),
                              ip_addr("10.0.0.1"))
        st = sender()
        assert st.rto == 1_000_000  # before any sample
        st.measure(100_000)
        assert (st.srtt, st.rttvar, st.rto) == (100_000, 50_000, 300_000)
        st.measure(100_000)
        assert (st.srtt, st.rttvar, st.rto) == (100_000, 37_500, 250_000)
        st.measure(20_000)
        assert (st.srtt, st.rttvar) == (90_000, 48_125)
        st = sender()
        st.measure(1_000)
        assert st.rto == 200_000  # floor
        st = sender()
        st.measure(100_000_000)
        assert st.rto == 60_000_000  # ceiling


class TestBursts:
    """A node hands its resolver each burst it has for one next hop: one
    lookup serves the burst, and its packets leave frame by frame, in
    order, as each would alone."""

    @staticmethod
    def recorded(eng: Engine) -> list:
        """What eng is asked to send, as (node, port, dst, tag, payload)."""
        sent = []
        eng.send = lambda node, port, frame: sent.append(
            (node, port, frame.dst, frame.tag, frame.payload))
        return sent

    def test_unresolved_burst_is_held_in_order_and_flushed_in_order(self):
        eng = Engine()
        gw, gw_mac = ip_addr("10.0.0.254"), node_mac("gw")
        h1 = HostNode(eng, "h1", ip_addr("10.0.0.1"), 24, gw_ip=gw)
        sent = self.recorded(eng)
        tpl = Packet(src_ip=h1.ip, dst_ip=ip_addr("10.9.0.1"),
                     protocol="udp", src_port=40000, dst_port=5001)
        burst = [dataclasses.replace(tpl, payload_bytes=i)
                 for i in range(ARP_PENDING_MAX + 3)]
        stats = FlowStats()
        h1.send_packet(eng, burst[:40], stats)
        h1.send_packet(eng, burst[40:], stats)
        assert stats.offered_packets == len(burst)
        # the oldest three made room, and one request went out
        held = h1.arp.pending[(0, gw)]
        assert [id(p) for p in held] == [id(p) for p in burst[3:]]
        assert eng.metrics.drops == {("h1", "arp-pending"): 3}
        (request,) = sent
        assert request[:4] == ("h1", 0, BROADCAST, None)
        assert (request[4].op, request[4].target_ip) == ("request", gw)
        sent.clear()
        h1.on_frame(eng, 0, make_frame(gw_mac, h1.mac,
                                       Arp("reply", gw, gw_mac, h1.ip)))
        assert [id(f[4]) for f in sent] == [id(p) for p in burst[3:]]
        assert {f[:4] for f in sent} == {("h1", 0, gw_mac, None)}
        assert h1.arp.pending == {}

    def test_firewall_release_leaves_as_each_packet_would_alone(self):
        """One shaped release mixes hinted packets and packets to two next
        hops: it leaves in FIFO order, frame for frame, as the same packets
        emitted one at a time."""
        def rig():
            eng = Engine()
            outside = FirewallSide(ip=ip_addr("192.0.2.1"), prefix_len=24,
                                   gw=ip_addr("192.0.2.254"),
                                   routes=[(ip_addr("192.0.2.128"), 25,
                                            ip_addr("192.0.2.2"))])
            fw = FirewallNode(eng, "fw", Firewall(), FirewallSide(), outside,
                              cap_bps=10**9)
            for name, ip in (("gw", "192.0.2.254"), ("r2", "192.0.2.2")):
                fw.arp.learn(eng, fw, "outside", Arp(
                    "request", ip_addr(ip), node_mac(name), outside.ip))
            return eng, fw, self.recorded(eng)

        def pkt(i, dst):
            return Packet(src_ip=ip_addr("192.0.2.1"), dst_ip=ip_addr(dst),
                          protocol="udp", src_port=1000 + i, dst_port=9)

        peer = node_mac("peer")
        items = [(pkt(0, "198.51.100.1"), None), (pkt(1, "198.51.100.1"), None),
                 (pkt(2, "192.0.2.200"), None), (pkt(3, "198.51.100.7"), peer),
                 (pkt(4, "198.51.100.7"), peer), (pkt(5, "198.51.100.1"), None),
                 (pkt(6, "192.0.2.130"), None), (pkt(7, "192.0.2.200"), None)]
        eng, fw, released = rig()
        for p, hint in items:
            fw._enqueue(eng, fw.outside, p, hint)
        fw.on_event(eng, "shape_tick", fw.outside)
        assert not fw.outside.shaper.queue
        eng_alone, fw_alone, alone = rig()
        for item in items:
            fw_alone._emit(eng_alone, fw_alone.outside, [item])
        assert [id(f[4]) for f in released] == [id(p) for p, _ in items]
        assert released == alone
        gw, r2 = node_mac("gw"), node_mac("r2")
        assert [f[2] for f in released] == [gw, gw, r2, peer, peer, gw, r2,
                                            r2]
        size = sum(p.size for p, _ in items)
        assert eng.metrics.fw_bytes == eng_alone.metrics.fw_bytes == {
            "fw": size}


class TestHostPackets:
    """A host builds each packet it sends as an unchecked copy of its flow's
    template, and each such copy must be the packet the checked constructor
    builds from the same fields."""

    @pytest.mark.parametrize("where", ["rig", "spring8-redundant"])
    def test_every_sent_packet_is_the_checked_one(self, where, monkeypatch):
        if where == "rig":  # one flow of each kind through the NAT firewall
            cfg = parse_scenario(
                FIREWALL_RIG.format(duration=3, total=1_000_000)
                + "kind=cbr src=h1 dst=h2 flow=c rate=10000000 stop=1 "
                  "sport=40001 dport=5002\n"
                  "kind=ping src=h1 dst=h2 flow=p count=3\n")
        else:  # its bulk `daq` and ping `mon-check`, and one cbr flow
            cfg = build_spring8_redundant()
            cfg.traffic.append(TrafficSpec(
                "cbr", "bl01h2", "c", dst="ext2", rate_bps=10_000_000,
                stop_us=1_000_000, src_port=40_001, dst_port=5002))
        validate_scenario(cfg)
        eng = build_engine(cfg)
        sent = []
        send_packet = HostNode.send_packet

        def record(host, engine, packets, *args):
            sent.extend(packets)
            return send_packet(host, engine, packets, *args)

        monkeypatch.setattr(HostNode, "send_packet", record)
        eng.run_until(3_000_000)
        fields = [f.name for f in dataclasses.fields(Packet) if f.init]
        kinds = Counter()
        for pkt in sent:
            checked = Packet(**{name: getattr(pkt, name) for name in fields})
            assert (checked, checked.size, checked.key) == (
                pkt, pkt.size, pkt.key)
            assert type(pkt.key) is FlowKey
            kinds[" ".join(pkt.meta[0:3:2])] += 1
        assert set(kinds) == {"bulk data", "bulk ack", "cbr", "ping req",
                              "ping rep"}
        assert kinds["ping req"] == kinds["ping rep"] == 3
        assert len({id(pkt) for pkt in sent}) == len(sent)  # one per send


class TestInlinePeer:
    def test_inside_learns_its_router_and_recover_forgets_it(self):
        """spring8-redundant's text names no inline peer: fw1 learns l3r's
        MAC from the `daq` packets it forwards and sends their NAT'd
        replies there, and `recover` clears what it learned."""
        text = serialize_scenario(build_spring8_redundant())
        assert "inside_peer" not in text and "outside_peer" not in text
        cfg = parse_scenario(text)
        validate_scenario(cfg)
        cfg.faults += [FaultDecl(1_000_000, "fail_node", "fw1"),
                       FaultDecl(1_100_000, "recover", "fw1")]
        eng = build_engine(cfg)
        eng.run_until(1_000_000)
        assert eng.metrics.flows["daq"].completed_at == 830_027
        fw1, fw2 = eng.nodes["fw1"], eng.nodes["fw2"]
        assert fw1.inside.peer_mac == node_mac("l3r")
        # fw2 forwarded only health probes, and no outside side learns
        assert fw2.inside.peer_mac is None
        assert fw1.outside.peer_mac is None
        eng.run_until(1_200_000)
        assert fw1.inside.peer_mac is None
