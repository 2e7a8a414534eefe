import hashlib

import pytest

from netfab.engine import (BulkSender, Engine, HostNode, SwitchNode,
                           TrafficSpec, UnknownTarget, bulk_transfer_time)
from netfab.packet import MacAddress, Packet, ip_addr, make_frame
from netfab.scenario import FaultDecl, build_engine, load_scenario


def mac(i):
    return MacAddress(bytes([0x00, 0x10, 0x4b, 0, 0, i]))


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
        sw.switch.configure_port(f"p{i}", "access", vid=1)
        h = HostNode(eng, f"h{i}", mac(i), ip_addr(f"10.0.0.{i}"), 24)
        eng.add_link(h.name, 0, "sw", f"p{i}", bw)
        out.append(h)
    return out


class TestTransport:
    def test_serialization_100mbps(self):
        eng = Engine()
        HostNode(eng, "h1", mac(1), ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", mac(2), ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 100_000_000)
        eng.send("h1", 0, big_frame())
        at, _, kind, target, _ = eng._heap[0]
        assert (kind, target) == ("deliver", "h2")
        assert at == 120 + 5  # 1500B at 100 Mbps plus propagation

    def test_serialization_1gbps(self):
        eng = Engine()
        HostNode(eng, "h1", mac(1), ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", mac(2), ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 1_000_000_000)
        eng.send("h1", 0, big_frame())
        assert eng._heap[0][0] == 12 + 5

    def test_back_to_back_frames_queue_on_wire(self):
        eng = Engine()
        HostNode(eng, "h1", mac(1), ip_addr("10.0.0.1"), 24)
        HostNode(eng, "h2", mac(2), ip_addr("10.0.0.2"), 24)
        eng.add_link("h1", 0, "h2", 0, 100_000_000)
        eng.send("h1", 0, big_frame())
        eng.send("h1", 0, big_frame())
        arrivals = sorted(e[0] for e in eng._heap)
        assert arrivals == [125, 245]

    def test_same_time_events_fire_in_schedule_order(self):
        eng = Engine()
        order = []

        class Probe(SwitchNode):
            def on_event(self, kind, payload):
                order.append(payload)

        Probe(eng, "sw")
        for i in range(5):
            eng.schedule(100, "tick", "sw", i)
        eng.run_until(100)
        assert order == [0, 1, 2, 3, 4]

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
        HostNode(eng, "h1", mac(1), ip_addr("10.0.0.1"), 24)
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
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
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
        h1.add_generator(TrafficSpec(kind="bulk", src="h1", dst="h2",
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
        h1.add_generator(TrafficSpec(kind="cbr", src="h1", dst="h2",
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
        h1.add_generator(TrafficSpec(kind="cbr", src="h1", dst="h2",
                                     flow_id="c1", dst_ip=h2.ip,
                                     rate_bps=34_130_000, src_port=40000,
                                     dst_port=5001, stop_us=2_000_000))
        eng.run_until(3_000_000)
        st = eng.metrics.flows["c1"]
        assert st.delivered_packets < st.offered_packets
        assert eng.metrics.dropped_total() > 0

    def test_frame_conservation(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
                                     flow_id="p1", dst_ip=h2.ip, count=5))
        eng.run_until(10_000_000)
        m = eng.metrics
        assert m.frames_created == m.frames_consumed + eng.residual_frames()
        assert eng.residual_frames() == 0


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
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
                                     flow_id="p1", dst_ip=h2.ip, count=5))
        eng.inject_fault(1_500_000, "fail_link", "h2:0-sw:p2")
        eng.run_until(10_000_000)
        assert h1.ping_seen["p1"] == 2  # pings at t=0 and t=1s only
        assert eng.metrics.drops[("sw", "link-down")] > 0

    def test_failed_node_drops_then_recovers(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
                                     flow_id="p1", dst_ip=h2.ip, count=6))
        eng.inject_fault(1_500_000, "fail_node", "h2")
        eng.inject_fault(3_500_000, "recover", "h2")
        eng.run_until(10_000_000)
        assert 2 < h1.ping_seen["p1"] < 6
        assert eng.metrics.drops[("h2", "fault")] > 0

    def test_recover_clears_learned_state(self):
        eng = Engine()
        h1, h2 = lan(eng)
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
                                     flow_id="p1", dst_ip=h2.ip, count=1))
        eng.run_until(1_000_000)
        assert h1.arp.cache
        eng.inject_fault(1_100_000, "fail_node", "h1")
        eng.inject_fault(1_200_000, "recover", "h1")
        eng.run_until(2_000_000)
        assert not h1.arp.cache


class TestDeterminism:
    def run_digest(self, seed):
        eng = Engine(seed=seed, trace=True)
        h1, h2, h3 = lan(eng, hosts=3)
        h1.add_generator(TrafficSpec(kind="cbr", src="h1", dst="h2",
                                     flow_id="c1", dst_ip=h2.ip,
                                     rate_bps=8_000_000, src_port=40000,
                                     dst_port=5001, stop_us=500_000))
        h3.add_generator(TrafficSpec(kind="ping", src="h3", dst="h1",
                                     flow_id="p1", dst_ip=h1.ip, count=3))
        eng.run_until(4_000_000)
        blob = eng.trace_text() + "\n".join(eng.metrics.summary_lines())
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_same_seed_same_trace(self):
        assert self.run_digest(42) == self.run_digest(42)

    def test_trace_line_format(self):
        eng = Engine(seed=1, trace=True)
        h1, h2 = lan(eng)
        h1.add_generator(TrafficSpec(kind="ping", src="h1", dst="h2",
                                     flow_id="p1", dst_ip=h2.ip, count=1))
        eng.run_until(1_000_000)
        assert eng.trace_lines
        for line in eng.trace_lines:
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
        eng = Engine(trace=True)
        h1, h2 = lan(eng)
        total = 2_000_000  # about 0.17 s at 100 Mbps without the outage
        h1.add_generator(TrafficSpec(kind="bulk", src="h1", dst="h2",
                                     flow_id="b1", dst_ip=h2.ip,
                                     total_bytes=total, src_port=40000,
                                     dst_port=5001))
        eng.inject_fault(50_000, "fail_link", "h2:0-sw:p2")
        eng.inject_fault(400_000, "recover", "h2:0-sw:p2")
        eng.run_until(10_000_000)
        st = eng.metrics.flows["b1"]
        assert st.completed_at is not None and st.completed_at > 400_000
        assert st.delivered_payload == total  # no byte counted twice
        assert h2.bulk_recv["b1"]["received"] == total
        assert st.offered_payload > total
        assert eng.metrics.drops[("sw", "link-down")] > 0
        # the first resend, lost on the dead link, doubles the RTO from its
        # 200 ms floor: the second comes 400 ms later
        sent = sorted({int(line.split("\t")[0][2:]) for line in eng.trace_lines
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
        h1.add_generator(TrafficSpec(kind="bulk", src="h1", dst="h2",
                                     flow_id="b1", dst_ip=h2.ip,
                                     total_bytes=total, src_port=40000,
                                     dst_port=5001))
        eng.inject_fault(20_000, "fail_link", "h2:0-sw:p2")
        eng.inject_fault(20_300, "recover", "h2:0-sw:p2")
        eng.run_until(5_000_000)
        st = eng.metrics.flows["b1"]
        assert st.completed_at is not None
        assert st.delivered_payload == total == h2.bulk_recv["b1"]["received"]
        segments = -(-total // 1460)
        assert st.delivered_packets > segments  # refused segments came again

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
            h2._deliver(data(offset))
            assert h2.bulk_recv["b"]["received"] == taken
        assert eng.metrics.flows["b"].delivered_payload == 5840
        # ACKs (held for h1's MAC): at once for the gap and the duplicate,
        # then on the fourth segment taken, which completes the flow
        acks = [p.meta[3] for p in h2.arp.pending[(0, h1.ip)]]
        assert acks == [1460, 2920, 5840]

    def test_rto_follows_rfc6298(self):
        def sender():
            return BulkSender(TrafficSpec(kind="bulk", src="a", dst="b",
                                          flow_id="f"))
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
