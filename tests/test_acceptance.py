"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Each test prints a single summary line (bypassing pytest capture) so a plain
run shows the verdict for every criterion, then asserts it.
"""

import random
import time

from conftest import random_topology, record_acceptance, vlan_reach_oracle
from netfab.engine import TrafficSpec
from netfab.fabric import broadcast_delivery, build_switch_fabric
from netfab.firewall import Firewall
from netfab.packet import Packet, ip_addr
from netfab.scenario import (BUNDLED, FaultDecl, build_engine,
                             build_spring8_redundant, build_spring8_upgraded,
                             parse_scenario, validate_scenario)
from netfab.verify import verify


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    line = f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    print(line)
    record_acceptance(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# Two hosts either side of one NAT firewall, every link 1 Gbps, so the
# firewall's 170 Mbps cap is the only bottleneck on the path.
FIREWALL_RIG = """
[engine]
seed=1 duration={duration}

[vlan]
vid=10 name=dmz subnet=10.0.0.0/24
vid=20 name=public subnet=198.18.0.0/24

[switch]
name=si ports=h:access:10,f:access:10
name=so ports=h:access:20,f:access:20

[firewall]
name=fw inside=routed:10.0.0.1/24:dmz outside=routed:198.18.0.1/24:public cap=170000000 nat_capacity=1024 zones=on

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
kind=bulk src=h1 dst=h2 flow=xfer total={total} sport=40000 dport=5001
"""

# A constant-rate stream squeezed through a single uplink of varying speed.
UPLINK_RIG = """
[engine]
seed=1 duration=10

[vlan]
vid=10 name=lab subnet=10.0.10.0/24

[switch]
name=s1 ports=p1:access:10,p2:access:10

[host]
name=h1 ip=10.0.10.1/24 vlan=10
name=h2 ip=10.0.10.2/24 vlan=10

[link]
a=h1:0 b=s1:p1 bw={uplink}
a=h2:0 b=s1:p2 bw=100000000

[traffic]
kind=cbr src=h1 dst=h2 flow=stream rate=34130000 dport=5001
"""


def _run_rig(text: str) -> "Engine":
    cfg = parse_scenario(text)
    validate_scenario(cfg)
    eng = build_engine(cfg)
    eng.run_until(cfg.duration_us)
    return eng


def test_criterion_1_vlan_isolation_property_sweep():
    t0 = time.monotonic()
    rng = random.Random(42)
    topologies = 500
    mismatches = 0
    for _ in range(topologies):
        cfg = random_topology(rng)
        switches, peer = build_switch_fabric(cfg)
        for host in cfg.hosts:
            got = broadcast_delivery(cfg, host, switches, peer)
            if got != vlan_reach_oracle(cfg, host):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(1, "vlan-isolation-sweep", ok,
            f"{topologies} topologies, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_spoofing_blocked_after_segmentation():
    legacy = verify(BUNDLED["spring8-legacy"](), "isolation")
    upgraded = verify(BUNDLED["spring8-upgraded"](), "isolation")
    ok = (not legacy.passed) and upgraded.passed
    _report(2, "cross-segment-spoofing", ok,
            f"flat fabric: {legacy.detail}; segmented fabric: {upgraded.detail}")


def test_criterion_3_firewall_goodput_cap():
    # More offered data than 30 s at the cap can carry, so the stream is
    # backlogged for the whole window.
    eng = _run_rig(FIREWALL_RIG.format(duration=30, total=2_000_000_000))
    st = eng.metrics.flows["xfer"]
    goodput = st.delivered_bytes * 8 / 30e6
    ok = abs(goodput - 170.0) <= 170.0 * 0.02
    _report(3, "firewall-170mbps-goodput", ok, f"measured {goodput:.2f} Mbps")


def test_criterion_4_bulk_transfer_completion_time():
    total = 1_000_000_000
    bound_s = total * 8 / 170e6
    eng = _run_rig(FIREWALL_RIG.format(duration=60, total=total))
    st = eng.metrics.flows["xfer"]
    done = st.completed_at is not None
    wall_s = st.completed_at / 1e6 if done else float("inf")
    ok = done and abs(wall_s - bound_s) <= bound_s * 0.05
    _report(4, "bulk-transfer-time", ok,
            f"1 GB in {wall_s:.2f}s, analytic bound {bound_s:.2f}s")


def test_criterion_5_uplink_bandwidth_upgrade():
    losses = {}
    for bw in (10_000_000, 100_000_000):
        eng = _run_rig(UPLINK_RIG.format(uplink=bw))
        st = eng.metrics.flows["stream"]
        losses[bw] = 1.0 - st.delivered_bytes / st.offered_bytes
    ok = losses[10_000_000] > 0.65 and losses[100_000_000] < 0.001
    _report(5, "uplink-upgrade-loss", ok,
            f"10M link loses {losses[10_000_000]:.1%}, "
            f"100M link loses {losses[100_000_000]:.2%}")


def test_criterion_6_firewall_failover():
    redundant = build_spring8_redundant()
    failover = verify(redundant, "failover")

    # With both firewalls down, the balancer must report the path unavailable.
    both_down = build_spring8_redundant()
    both_down.traffic.append(TrafficSpec(
        kind="cbr", src="bl01h1", dst="ext1", flow_id="doomed",
        start_us=15_000_000, rate_bps=1_000_000, dst_port=5002))
    for target in ("fw1", "fw2"):
        both_down.faults.append(FaultDecl(10_000_000, "fail_node", target))
    eng = build_engine(both_down)
    eng.run_until(both_down.duration_us)
    unavailable = eng.metrics.unavailable

    # The same fault in the single-firewall design causes an outage that
    # persists for the rest of the run.
    single = build_spring8_upgraded()
    single.duration_us = 30_000_000
    single.traffic.append(TrafficSpec(
        kind="cbr", src="bl01h1", dst="oa1", flow_id="outage",
        start_us=15_000_000, rate_bps=1_000_000, dst_port=5002))
    single.faults.append(FaultDecl(10_000_000, "fail_node", "fw1"))
    eng2 = build_engine(single)
    eng2.run_until(single.duration_us)
    lost = eng2.metrics.flows["outage"].delivered_packets == 0

    ok = failover.passed and unavailable > 0 and lost
    _report(6, "redundant-firewall-failover", ok,
            f"{failover.detail}; both-down unavailable events={unavailable}; "
            f"single-firewall outage persists={lost}")


def test_criterion_7_nat_capacity_and_scoping():
    bijection = verify(build_spring8_upgraded(), "nat-bijection")

    fw = Firewall(nat_capacity=256)
    ext_private = ip_addr("198.18.0.61")
    ext_default = ip_addr("198.18.0.62")
    fw.add_scope(ip_addr("172.16.0.0"), 12, ext_private)
    fw.add_scope(ip_addr("0.0.0.0"), 0, ext_default)
    matched = 0
    trials = 0
    for i in range(100):
        for dst, want in ((ip_addr("172.16.5.1") + i, ext_private),
                          (ip_addr("203.0.113.1") + i, ext_default)):
            pkt = Packet(src_ip=ip_addr("10.0.0.2") + i, dst_ip=dst,
                         protocol="tcp", src_port=30000 + i, dst_port=80)
            out = fw.masquerade_out(pkt, now=0)
            trials += 1
            matched += out.src_ip == want
    ok = bijection.passed and matched == trials
    _report(7, "nat-capacity-and-scope-selection", ok,
            f"{bijection.detail}; scope-matched {matched}/{trials} flows")


def test_criterion_8_vlan_interface_scale():
    cfg = build_spring8_redundant()
    t0 = time.monotonic()
    validate_scenario(cfg)
    validate_s = time.monotonic() - t0
    eng = build_engine(cfg)
    router = eng.nodes["l3r"].router
    ifaces = list(router.interfaces.values())
    one_hop = all(
        (route := router.route_lookup(dst.network + 2)) is not None
        and route.via_vid == dst.vid
        for src in ifaces for dst in ifaces if src.vid != dst.vid)
    ok = len(ifaces) >= 66 and one_hop and validate_s < 5.0
    _report(8, "routed-vlan-scale", ok,
            f"{len(ifaces)} interfaces, all pairs one hop, "
            f"validation {validate_s:.2f}s")


def test_criterion_9_deterministic_replay():
    details = []
    ok = True
    for name in sorted(BUNDLED):
        result = verify(BUNDLED[name](), "determinism")
        ok = ok and result.passed
        details.append(f"{name}: {'identical' if result.passed else 'diverged'}")
    _report(9, "same-seed-determinism", ok, "; ".join(details))
