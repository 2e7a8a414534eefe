"""Invariant checks over scenarios and fault-time status reports."""
from __future__ import annotations

import copy
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .fabric import (broadcast_delivery, build_switch_fabric, host_attachment,
                     host_vid)
from .firewall import Firewall
from .packet import Packet, ip_addr, ip_str
from .resilience import Unavailable
from .scenario import (FaultDecl, HostDecl, LinkDecl, PortSpec,
                       ScenarioConfig, TrafficDecl, build_engine, carried_vids)

INVARIANTS = ("isolation", "zone-policy", "nat-bijection", "failover",
              "determinism")


class UnknownInvariant(Exception):
    pass


class UnknownNode(Exception):
    pass


@dataclass
class VerifyResult:
    invariant: str
    passed: bool
    detail: str = ""

    def lines(self) -> list[str]:
        out = [f"invariant={self.invariant}",
               f"result={'pass' if self.passed else 'fail'}"]
        if self.detail:
            out.append(f"detail={self.detail}")
        return out


def verify(cfg: ScenarioConfig, invariant: str, seed: int = 0) -> VerifyResult:
    if invariant not in INVARIANTS:
        raise UnknownInvariant(invariant)
    check = {
        "isolation": _verify_isolation,
        "zone-policy": _verify_zone_policy,
        "nat-bijection": _verify_nat_bijection,
        "failover": _verify_failover,
        "determinism": _verify_determinism,
    }[invariant]
    passed, detail = check(cfg, seed)
    return VerifyResult(invariant, passed, detail)


# -- isolation -------------------------------------------------------------

def _beamline_hosts(cfg: ScenarioConfig, group: str) -> list[str]:
    return sorted(h for h, d in cfg.hosts.items() if d.group == group)


def _verify_isolation(cfg: ScenarioConfig, seed: int):
    """Attach a host claiming beamline A's addressing at beamline B's switch
    and check whether its frames can reach A's hosts at all."""
    a_hosts = _beamline_hosts(cfg, "bl01")
    b_hosts = _beamline_hosts(cfg, "bl02")
    if not a_hosts or not b_hosts:
        return False, "scenario lacks bl01/bl02 host groups for the probe"
    trial = copy.deepcopy(cfg)
    _, peer = build_switch_fabric(trial)
    b_attach = host_attachment(trial, peer, b_hosts[0])
    b_vid = host_vid(trial, peer, b_hosts[0])
    sw_name, _ = b_attach
    trial.switches[sw_name].ports["rogue"] = PortSpec("access", vid=b_vid)
    trial.hosts["rogue"] = HostDecl("rogue", ip_addr("10.1.1.200"), 24,
                                    vlan=b_vid, group="rogue")
    trial.links.append(LinkDecl(("rogue", 0), (sw_name, "rogue"), 100_000_000))
    delivered = broadcast_delivery(trial, "rogue")
    crossed = sorted(delivered & set(a_hosts))
    if crossed:
        return False, (f"rogue at {sw_name} with bl01-range source reached "
                       f"{crossed[0]} ({len(crossed)} bl01 hosts in all)")
    return True, (f"rogue frames at {sw_name} stayed inside vlan {b_vid}; "
                  f"0 of {len(a_hosts)} bl01 hosts reached")


# -- zone policy -----------------------------------------------------------

def _outside_host(cfg: ScenarioConfig) -> Optional[str]:
    names = sorted(h for h, d in cfg.hosts.items() if d.group == "outside")
    return names[0] if names else None


def _external_ip(cfg: ScenarioConfig) -> Optional[int]:
    masq = sorted(cfg.masquerades, key=lambda m: m.node)
    return masq[0].external if masq else None


def _verify_zone_policy(cfg: ScenarioConfig, seed: int):
    """Outbound dmz->public traffic flows; unsolicited public->dmz does not."""
    inside = _beamline_hosts(cfg, "bl01")
    outside = _outside_host(cfg)
    ext_ip = _external_ip(cfg)
    if not inside or outside is None or ext_ip is None:
        return False, "scenario lacks inside/outside hosts or masquerade scopes"
    trial = copy.deepcopy(cfg)
    trial.traffic = [
        TrafficDecl("ping", inside[0], "zp-out", dst=outside, count=3),
        # unsolicited tcp initiation from outside at the masqueraded edge;
        # no inside binding ever used port 80, so nothing may get through
        TrafficDecl("cbr", outside, "zp-in", dst_ip=ext_ip, rate=2_000_000,
                    sport=30_000, dport=80, stop_us=3_000_000),
    ]
    trial.faults = []
    eng = build_engine(trial, seed=seed)
    eng.run_until(6_000_000)
    out_flow = eng.metrics.flows.get("zp-out")
    in_flow = eng.metrics.flows.get("zp-in")
    if out_flow is None or out_flow.completed_at is None:
        return False, "permitted dmz->public flow did not complete"
    if in_flow is not None and in_flow.delivered_packets > 0:
        return False, (f"unsolicited public-side flow delivered "
                       f"{in_flow.delivered_packets} packets inside")
    return True, (f"dmz->public echo completed at "
                  f"{out_flow.completed_at / 1e6:.3f}s; unsolicited inbound "
                  f"delivered 0 packets")


# -- nat bijection ---------------------------------------------------------

def _verify_nat_bijection(cfg: ScenarioConfig, seed: int):
    """64 synthetic flows through the scenario's first firewall must map to
    distinct outside tuples and reverse-translate exactly."""
    if not cfg.firewalls:
        return False, "scenario declares no firewall"
    name = sorted(cfg.firewalls)[0]
    decl = cfg.firewalls[name]
    fw = Firewall(name, nat_capacity=max(decl.nat_capacity, 64))
    scopes = [m for m in cfg.masquerades if m.node == name]
    if not scopes:
        return False, f"firewall {name} has no masquerade scope"
    for m in scopes:
        fw.add_scope(m.network, m.prefix_len, m.external)
    remote = scopes[0].external + 100  # an address inside the first scope
    outside_seen = {}
    for i in range(64):
        pkt = Packet(src_ip=ip_addr(f"10.{i // 8 + 1}.1.{i % 8 + 10}"),
                     dst_ip=remote, protocol="tcp", src_port=40_000 + i,
                     dst_port=80)
        got = fw.masquerade_out(pkt, now=0)
        key = (got.src_ip, got.src_port)
        if key in outside_seen:
            return False, (f"flows {outside_seen[key]} and {i} share outside "
                           f"tuple {ip_str(key[0])}:{key[1]}")
        outside_seen[key] = i
        reply = Packet(src_ip=remote, dst_ip=got.src_ip, protocol="tcp",
                       src_port=80, dst_port=got.src_port)
        back = fw.masquerade_in(reply, now=1)
        if back is None or (back.dst_ip, back.dst_port) != (pkt.src_ip,
                                                            pkt.src_port):
            return False, f"reply for flow {i} did not reverse-translate"
    return True, f"64 flows, 64 distinct outside tuples, 64 correct reversals"


# -- failover --------------------------------------------------------------

def _verify_failover(cfg: ScenarioConfig, seed: int):
    if not cfg.balancers:
        return False, "scenario has no redundant firewall path"
    inside = _beamline_hosts(cfg, "bl01")
    outside = _outside_host(cfg)
    if not inside or outside is None:
        return False, "scenario lacks probe traffic endpoints"
    trial = copy.deepcopy(cfg)
    trial.traffic = [
        TrafficDecl("cbr", inside[0], "steady", dst=outside, rate=4_000_000,
                    sport=40_000, dport=5001, stop_us=20_000_000),
        TrafficDecl("bulk", inside[1], "after", dst=outside,
                    total=1_000_000, start_us=15_000_000, sport=40_001,
                    dport=5002),
    ]
    trial.faults = [FaultDecl(10_000_000, "fail_node", "fw1")]
    eng = build_engine(trial, seed=seed, trace=True)
    eng.run_until(22_000_000)
    down_at = None
    late_dispatch = None
    for line in eng.trace_lines:
        fields = dict(f.split("=", 1) for f in line.split("\t"))
        t = int(fields["t"])
        if fields["ev"] == "path_down" and "path=fw1" in fields["info"]:
            down_at = down_at if down_at is not None else t
        if (fields["ev"] == "tx" and "dispatch path=fw1" in fields["info"]
                and t > 14_000_000):
            late_dispatch = late_dispatch if late_dispatch is not None else t
    if down_at is None:
        return False, "fw1 was never marked down"
    if late_dispatch is not None:
        return False, f"packet dispatched to failed fw1 at t={late_dispatch}µs"
    after = eng.metrics.flows.get("after")
    if after is None or after.completed_at is None:
        return False, "connection opened after failover did not complete"
    return True, (f"switchover in {(down_at - 10_000_000) / 1e6:.1f}s; "
                  f"post-failover transfer completed at "
                  f"{after.completed_at / 1e6:.3f}s")


# -- determinism -----------------------------------------------------------

def _run_digest(cfg: ScenarioConfig, seed: int) -> str:
    eng = build_engine(cfg, seed=seed, trace=True)
    eng.run_until(cfg.duration_us)
    # hashed line by line: the digest of trace_text() + summary without
    # building that text, which is as large as the trace again
    digest = hashlib.sha256()
    for line in eng.trace_lines:
        digest.update(line.encode() + b"\n")
    digest.update("\n".join(eng.metrics.summary_lines()).encode())
    return digest.hexdigest()


def _verify_determinism(cfg: ScenarioConfig, seed: int):
    first = _run_digest(cfg, seed)
    second = _run_digest(cfg, seed)
    if first != second:
        return False, f"same seed produced digests {first[:12]} != {second[:12]}"
    return True, f"two runs, one digest {first[:12]}"


# -- status ----------------------------------------------------------------

@dataclass
class StatusReport:
    at_us: int
    nodes: list = field(default_factory=list)  # (name, kind, state, details)
    affected_vlans: list = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"at={self.at_us / 1e6:g}s",
               f"affected_vlans={','.join(str(v) for v in self.affected_vlans) or '-'}"]
        for name, kind, state, details in self.nodes:
            out.append(f"node={name} kind={kind} state={state} {details}")
        return out


def _monitor_host(cfg: ScenarioConfig) -> Optional[str]:
    mgmt = sorted(h for h, d in cfg.hosts.items() if d.group == "mgmt")
    return mgmt[0] if mgmt else None


def affected_vlans(cfg: ScenarioConfig, dead_nodes: set,
                   dead_links: set) -> list[int]:
    """Beamline VLANs whose hosts lost their management reachability.

    A host needs an L2 path on its VLAN to its gateway, and the gateway one
    on the monitor's VLAN to the monitor host. A link carries a VID when both
    ends do, so a path is symmetric: one search per (VID, gateway or monitor)
    answers for every host behind it.
    """
    monitor = _monitor_host(cfg)
    mon_vid = cfg.hosts[monitor].vlan if monitor is not None else None
    adjacency: dict = {}  # node -> [(neighbour, VIDs or None for all, link)]
    for link in cfg.links:
        (na, pa), (nb, pb) = link.a, link.b
        va, vb = carried_vids(cfg, na, pa), carried_vids(cfg, nb, pb)
        shared = vb if va is None else va if vb is None else va & vb
        link_id = link.link_id
        adjacency.setdefault(na, []).append((nb, shared, link_id))
        adjacency.setdefault(nb, []).append((na, shared, link_id))
    gateways: dict = {}  # ip -> node; L3 switches before firewalls, first wins
    for name, decl in cfg.l3s.items():
        for iface in decl.interfaces:
            gateways.setdefault(iface.ip, name)
    for name, decl in cfg.firewalls.items():
        for side in (decl.inside, decl.outside):
            gateways.setdefault(side.ip, name)

    def unreachable(dead_n, dead_l):
        @functools.cache
        def reached(vid, start):
            """The nodes with a live L2 path on `vid` to `start`."""
            seen = set() if start in dead_n else {start}
            frontier = list(seen)
            while frontier:
                for nxt, vids, link_id in adjacency.get(frontier.pop(), ()):
                    if (nxt not in seen and nxt not in dead_n
                            and (vids is None or vid in vids)
                            and link_id not in dead_l):
                        seen.add(nxt)
                        frontier.append(nxt)
            return seen

        bad = set()
        for host, decl in cfg.hosts.items():
            if decl.vlan is None or decl.group in (None, "mgmt", "outside"):
                continue
            if host in dead_n:
                ok = False
            elif decl.gw is None:
                ok = monitor is None or host in reached(decl.vlan, monitor)
            else:
                gw_node = gateways.get(decl.gw)
                ok = (gw_node is not None
                      and host in reached(decl.vlan, gw_node)
                      and (monitor is None
                           or gw_node in reached(mon_vid, monitor)))
            if not ok:
                bad.add(decl.vlan)
        return bad

    baseline = unreachable(set(), set())
    faulted = unreachable(dead_nodes, dead_links)
    return sorted(faulted - baseline)


def status(cfg: ScenarioConfig, at_us: int,
           node: Optional[str] = None) -> StatusReport:
    if node is not None and node not in cfg.node_names():
        raise UnknownNode(node)
    eng = build_engine(cfg)
    eng.run_until(at_us)
    dead_nodes = {n for n, obj in eng.nodes.items() if obj.failed}
    dead_links = {lid for lid, link in eng.links.items() if not link.up}
    report = StatusReport(at_us=at_us,
                          affected_vlans=affected_vlans(cfg, dead_nodes,
                                                        dead_links))
    for name in sorted(eng.nodes):
        if node is not None and name != node:
            continue
        obj = eng.nodes[name]
        state = "failed" if obj.failed else "up"
        details = ""
        if obj.kind == "switch":
            details = f"ports={len(obj.switch.ports)} fdb={len(obj.switch.fdb)}"
        elif obj.kind == "l3":
            details = (f"interfaces={len(obj.router.interfaces)} "
                       f"conn={len(obj.router.conn)}")
        elif obj.kind == "firewall":
            details = f"nat={obj.fw.nat_size()} conn={len(obj.fw.conn)}"
        elif obj.kind == "balancer":
            health = ",".join(f"{p}:{obj.lb.paths[p].state}"
                              for p in sorted(obj.lb.paths))
            details = f"paths={health}"
        report.nodes.append((name, obj.kind, state, details))
    return report
