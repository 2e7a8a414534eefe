"""Invariant checks over scenarios and fault-time status reports."""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

from .engine import Metrics, TrafficSpec, trace_line
from .fabric import broadcast_delivery
from .firewall import Firewall
from .l2 import PortConfig
from .packet import Packet, ip_addr, ip_str
from .scenario import (FaultDecl, HostDecl, LinkDecl, ScenarioConfig,
                       build_engine, far_ends, host_gateways, vlan_graph,
                       vlan_reach)


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


def verify(cfg: ScenarioConfig, invariant: str,
           seed: Optional[int] = None) -> VerifyResult:
    """Check `invariant` on cfg, at cfg's seed or, when given, at `seed`."""
    check = CHECKS.get(invariant)
    if check is None:
        raise UnknownInvariant(invariant)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    passed, detail = check(cfg)
    return VerifyResult(invariant, passed, detail)


def _simulate(cfg: ScenarioConfig, until_us: int, trace=None) -> Metrics:
    """The metrics of cfg's engine run to until_us. Nothing points back
    into the engine, so it is freed when this returns."""
    return build_engine(cfg, trace=trace).run_until(until_us)


# -- isolation -------------------------------------------------------------

def _beamline_hosts(cfg: ScenarioConfig, group: str) -> list[str]:
    return sorted(h for h, d in cfg.hosts.items() if d.group == group)


def _first_host(cfg: ScenarioConfig, group: str) -> Optional[str]:
    return min((h for h, d in cfg.hosts.items() if d.group == group),
               default=None)


def _verify_isolation(cfg: ScenarioConfig):
    """Attach a host claiming beamline A's addressing at beamline B's switch
    and check whether its frames can reach A's hosts at all."""
    a_hosts = _beamline_hosts(cfg, "bl01")
    probe = _first_host(cfg, "bl02")
    if not a_hosts or probe is None:
        return False, "scenario lacks bl01/bl02 host groups for the probe"
    sw_name, port = far_ends(cfg).get((probe, 0), (None, None))
    switch = cfg.switches.get(sw_name)
    b_vid = None if switch is None else switch.ports[port].vid
    if b_vid is None:
        return False, f"bl02 probe host {probe} is on no switch access port"
    # cfg with the rogue added: new containers and a new record wherever the
    # trial differs, the caller's declarations shared and left unchanged
    trial = replace(
        cfg,
        switches={**cfg.switches, sw_name: replace(switch, ports={
            **switch.ports, "rogue": PortConfig("access", vid=b_vid)})},
        hosts={**cfg.hosts, "rogue": HostDecl(
            "rogue", ip_addr("10.1.1.200"), 24, vlan=b_vid, group="rogue")},
        links=[*cfg.links, LinkDecl(("rogue", 0), (sw_name, "rogue"),
                                    100_000_000)])
    delivered = broadcast_delivery(trial, "rogue")
    crossed = sorted(delivered & set(a_hosts))
    if crossed:
        return False, (f"rogue at {sw_name} with bl01-range source reached "
                       f"{crossed[0]} ({len(crossed)} bl01 hosts in all)")
    return True, (f"rogue frames at {sw_name} stayed inside vlan {b_vid}; "
                  f"0 of {len(a_hosts)} bl01 hosts reached")


# -- zone policy -----------------------------------------------------------

def _external_ip(cfg: ScenarioConfig) -> Optional[int]:
    masq = sorted(cfg.masquerades, key=lambda m: m.node)
    return masq[0].external if masq else None


def _verify_zone_policy(cfg: ScenarioConfig):
    """Outbound dmz->public traffic flows; unsolicited public->dmz does not."""
    inside = _beamline_hosts(cfg, "bl01")
    outside = _first_host(cfg, "outside")
    ext_ip = _external_ip(cfg)
    if not inside or outside is None or ext_ip is None:
        return False, "scenario lacks inside/outside hosts or masquerade scopes"
    trial = replace(cfg, faults=[], traffic=[
        TrafficSpec("ping", inside[0], "zp-out", dst=outside, count=3),
        # unsolicited tcp initiation from outside at the masqueraded edge;
        # no inside binding ever used port 80, so nothing may get through
        TrafficSpec("cbr", outside, "zp-in", dst_ip=ext_ip,
                    rate_bps=2_000_000, src_port=30_000, dst_port=80,
                    stop_us=3_000_000),
    ])
    flows = _simulate(trial, 6_000_000).flows
    out_flow = flows.get("zp-out")
    in_flow = flows.get("zp-in")
    if out_flow is None or out_flow.completed_at is None:
        return False, "permitted dmz->public flow did not complete"
    if in_flow is not None and in_flow.delivered_packets > 0:
        return False, (f"unsolicited public-side flow delivered "
                       f"{in_flow.delivered_packets} packets inside")
    return True, (f"dmz->public echo completed at "
                  f"{out_flow.completed_at / 1e6:.3f}s; unsolicited inbound "
                  f"delivered 0 packets")


# -- nat bijection ---------------------------------------------------------

def _verify_nat_bijection(cfg: ScenarioConfig):
    """64 synthetic flows through the scenario's first firewall must map to
    distinct outside tuples and reverse-translate exactly."""
    if not cfg.firewalls:
        return False, "scenario declares no firewall"
    name = sorted(cfg.firewalls)[0]
    decl = cfg.firewalls[name]
    fw = Firewall(nat_capacity=max(decl.nat_capacity, 64))
    scopes = [m for m in cfg.masquerades if m.node == name]
    if not scopes:
        return False, f"firewall {name} has no masquerade scope"
    for m in scopes:
        fw.add_scope(m.network, m.prefix_len, m.external)
    scope = scopes[0]  # the remote is an address inside the first scope
    remote = scope.network + 100 % (1 << (32 - scope.prefix_len))
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

def _verify_failover(cfg: ScenarioConfig):
    """Fail the node on the first balancer's first path at 10 s: the path
    must go down, take no later dispatch, and a transfer opened after the
    switchover must complete."""
    if not cfg.balancers:
        return False, "scenario has no redundant firewall path"
    inside = _beamline_hosts(cfg, "bl01")
    outside = _first_host(cfg, "outside")
    if len(inside) < 2 or outside is None:
        return False, "scenario lacks probe traffic endpoints"
    balancer = min(cfg.balancers)
    path = cfg.balancers[balancer].paths[0]
    target, _port = far_ends(cfg).get((balancer, path), (None, None))
    if target is None:
        return False, f"path {path} of {balancer} is cabled to nothing"
    trial = replace(cfg, traffic=[
        TrafficSpec("cbr", inside[0], "steady", dst=outside,
                    rate_bps=4_000_000, src_port=40_000, dst_port=5001,
                    stop_us=20_000_000),
        TrafficSpec("bulk", inside[1], "after", dst=outside,
                    total_bytes=1_000_000, start_us=15_000_000,
                    src_port=40_001, dst_port=5002),
    ], faults=[FaultDecl(10_000_000, "fail_node", target)])
    first = {}  # "path_down" / "tx" -> t of the first down / late dispatch
    watched = f"path={path}"

    def watch(t, _node, ev, _vlan, _flow, info):
        if (ev == "path_down" and info == watched) or (
                ev == "tx" and info == "dispatch " + watched
                and t > 14_000_000):
            first.setdefault(ev, t)

    metrics = _simulate(trial, 22_000_000, trace=watch)
    down_at, late_dispatch = first.get("path_down"), first.get("tx")
    if down_at is None:
        return False, f"path {path} was never marked down"
    if late_dispatch is not None:
        return False, (f"packet dispatched to failed path {path} at "
                       f"t={late_dispatch}µs")
    after = metrics.flows.get("after")
    if after is None or after.completed_at is None:
        return False, "connection opened after failover did not complete"
    return True, (f"switchover in {(down_at - 10_000_000) / 1e6:.1f}s; "
                  f"post-failover transfer completed at "
                  f"{after.completed_at / 1e6:.3f}s")


# -- determinism -----------------------------------------------------------

DIGEST_BATCH = 512  # trace lines hashed per sha256 update


def _run_digest(cfg: ScenarioConfig) -> str:
    """sha256 of the trace text (each line ending in a newline) + the summary.

    Lines are hashed in batches as the run goes, so memory stays bounded; a
    sha256 fed in pieces gives the digest of their concatenation."""
    digest = hashlib.sha256()
    batch = []

    def sink(*record):
        batch.append(trace_line(*record))
        if len(batch) == DIGEST_BATCH:
            batch.append("")  # the last line's newline
            digest.update("\n".join(batch).encode())
            batch.clear()

    metrics = _simulate(cfg, cfg.duration_us, trace=sink)
    batch.append("\n".join(metrics.summary_lines()))  # after the last batch
    digest.update("\n".join(batch).encode())
    return digest.hexdigest()


def _verify_determinism(cfg: ScenarioConfig):
    first = _run_digest(cfg)
    second = _run_digest(cfg)
    if first != second:
        return False, f"same seed produced digests {first[:12]} != {second[:12]}"
    return True, f"two runs, one digest {first[:12]}"


CHECKS = {
    "isolation": _verify_isolation,
    "zone-policy": _verify_zone_policy,
    "nat-bijection": _verify_nat_bijection,
    "failover": _verify_failover,
    "determinism": _verify_determinism,
}
INVARIANTS = tuple(CHECKS)


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


def affected_vlans(cfg: ScenarioConfig, dead_nodes: set,
                   dead_links: set) -> list[int]:
    """Beamline VLANs whose hosts lost their management reachability.

    A host needs an L2 path on its VLAN to its gateway, the node
    `host_gateways` names, and the gateway one
    on the monitor's VLAN to the monitor host. A path is symmetric, so one
    `vlan_reach` per (VID, gateway or monitor) serves all hosts behind it."""
    monitor = _first_host(cfg, "mgmt")
    mon_vid = cfg.hosts[monitor].vlan if monitor is not None else None
    graph = vlan_graph(cfg, cfg.links)
    gateways = host_gateways(cfg)

    def unreachable(dead_n, dead_l):
        @functools.cache
        def reached(vid, start):
            return vlan_reach(graph, vid, start, dead_n, dead_l)

        bad = set()
        for host, decl in cfg.hosts.items():
            if decl.vlan is None or decl.group in (None, "mgmt", "outside"):
                continue
            if host in dead_n:
                ok = False
            elif decl.gw is None:
                ok = monitor is None or host in reached(decl.vlan, monitor)
            else:
                gw_node = gateways[host]
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


def _node_details(obj) -> str:
    """The state one `status` line reports for a node of obj's kind."""
    if obj.kind == "switch":
        return f"ports={len(obj.switch.ports)} fdb={len(obj.switch.fdb)}"
    if obj.kind == "l3":
        return (f"interfaces={len(obj.router.interfaces)} "
                f"conn={len(obj.router.conn)}")
    if obj.kind == "firewall":
        return f"nat={obj.fw.nat_size()} conn={len(obj.fw.conn)}"
    if obj.kind == "balancer":
        health = ",".join(f"{p}:{path.state}"
                          for p, path in obj.lb.paths.items())
        return f"paths={health}"
    return ""


def status(cfg: ScenarioConfig, at_us: int,
           node: Optional[str] = None) -> StatusReport:
    """Node states (only `node`'s when given) at at_us and the VLANs the
    faults cut off. Dropped once its rows are read, the engine is freed
    before `affected_vlans` runs: nothing points back into it."""
    if node is not None and node not in cfg.node_names():
        raise UnknownNode(node)
    eng = build_engine(cfg)
    eng.run_until(at_us)
    dead_nodes = {n for n, obj in eng.nodes.items() if obj.failed}
    dead_links = {lid for lid, link in eng.links.items() if not link.up}
    rows = [(name, obj.kind, "failed" if obj.failed else "up",
             _node_details(obj))
            for name, obj in sorted(eng.nodes.items())
            if node is None or name == node]
    del eng
    return StatusReport(at_us, rows,
                        affected_vlans(cfg, dead_nodes, dead_links))
