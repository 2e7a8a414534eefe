"""Shared oracles, test helpers and the acceptance-verdict summary hook."""
import gc
import random
from dataclasses import dataclass
from typing import Optional

import pytest

from netfab.engine import trace_line
# ReferenceSwitch keeps the constant's name from when it was a default
from netfab.l2 import FDB_AGING_US as DEFAULT_FDB_AGING_US
from netfab.l2 import FdbEntry, PortConfig, UnknownPort, lag_select
from netfab.packet import (BROADCAST, Frame, InvalidVid, check_vid,
                           frame_flow_key, ip_addr, pop_tag, push_tag)
from netfab.scenario import (HostDecl, LinkDecl, ScenarioConfig, SwitchDecl,
                             VlanDecl)

_acceptance_lines = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def gc_off():
    """The cyclic garbage collector off for one test, so only reference
    counting frees objects, and `gc.collect()` counts what it would not."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


class TraceLines(list):
    """An in-memory trace sink: each record's `trace_line`, in order."""

    def __call__(self, *record):
        self.append(trace_line(*record))

    def text(self) -> str:
        return "\n".join(self) + ("\n" if self else "")


def bulk_transfer_time(rate_cap_bps: float, total_bytes: float) -> float:
    """Ideal lower bound (seconds) for a transfer through a rate-capped path."""
    if rate_cap_bps <= 0:
        raise ValueError("rate_cap must be > 0")
    return total_bytes * 8 / rate_cap_bps


def classify_dst(frame: Frame) -> str:
    if frame.dst == BROADCAST:
        return "broadcast"
    if frame.dst[0] & 1:
        return "multicast"
    return "unicast"


def random_topology(rng: random.Random,
                    lag_members: int = 0) -> ScenarioConfig:
    """A random loop-free access/trunk fabric: ≤ 8 switches, ≤ 16 VLANs,
    ≤ 64 hosts. Inter-switch links are trunks with random allowed sets.
    With `lag_members`, each is a LAG bundle of 1 to that many members,
    whose ports on one switch share an allowed set, and each member is
    cabled or not at random; without it, the draws are those of a fabric
    with no bundle."""
    cfg = ScenarioConfig()
    n_sw = rng.randint(1, 8)
    n_vid = rng.randint(1, 16)
    vids = list(range(1, n_vid + 1))
    for v in vids:
        cfg.vlans[v] = VlanDecl(v, f"v{v}")
    ports: dict[str, dict] = {f"s{i}": {} for i in range(1, n_sw + 1)}
    for i in range(2, n_sw + 1):  # random spanning tree
        j = rng.randint(1, i - 1)
        a, b = f"s{i}", f"s{j}"
        allowed_a = tuple(sorted(rng.sample(vids, rng.randint(1, n_vid))))
        allowed_b = tuple(sorted(rng.sample(vids, rng.randint(1, n_vid))))
        lag = f"g{i}" if lag_members else None
        for _ in range(rng.randint(1, lag_members) if lag_members else 1):
            pa, pb = f"t{len(ports[a])}", f"t{len(ports[b])}"
            ports[a][pa] = PortConfig("trunk", allowed=allowed_a,
                                      lag_group=lag)
            ports[b][pb] = PortConfig("trunk", allowed=allowed_b,
                                      lag_group=lag)
            if not lag_members or rng.random() < 0.6:
                cfg.links.append(LinkDecl((a, pa), (b, pb), 100_000_000))
    n_hosts = rng.randint(2, 64)
    for h in range(1, n_hosts + 1):
        sw = f"s{rng.randint(1, n_sw)}"
        vid = rng.choice(vids)
        pid = f"h{len(ports[sw])}"
        ports[sw][pid] = PortConfig("access", vid=vid)
        name = f"h{h}"
        cfg.hosts[name] = HostDecl(name, ip_addr(f"10.{vid}.0.{h}"), 16,
                                   vlan=vid)
        cfg.links.append(LinkDecl((name, 0), (sw, pid), 100_000_000))
    for name, pp in ports.items():
        cfg.switches[name] = SwitchDecl(name, pp)
    return cfg


def vlan_reach_oracle(cfg, src_host):
    """Hosts a broadcast from src_host must reach, by graph search.

    Independent of the switch implementation: BFS over the switch graph
    using only declared VLAN membership of the port pairs.
    """
    src = cfg.hosts[src_host]
    vid = src.vlan
    attach = {}
    for link in cfg.links:
        for (na, pa), (nb, pb) in ((link.a, link.b), (link.b, link.a)):
            if na in cfg.hosts and nb in cfg.switches:
                attach[na] = nb
    edges = {}
    for link in cfg.links:
        (na, pa), (nb, pb) = link.a, link.b
        if na in cfg.switches and nb in cfg.switches:
            sa = cfg.switches[na].ports[pa]
            sb = cfg.switches[nb].ports[pb]
            if _member(sa, vid) and _member(sb, vid):
                edges.setdefault(na, []).append(nb)
                edges.setdefault(nb, []).append(na)
    start = attach[src_host]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in edges.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {h for h, d in cfg.hosts.items()
            if h != src_host and d.vlan == vid and attach.get(h) in seen}


def _member(spec, vid):
    return spec.vid == vid if spec.mode == "access" else vid in spec.allowed


def switch_links_on(cfg, vid) -> dict:
    """Each logical inter-switch link whose two ports carry `vid`, keyed by
    its LAG bundle's two (switch, group) pairs, or by its link id when it
    is not a bundle member, and mapped to its two switches."""
    edges = {}
    for link in cfg.links:
        (na, pa), (nb, pb) = link.a, link.b
        if na not in cfg.switches or nb not in cfg.switches:
            continue
        sa, sb = cfg.switches[na].ports[pa], cfg.switches[nb].ports[pb]
        if _member(sa, vid) and _member(sb, vid):
            key = (frozenset([(na, sa.lag_group), (nb, sb.lag_group)])
                   if sa.lag_group and sb.lag_group else link.link_id)
            edges[key] = (na, nb)
    return edges


def breaks_lag_rule(cfg) -> bool:
    """Whether some cabled member of a switch's LAG group faces anything but
    a LAG member on another switch, or the group's members face more than
    one (switch, group) pair: IEEE 802.1AX aggregates links between two
    systems."""
    faced = {}  # (switch, group) -> the (switch, group) pairs it faces
    for link in cfg.links:
        for (na, pa), (nb, pb) in ((link.a, link.b), (link.b, link.a)):
            if na not in cfg.switches:
                continue
            group = cfg.switches[na].ports[pa].lag_group
            if group is None:
                continue
            if nb == na or nb not in cfg.switches:
                return True
            far = cfg.switches[nb].ports[pb].lag_group
            if far is None:
                return True
            faced.setdefault((na, group), set()).add((nb, far))
    return any(len(pairs) > 1 for pairs in faced.values())


def looped_vids(cfg) -> set:
    """The VIDs whose inter-switch links form a cycle, by counting rather
    than searching: a VID's graph has one iff its edges outnumber its nodes
    minus its connected components. Components come from relabelling each
    edge's ends with the smaller label until no label changes."""
    looped = set()
    for vid in cfg.vlans:
        edges = switch_links_on(cfg, vid)
        label = {n: n for pair in edges.values() for n in pair}
        changed = True
        while changed:
            changed = False
            for a, b in edges.values():
                low = min(label[a], label[b])
                if label[a] != low or label[b] != low:
                    label[a] = label[b] = low
                    changed = True
        if len(edges) > len(label) - len(set(label.values())):
            looped.add(vid)
    return looped


def affected_vlans_oracle(cfg, dead_nodes, dead_links):
    """`verify.affected_vlans` as one L2 search per host, rescanning every
    link for every node it visits; the reference the component search is
    compared against."""
    monitor = _monitor_host(cfg)

    def unreachable(dead_n, dead_l):
        bad = set()
        for host, decl in sorted(cfg.hosts.items()):
            if decl.vlan is None or decl.group in (None, "mgmt", "outside"):
                continue
            ok = True
            if host in dead_n:
                ok = False
            elif decl.gw is None:
                if monitor is not None:
                    ok = _l2_path_exists(cfg, decl.vlan, host, monitor,
                                         dead_n, dead_l)
            else:
                gw_node = _gateway_node(cfg, decl.gw)
                if gw_node is None:
                    ok = False
                else:
                    ok = _l2_path_exists(cfg, decl.vlan, host, gw_node,
                                         dead_n, dead_l)
                    if ok and monitor is not None:
                        mon_vid = cfg.hosts[monitor].vlan
                        ok = _l2_path_exists(cfg, mon_vid, gw_node, monitor,
                                             dead_n, dead_l)
            if not ok:
                bad.add(decl.vlan)
        return bad

    baseline = unreachable(set(), set())
    faulted = unreachable(dead_nodes, dead_links)
    return sorted(faulted - baseline)


def _carries(cfg, node, port, vid):
    if node in cfg.switches:
        spec = cfg.switches[node].ports.get(port)
        return spec is not None and _member(spec, vid)
    if node in cfg.l3s:
        decl = cfg.l3s[node]
        if port == "trunk":
            return any(i.vid == vid and i.port is None for i in decl.interfaces)
        return any(i.port == port and i.vid == vid for i in decl.interfaces)
    return True  # hosts, firewalls, balancers pass what reaches them


def _l2_path_exists(cfg, vid, src, dst, dead_nodes, dead_links):
    if src in dead_nodes or dst in dead_nodes:
        return False
    frontier = [src]
    seen = {src}
    while frontier:
        node = frontier.pop()
        if node == dst:
            return True
        for link in cfg.links:
            if link.link_id in dead_links:
                continue
            for (na, pa), (nb, pb) in ((link.a, link.b), (link.b, link.a)):
                if na != node or nb in seen or nb in dead_nodes:
                    continue
                if _carries(cfg, na, pa, vid) and _carries(cfg, nb, pb, vid):
                    seen.add(nb)
                    frontier.append(nb)
    return dst in seen


def _gateway_node(cfg, gw_ip):
    for name, decl in cfg.l3s.items():
        if any(i.ip == gw_ip for i in decl.interfaces):
            return name
    for name, decl in cfg.firewalls.items():
        for side in (decl.inside, decl.outside):
            if side.ip == gw_ip:
                return name
    return None


def _monitor_host(cfg):
    mgmt = sorted(h for h, d in cfg.hosts.items() if d.group == "mgmt")
    return mgmt[0] if mgmt else None


@dataclass
class ReferencePort:
    """`netfab.l2.PortConfig` as it was when the port's up flag was part of
    the record; the reference switch's own, so it does not change along with
    the code it checks."""
    port_id: int
    mode: str  # "access" | "trunk"
    vid: Optional[int] = None
    allowed: frozenset = frozenset()
    lag_group: Optional[str] = None
    up: bool = True

    def __post_init__(self):
        if self.mode == "access":
            check_vid(self.vid)
            self.allowed = frozenset()
        elif self.mode == "trunk":
            if not self.allowed:
                raise InvalidVid("trunk allowed set must be non-empty")
            self.allowed = frozenset(check_vid(v) for v in self.allowed)
            self.vid = None
        else:
            raise ValueError(f"unknown port mode {self.mode!r}")

    def member_of(self, vid: int) -> bool:
        if self.mode == "access":
            return self.vid == vid
        return vid in self.allowed


class ReferenceSwitch:
    """`netfab.l2.Switch` as it was before its forwarding tables: every frame
    scans the ports. The reference the table-driven switch is compared
    against; kept verbatim apart from this name, this docstring, its port
    record, `ReferencePort`, and the shapes of a MAC address and an FDB
    entry."""

    def __init__(self, name: str, fdb_aging_us: int = DEFAULT_FDB_AGING_US,
                 hash_salt: bytes = b""):
        self.name = name
        self.ports: dict[int, ReferencePort] = {}
        self.fdb: dict[tuple, FdbEntry] = {}
        self.fdb_aging_us = fdb_aging_us
        self.hash_salt = hash_salt
        self.counters: dict[int, dict[str, int]] = {}

    def _counters(self, port_id: int) -> dict[str, int]:
        c = self.counters.get(port_id)
        if c is None:
            c = {"rx_frames": 0, "rx_bytes": 0, "tx_frames": 0,
                 "tx_bytes": 0, "drop_frames": 0, "drop_bytes": 0}
            self.counters[port_id] = c
        return c

    def configure_port(self, port_id: int, mode: str, vid: Optional[int] = None,
                       allowed=(), lag_group: Optional[str] = None) -> ReferencePort:
        if port_id in self.ports and lag_group is None:
            lag_group = self.ports[port_id].lag_group
        cfg = ReferencePort(port_id=port_id, mode=mode, vid=vid,
                            allowed=frozenset(allowed), lag_group=lag_group)
        self.ports[port_id] = cfg
        self._counters(port_id)
        # purge learned entries for VLANs this port no longer carries
        stale = [k for k, e in self.fdb.items()
                 if e.port == port_id and not cfg.member_of(k[0])]
        for k in stale:
            del self.fdb[k]
        return cfg

    def set_port_up(self, port_id: int, up: bool):
        if port_id not in self.ports:
            raise UnknownPort(f"{self.name} has no port {port_id}")
        self.ports[port_id].up = up

    def vlan_members(self, vid: int) -> list[int]:
        return [p for p, cfg in sorted(self.ports.items()) if cfg.member_of(vid)]

    def _drop(self, port_id: int, frame: Frame):
        c = self._counters(port_id)
        c["drop_frames"] += 1
        c["drop_bytes"] += frame.size_bytes

    def ingress(self, port_id: int, frame: Frame, now: int) -> list[tuple[int, Frame]]:
        """Process an arriving frame; returns (egress port, frame) emissions."""
        if port_id not in self.ports:
            raise UnknownPort(f"{self.name} has no port {port_id}")
        port = self.ports[port_id]
        c = self._counters(port_id)
        c["rx_frames"] += 1
        c["rx_bytes"] += frame.size_bytes
        if not port.up:
            self._drop(port_id, frame)
            return []

        # VLAN classification
        if frame.tag is None and port.mode == "access":
            vid = port.vid
            inner = frame
        elif frame.tag is not None and port.mode == "trunk" and frame.tag in port.allowed:
            inner, vid = pop_tag(frame)
        else:
            self._drop(port_id, frame)
            return []

        # learning
        if not frame.src[0] & 1:
            self.fdb[(vid, frame.src)] = FdbEntry(port_id, now)

        # forwarding decision
        targets: list[int] = []
        entry = self.fdb.get((vid, frame.dst)) if classify_dst(inner) == "unicast" else None
        if entry is not None:
            if entry.port != port_id:
                tcfg = self.ports.get(entry.port)
                if tcfg is not None and tcfg.member_of(vid):
                    targets = [self._lag_resolve(entry.port, vid, inner)]
                    targets = [t for t in targets if t is not None]
            # destination behind the ingress port: filter silently
        else:
            targets = self._flood_targets(port_id, vid, inner)

        out: list[tuple[int, Frame]] = []
        for t in targets:
            tcfg = self.ports[t]
            if tcfg.mode == "access":
                emitted = inner
            else:
                emitted = push_tag(inner, vid)
            tc = self._counters(t)
            tc["tx_frames"] += 1
            tc["tx_bytes"] += emitted.size_bytes
            out.append((t, emitted))
        return out

    def _lag_resolve(self, port_id: int, vid: int, inner: Frame) -> Optional[int]:
        """Map a chosen port to a live member of its LAG group (itself if ungrouped)."""
        cfg = self.ports[port_id]
        if cfg.lag_group is None:
            return port_id if cfg.up else None
        live = [p for p, c in sorted(self.ports.items())
                if c.lag_group == cfg.lag_group and c.up and c.member_of(vid)]
        if not live:
            return None
        return lag_select(live, frame_flow_key(inner), self.hash_salt)

    def _flood_targets(self, ingress_port: int, vid: int, inner: Frame) -> list[int]:
        targets = []
        seen_groups = set()
        ingress_group = self.ports[ingress_port].lag_group
        for p, cfg in sorted(self.ports.items()):
            if p == ingress_port or not cfg.up or not cfg.member_of(vid):
                continue
            if cfg.lag_group is not None:
                if cfg.lag_group == ingress_group or cfg.lag_group in seen_groups:
                    continue
                seen_groups.add(cfg.lag_group)
                choice = self._lag_resolve(p, vid, inner)
                if choice is not None:
                    targets.append(choice)
            else:
                targets.append(p)
        return targets

    def age_fdb(self, now: int):
        stale = [k for k, e in self.fdb.items()
                 if now - e.last_seen > self.fdb_aging_us]
        for k in stale:
            del self.fdb[k]

    def reset_dynamic(self):
        self.fdb.clear()
