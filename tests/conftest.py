"""Shared oracles plus the acceptance-verdict summary hook."""
from typing import Optional

from netfab.l2 import (DEFAULT_FDB_AGING_US, FdbEntry, PortConfig,
                       UnknownPort, lag_select)
from netfab.packet import (Frame, classify_dst, frame_flow_key, pop_tag,
                           push_tag)

_acceptance_lines = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


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


class ReferenceSwitch:
    """`netfab.l2.Switch` as it was before its forwarding tables: every frame
    scans the ports. The reference the table-driven switch is compared
    against; kept verbatim apart from this name and docstring."""

    def __init__(self, name: str, fdb_aging_us: int = DEFAULT_FDB_AGING_US,
                 hash_salt: bytes = b""):
        self.name = name
        self.ports: dict[int, PortConfig] = {}
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
                       allowed=(), lag_group: Optional[str] = None) -> PortConfig:
        if port_id in self.ports and lag_group is None:
            lag_group = self.ports[port_id].lag_group
        cfg = PortConfig(port_id=port_id, mode=mode, vid=vid,
                         allowed=frozenset(allowed), lag_group=lag_group)
        self.ports[port_id] = cfg
        self._counters(port_id)
        # purge learned entries for VLANs this port no longer carries
        stale = [k for k, e in self.fdb.items()
                 if e.port == port_id and not cfg.member_of(e.vlan)]
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
        elif frame.tag is not None and port.mode == "trunk" and frame.tag.vid in port.allowed:
            inner, vid = pop_tag(frame)
        else:
            self._drop(port_id, frame)
            return []

        # learning
        if not frame.src.is_multicast:
            self.fdb[(vid, frame.src)] = FdbEntry(vid, frame.src, port_id, now)

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
