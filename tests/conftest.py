"""Shared oracles plus the acceptance-verdict summary hook."""

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
