"""Synchronous L2 fabric tools: instantiate the switches of a scenario,
propagate single frames without the event engine, and generate random
loop-free topologies for property sweeps."""
from __future__ import annotations

import random
from typing import Optional

from .l2 import Switch
from .packet import BROADCAST, Frame, make_frame
from .scenario import (HostDecl, LinkDecl, PortSpec, ScenarioConfig,
                       SwitchDecl, VlanDecl, ip_addr, node_mac)


def build_switch_fabric(cfg: ScenarioConfig):
    """Return (switches, peer map) for the pure-L2 part of a scenario."""
    switches = {}
    for name, decl in cfg.switches.items():
        sw = Switch(name)
        for pid in sorted(decl.ports, key=str):
            spec = decl.ports[pid]
            sw.configure_port(pid, spec.mode, vid=spec.vid,
                              allowed=spec.allowed, lag_group=spec.lag)
        switches[name] = sw
    peer = {}
    for link in cfg.links:
        peer[link.a] = link.b
        peer[link.b] = link.a
    return switches, peer


def host_attachment(cfg: ScenarioConfig, peer: dict, host: str):
    """The (switch, port) a host's cable lands on, or None."""
    end = peer.get((host, 0))
    if end is not None and end[0] in cfg.switches:
        return end
    return None


def propagate(switches: dict, peer: dict, ingress: tuple,
              frame: Frame) -> set:
    """Flood one frame through the switch fabric; return reached endpoints.

    The returned set holds (node, port) pairs for every non-switch endpoint
    the frame is emitted toward. Assumes a loop-free fabric.
    """
    reached = set()
    queue = [(ingress[0], ingress[1], frame)]
    while queue:
        node, port, fr = queue.pop()
        for out_port, out_frame in switches[node].ingress(port, fr, 0) or ():
            other = peer.get((node, out_port))
            if other is None:
                continue
            if other[0] in switches:
                queue.append((other[0], other[1], out_frame))
            else:
                reached.add(other)
    return reached


def broadcast_delivery(cfg: ScenarioConfig, src_host: str,
                       switches=None, peer=None) -> set:
    """Hosts that receive a broadcast frame sent by `src_host`."""
    if switches is None:
        switches, peer = build_switch_fabric(cfg)
    attach = host_attachment(cfg, peer, src_host)
    if attach is None:
        return set()
    frame = make_frame(node_mac(src_host), BROADCAST, 46)
    reached = propagate(switches, peer, attach, frame)
    return {node for node, _port in reached if node in cfg.hosts}


def random_topology(rng: random.Random) -> ScenarioConfig:
    """A random loop-free access/trunk fabric: ≤ 8 switches, ≤ 16 VLANs,
    ≤ 64 hosts. Inter-switch links are trunks with random allowed sets."""
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
        pa, pb = f"t{len(ports[a])}", f"t{len(ports[b])}"
        ports[a][pa] = PortSpec("trunk", allowed=tuple(
            sorted(rng.sample(vids, rng.randint(1, n_vid)))))
        ports[b][pb] = PortSpec("trunk", allowed=tuple(
            sorted(rng.sample(vids, rng.randint(1, n_vid)))))
        cfg.links.append(LinkDecl((a, pa), (b, pb), 100_000_000))
    n_hosts = rng.randint(2, 64)
    for h in range(1, n_hosts + 1):
        sw = f"s{rng.randint(1, n_sw)}"
        vid = rng.choice(vids)
        pid = f"h{len(ports[sw])}"
        ports[sw][pid] = PortSpec("access", vid=vid)
        name = f"h{h}"
        cfg.hosts[name] = HostDecl(name, ip_addr(f"10.{vid}.0.{h}"), 16,
                                   vlan=vid)
        cfg.links.append(LinkDecl((name, 0), (sw, pid), 100_000_000))
    for name, pp in ports.items():
        cfg.switches[name] = SwitchDecl(name, pp)
    return cfg


def host_vid(cfg: ScenarioConfig, peer: dict, host: str) -> Optional[int]:
    attach = host_attachment(cfg, peer, host)
    if attach is None:
        return None
    spec = cfg.switches[attach[0]].ports[attach[1]]
    return spec.vid if spec.mode == "access" else None
