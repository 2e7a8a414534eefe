"""Synchronous L2 fabric tools: instantiate the switches of a scenario and
propagate single frames without the event engine."""
from __future__ import annotations

from .l2 import Switch
from .packet import BROADCAST, Frame, make_frame, node_mac
from .scenario import ScenarioConfig, configure_ports, far_ends


def build_switch_fabric(cfg: ScenarioConfig):
    """Return (switches, peer map) for the pure-L2 part of a scenario."""
    peer = far_ends(cfg)
    switches = {}
    for name, decl in cfg.switches.items():
        switches[name] = sw = Switch(name)
        configure_ports(sw, decl, peer)
    return switches, peer


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
    attach = peer.get((src_host, 0))
    if attach is None or attach[0] not in switches:
        return set()
    frame = make_frame(node_mac(src_host), BROADCAST, 46)
    reached = propagate(switches, peer, attach, frame)
    return {node for node, _port in reached if node in cfg.hosts}

