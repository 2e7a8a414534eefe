"""Scenario files: parsing, validation, the bundled topologies, engine wiring.

The format is line-oriented and diff-friendly: `[section]` headers, one
declaration per line, space-separated `key=value` pairs, `#` comments.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .engine import (CBR_PACKET, DEFAULT_SHAPE_INTERVAL_US, Engine,
                     FirewallNode, FirewallSide, HostNode, L3Node, SwitchNode,
                     BalancerNode, TrafficSpec)
from .firewall import DEFAULT_CAP_BPS, Firewall
from .l3 import ZonePolicy, ZoneRouter
from .packet import MacAddress, ip_addr, ip_network, ip_str
from .resilience import LoadBalancer

# a faster cbr flow sends every 0 us, so simulated time never advances
MAX_CBR_RATE = CBR_PACKET * 8 * 1_000_000

SECTIONS = ("switch", "l3", "firewall", "balancer", "host", "link", "vlan",
            "route", "acl", "masquerade", "traffic", "fault", "engine")


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ScenarioError):
    def __init__(self, reference: str, reason: str):
        super().__init__(f"{reference}: {reason}")
        self.reference = reference
        self.reason = reason


class LoopError(ScenarioError):
    def __init__(self, vid: int, cycle: list[str]):
        super().__init__(f"vlan {vid} forms a loop: {' - '.join(cycle)}")
        self.vid = vid
        self.cycle = cycle


def node_mac(name: str) -> MacAddress:
    """Stable locally-administered MAC derived from the node name."""
    digest = hashlib.blake2b(name.encode(), digest_size=6).digest()
    return MacAddress(bytes([0x02]) + digest[1:])


# -- declarations ----------------------------------------------------------

@dataclass
class PortSpec:
    mode: str  # access | trunk
    vid: Optional[int] = None
    allowed: tuple = ()
    lag: Optional[str] = None

    def member_of(self, vid: int) -> bool:
        if self.mode == "access":
            return self.vid == vid
        return vid in self.allowed


@dataclass
class SwitchDecl:
    name: str
    ports: dict = field(default_factory=dict)


@dataclass
class IfaceDecl:
    node: str
    vid: int
    ip: int
    prefix_len: int
    zone: str
    port: Optional[str] = None


@dataclass
class L3Decl:
    name: str
    interfaces: list = field(default_factory=list)


@dataclass
class SideDecl:
    mode: str
    ip: Optional[int]
    prefix_len: int
    zone: str
    gw: Optional[int] = None
    peer: Optional[str] = None
    routes: list = field(default_factory=list)  # (net, plen, via)


@dataclass
class FirewallDecl:
    name: str
    cap_bps: int = DEFAULT_CAP_BPS
    nat_capacity: int = 1024
    zones: bool = True
    inside: SideDecl = None
    outside: SideDecl = None


@dataclass
class BalancerDecl:
    name: str
    ip: int
    peer_ip: int
    paths: tuple = ()
    override: dict = field(default_factory=dict)  # external ip -> path


@dataclass
class HostDecl:
    name: str
    ip: int
    prefix_len: int
    gw: Optional[int] = None
    vlan: Optional[int] = None
    group: Optional[str] = None


@dataclass
class LinkDecl:
    a: tuple
    b: tuple
    bw: int
    prop: int = 5
    queue: int = 256

    @property
    def link_id(self) -> str:
        return f"{self.a[0]}:{self.a[1]}-{self.b[0]}:{self.b[1]}"


@dataclass
class VlanDecl:
    vid: int
    name: str
    subnet: Optional[tuple] = None  # (network, prefix_len)


@dataclass
class RouteDecl:
    node: str
    prefix: int
    prefix_len: int
    via_vid: Optional[int] = None
    gateway: Optional[int] = None


@dataclass
class AclDecl:
    from_zone: str
    to_zone: str
    verdict: str


@dataclass
class MasqDecl:
    node: str
    network: int
    prefix_len: int
    external: int


@dataclass
class TrafficDecl:
    kind: str
    src: str
    flow: str
    dst: Optional[str] = None
    dst_ip: Optional[int] = None
    start_us: int = 0
    stop_us: Optional[int] = None
    rate: int = 0
    total: int = 0
    count: int = 0
    sport: int = 0
    dport: int = 0


@dataclass
class FaultDecl:
    at_us: int
    action: str
    target: str


@dataclass
class ScenarioConfig:
    switches: dict = field(default_factory=dict)
    l3s: dict = field(default_factory=dict)
    firewalls: dict = field(default_factory=dict)
    balancers: dict = field(default_factory=dict)
    hosts: dict = field(default_factory=dict)
    links: list = field(default_factory=list)
    vlans: dict = field(default_factory=dict)
    routes: list = field(default_factory=list)
    acls: list = field(default_factory=list)
    masquerades: list = field(default_factory=list)
    traffic: list = field(default_factory=list)
    faults: list = field(default_factory=list)
    seed: int = 0
    duration_us: int = 30_000_000

    def node_names(self) -> set:
        return (set(self.switches) | set(self.l3s) | set(self.firewalls)
                | set(self.balancers) | set(self.hosts))


# -- parsing ---------------------------------------------------------------

def _port_token(tok: str):
    return int(tok) if tok.isdigit() else tok


def _parse_kv(line: str, lineno: int) -> dict:
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ParseError(lineno, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in out:
            raise ParseError(lineno, f"duplicate key {k!r}")
        out[k] = v
    return out


def _need(kv: dict, key: str, lineno: int) -> str:
    if key not in kv:
        raise ParseError(lineno, f"missing required key {key!r}")
    return kv.pop(key)


def _int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {value!r}")


def _ip(value: str, lineno: int) -> int:
    try:
        return ip_addr(value)
    except (ValueError, OSError):
        raise ParseError(lineno, f"bad ip address {value!r}")


def _cidr(value: str, lineno: int) -> tuple:
    try:
        return ip_network(value)
    except (ValueError, OSError):
        raise ParseError(lineno, f"bad network {value!r}")


def _ip_plen(value: str, lineno: int) -> tuple:
    if "/" not in value:
        raise ParseError(lineno, f"expected ip/prefix, got {value!r}")
    addr, plen = value.split("/", 1)
    return _ip(addr, lineno), _int(plen, lineno, "prefix length")


def _seconds_us(value: str, lineno: int, what: str) -> int:
    try:
        return int(round(float(value) * 1_000_000))
    except ValueError:
        raise ParseError(lineno, f"{what} must be a number of seconds")


def _parse_ports(value: str, lineno: int) -> dict:
    ports = {}
    for item in value.split(","):
        parts = item.split(":")
        if len(parts) not in (3, 4):
            raise ParseError(lineno, f"bad port spec {item!r}")
        pid = _port_token(parts[0])
        mode = parts[1]
        if mode == "access":
            spec = PortSpec("access", vid=_int(parts[2], lineno, "vid"))
        elif mode == "trunk":
            allowed = tuple(sorted(_int(v, lineno, "vid")
                                   for v in parts[2].split("|")))
            spec = PortSpec("trunk", allowed=allowed)
        else:
            raise ParseError(lineno, f"unknown port mode {mode!r}")
        if len(parts) == 4:
            spec.lag = parts[3]
        if pid in ports:
            raise ParseError(lineno, f"duplicate port {pid!r}")
        ports[pid] = spec
    return ports


def _parse_side(value: str, lineno: int) -> SideDecl:
    parts = value.split(":")
    if len(parts) != 3:
        raise ParseError(lineno, f"side spec is mode:ip/prefix:zone, got {value!r}")
    mode, addr, zone = parts
    if mode not in ("routed", "inline"):
        raise ParseError(lineno, f"unknown firewall side mode {mode!r}")
    if addr:
        ip, plen = _ip_plen(addr, lineno)
    else:
        ip, plen = None, 24
    return SideDecl(mode=mode, ip=ip, prefix_len=plen, zone=zone)


def _parse_side_routes(value: str, lineno: int) -> list:
    routes = []
    for item in value.split(","):
        if ":" not in item:
            raise ParseError(lineno, f"side route is net/prefix:via, got {item!r}")
        netpart, via = item.rsplit(":", 1)
        net, plen = _cidr(netpart, lineno)
        routes.append((net, plen, _ip(via, lineno)))
    return routes


def _reject_extra(kv: dict, lineno: int):
    if kv:
        raise ParseError(lineno, f"unknown key {sorted(kv)[0]!r}")


def parse_scenario(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in SECTIONS:
                raise ParseError(lineno, f"unknown section [{section}]")
            continue
        if section is None:
            raise ParseError(lineno, "declaration before any [section] header")
        kv = _parse_kv(line, lineno)
        _parse_decl(cfg, section, kv, lineno)
    return cfg


def _parse_decl(cfg: ScenarioConfig, section: str, kv: dict, lineno: int):
    if section == "switch":
        name = _need(kv, "name", lineno)
        ports = _parse_ports(_need(kv, "ports", lineno), lineno)
        _reject_extra(kv, lineno)
        if name in cfg.node_names():
            raise ParseError(lineno, f"duplicate node name {name!r}")
        cfg.switches[name] = SwitchDecl(name, ports)
    elif section == "l3":
        if "name" in kv:
            name = _need(kv, "name", lineno)
            _reject_extra(kv, lineno)
            if name in cfg.node_names():
                raise ParseError(lineno, f"duplicate node name {name!r}")
            cfg.l3s[name] = L3Decl(name)
        else:
            node = _need(kv, "node", lineno)
            if node not in cfg.l3s:
                raise ParseError(lineno, f"interface for undeclared l3 {node!r}")
            vid = _int(_need(kv, "vid", lineno), lineno, "vid")
            ip, plen = _ip_plen(_need(kv, "ip", lineno), lineno)
            zone = _need(kv, "zone", lineno)
            port = kv.pop("port", None)
            _reject_extra(kv, lineno)
            cfg.l3s[node].interfaces.append(
                IfaceDecl(node, vid, ip, plen, zone,
                          _port_token(port) if port is not None else None))
    elif section == "firewall":
        name = _need(kv, "name", lineno)
        decl = FirewallDecl(name)
        decl.inside = _parse_side(_need(kv, "inside", lineno), lineno)
        decl.outside = _parse_side(_need(kv, "outside", lineno), lineno)
        if "cap" in kv:
            decl.cap_bps = _int(kv.pop("cap"), lineno, "cap")
        if "nat_capacity" in kv:
            decl.nat_capacity = _int(kv.pop("nat_capacity"), lineno, "nat_capacity")
        if "zones" in kv:
            decl.zones = kv.pop("zones") == "on"
        for side_name in ("inside", "outside"):
            side = getattr(decl, side_name)
            if f"{side_name}_gw" in kv:
                side.gw = _ip(kv.pop(f"{side_name}_gw"), lineno)
            if f"{side_name}_peer" in kv:
                side.peer = kv.pop(f"{side_name}_peer")
            if f"{side_name}_routes" in kv:
                side.routes = _parse_side_routes(kv.pop(f"{side_name}_routes"),
                                                 lineno)
        _reject_extra(kv, lineno)
        if name in cfg.node_names():
            raise ParseError(lineno, f"duplicate node name {name!r}")
        cfg.firewalls[name] = decl
    elif section == "balancer":
        name = _need(kv, "name", lineno)
        ip = _ip(_need(kv, "ip", lineno), lineno)
        peer_ip = _ip(_need(kv, "peer_ip", lineno), lineno)
        paths = tuple(_need(kv, "paths", lineno).split(","))
        override = {}
        if "override" in kv:
            for item in kv.pop("override").split(","):
                if ":" not in item:
                    raise ParseError(lineno, f"override is ip:path, got {item!r}")
                addr, path = item.rsplit(":", 1)
                override[_ip(addr, lineno)] = path
        _reject_extra(kv, lineno)
        if name in cfg.node_names():
            raise ParseError(lineno, f"duplicate node name {name!r}")
        cfg.balancers[name] = BalancerDecl(name, ip, peer_ip, paths, override)
    elif section == "host":
        name = _need(kv, "name", lineno)
        ip, plen = _ip_plen(_need(kv, "ip", lineno), lineno)
        decl = HostDecl(name, ip, plen)
        if "gw" in kv:
            decl.gw = _ip(kv.pop("gw"), lineno)
        if "vlan" in kv:
            decl.vlan = _int(kv.pop("vlan"), lineno, "vlan")
        if "group" in kv:
            decl.group = kv.pop("group")
        _reject_extra(kv, lineno)
        if name in cfg.node_names():
            raise ParseError(lineno, f"duplicate node name {name!r}")
        cfg.hosts[name] = decl
    elif section == "link":
        def endpoint(value):
            if ":" not in value:
                raise ParseError(lineno, f"endpoint is node:port, got {value!r}")
            node, port = value.rsplit(":", 1)
            return node, _port_token(port)
        a = endpoint(_need(kv, "a", lineno))
        b = endpoint(_need(kv, "b", lineno))
        decl = LinkDecl(a, b, _int(_need(kv, "bw", lineno), lineno, "bw"))
        if "prop" in kv:
            decl.prop = _int(kv.pop("prop"), lineno, "prop")
        if "queue" in kv:
            decl.queue = _int(kv.pop("queue"), lineno, "queue")
        _reject_extra(kv, lineno)
        cfg.links.append(decl)
    elif section == "vlan":
        vid = _int(_need(kv, "vid", lineno), lineno, "vid")
        name = _need(kv, "name", lineno)
        subnet = _cidr(kv.pop("subnet"), lineno) if "subnet" in kv else None
        _reject_extra(kv, lineno)
        if vid in cfg.vlans:
            raise ParseError(lineno, f"duplicate vlan {vid}")
        cfg.vlans[vid] = VlanDecl(vid, name, subnet)
    elif section == "route":
        node = _need(kv, "node", lineno)
        net, plen = _cidr(_need(kv, "prefix", lineno), lineno)
        via_vid = gateway = None
        if "via_vid" in kv:
            via_vid = _int(kv.pop("via_vid"), lineno, "via_vid")
        if "gateway" in kv:
            gateway = _ip(kv.pop("gateway"), lineno)
        _reject_extra(kv, lineno)
        if (via_vid is None) == (gateway is None):
            raise ParseError(lineno, "route needs exactly one of via_vid/gateway")
        cfg.routes.append(RouteDecl(node, net, plen, via_vid, gateway))
    elif section == "acl":
        decl = AclDecl(_need(kv, "from", lineno), _need(kv, "to", lineno),
                       _need(kv, "verdict", lineno))
        _reject_extra(kv, lineno)
        cfg.acls.append(decl)
    elif section == "masquerade":
        node = _need(kv, "node", lineno)
        net, plen = _cidr(_need(kv, "network", lineno), lineno)
        external = _ip(_need(kv, "external", lineno), lineno)
        _reject_extra(kv, lineno)
        cfg.masquerades.append(MasqDecl(node, net, plen, external))
    elif section == "traffic":
        kind = _need(kv, "kind", lineno)
        if kind not in ("cbr", "bulk", "ping"):
            raise ParseError(lineno, f"unknown traffic kind {kind!r}")
        decl = TrafficDecl(kind, _need(kv, "src", lineno),
                           _need(kv, "flow", lineno))
        if "dst" in kv:
            decl.dst = kv.pop("dst")
        if "dst_ip" in kv:
            decl.dst_ip = _ip(kv.pop("dst_ip"), lineno)
        if decl.dst is None and decl.dst_ip is None:
            raise ParseError(lineno, "traffic needs dst or dst_ip")
        if "start" in kv:
            decl.start_us = _seconds_us(kv.pop("start"), lineno, "start")
        if "stop" in kv:
            decl.stop_us = _seconds_us(kv.pop("stop"), lineno, "stop")
        for key in ("rate", "total", "count", "sport", "dport"):
            if key in kv:
                setattr(decl, key, _int(kv.pop(key), lineno, key))
        _reject_extra(kv, lineno)
        cfg.traffic.append(decl)
    elif section == "fault":
        at_us = _seconds_us(_need(kv, "at", lineno), lineno, "at")
        action = _need(kv, "action", lineno)
        if action not in ("fail_node", "fail_link", "recover"):
            raise ParseError(lineno, f"unknown fault action {action!r}")
        target = _need(kv, "target", lineno)
        _reject_extra(kv, lineno)
        cfg.faults.append(FaultDecl(at_us, action, target))
    elif section == "engine":
        if "seed" in kv:
            cfg.seed = _int(kv.pop("seed"), lineno, "seed")
        if "duration" in kv:
            cfg.duration_us = _seconds_us(kv.pop("duration"), lineno, "duration")
        _reject_extra(kv, lineno)


# -- serialization ---------------------------------------------------------

def _fmt_port(pid, spec: PortSpec) -> str:
    if spec.mode == "access":
        body = f"{pid}:access:{spec.vid}"
    else:
        body = f"{pid}:trunk:{'|'.join(str(v) for v in spec.allowed)}"
    if spec.lag is not None:
        body += f":{spec.lag}"
    return body


def serialize_scenario(cfg: ScenarioConfig) -> str:
    out = ["[engine]",
           f"seed={cfg.seed} duration={cfg.duration_us / 1e6:g}", ""]
    if cfg.vlans:
        out.append("[vlan]")
        for vid in sorted(cfg.vlans):
            v = cfg.vlans[vid]
            line = f"vid={vid} name={v.name}"
            if v.subnet is not None:
                line += f" subnet={ip_str(v.subnet[0])}/{v.subnet[1]}"
            out.append(line)
        out.append("")
    if cfg.switches:
        out.append("[switch]")
        for name in sorted(cfg.switches):
            sw = cfg.switches[name]
            ports = ",".join(_fmt_port(p, sw.ports[p]) for p in sorted(
                sw.ports, key=str))
            out.append(f"name={name} ports={ports}")
        out.append("")
    if cfg.l3s:
        out.append("[l3]")
        for name in sorted(cfg.l3s):
            out.append(f"name={name}")
            for i in sorted(cfg.l3s[name].interfaces, key=lambda x: x.vid):
                line = (f"node={name} vid={i.vid} ip={ip_str(i.ip)}/"
                        f"{i.prefix_len} zone={i.zone}")
                if i.port is not None:
                    line += f" port={i.port}"
                out.append(line)
        out.append("")
    if cfg.firewalls:
        out.append("[firewall]")
        for name in sorted(cfg.firewalls):
            fw = cfg.firewalls[name]
            parts = [f"name={name}"]
            for side_name in ("inside", "outside"):
                s = getattr(fw, side_name)
                addr = f"{ip_str(s.ip)}/{s.prefix_len}" if s.ip is not None else ""
                parts.append(f"{side_name}={s.mode}:{addr}:{s.zone}")
            parts.append(f"cap={fw.cap_bps}")
            parts.append(f"nat_capacity={fw.nat_capacity}")
            parts.append(f"zones={'on' if fw.zones else 'off'}")
            for side_name in ("inside", "outside"):
                s = getattr(fw, side_name)
                if s.gw is not None:
                    parts.append(f"{side_name}_gw={ip_str(s.gw)}")
                if s.peer is not None:
                    parts.append(f"{side_name}_peer={s.peer}")
                if s.routes:
                    routes = ",".join(f"{ip_str(n)}/{p}:{ip_str(v)}"
                                      for n, p, v in s.routes)
                    parts.append(f"{side_name}_routes={routes}")
            out.append(" ".join(parts))
        out.append("")
    if cfg.balancers:
        out.append("[balancer]")
        for name in sorted(cfg.balancers):
            b = cfg.balancers[name]
            line = (f"name={name} ip={ip_str(b.ip)} peer_ip={ip_str(b.peer_ip)}"
                    f" paths={','.join(b.paths)}")
            if b.override:
                items = ",".join(f"{ip_str(a)}:{p}"
                                 for a, p in sorted(b.override.items()))
                line += f" override={items}"
            out.append(line)
        out.append("")
    if cfg.hosts:
        out.append("[host]")
        for name in sorted(cfg.hosts):
            h = cfg.hosts[name]
            line = f"name={name} ip={ip_str(h.ip)}/{h.prefix_len}"
            if h.gw is not None:
                line += f" gw={ip_str(h.gw)}"
            if h.vlan is not None:
                line += f" vlan={h.vlan}"
            if h.group is not None:
                line += f" group={h.group}"
            out.append(line)
        out.append("")
    if cfg.links:
        out.append("[link]")
        for l in sorted(cfg.links, key=lambda x: x.link_id):
            line = (f"a={l.a[0]}:{l.a[1]} b={l.b[0]}:{l.b[1]} bw={l.bw}")
            if l.prop != 5:
                line += f" prop={l.prop}"
            if l.queue != 256:
                line += f" queue={l.queue}"
            out.append(line)
        out.append("")
    if cfg.routes:
        out.append("[route]")
        for r in sorted(cfg.routes, key=lambda x: (x.node, x.prefix_len, x.prefix)):
            line = f"node={r.node} prefix={ip_str(r.prefix)}/{r.prefix_len}"
            if r.via_vid is not None:
                line += f" via_vid={r.via_vid}"
            else:
                line += f" gateway={ip_str(r.gateway)}"
            out.append(line)
        out.append("")
    if cfg.acls:
        out.append("[acl]")
        for a in sorted(cfg.acls, key=lambda x: (x.from_zone, x.to_zone)):
            out.append(f"from={a.from_zone} to={a.to_zone} verdict={a.verdict}")
        out.append("")
    if cfg.masquerades:
        out.append("[masquerade]")
        for m in sorted(cfg.masquerades,
                        key=lambda x: (x.node, x.prefix_len, x.network)):
            out.append(f"node={m.node} network={ip_str(m.network)}/"
                       f"{m.prefix_len} external={ip_str(m.external)}")
        out.append("")
    if cfg.traffic:
        out.append("[traffic]")
        for t in cfg.traffic:
            parts = [f"kind={t.kind}", f"src={t.src}"]
            if t.dst is not None:
                parts.append(f"dst={t.dst}")
            if t.dst_ip is not None:
                parts.append(f"dst_ip={ip_str(t.dst_ip)}")
            parts.append(f"flow={t.flow}")
            if t.start_us:
                parts.append(f"start={t.start_us / 1e6:g}")
            if t.stop_us is not None:
                parts.append(f"stop={t.stop_us / 1e6:g}")
            for key in ("rate", "total", "count", "sport", "dport"):
                v = getattr(t, key)
                if v:
                    parts.append(f"{key}={v}")
            out.append(" ".join(parts))
        out.append("")
    if cfg.faults:
        out.append("[fault]")
        for f in cfg.faults:
            out.append(f"at={f.at_us / 1e6:g} action={f.action} target={f.target}")
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


# -- validation ------------------------------------------------------------

def _valid_port(cfg: ScenarioConfig, node: str, port) -> bool:
    if node in cfg.switches:
        return port in cfg.switches[node].ports
    if node in cfg.hosts:
        return port == 0
    if node in cfg.l3s:
        if port == "trunk":
            return True
        return any(i.port == port for i in cfg.l3s[node].interfaces)
    if node in cfg.firewalls:
        return port in ("inside", "outside")
    if node in cfg.balancers:
        return port == "front" or port in cfg.balancers[node].paths
    return False


def _check_loops(cfg: ScenarioConfig):
    """Per-VLAN cycle detection over the switch fabric; a LAG is one edge."""
    carried = set()
    for sw in cfg.switches.values():
        for spec in sw.ports.values():
            if spec.mode == "access":
                carried.add(spec.vid)
            else:
                carried.update(spec.allowed)
    for vid in sorted(carried):
        adjacency: dict[str, list] = {}
        seen_lags = set()
        for link in cfg.links:
            (na, pa), (nb, pb) = link.a, link.b
            if na not in cfg.switches or nb not in cfg.switches:
                continue
            sa = cfg.switches[na].ports.get(pa)
            sb = cfg.switches[nb].ports.get(pb)
            if sa is None or sb is None:
                continue
            if not (sa.member_of(vid) and sb.member_of(vid)):
                continue
            if sa.lag is not None and sb.lag is not None:
                lag_key = (na, sa.lag, nb, sb.lag)
                if lag_key in seen_lags:
                    continue  # parallel LAG member, same logical edge
                seen_lags.add(lag_key)
            adjacency.setdefault(na, []).append(nb)
            adjacency.setdefault(nb, []).append(na)
        cycle = _find_cycle(adjacency)
        if cycle is not None:
            raise LoopError(vid, cycle)


def _find_cycle(adjacency: dict) -> Optional[list]:
    visited = set()
    for start in sorted(adjacency):
        if start in visited:
            continue
        stack = [(start, None)]
        parent = {start: None}
        while stack:
            node, via = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            skipped_parent = False
            for nxt in adjacency.get(node, []):
                if nxt == via and not skipped_parent:
                    skipped_parent = True  # the edge we arrived on
                    continue
                if nxt in parent:
                    # close the cycle: walk both branches up to the root
                    path = [nxt, node]
                    cur = via
                    while cur is not None and cur != nxt:
                        path.append(cur)
                        cur = parent[cur]
                    return path
                parent[nxt] = node
                stack.append((nxt, node))
    return None


def validate_scenario(cfg: ScenarioConfig):
    names = cfg.node_names()
    link_ids = set()
    endpoints = set()
    for link in cfg.links:
        for node, port in (link.a, link.b):
            if node not in names:
                raise ValidationError(link.link_id,
                                      f"link endpoint {node!r} is not declared")
            if not _valid_port(cfg, node, port):
                raise ValidationError(link.link_id,
                                      f"{node!r} has no port {port!r}")
            if (node, port) in endpoints:
                raise ValidationError(link.link_id,
                                      f"port {node}:{port} used by two links")
            endpoints.add((node, port))
        if link.link_id in link_ids:
            raise ValidationError(link.link_id, "duplicate link")
        if link.bw <= 0:
            raise ValidationError(link.link_id, "bw must be > 0")
        link_ids.add(link.link_id)
    if cfg.vlans:
        for sw in cfg.switches.values():
            for pid, spec in sw.ports.items():
                vids = [spec.vid] if spec.mode == "access" else spec.allowed
                for vid in vids:
                    if vid not in cfg.vlans:
                        raise ValidationError(f"{sw.name}:{pid}",
                                              f"vlan {vid} is not declared")
        for host in cfg.hosts.values():
            if host.vlan is not None and host.vlan not in cfg.vlans:
                raise ValidationError(host.name,
                                      f"vlan {host.vlan} is not declared")
    for route in cfg.routes:
        if route.node not in cfg.l3s:
            raise ValidationError(route.node, "route on undeclared l3 switch")
    for masq in cfg.masquerades:
        if masq.node not in cfg.firewalls:
            raise ValidationError(masq.node,
                                  "masquerade scope on undeclared firewall")
    for fw in cfg.firewalls.values():
        for side in (fw.inside, fw.outside):
            if side.peer is not None and side.peer not in names:
                raise ValidationError(fw.name,
                                      f"peer {side.peer!r} is not declared")
    for bal in cfg.balancers.values():
        if len(bal.paths) != 2:
            raise ValidationError(bal.name, "balancer needs exactly two paths")
        for path in bal.override.values():
            if path not in bal.paths:
                raise ValidationError(bal.name,
                                      f"override path {path!r} not in paths")
    for t in cfg.traffic:
        if t.src not in cfg.hosts:
            raise ValidationError(t.flow, f"traffic src {t.src!r} is not a host")
        if t.dst is not None and t.dst not in cfg.hosts:
            raise ValidationError(t.flow, f"traffic dst {t.dst!r} is not a host")
        if t.kind == "cbr" and not 0 < t.rate <= MAX_CBR_RATE:
            raise ValidationError(
                t.flow, f"cbr rate must be in (0, {MAX_CBR_RATE}] bps")
    for f in cfg.faults:
        if f.target not in names and f.target not in link_ids:
            raise ValidationError(f.target, "fault target is not a node or link")
    _check_loops(cfg)


# -- engine construction ---------------------------------------------------

def build_engine(cfg: ScenarioConfig, seed: Optional[int] = None,
                 trace: bool = False) -> Engine:
    eng = Engine(seed=cfg.seed if seed is None else seed, trace=trace)
    policy_rules = {(a.from_zone, a.to_zone): a.verdict for a in cfg.acls}

    for name, decl in sorted(cfg.switches.items()):
        node = SwitchNode(eng, name)
        for pid in sorted(decl.ports, key=str):
            spec = decl.ports[pid]
            node.switch.configure_port(pid, spec.mode, vid=spec.vid,
                                       allowed=spec.allowed,
                                       lag_group=spec.lag)

    for name, decl in sorted(cfg.l3s.items()):
        router = ZoneRouter(name, policy=ZonePolicy(policy_rules))
        for iface in sorted(decl.interfaces, key=lambda i: i.vid):
            router.add_interface(iface.vid, iface.ip, iface.prefix_len,
                                 iface.zone, port=iface.port)
        for route in cfg.routes:
            if route.node == name:
                router.add_route(route.prefix, route.prefix_len,
                                 via_vid=route.via_vid, gateway=route.gateway)
        L3Node(eng, name, node_mac(name), router)

    for name, decl in sorted(cfg.firewalls.items()):
        fw = Firewall(name, nat_capacity=decl.nat_capacity)
        for masq in cfg.masquerades:
            if masq.node == name:
                fw.add_scope(masq.network, masq.prefix_len, masq.external)
        sides = {}
        for side_name in ("inside", "outside"):
            s = getattr(decl, side_name)
            sides[side_name] = FirewallSide(
                side=side_name, mode=s.mode, ip=s.ip, prefix_len=s.prefix_len,
                zone=s.zone, gw_ip=s.gw,
                peer_mac=node_mac(s.peer) if s.peer is not None else None,
                routes=list(s.routes))
        node = FirewallNode(eng, name, node_mac(name), fw, sides["inside"],
                            sides["outside"], decl.cap_bps,
                            enforce_zones=decl.zones)
        node.policy = ZonePolicy(policy_rules)

    for name, decl in sorted(cfg.balancers.items()):
        lb = LoadBalancer(name, list(decl.paths), hash_salt=eng.hash_salt)
        lb.dest_override.update(decl.override)
        BalancerNode(eng, name, node_mac(name), decl.ip, decl.peer_ip, lb)

    for name, decl in sorted(cfg.hosts.items()):
        HostNode(eng, name, node_mac(name), decl.ip, decl.prefix_len,
                 gw_ip=decl.gw, group=decl.group)

    for link in cfg.links:
        eng.add_link(link.a[0], link.a[1], link.b[0], link.b[1], link.bw,
                     prop_us=link.prop, queue_cap=link.queue)

    for t in cfg.traffic:
        dst_ip = t.dst_ip if t.dst_ip is not None else cfg.hosts[t.dst].ip
        spec = TrafficSpec(kind=t.kind, src=t.src, dst=t.dst or ip_str(dst_ip),
                           flow_id=t.flow, dst_ip=dst_ip, start_us=t.start_us,
                           stop_us=t.stop_us, rate_bps=t.rate,
                           total_bytes=t.total, count=t.count,
                           src_port=t.sport, dst_port=t.dport)
        eng.nodes[t.src].add_generator(spec)

    for f in cfg.faults:
        eng.inject_fault(f.at_us, f.action, f.target)
    return eng


# -- bundled topologies ----------------------------------------------------

MGMT_VID = 1
BEAMLINES = 62
STAFF_VIDS = (64, 65)
CLEAN_VID = 66
QUADRANTS = {1: range(1, 18), 2: range(18, 35),
             3: range(35, 49), 4: range(49, 63)}  # 17/17/14/14 beamlines
HOSTS_PER_BEAMLINE = 8
GIG = 1_000_000_000
FAST = 100_000_000
TEN = 10_000_000


def beamline_vid(b: int) -> int:
    return b + 1


def beamline_subnet(b: int) -> str:
    return f"10.{b}.1.0/24"


def beamline_gw(b: int) -> str:
    return f"10.{b}.1.1"


def beamline_host_ip(b: int, n: int) -> str:
    return f"10.{b}.1.{n + 10}"


def quadrant_of(b: int) -> int:
    for q, bls in QUADRANTS.items():
        if b in bls:
            return q
    raise ValueError(f"no quadrant for beamline {b}")


def _beamline_switch(b: int) -> str:
    """32 edge switches, 8 per quadrant, beamlines dealt round-robin."""
    q = quadrant_of(b)
    members = list(QUADRANTS[q])
    return f"sw{(q - 1) * 8 + members.index(b) % 8 + 1:02d}"


def _declare_vlans(cfg: ScenarioConfig, clean: bool):
    cfg.vlans[MGMT_VID] = VlanDecl(MGMT_VID, "mgmt", ip_network("10.0.1.0/24"))
    for b in range(1, BEAMLINES + 1):
        vid = beamline_vid(b)
        cfg.vlans[vid] = VlanDecl(vid, f"bl{b:02d}",
                                  ip_network(beamline_subnet(b)))
    for i, vid in enumerate(STAFF_VIDS, start=1):
        cfg.vlans[vid] = VlanDecl(vid, f"staff{i}",
                                  ip_network(f"10.0.{vid}.0/24"))
    if clean:
        cfg.vlans[CLEAN_VID] = VlanDecl(CLEAN_VID, "clean",
                                        ip_network(f"10.0.{CLEAN_VID}.0/24"))


def _edge_switch_vids(b_by_switch: dict, sw: str) -> list:
    return sorted([MGMT_VID] + [beamline_vid(b) for b in b_by_switch[sw]])


def _populate_edge(cfg: ScenarioConfig, host_bw: int, flat: bool, gw_for,
                   host_plen: int = 24):
    """32 edge switches, hosts, and uplink port stubs. Returns switch->agg map."""
    b_by_switch: dict[str, list] = {f"sw{i:02d}": [] for i in range(1, 33)}
    for b in range(1, BEAMLINES + 1):
        b_by_switch[_beamline_switch(b)].append(b)
    for sw, beamlines in b_by_switch.items():
        ports = {}
        if flat:
            ports["up"] = PortSpec("access", vid=MGMT_VID)
        else:
            ports["up"] = PortSpec("trunk",
                                   allowed=tuple(_edge_switch_vids(b_by_switch, sw)))
        pn = 1
        for b in beamlines:
            vid = MGMT_VID if flat else beamline_vid(b)
            for n in range(HOSTS_PER_BEAMLINE):
                ports[f"p{pn}"] = PortSpec("access", vid=vid)
                host = f"bl{b:02d}h{n + 1}"
                gw = gw_for(b)
                cfg.hosts[host] = HostDecl(
                    host, ip_addr(beamline_host_ip(b, n)), host_plen,
                    gw=ip_addr(gw) if gw is not None else None,
                    vlan=beamline_vid(b), group=f"bl{b:02d}")
                cfg.links.append(LinkDecl((host, 0), (sw, f"p{pn}"), host_bw))
                pn += 1
        cfg.switches[sw] = SwitchDecl(sw, ports)
    return b_by_switch


def _agg_for_switch(sw: str) -> str:
    idx = int(sw[2:])
    return f"agg{(idx - 1) // 8 + 1}"


def build_spring8_legacy() -> ScenarioConfig:
    """Pre-upgrade fabric: one flat broadcast domain, Fast Ethernet backbone,
    10 Mbps edge uplinks, a single border firewall."""
    cfg = ScenarioConfig()
    cfg.duration_us = 10_000_000
    _declare_vlans(cfg, clean=False)
    # flat broadcast domain: every campus address is on-link, the border
    # firewall is the only gateway
    _populate_edge(cfg, host_bw=TEN, flat=True, gw_for=lambda b: "10.0.0.1",
                   host_plen=8)
    bb_ports = {}
    for i in range(1, 33):
        bb_ports[f"d{i:02d}"] = PortSpec("access", vid=MGMT_VID)
        cfg.links.append(LinkDecl((f"sw{i:02d}", "up"), ("bb", f"d{i:02d}"), TEN))
    bb_ports["mon"] = PortSpec("access", vid=MGMT_VID)
    bb_ports["fw"] = PortSpec("access", vid=MGMT_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)
    cfg.hosts["monitor"] = HostDecl("monitor", ip_addr("10.0.1.250"), 8,
                                    gw=ip_addr("10.0.0.1"), vlan=MGMT_VID,
                                    group="mgmt")
    cfg.links.append(LinkDecl(("monitor", 0), ("bb", "mon"), FAST))
    fw = FirewallDecl("fw0")
    fw.inside = SideDecl("routed", ip_addr("10.0.0.1"), 8, "dmz")
    fw.outside = SideDecl("routed", ip_addr("198.18.0.1"), 24, "public")
    cfg.firewalls["fw0"] = fw
    cfg.masquerades.append(MasqDecl("fw0", ip_addr("0.0.0.0"), 0,
                                    ip_addr("198.18.0.61")))
    cfg.links.append(LinkDecl(("bb", "fw"), ("fw0", "inside"), FAST))
    cfg.hosts["inet1"] = HostDecl("inet1", ip_addr("198.18.0.9"), 24,
                                  group="outside")
    cfg.links.append(LinkDecl(("fw0", "outside"), ("inet1", 0), FAST))
    cfg.traffic.append(TrafficDecl("ping", "bl01h1", "mon-check",
                                   dst="monitor", count=3))
    return cfg


def build_spring8_upgraded() -> ScenarioConfig:
    """Post-upgrade fabric: Gigabit backbone, 4 quadrant L3 switches, 32 edge
    switches, one VLAN per beamline, 4 zone firewalls capped at 170 Mbps."""
    cfg = ScenarioConfig()
    cfg.duration_us = 20_000_000
    _declare_vlans(cfg, clean=False)
    b_by_switch = _populate_edge(cfg, host_bw=FAST, flat=False,
                                 gw_for=beamline_gw)
    bb_ports = {}
    for q in range(1, 5):
        agg = f"agg{q}"
        quadrant_vids = sorted(
            [MGMT_VID] + [beamline_vid(b) for b in QUADRANTS[q]]
            + ([STAFF_VIDS[q - 1]] if q <= 2 else []))
        agg_ports = {"up": PortSpec("trunk", allowed=tuple(quadrant_vids)),
                     "r": PortSpec("trunk", allowed=tuple(quadrant_vids))}
        for i in range((q - 1) * 8 + 1, q * 8 + 1):
            sw = f"sw{i:02d}"
            agg_ports[f"d{i:02d}"] = PortSpec(
                "trunk", allowed=tuple(_edge_switch_vids(b_by_switch, sw)))
            cfg.links.append(LinkDecl((sw, "up"), (agg, f"d{i:02d}"), FAST))
        if q <= 2:
            agg_ports["staff"] = PortSpec("access", vid=STAFF_VIDS[q - 1])
        cfg.switches[agg] = SwitchDecl(agg, agg_ports)
        bb_ports[f"a{q}"] = PortSpec("trunk", allowed=tuple(quadrant_vids))
        cfg.links.append(LinkDecl((agg, "up"), ("bb", f"a{q}"), GIG))
    bb_ports["mon"] = PortSpec("access", vid=MGMT_VID)
    bb_ports["nms"] = PortSpec("access", vid=MGMT_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)
    cfg.hosts["monitor"] = HostDecl("monitor", ip_addr("10.0.1.250"), 24,
                                    gw=ip_addr("10.0.1.1"), vlan=MGMT_VID,
                                    group="mgmt")
    cfg.hosts["nms"] = HostDecl("nms", ip_addr("10.0.1.251"), 24,
                                gw=ip_addr("10.0.1.1"), vlan=MGMT_VID,
                                group="mgmt")
    cfg.links.append(LinkDecl(("monitor", 0), ("bb", "mon"), FAST))
    cfg.links.append(LinkDecl(("nms", 0), ("bb", "nms"), FAST))

    for q in range(1, 5):
        name = f"r{q}"
        decl = L3Decl(name)
        decl.interfaces.append(IfaceDecl(name, MGMT_VID,
                                         ip_addr(f"10.0.1.{q}"), 24, "dmz"))
        for b in QUADRANTS[q]:
            decl.interfaces.append(IfaceDecl(name, beamline_vid(b),
                                             ip_addr(beamline_gw(b)), 24, "dmz"))
        if q <= 2:
            vid = STAFF_VIDS[q - 1]
            decl.interfaces.append(IfaceDecl(name, vid,
                                             ip_addr(f"10.0.{vid}.1"), 24, "dmz"))
        cfg.l3s[name] = decl
        cfg.links.append(LinkDecl((name, "trunk"), (f"agg{q}", "r"), GIG))
        # other quadrants' beamline subnets are one transit hop away
        for b in range(1, BEAMLINES + 1):
            if quadrant_of(b) != q:
                net, plen = ip_network(beamline_subnet(b))
                cfg.routes.append(RouteDecl(
                    name, net, plen,
                    gateway=ip_addr(f"10.0.1.{quadrant_of(b)}")))
        for i, vid in enumerate(STAFF_VIDS, start=1):
            if i != q:
                net, plen = ip_network(f"10.0.{vid}.0/24")
                cfg.routes.append(RouteDecl(name, net, plen,
                                            gateway=ip_addr(f"10.0.1.{i}")))
        cfg.routes.append(RouteDecl(name, 0, 0,
                                    gateway=ip_addr(f"172.16.{q}.2")))

        fw = FirewallDecl(f"fw{q}")
        fw.inside = SideDecl("routed", ip_addr(f"172.16.{q}.2"), 30, "dmz",
                             gw=ip_addr(f"172.16.{q}.1"))
        fw.inside.routes = [(ip_addr("10.0.0.0"), 8, ip_addr(f"172.16.{q}.1"))]
        fw.outside = SideDecl("routed", ip_addr(f"198.18.{q}.1"), 24, "public")
        cfg.firewalls[f"fw{q}"] = fw
        cfg.masquerades.append(MasqDecl(f"fw{q}", ip_addr("0.0.0.0"), 0,
                                        ip_addr(f"198.18.{q}.61")))
        cfg.l3s[name].interfaces.append(
            IfaceDecl(name, 70 + q, ip_addr(f"172.16.{q}.1"), 30, "dmz",
                      port="fw"))
        cfg.links.append(LinkDecl((name, "fw"), (f"fw{q}", "inside"), GIG))
        cfg.hosts[f"oa{q}"] = HostDecl(f"oa{q}", ip_addr(f"198.18.{q}.9"), 24,
                                       group="outside")
        cfg.links.append(LinkDecl((f"fw{q}", "outside"), (f"oa{q}", 0), GIG))

    for i, vid in enumerate(STAFF_VIDS, start=1):
        host = f"staff{i}"
        cfg.hosts[host] = HostDecl(host, ip_addr(f"10.0.{vid}.10"), 24,
                                   gw=ip_addr(f"10.0.{vid}.1"), vlan=vid,
                                   group="staff")
        cfg.links.append(LinkDecl((host, 0), (f"agg{i}", "staff"), FAST))

    cfg.traffic.append(TrafficDecl("ping", "monitor", "mon-check",
                                   dst="bl01h1", count=3))
    cfg.traffic.append(TrafficDecl("bulk", "bl01h1", "daq", dst="oa1",
                                   total=10_000_000, sport=40_000, dport=5001))
    return cfg


def build_spring8_redundant() -> ScenarioConfig:
    """Upgraded fabric with one central L3 switch (66 VLAN interfaces) and the
    protected path rebuilt as balancer / two inline firewalls / balancer."""
    cfg = ScenarioConfig()
    cfg.duration_us = 30_000_000
    _declare_vlans(cfg, clean=True)
    b_by_switch = _populate_edge(cfg, host_bw=FAST, flat=False,
                                 gw_for=beamline_gw)
    bb_ports = {}
    for q in range(1, 5):
        agg = f"agg{q}"
        quadrant_vids = sorted(
            [MGMT_VID] + [beamline_vid(b) for b in QUADRANTS[q]]
            + ([STAFF_VIDS[q - 1]] if q <= 2 else []))
        agg_ports = {
            # two physical uplinks aggregated into one logical trunk
            "up1": PortSpec("trunk", allowed=tuple(quadrant_vids), lag="lag1"),
            "up2": PortSpec("trunk", allowed=tuple(quadrant_vids), lag="lag1"),
        }
        for i in range((q - 1) * 8 + 1, q * 8 + 1):
            sw = f"sw{i:02d}"
            agg_ports[f"d{i:02d}"] = PortSpec(
                "trunk", allowed=tuple(_edge_switch_vids(b_by_switch, sw)))
            cfg.links.append(LinkDecl((sw, "up"), (agg, f"d{i:02d}"), FAST))
        if q <= 2:
            agg_ports["staff"] = PortSpec("access", vid=STAFF_VIDS[q - 1])
        cfg.switches[agg] = SwitchDecl(agg, agg_ports)
        bb_ports[f"a{q}x"] = PortSpec("trunk", allowed=tuple(quadrant_vids),
                                      lag=f"lag{agg}")
        bb_ports[f"a{q}y"] = PortSpec("trunk", allowed=tuple(quadrant_vids),
                                      lag=f"lag{agg}")
        cfg.links.append(LinkDecl((agg, "up1"), ("bb", f"a{q}x"), GIG))
        cfg.links.append(LinkDecl((agg, "up2"), ("bb", f"a{q}y"), GIG))
    all_vids = tuple(sorted(cfg.vlans))
    bb_ports["l3"] = PortSpec("trunk", allowed=all_vids)
    bb_ports["mon"] = PortSpec("access", vid=MGMT_VID)
    bb_ports["nms"] = PortSpec("access", vid=MGMT_VID)
    bb_ports["adm"] = PortSpec("access", vid=CLEAN_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)

    name = "l3r"
    decl = L3Decl(name)
    decl.interfaces.append(IfaceDecl(name, MGMT_VID, ip_addr("10.0.1.1"), 24,
                                     "dmz"))
    for b in range(1, BEAMLINES + 1):
        decl.interfaces.append(IfaceDecl(name, beamline_vid(b),
                                         ip_addr(beamline_gw(b)), 24, "dmz"))
    for vid in STAFF_VIDS:
        decl.interfaces.append(IfaceDecl(name, vid, ip_addr(f"10.0.{vid}.1"),
                                         24, "dmz"))
    decl.interfaces.append(IfaceDecl(name, CLEAN_VID,
                                     ip_addr(f"10.0.{CLEAN_VID}.1"), 24,
                                     "clean"))
    decl.interfaces.append(IfaceDecl(name, 99, ip_addr("192.0.2.1"), 24,
                                     "public", port="wan"))
    cfg.l3s[name] = decl
    cfg.links.append(LinkDecl((name, "trunk"), ("bb", "l3"), GIG))

    cfg.hosts["monitor"] = HostDecl("monitor", ip_addr("10.0.1.250"), 24,
                                    gw=ip_addr("10.0.1.1"), vlan=MGMT_VID,
                                    group="mgmt")
    cfg.hosts["nms"] = HostDecl("nms", ip_addr("10.0.1.251"), 24,
                                gw=ip_addr("10.0.1.1"), vlan=MGMT_VID,
                                group="mgmt")
    cfg.hosts["admin"] = HostDecl("admin", ip_addr(f"10.0.{CLEAN_VID}.10"), 24,
                                  gw=ip_addr(f"10.0.{CLEAN_VID}.1"),
                                  vlan=CLEAN_VID, group="clean")
    cfg.links.append(LinkDecl(("monitor", 0), ("bb", "mon"), FAST))
    cfg.links.append(LinkDecl(("nms", 0), ("bb", "nms"), FAST))
    cfg.links.append(LinkDecl(("admin", 0), ("bb", "adm"), FAST))
    for i, vid in enumerate(STAFF_VIDS, start=1):
        host = f"staff{i}"
        cfg.hosts[host] = HostDecl(host, ip_addr(f"10.0.{vid}.10"), 24,
                                   gw=ip_addr(f"10.0.{vid}.1"), vlan=vid,
                                   group="staff")
        cfg.links.append(LinkDecl((host, 0), (f"agg{i}", "staff"), FAST))

    # protected path: l3r:wan - lbi - {fw1, fw2} - lbo - public switch
    override = {ip_addr("192.0.2.61"): "fw1", ip_addr("192.0.2.62"): "fw2"}
    cfg.balancers["lbi"] = BalancerDecl("lbi", ip_addr("192.0.2.2"),
                                        ip_addr("192.0.2.3"), ("fw1", "fw2"),
                                        dict(override))
    cfg.balancers["lbo"] = BalancerDecl("lbo", ip_addr("192.0.2.3"),
                                        ip_addr("192.0.2.2"), ("fw1", "fw2"),
                                        dict(override))
    cfg.links.append(LinkDecl((name, "wan"), ("lbi", "front"), GIG))
    for i in (1, 2):
        fw = FirewallDecl(f"fw{i}", nat_capacity=64, zones=False)
        fw.inside = SideDecl("inline", None, 24, "dmz", peer=name)
        fw.outside = SideDecl("inline", None, 24, "public")
        cfg.firewalls[f"fw{i}"] = fw
        cfg.masquerades.append(MasqDecl(f"fw{i}", ip_addr("192.0.2.0"), 24,
                                        ip_addr(f"192.0.2.{60 + i}")))
        cfg.links.append(LinkDecl(("lbi", f"fw{i}"), (f"fw{i}", "inside"), GIG))
        cfg.links.append(LinkDecl((f"fw{i}", "outside"), ("lbo", f"fw{i}"), GIG))
    cfg.switches["psw"] = SwitchDecl("psw", {
        "lb": PortSpec("access", vid=MGMT_VID),
        "h1": PortSpec("access", vid=MGMT_VID),
        "h2": PortSpec("access", vid=MGMT_VID),
    })
    cfg.links.append(LinkDecl(("lbo", "front"), ("psw", "lb"), GIG))
    cfg.hosts["ext1"] = HostDecl("ext1", ip_addr("192.0.2.9"), 24,
                                 group="outside")
    cfg.hosts["ext2"] = HostDecl("ext2", ip_addr("192.0.2.10"), 24,
                                 group="outside")
    cfg.links.append(LinkDecl(("ext1", 0), ("psw", "h1"), GIG))
    cfg.links.append(LinkDecl(("ext2", 0), ("psw", "h2"), GIG))

    cfg.traffic.append(TrafficDecl("ping", "monitor", "mon-check",
                                   dst="bl01h1", count=3))
    cfg.traffic.append(TrafficDecl("bulk", "bl01h1", "daq", dst="ext1",
                                   total=10_000_000, sport=40_000, dport=5001))
    return cfg


BUNDLED = {
    "spring8-legacy": build_spring8_legacy,
    "spring8-upgraded": build_spring8_upgraded,
    "spring8-redundant": build_spring8_redundant,
}


def load_scenario(name_or_path: str) -> ScenarioConfig:
    if name_or_path in BUNDLED:
        return BUNDLED[name_or_path]()
    with open(name_or_path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
