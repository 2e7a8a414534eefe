"""Scenario files: parsing, validation, the bundled topologies, engine wiring.

The format is line-oriented and diff-friendly: `[section]` headers, one
declaration per line, space-separated `key=value` pairs, `#` comments.
`FORMAT` declares every key of every section once; the parser and the
serializer both walk it, so what one writes the other reads back.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, DecimalException
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional

from .engine import (CBR_PACKET, DEFAULT_LINK_QUEUE, DEFAULT_PROP_US, Engine,
                     FirewallNode, FirewallSide, HostNode, L3Node, SwitchNode,
                     BalancerNode, TrafficSpec)
from .firewall import DEFAULT_CAP_BPS, DEFAULT_NAT_CAPACITY, Firewall
from .l3 import VERDICTS, ZONES, L3Error, ZonePolicy, ZoneRouter
from .packet import (MacAddress, check_vid, ip_addr, ip_network, ip_str,
                     prefix_mask)
from .resilience import LoadBalancer

# a faster cbr flow sends every 0 us, so simulated time never advances
MAX_CBR_RATE = CBR_PACKET * 8 * 1_000_000


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
    nat_capacity: int = DEFAULT_NAT_CAPACITY
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
    prop: int = DEFAULT_PROP_US
    queue: int = DEFAULT_LINK_QUEUE

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


# -- value codecs ----------------------------------------------------------

class Codec(NamedTuple):
    """Reads one value from its text and writes it back. `read` checks what
    the value can be on its own and raises ValueError with the reason."""
    read: Callable[[str], Any]
    write: Callable[[Any], str] = str


def _int_in(lo: int, hi: Optional[int] = None) -> Codec:
    def read(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ValueError(f"must be {bound}, got {value}")
        return value
    return Codec(read)


def _one_of(choices: tuple) -> Codec:
    def read(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {'/'.join(choices)}, "
                             f"got {text!r}")
        return text
    return Codec(read)


def _read_seconds(text: str) -> int:
    """Seconds to whole microseconds, exactly for any decimal with at most
    six places; further places round half to even."""
    try:
        us = Decimal(text).scaleb(6)
        valid = us.is_finite() and 0 <= us < 2**63
    except DecimalException:
        valid = False
    if not valid:
        raise ValueError(f"expected seconds >= 0, got {text!r}")
    return int(us.to_integral_value())


def _write_seconds(us: int) -> str:
    seconds, frac = divmod(us, 1_000_000)
    return f"{seconds}.{frac:06d}".rstrip("0") if frac else str(seconds)


def _read_ip_len(text: str) -> tuple:
    addr, slash, plen = text.partition("/")
    if not slash:
        raise ValueError(f"expected ip/prefix, got {text!r}")
    return ip_addr(addr), PREFIX_LEN.read(plen)


def _read_network(text: str) -> tuple:
    ip, plen = _read_ip_len(text)
    return ip & prefix_mask(plen), plen


def _write_ip_len(value: tuple) -> str:
    return f"{ip_str(value[0])}/{value[1]}"


def _port_token(tok: str):
    return int(tok) if tok.isdigit() else tok


def _read_endpoint(text: str) -> tuple:
    node, _, port = text.rpartition(":")
    if not (node and port):
        raise ValueError(f"endpoint is node:port, got {text!r}")
    return node, _port_token(port)


def _read_ports(text: str) -> dict:
    ports = {}
    for item in text.split(","):
        parts = item.split(":")
        if len(parts) not in (3, 4) or "" in parts:
            raise ValueError(f"bad port spec {item!r}")
        pid, mode, vids = _port_token(parts[0]), parts[1], parts[2]
        if mode == "access":
            spec = PortSpec("access", vid=VID.read(vids))
        elif mode == "trunk":
            spec = PortSpec("trunk", allowed=tuple(
                sorted(VID.read(v) for v in vids.split("|"))))
        else:
            raise ValueError(f"unknown port mode {mode!r}")
        if len(parts) == 4:
            spec.lag = parts[3]
        if pid in ports:
            raise ValueError(f"duplicate port {pid!r}")
        ports[pid] = spec
    return ports


def _write_port(pid, spec: PortSpec) -> str:
    vids = spec.vid if spec.mode == "access" else "|".join(map(str, spec.allowed))
    lag = f":{spec.lag}" if spec.lag is not None else ""
    return f"{pid}:{spec.mode}:{vids}{lag}"


def _read_side(text: str) -> SideDecl:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"side spec is mode:ip/prefix:zone, got {text!r}")
    mode, addr, zone = parts
    ip, plen = _read_ip_len(addr) if addr else (None, 24)
    return SideDecl(SIDE_MODE.read(mode), ip, plen, ZONE.read(zone))


def _write_side(side: SideDecl) -> str:
    addr = _write_ip_len((side.ip, side.prefix_len)) if side.ip is not None else ""
    return f"{side.mode}:{addr}:{side.zone}"


def _read_side_routes(text: str) -> list:
    routes = []
    for item in text.split(","):
        net, colon, via = item.rpartition(":")
        if not colon:
            raise ValueError(f"side route is net/prefix:via, got {item!r}")
        routes.append((*_read_network(net), ip_addr(via)))
    return routes


def _read_names(text: str) -> tuple:
    names = tuple(text.split(","))
    if "" in names:
        raise ValueError(f"empty name in {text!r}")
    return names


def _read_override(text: str) -> dict:
    override = {}
    for item in text.split(","):
        addr, _, path = item.rpartition(":")
        if not path:
            raise ValueError(f"override is ip:path, got {item!r}")
        override[ip_addr(addr)] = path
    return override


TEXT = Codec(str)
COUNT = _int_in(0)
POSITIVE = _int_in(1)
L4_PORT = _int_in(0, 65535)
SEED = _int_in(-2**63, 2**63 - 1)  # the engine salts its hashes with 8 bytes
PREFIX_LEN = _int_in(0, 32)
VID = Codec(lambda text: check_vid(int(text)))
ZONE = _one_of(ZONES)
SIDE_MODE = _one_of(("routed", "inline"))
ON_OFF = Codec(lambda text: _one_of(("on", "off")).read(text) == "on",
               lambda on: "on" if on else "off")
SECONDS = Codec(_read_seconds, _write_seconds)
IP = Codec(ip_addr, ip_str)
IP_LEN = Codec(_read_ip_len, _write_ip_len)
NETWORK = Codec(_read_network, _write_ip_len)
PORT = Codec(_port_token)
ENDPOINT = Codec(_read_endpoint, lambda end: f"{end[0]}:{end[1]}")
PORTS = Codec(_read_ports, lambda ports: ",".join(
    _write_port(pid, ports[pid]) for pid in sorted(ports, key=str)))
SIDE = Codec(_read_side, _write_side)
SIDE_ROUTES = Codec(_read_side_routes, lambda routes: ",".join(
    f"{ip_str(net)}/{plen}:{ip_str(via)}" for net, plen, via in routes))
NAMES = Codec(_read_names, ",".join)
OVERRIDE = Codec(_read_override, lambda override: ",".join(
    f"{ip_str(addr)}:{path}" for addr, path in sorted(override.items())))


# -- the format: one key table per section ---------------------------------

@functools.cache
def _field_defaults(cls) -> dict:
    return {f.name: f.default if f.default is not MISSING else f.default_factory()
            for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING}


class Key:
    """One `key=value` of a declaration line: the codec of its value and the
    declaration attribute it fills. A codec that fills several attributes
    (`ip=a/len` fills `ip` and `prefix_len`) reads and writes a tuple; a
    dotted attribute (`inside.gw`) is a field of a field. An optional key
    whose value equals its dataclass default is left out of the file unless
    `always` is set."""
    __slots__ = ("name", "codec", "owner", "attrs", "required", "shown")

    def __init__(self, name: str, codec: Codec, attrs=None,
                 required: bool = False, always: bool = False):
        if isinstance(attrs, tuple):
            self.owner = ""
        else:
            self.owner, _, leaf = (attrs or name).rpartition(".")
            attrs = (leaf,)
        self.name, self.codec, self.attrs = name, codec, attrs
        self.required = required
        self.shown = required or always

    def text(self, decl) -> Optional[str]:
        """`key=value` for `decl`, or None when the key is left out."""
        owner = getattr(decl, self.owner) if self.owner else decl
        values = tuple(getattr(owner, attr) for attr in self.attrs)
        if not self.shown:
            defaults = _field_defaults(type(owner))
            if values == tuple(defaults[attr] for attr in self.attrs):
                return None
        value = values[0] if len(values) == 1 else values
        return f"{self.name}={self.codec.write(value)}"


class Form:
    """One kind of declaration line: its keys in file order and the dataclass
    they build, or None when they set the ScenarioConfig itself. The
    declarations live in the `store` attribute of the config: a list, or a
    dict keyed by their `index` attribute, whose values are unique across
    all forms with that index (every kind of node has a `name`). `order`
    sorts a list for writing. A `child` form's lines follow each parent's
    line; its first key names the parent and it has no key of the parent's
    first name."""

    def __init__(self, cls, keys: list, store: str = "", index: str = "",
                 order=None, child=None):
        self.cls, self.keys, self.store = cls, keys, store
        self.index, self.order, self.child = index, order, child
        self.by_name = {key.name: key for key in keys}
        self.required = [key.name for key in keys if key.required]

    def read(self, kv: dict, lineno: int):
        for name in self.required:
            if name not in kv:
                raise ParseError(lineno, f"missing required key {name!r}")
        values, nested = {}, []
        for name, text in kv.items():
            key = self.by_name.get(name)
            if key is None:
                raise ParseError(lineno, f"unknown key {name!r}")
            try:
                value = key.codec.read(text)
            except ValueError as exc:
                raise ParseError(lineno, f"{name}: {exc}") from None
            if key.owner:
                nested.append((key, value))
            elif len(key.attrs) == 1:
                values[key.attrs[0]] = value
            else:
                values.update(zip(key.attrs, value))
        if self.cls is None:
            return values
        decl = self.cls(**values)
        for key, value in nested:
            setattr(getattr(decl, key.owner), key.attrs[0], value)
        return decl

    def parse(self, cfg: ScenarioConfig, kv: dict, seen: dict, lineno: int):
        """Read one declaration line into `cfg`."""
        if self.child is not None and self.keys[0].name not in kv:
            child = self.child
            decl = child.read(kv, lineno)
            ref = getattr(decl, child.keys[0].attrs[0])
            parent = getattr(cfg, self.store).get(ref)
            if parent is None:
                raise ParseError(lineno, f"{child.keys[0].name} {ref!r} "
                                 "is not declared")
            getattr(parent, child.store).append(decl)
            return
        decl = self.read(kv, lineno)
        if self.cls is None:
            for attr, value in decl.items():
                setattr(cfg, attr, value)
        elif not self.index:
            getattr(cfg, self.store).append(decl)
        else:
            ref = getattr(decl, self.index)
            names = seen.setdefault(self.index, set())
            if ref in names:
                raise ParseError(lineno, f"duplicate {self.index} {ref!r}")
            names.add(ref)
            getattr(cfg, self.store)[ref] = decl

    def lines(self, holder):
        """The declaration lines of `holder`, in file order."""
        if self.cls is None:
            decls = [holder]
        elif self.index:
            table = getattr(holder, self.store)
            decls = [table[ref] for ref in sorted(table)]
        else:
            decls = getattr(holder, self.store)
            if self.order is not None:
                decls = sorted(decls, key=self.order)
        for decl in decls:
            yield " ".join(filter(None, (key.text(decl) for key in self.keys)))
            if self.child is not None:
                yield from self.child.lines(decl)


# section -> its declaration form, in the order the serializer writes them
FORMAT = {
    "engine": Form(None, [
        Key("seed", SEED, always=True),
        Key("duration", SECONDS, "duration_us", always=True),
    ]),
    "vlan": Form(VlanDecl, [
        Key("vid", VID, required=True),
        Key("name", TEXT, required=True),
        Key("subnet", NETWORK),
    ], store="vlans", index="vid"),
    "switch": Form(SwitchDecl, [
        Key("name", TEXT, required=True),
        Key("ports", PORTS, required=True),
    ], store="switches", index="name"),
    "l3": Form(L3Decl, [
        Key("name", TEXT, required=True),
    ], store="l3s", index="name", child=Form(IfaceDecl, [
        Key("node", TEXT, required=True),
        Key("vid", VID, required=True),
        Key("ip", IP_LEN, ("ip", "prefix_len"), required=True),
        Key("zone", ZONE, required=True),
        Key("port", PORT),
    ], store="interfaces", order=attrgetter("vid"))),
    "firewall": Form(FirewallDecl, [
        Key("name", TEXT, required=True),
        Key("inside", SIDE, required=True),
        Key("outside", SIDE, required=True),
        Key("cap", POSITIVE, "cap_bps", always=True),
        Key("nat_capacity", COUNT, always=True),
        Key("zones", ON_OFF, always=True),
        Key("inside_gw", IP, "inside.gw"),
        Key("inside_peer", TEXT, "inside.peer"),
        Key("inside_routes", SIDE_ROUTES, "inside.routes"),
        Key("outside_gw", IP, "outside.gw"),
        Key("outside_peer", TEXT, "outside.peer"),
        Key("outside_routes", SIDE_ROUTES, "outside.routes"),
    ], store="firewalls", index="name"),
    "balancer": Form(BalancerDecl, [
        Key("name", TEXT, required=True),
        Key("ip", IP, required=True),
        Key("peer_ip", IP, required=True),
        Key("paths", NAMES, required=True),
        Key("override", OVERRIDE),
    ], store="balancers", index="name"),
    "host": Form(HostDecl, [
        Key("name", TEXT, required=True),
        Key("ip", IP_LEN, ("ip", "prefix_len"), required=True),
        Key("gw", IP),
        Key("vlan", VID),
        Key("group", TEXT),
    ], store="hosts", index="name"),
    "link": Form(LinkDecl, [
        Key("a", ENDPOINT, required=True),
        Key("b", ENDPOINT, required=True),
        Key("bw", POSITIVE, required=True),
        Key("prop", COUNT),
        Key("queue", POSITIVE),
    ], store="links", order=attrgetter("link_id")),
    "route": Form(RouteDecl, [
        Key("node", TEXT, required=True),
        Key("prefix", NETWORK, ("prefix", "prefix_len"), required=True),
        Key("via_vid", VID),
        Key("gateway", IP),
    ], store="routes", order=attrgetter("node", "prefix_len", "prefix")),
    "acl": Form(AclDecl, [
        Key("from", ZONE, "from_zone", required=True),
        Key("to", ZONE, "to_zone", required=True),
        Key("verdict", _one_of(VERDICTS), required=True),
    ], store="acls", order=attrgetter("from_zone", "to_zone")),
    "masquerade": Form(MasqDecl, [
        Key("node", TEXT, required=True),
        Key("network", NETWORK, ("network", "prefix_len"), required=True),
        Key("external", IP, required=True),
    ], store="masquerades", order=attrgetter("node", "prefix_len", "network")),
    "traffic": Form(TrafficDecl, [
        Key("kind", _one_of(("cbr", "bulk", "ping")), required=True),
        Key("src", TEXT, required=True),
        Key("dst", TEXT),
        Key("dst_ip", IP),
        Key("flow", TEXT, required=True),
        Key("start", SECONDS, "start_us"),
        Key("stop", SECONDS, "stop_us"),
        Key("rate", COUNT),
        Key("total", COUNT),
        Key("count", COUNT),
        Key("sport", L4_PORT),
        Key("dport", L4_PORT),
    ], store="traffic"),
    "fault": Form(FaultDecl, [
        Key("at", SECONDS, "at_us", required=True),
        Key("action", _one_of(("fail_node", "fail_link", "recover")),
            required=True),
        Key("target", TEXT, required=True),
    ], store="faults"),
}


# -- parsing and serialization ---------------------------------------------

def _parse_kv(line: str, lineno: int) -> dict:
    out = {}
    for tok in line.split():
        k, eq, v = tok.partition("=")
        if not eq:
            raise ParseError(lineno, f"expected key=value, got {tok!r}")
        if not v:
            raise ParseError(lineno, f"empty value for key {k!r}")
        if k in out:
            raise ParseError(lineno, f"duplicate key {k!r}")
        out[k] = v
    return out


def parse_scenario(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    seen: dict = {}  # index attribute -> values declared so far
    form = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            form = FORMAT.get(line[1:-1])
            if form is None:
                raise ParseError(lineno, f"unknown section {line}")
            continue
        if form is None:
            raise ParseError(lineno, "declaration before any [section] header")
        form.parse(cfg, _parse_kv(line, lineno), seen, lineno)
    return cfg


def serialize_scenario(cfg: ScenarioConfig) -> str:
    out = []
    for section, form in FORMAT.items():
        lines = list(form.lines(cfg))
        if lines:
            out += [f"[{section}]", *lines, ""]
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


def carried_vids(cfg: ScenarioConfig, node: str, port) -> Optional[frozenset]:
    """The VIDs `node` carries on `port`: a switch port's access VID or
    allowed set, the VIDs of an L3 port's interfaces (`trunk`: those with no
    port), or None for a host, firewall or balancer, which passes any VID."""
    if node in cfg.switches:
        spec = cfg.switches[node].ports.get(port)
        if spec is None:
            return frozenset()
        return frozenset((spec.vid,) if spec.mode == "access" else spec.allowed)
    if node in cfg.l3s:
        key = None if port == "trunk" else port
        return frozenset(i.vid for i in cfg.l3s[node].interfaces
                         if i.port == key)
    return None


def _check_loops(cfg: ScenarioConfig):
    """Per-VLAN cycle detection over the switch fabric; a LAG is one edge."""
    adjacency: dict = {}  # vid -> node -> neighbours
    seen_lags = set()
    for link in cfg.links:
        (na, pa), (nb, pb) = link.a, link.b
        if na not in cfg.switches or nb not in cfg.switches:
            continue
        lags = (cfg.switches[na].ports[pa].lag, cfg.switches[nb].ports[pb].lag)
        for vid in carried_vids(cfg, na, pa) & carried_vids(cfg, nb, pb):
            if None not in lags:
                if (vid, na, nb, lags) in seen_lags:
                    continue  # parallel LAG member, same logical edge
                seen_lags.add((vid, na, nb, lags))
            edges = adjacency.setdefault(vid, {})
            edges.setdefault(na, []).append(nb)
            edges.setdefault(nb, []).append(na)
    for vid in sorted(adjacency):
        cycle = _find_cycle(adjacency[vid])
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
        link_ids.add(link.link_id)
    if cfg.vlans:
        for name, sw in cfg.switches.items():
            for pid in sw.ports:
                for vid in sorted(carried_vids(cfg, name, pid)):
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
    for name in cfg.l3s:
        try:
            _router(cfg, name)
        except L3Error as exc:
            raise ValidationError(name, str(exc)) from None
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
    flows = set()
    for t in cfg.traffic:
        if t.flow in flows:
            raise ValidationError(t.flow, "duplicate flow")
        flows.add(t.flow)
        if t.src not in cfg.hosts:
            raise ValidationError(t.flow, f"traffic src {t.src!r} is not a host")
        if t.dst is None and t.dst_ip is None:
            raise ValidationError(t.flow, "traffic needs dst or dst_ip")
        if t.dst is not None and t.dst not in cfg.hosts:
            raise ValidationError(t.flow, f"traffic dst {t.dst!r} is not a host")
        if t.kind == "cbr" and not 0 < t.rate <= MAX_CBR_RATE:
            raise ValidationError(
                t.flow, f"cbr rate must be in (0, {MAX_CBR_RATE}] bps")
        if t.kind == "ping" and t.count <= 0:
            raise ValidationError(t.flow, "ping count must be > 0")
        if t.kind == "bulk" and t.total <= 0:
            raise ValidationError(t.flow, "bulk total must be > 0")
    targets = {"fail_node": ("node", names), "fail_link": ("link", link_ids)}
    either = ("node or link", names | link_ids)
    for f in cfg.faults:
        what, pool = targets.get(f.action, either)
        if f.target not in pool:
            raise ValidationError(f.target, f"{f.action} target is not a {what}")
    _check_loops(cfg)


# -- engine construction ---------------------------------------------------

def _router(cfg: ScenarioConfig, name: str, policy=None) -> ZoneRouter:
    """L3 switch `name`; raises `L3Error` when its lines conflict."""
    router = ZoneRouter(name, policy=policy)
    for iface in sorted(cfg.l3s[name].interfaces, key=lambda i: i.vid):
        router.add_interface(iface.vid, iface.ip, iface.prefix_len,
                             iface.zone, port=iface.port)
    for route in cfg.routes:
        if route.node == name:
            router.add_route(route.prefix, route.prefix_len,
                             via_vid=route.via_vid, gateway=route.gateway)
    return router


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

    for name in sorted(cfg.l3s):
        L3Node(eng, name, node_mac(name),
               _router(cfg, name, ZonePolicy(policy_rules)))

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


def _quadrant_vids(q: int) -> tuple:
    return tuple(sorted([MGMT_VID] + [beamline_vid(b) for b in QUADRANTS[q]]
                        + list(STAFF_VIDS[q - 1:q])))


def _gateway(name: str, mgmt_ip: str, beamlines, staff_vids) -> L3Decl:
    """An L3 switch on the management VLAN that routes for the given beamline
    and staff VLANs."""
    return L3Decl(name, [IfaceDecl(name, MGMT_VID, ip_addr(mgmt_ip), 24, "dmz")]
                  + [IfaceDecl(name, beamline_vid(b), ip_addr(beamline_gw(b)),
                               24, "dmz") for b in beamlines]
                  + [IfaceDecl(name, vid, ip_addr(f"10.0.{vid}.1"), 24, "dmz")
                     for vid in staff_vids])


def _aggregate(cfg: ScenarioConfig, b_by_switch: dict, bundled: bool) -> dict:
    """Four quadrant aggregation switches over the edge switches, each up to
    the backbone on one trunk or, when `bundled`, on two aggregated into one
    logical trunk. Returns the backbone's ports toward them."""
    bb_ports = {}
    for q in range(1, 5):
        agg, vids = f"agg{q}", _quadrant_vids(q)
        # (aggregation port, backbone port) of each physical uplink
        uplinks = ([("up1", f"a{q}x"), ("up2", f"a{q}y")] if bundled
                   else [("up", f"a{q}")])
        agg_ports = {up: PortSpec("trunk", allowed=vids,
                                  lag="lag1" if bundled else None)
                     for up, _ in uplinks}
        for i in range((q - 1) * 8 + 1, q * 8 + 1):
            sw = f"sw{i:02d}"
            agg_ports[f"d{i:02d}"] = PortSpec(
                "trunk", allowed=tuple(_edge_switch_vids(b_by_switch, sw)))
            cfg.links.append(LinkDecl((sw, "up"), (agg, f"d{i:02d}"), FAST))
        if q <= 2:
            agg_ports["staff"] = PortSpec("access", vid=STAFF_VIDS[q - 1])
        cfg.switches[agg] = SwitchDecl(agg, agg_ports)
        for up, bb_port in uplinks:
            bb_ports[bb_port] = PortSpec("trunk", allowed=vids,
                                         lag=f"lag{agg}" if bundled else None)
            cfg.links.append(LinkDecl((agg, up), ("bb", bb_port), GIG))
    return bb_ports


def _add_operations(cfg: ScenarioConfig):
    """The monitor and NMS hosts on the backbone's management VLAN."""
    for host, n, port in (("monitor", 250, "mon"), ("nms", 251, "nms")):
        cfg.switches["bb"].ports[port] = PortSpec("access", vid=MGMT_VID)
        cfg.hosts[host] = HostDecl(host, ip_addr(f"10.0.1.{n}"), 24,
                                   gw=ip_addr("10.0.1.1"), vlan=MGMT_VID,
                                   group="mgmt")
        cfg.links.append(LinkDecl((host, 0), ("bb", port), FAST))


def _add_staff(cfg: ScenarioConfig):
    for i, vid in enumerate(STAFF_VIDS, start=1):
        host = f"staff{i}"
        cfg.hosts[host] = HostDecl(host, ip_addr(f"10.0.{vid}.10"), 24,
                                   gw=ip_addr(f"10.0.{vid}.1"), vlan=vid,
                                   group="staff")
        cfg.links.append(LinkDecl((host, 0), (f"agg{i}", "staff"), FAST))


def _add_default_flows(cfg: ScenarioConfig, outside_host: str):
    cfg.traffic.append(TrafficDecl("ping", "monitor", "mon-check",
                                   dst="bl01h1", count=3))
    cfg.traffic.append(TrafficDecl("bulk", "bl01h1", "daq", dst=outside_host,
                                   total=10_000_000, sport=40_000, dport=5001))


def build_spring8_upgraded() -> ScenarioConfig:
    """Post-upgrade fabric: Gigabit backbone, 4 quadrant L3 switches, 32 edge
    switches, one VLAN per beamline, 4 zone firewalls capped at 170 Mbps."""
    cfg = ScenarioConfig()
    cfg.duration_us = 20_000_000
    _declare_vlans(cfg, clean=False)
    b_by_switch = _populate_edge(cfg, host_bw=FAST, flat=False,
                                 gw_for=beamline_gw)
    cfg.switches["bb"] = SwitchDecl("bb", _aggregate(cfg, b_by_switch,
                                                     bundled=False))
    _add_operations(cfg)

    for q in range(1, 5):
        name = f"r{q}"
        cfg.switches[f"agg{q}"].ports["r"] = PortSpec(
            "trunk", allowed=_quadrant_vids(q))
        cfg.l3s[name] = _gateway(name, f"10.0.1.{q}", QUADRANTS[q],
                                 STAFF_VIDS[q - 1:q])
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

    _add_staff(cfg)
    _add_default_flows(cfg, "oa1")
    return cfg


def build_spring8_redundant() -> ScenarioConfig:
    """Upgraded fabric with one central L3 switch (66 VLAN interfaces) and the
    protected path rebuilt as balancer / two inline firewalls / balancer."""
    cfg = ScenarioConfig()
    cfg.duration_us = 30_000_000
    _declare_vlans(cfg, clean=True)
    b_by_switch = _populate_edge(cfg, host_bw=FAST, flat=False,
                                 gw_for=beamline_gw)
    bb_ports = _aggregate(cfg, b_by_switch, bundled=True)
    bb_ports["l3"] = PortSpec("trunk", allowed=tuple(sorted(cfg.vlans)))
    bb_ports["adm"] = PortSpec("access", vid=CLEAN_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)

    name = "l3r"
    decl = _gateway(name, "10.0.1.1", range(1, BEAMLINES + 1), STAFF_VIDS)
    decl.interfaces.append(IfaceDecl(name, CLEAN_VID,
                                     ip_addr(f"10.0.{CLEAN_VID}.1"), 24,
                                     "clean"))
    decl.interfaces.append(IfaceDecl(name, 99, ip_addr("192.0.2.1"), 24,
                                     "public", port="wan"))
    cfg.l3s[name] = decl
    cfg.links.append(LinkDecl((name, "trunk"), ("bb", "l3"), GIG))

    _add_operations(cfg)
    cfg.hosts["admin"] = HostDecl("admin", ip_addr(f"10.0.{CLEAN_VID}.10"), 24,
                                  gw=ip_addr(f"10.0.{CLEAN_VID}.1"),
                                  vlan=CLEAN_VID, group="clean")
    cfg.links.append(LinkDecl(("admin", 0), ("bb", "adm"), FAST))
    _add_staff(cfg)

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

    _add_default_flows(cfg, "ext1")
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
