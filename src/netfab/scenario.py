"""Scenario files: parsing, validation, the bundled topologies, engine wiring.

The format is line-oriented and diff-friendly: `[section]` headers, one
declaration per line, space-separated `key=value` pairs, `#` comments.
`FORMAT` declares every key of every section once; the parser and the
serializer both walk it, so what one writes the other reads back.
Switch ports, interfaces, routes, `[traffic]` lines and firewall sides fill
the engine's own records (`PortConfig`, `VlanInterface`, `Route`,
`TrafficSpec`, `FirewallSide`). `build_engine` hands them over unchanged and
the engine shares them, never writing to them; a flow declared by `dst`
alone goes as a copy with its `dst_ip` filled in.
"""
from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields, replace
from decimal import Decimal, DecimalException
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .engine import (BULK_SEGMENT, CBR_PACKET, DEFAULT_LINK_QUEUE,
                     DEFAULT_PROP_US, PING_INTERVAL_US, Engine, FAULT_ACTIONS,
                     FirewallNode, FirewallSide, HostNode, L3Node, SwitchNode,
                     BalancerNode, TrafficSpec, cbr_interval_us, link_id_of)
from .firewall import DEFAULT_CAP_BPS, DEFAULT_NAT_CAPACITY, Firewall
from .l2 import PortConfig, Switch
from .l3 import (DEFAULT_ZONE_POLICY, VERDICTS, ZONES, L3Error, Route,
                 VlanInterface, ZoneRouter)
from .packet import (check_vid, in_network, ip_addr, ip_network, ip_str,
                     prefix_mask)
from .resilience import LoadBalancer

# a faster cbr flow sends every 0 us, so simulated time never advances
MAX_CBR_RATE = CBR_PACKET * 8 * 1_000_000
# the latest time a file or option may give, one day: an idle campus costs
# about 19 events per simulated second, so a day is some 1.6M events
MAX_SECONDS = 86_400
# the packets a file's flows may offer up to the run's horizon, all flows
# together: a 12 Gbps cbr flow runs about a million packets in 6 s of wall
# time (2-vCPU VM, CPython 3.11), so the cap is about a minute of work
MAX_OFFERED_PACKETS = 10_000_000

# the [traffic] keys that only some kinds of flow read -> those kinds
FLOW_KEYS = {"stop": ("cbr",), "rate": ("cbr",), "total": ("bulk",),
             "count": ("ping",), "sport": ("cbr", "bulk"),
             "dport": ("cbr", "bulk")}


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
    """A cycle frames go round for ever, its nodes in the order frames travel:
    on VID `vid`, the largest it crosses, or, with `vid` 0, on none, worded
    by whether its nodes are `balancers`, inline firewalls or both."""

    def __init__(self, vid: int, cycle: list[str], balancers=()):
        lbs = sum(node in balancers for node in cycle)
        kinds = ("inline firewalls" if not lbs else "balancers"
                 if lbs == len(cycle) else "balancers and inline firewalls")
        what = f"vlan {vid} forms" if vid else f"{kinds} form"
        super().__init__(f"{what} a loop: {' - '.join(cycle)}")
        self.vid = vid
        self.cycle = cycle


# -- declarations ----------------------------------------------------------

@dataclass
class SwitchDecl:
    name: str
    ports: dict = field(default_factory=dict)


@dataclass
class L3Decl:
    name: str
    interfaces: list = field(default_factory=list)
    routes: list = field(default_factory=list)


@dataclass
class FirewallDecl:
    name: str
    cap_bps: int = DEFAULT_CAP_BPS
    nat_capacity: int = DEFAULT_NAT_CAPACITY
    zones: bool = True
    inside: FirewallSide = None
    outside: FirewallSide = None


@dataclass
class BalancerDecl:
    name: str
    ip: int
    peer_ip: int
    paths: tuple = ()
    override: dict = field(default_factory=dict)  # external ip -> path


@dataclass(slots=True)
class HostDecl:
    name: str
    ip: int
    prefix_len: int
    gw: Optional[int] = None
    vlan: Optional[int] = None
    group: Optional[str] = None


@dataclass(slots=True)
class LinkDecl:
    a: tuple
    b: tuple
    bw: int
    prop: int = DEFAULT_PROP_US
    queue: int = DEFAULT_LINK_QUEUE

    @property
    def link_id(self) -> str:
        return link_id_of(self.a, self.b)


@dataclass
class VlanDecl:
    vid: int
    name: str
    subnet: Optional[tuple] = None  # (network, prefix_len)


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
    """Seconds in [0, MAX_SECONDS] to whole microseconds, exactly for any
    decimal with at most six places; further places round half to even."""
    try:
        us = Decimal(text).scaleb(6)
        valid = us.is_finite() and 0 <= us <= MAX_SECONDS * 1_000_000
    except DecimalException:
        valid = False
    if not valid:
        raise ValueError(f"expected seconds in [0, {MAX_SECONDS}], "
                         f"got {text!r}")
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
    """The ports a `ports=` value declares; `PortConfig` checks the VIDs."""
    ports = {}
    for item in text.split(","):
        parts = item.split(":")
        if len(parts) not in (3, 4) or "" in parts:
            raise ValueError(f"bad port spec {item!r}")
        pid, mode, vids = _port_token(parts[0]), parts[1], parts[2]
        lag = parts[3] if len(parts) == 4 else None
        if mode == "trunk":
            spec = PortConfig(mode, allowed=frozenset(
                map(int, vids.split("|"))), lag_group=lag)
        else:
            spec = PortConfig(mode, vid=int(vids), lag_group=lag)
        if pid in ports:
            raise ValueError(f"duplicate port {pid!r}")
        ports[pid] = spec
    return ports


def _write_port(pid, spec: PortConfig) -> str:
    lag = f":{spec.lag_group}" if spec.lag_group is not None else ""
    return f"{pid}:{spec.mode}:{'|'.join(map(str, sorted(spec.vids)))}{lag}"


def _read_side(text: str) -> FirewallSide:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"side spec is mode:ip/prefix:zone, got {text!r}")
    mode, addr, zone = parts
    ip, plen = _read_ip_len(addr) if addr else (None, 24)
    return FirewallSide(SIDE_MODE.read(mode), ip, plen, ZONE.read(zone))


def _write_side(side: FirewallSide) -> str:
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
        ip = ip_addr(addr)
        if ip in override:
            raise ValueError(f"duplicate override address {addr!r}")
        override[ip] = path
    return override


TEXT = Codec(str)
INT = Codec(int)
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
    dotted attribute (`inside.gw`) is a field of a field, and a key that
    fills none (`attrs=()`) names the declaration that holds this one. An
    optional key whose value equals its dataclass default is left out of the
    file unless `always` is set. For the parser, `read` is the codec's read,
    or None when the value is its own text, and `attr` is the one attribute
    of the declaration itself that the key fills, or None."""
    __slots__ = ("name", "codec", "owner", "attrs", "required", "shown",
                 "read", "attr")

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
        self.read = None if codec is TEXT else codec.read
        self.attr = attrs[0] if len(attrs) == 1 and not self.owner else None

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
    all forms with that index (every kind of node has a `name`). A dotted
    store (`l3s.routes`) is a list in each declaration of a config dict (its
    `under` part), and a line's first key names the declaration it goes in.
    `order` sorts a list for writing. A `child` form's lines follow each
    parent's line; it has no key of the parent's first name."""

    def __init__(self, cls, keys: list, store: str = "", index: str = "",
                 order=None, child=None):
        self.cls, self.keys = cls, keys
        self.under, _, self.store = store.rpartition(".")
        self.index, self.order, self.child = index, order, child
        self.by_name = {key.name: key for key in keys}
        self.required = frozenset(key.name for key in keys if key.required)

    def read(self, kv: dict, lineno: int):
        if not self.required <= kv.keys():
            missing = next(key.name for key in self.keys
                           if key.required and key.name not in kv)
            raise ParseError(lineno, f"missing required key {missing!r}")
        values, nested = {}, []
        by_name = self.by_name
        for name, value in kv.items():
            key = by_name.get(name)
            if key is None:
                raise ParseError(lineno, f"unknown key {name!r}")
            if key.read is not None:
                try:
                    value = key.read(value)
                except ValueError as exc:
                    raise ParseError(lineno, f"{name}: {exc}") from None
            if key.attr is not None:
                values[key.attr] = value
            elif key.owner:
                nested.append((key, value))
            else:
                values.update(zip(key.attrs, value))
        if self.cls is None:
            return values
        try:  # an engine record checks its own values
            decl = self.cls(**values)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
        for key, value in nested:
            setattr(getattr(decl, key.owner), key.attrs[0], value)
        return decl

    def parse(self, cfg: ScenarioConfig, kv: dict, seen: dict, lineno: int,
              placed: list):
        """Read one declaration line into `cfg`; one for a dotted store goes
        to `placed` until its holder may be declared."""
        form = self
        if self.child is not None and self.keys[0].name not in kv:
            form = self.child
        decl = form.read(kv, lineno)
        if form.under:
            placed.append((form, kv[form.keys[0].name], decl, lineno))
        elif form.cls is None:
            for attr, value in decl.items():
                setattr(cfg, attr, value)
        elif not form.index:
            getattr(cfg, form.store).append(decl)
        else:
            ref = getattr(decl, form.index)
            names = seen.setdefault(form.index, set())
            if ref in names:
                raise ParseError(lineno, f"duplicate {form.index} {ref!r}")
            names.add(ref)
            getattr(cfg, form.store)[ref] = decl

    def lines(self, holder, ref=None):
        """The declaration lines of `holder`, in file order. For a dotted
        store they name their holder `ref`; given the config instead, they
        are those of each declaration of its `under` dict in turn."""
        if self.under and ref is None:
            table = getattr(holder, self.under)
            for name in sorted(table):
                yield from self.lines(table[name], name)
            return
        if self.cls is None:
            decls = [holder]
        elif self.index:
            table = getattr(holder, self.store)
            decls = [table[name] for name in sorted(table)]
        else:
            decls = getattr(holder, self.store)
            if self.order is not None:
                decls = sorted(decls, key=self.order)
        keys = self.keys[1:] if self.under else self.keys
        lead = f"{self.keys[0].name}={ref} " if self.under else ""
        for decl in decls:
            yield lead + " ".join(filter(None, (key.text(decl) for key in keys)))
            if self.child is not None:
                yield from self.child.lines(decl, getattr(decl, self.index))


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
        Key("ports", PORTS),
    ], store="switches", index="name"),
    "l3": Form(L3Decl, [
        Key("name", TEXT, required=True),
    ], store="l3s", index="name", child=Form(VlanInterface, [
        Key("node", TEXT, (), required=True),
        Key("vid", INT, required=True),
        Key("ip", IP_LEN, ("ip", "prefix_len"), required=True),
        Key("zone", ZONE, required=True),
        Key("port", PORT),
    ], store="l3s.interfaces", order=attrgetter("vid"))),
    "firewall": Form(FirewallDecl, [
        Key("name", TEXT, required=True),
        Key("inside", SIDE, required=True),
        Key("outside", SIDE, required=True),
        Key("cap", POSITIVE, "cap_bps", always=True),
        Key("nat_capacity", COUNT, always=True),
        Key("zones", ON_OFF, always=True),
        Key("inside_gw", IP, "inside.gw"),
        Key("inside_routes", SIDE_ROUTES, "inside.routes"),
        Key("outside_gw", IP, "outside.gw"),
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
    "route": Form(Route, [
        Key("node", TEXT, (), required=True),
        Key("prefix", NETWORK, ("prefix", "prefix_len"), required=True),
        Key("via_vid", VID),
        Key("gateway", IP),
    ], store="l3s.routes", order=attrgetter("prefix_len", "prefix")),
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
    "traffic": Form(TrafficSpec, [
        Key("kind", _one_of(("cbr", "bulk", "ping")), required=True),
        Key("src", TEXT, required=True),
        Key("dst", TEXT),
        Key("dst_ip", IP),
        Key("flow", TEXT, "flow_id", required=True),
        Key("start", SECONDS, "start_us"),
        Key("stop", SECONDS, "stop_us"),
        Key("rate", COUNT, "rate_bps"),
        Key("total", COUNT, "total_bytes"),
        Key("count", COUNT),
        Key("sport", L4_PORT, "src_port"),
        Key("dport", L4_PORT, "dst_port"),
    ], store="traffic"),
    "fault": Form(FaultDecl, [
        Key("at", SECONDS, "at_us", required=True),
        Key("action", _one_of(FAULT_ACTIONS), required=True),
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
    placed: list = []  # (form, holder's name, declaration, line)
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
        form.parse(cfg, _parse_kv(line, lineno), seen, lineno, placed)
    for form, ref, decl, lineno in placed:
        holder = getattr(cfg, form.under).get(ref)
        if holder is None:
            raise ParseError(lineno, f"{form.keys[0].name} {ref!r} is not a "
                             f"declared {form.under[:-1]}")
        getattr(holder, form.store).append(decl)
    return cfg


def serialize_scenario(cfg: ScenarioConfig) -> str:
    out = []
    for section, form in FORMAT.items():
        lines = list(form.lines(cfg))
        if lines:
            out += [f"[{section}]", *lines, ""]
    return "\n".join(out).rstrip("\n") + "\n"


# -- validation ------------------------------------------------------------

def _framing(cfg: ScenarioConfig, node: str, port) -> Optional[tuple]:
    """How `node` frames on `port`: (tagged, the VIDs it carries there, or
    None for any), or None when it has no such port. A switch trunk and an
    L3 switch's `trunk` (its interfaces without a port) are tagged; a switch
    access port, an L3 `port=` interface and a host with a `vlan` carry
    their VID untagged, and a firewall side, a balancer port and a host
    without a `vlan` pass any VID untagged."""
    if node in cfg.switches:
        spec = cfg.switches[node].ports.get(port)
        if spec is not None:
            return spec.mode == "trunk", spec.vids
    elif node in cfg.hosts:
        if port == 0:
            vlan = cfg.hosts[node].vlan
            return False, None if vlan is None else frozenset((vlan,))
    elif node in cfg.l3s:
        key = None if port == "trunk" else port
        vids = frozenset(i.vid for i in cfg.l3s[node].interfaces
                         if i.port == key)
        if vids or key is None:
            return key is None, vids
    elif node in cfg.firewalls:
        if port in ("inside", "outside"):
            return False, None
    elif node in cfg.balancers:
        if port == "front" or port in cfg.balancers[node].paths:
            return False, None
    return None


def arrival_graph(cfg: ScenarioConfig, ends: dict, sources=()) -> dict:
    """Where a flooded frame goes, as the engine forwards one: each arrival,
    (node, port, VID) with VID None off a switch, -> the arrivals it causes.
    A switch floods an arrival on VID v out of every other cabled port that
    carries v, never into the ingress port's LAG group; an inline firewall
    side passes it out of the other side; a balancer passes it from `front`
    out of each path and from a path out of `front`; a host, an L3 switch
    and a routed side end it. The far end takes the frame on the VID of its
    tag or of its access port. `ends` is `far_ends(cfg)`. Only arrivals that
    can lie on a cycle are listed: at a port that passes frames on, from one
    that passes them on too. Given `sources` (no switches), lists also hold
    arrivals that end and those from a source, and (source, None, v) lists
    what it sends on VID v (None: on any)."""
    switches = cfg.switches
    onward = {}  # a port that passes what arrives on -> the ports it leaves by
    for name, fw in cfg.firewalls.items():
        if fw.inside.mode == "inline":
            onward[(name, "inside")] = ("outside",)
        if fw.outside.mode == "inline":
            onward[(name, "outside")] = ("inside",)
    for name, bal in cfg.balancers.items():
        onward[(name, "front")] = bal.paths
        onward.update(((name, path), ("front",)) for path in bal.paths)
    exits = {(name, out) for (name, _), outs in onward.items() for out in outs}
    graph: dict = {}
    floods: dict = {}  # (switch, VID) -> [(port, LAG group, arrival)]
    leaves: dict = {}  # a non-switch port -> the arrivals of what leaves it
    listed = []  # the arrivals to list
    hosts = () if sources else cfg.hosts  # a host never passes frames on
    for (node, port), (peer, far) in ends.items():
        if node in hosts or peer in hosts:
            continue
        if node in switches:
            spec = switches[node].ports[port]
            vids, group = spec.allowed or (spec.vid,), spec.lag_group
        elif node in sources or (node, port) in exits:
            vids, group = _framing(cfg, node, port)[1], None
        else:
            continue
        if peer in switches:
            spec = switches[peer].ports[far]
            far_vids, passes = spec.allowed or (spec.vid,), True
        elif (peer, far) in onward:
            far_vids, passes = None, True
        elif sources:
            far_vids, passes = _framing(cfg, peer, far)[1], False
        else:
            continue
        if vids is None:
            vids = (None,) if far_vids is None else far_vids
        for vid in vids:
            if far_vids is not None and vid not in far_vids:
                continue
            arrival = (peer, far, vid if peer in switches else None)
            if passes:
                listed.append(arrival)
            if node in switches:
                floods.setdefault((node, vid), []).append(
                    (port, group, arrival))
                continue
            leaves.setdefault((node, port), []).append(arrival)
            if node in sources:
                graph.setdefault((node, None, vid), []).append(arrival)
    for arrival in listed:
        node, port, vid = arrival
        out = graph[arrival] = []
        if vid is None:
            for leave in onward[(node, port)]:
                out += leaves.get((node, leave), ())
            continue
        group = switches[node].ports[port].lag_group
        for other, other_group, nxt in floods.get((node, vid), ()):
            if other != port and (other_group is None or other_group != group):
                out.append(nxt)
    return graph


def _refuse_storms(cfg: ScenarioConfig, ends: dict):
    """Raise a `LoopError` for a cycle in `arrival_graph`, which a broadcast
    goes round for ever. One depth-first search starts at each balancer's
    `front`, each firewall's `inside`, each switch arrival by (VID, node,
    port name), then any other. The first arrival it reaches that passes a
    frame to one on its path closes the cycle, through the latest such."""
    graph = arrival_graph(cfg, ends)
    starts = [(name, "front", None) for name in cfg.balancers]
    starts += [(name, "inside", None) for name in cfg.firewalls]
    order = sorted([(a[2], a[0], str(a[1]), a) for a in graph if a[2]])
    starts += [key[3] for key in order] + list(graph)
    done = set()  # the arrivals whose every onward path is searched
    for arrival in starts:
        if arrival in done or arrival not in graph:
            continue
        path, todo = {}, []  # a stack: a function calling itself is a cycle
        while arrival is not None or todo:
            if arrival is None:
                arrival = next(todo[-1], None)
                if arrival is None:
                    done.add(path.popitem()[0])
                    todo.pop()
                elif arrival in done:
                    arrival = None
                continue
            path[arrival] = len(path)
            back = path.keys() & graph[arrival]  # arrivals on the path it feeds
            if back:
                cycle = list(path)[max(map(path.get, back)):]
                nodes = [node for node, _ in groupby(a[0] for a in cycle)]
                raise LoopError(max(a[2] or 0 for a in cycle), nodes,
                                cfg.balancers)
            todo.append(iter(graph[arrival]))
            arrival = None


def validate_scenario(cfg: ScenarioConfig, horizon_us: Optional[int] = None):
    """Raise a `ScenarioError` for what the parser cannot see. `horizon_us`
    is how far the file will run, its `duration` unless given."""
    names = cfg.node_names()
    link_ids = set()
    endpoints = set()
    for link in cfg.links:
        link_id = link.link_id
        framing = []
        for node, port in (link.a, link.b):
            framing.append(_framing(cfg, node, port))
            if framing[-1] is None:
                raise ValidationError(link_id, (
                    f"{node!r} has no port {port!r}" if node in names
                    else f"link endpoint {node!r} is not declared"))
            if (node, port) in endpoints:
                raise ValidationError(link_id,
                                      f"port {node}:{port} used by two links")
            endpoints.add((node, port))
        # one framing per link: a tagged end faces a tagged end, and two
        # untagged ends that name VIDs name the same one; an error names
        # the untagged end, else a host end, else end a
        ends = tuple(zip((link.a, link.b), framing))
        if ends[0][1][0] or (not ends[1][1][0] and link.b[0] in cfg.hosts):
            ends = ends[::-1]
        ((node, _), (tagged, near)), ((peer, port), (far_tagged, far)) = ends
        if far_tagged and not tagged:
            # a trunk has no native VLAN, so it drops what this end sends
            raise ValidationError(node, f"{peer}:{port} is a trunk port, "
                                        "which drops untagged frames")
        if not tagged and None not in (near, far) and near != far:
            vids = "|".join(map(str, sorted(near)))
            raise ValidationError(node, f"vlan {vids} is not carried by "
                                        f"{peer}:{port}")
        link_ids.add(link_id)
    if cfg.vlans:
        for name, sw in cfg.switches.items():
            for pid, spec in sw.ports.items():
                for vid in sorted(spec.vids):
                    if vid not in cfg.vlans:
                        raise ValidationError(f"{sw.name}:{pid}",
                                              f"vlan {vid} is not declared")
        for host in cfg.hosts.values():
            if host.vlan is None:
                continue
            vlan = cfg.vlans.get(host.vlan)
            if vlan is None:
                raise ValidationError(host.name,
                                      f"vlan {host.vlan} is not declared")
            if vlan.subnet and not in_network(host.ip, *vlan.subnet):
                raise ValidationError(host.name, (
                    f"{ip_str(host.ip)} is outside vlan {vlan.vid}'s subnet "
                    f"{_write_ip_len(vlan.subnet)}"))
    for name in cfg.l3s:
        try:
            _router(cfg, name)
        except L3Error as exc:
            raise ValidationError(name, str(exc)) from None
    zone_pairs = set()
    for acl in cfg.acls:  # the last line for a pair would hide the others
        pair = (acl.from_zone, acl.to_zone)
        if pair in zone_pairs:
            raise ValidationError("acl", f"from={pair[0]} to={pair[1]} is "
                                         "declared twice")
        zone_pairs.add(pair)
    scopes = set()  # NAT keeps the first scope for a network
    for masq in cfg.masquerades:
        if masq.node not in cfg.firewalls:
            raise ValidationError(masq.node,
                                  "masquerade scope on undeclared firewall")
        scope = (masq.node, masq.network & prefix_mask(masq.prefix_len),
                 masq.prefix_len)
        if scope in scopes:
            raise ValidationError(masq.node, (
                f"masquerade {_write_ip_len(scope[1:])} never takes effect: "
                "an earlier line already scopes it"))
        scopes.add(scope)
    for fw in cfg.firewalls.values():
        # an inline side passes frames on to the MAC they were sent to
        for port, side in (("inside", fw.inside), ("outside", fw.outside)):
            if side.mode == "inline" and (side.gw is not None or side.routes):
                key = f"{port}_gw" if side.gw is not None else f"{port}_routes"
                raise ValidationError(fw.name,
                                      f"{key} has no effect on an inline side")
            # the side's next hops keep the first entry for a prefix:
            # (network, length) -> what gives it
            first = {}
            if side.ip is not None:
                first[side.ip & prefix_mask(side.prefix_len),
                      side.prefix_len] = f"the {port} subnet"
            hops = [(net, plen, f"{port}_routes {_write_ip_len((net, plen))}")
                    for net, plen, _ in side.routes]
            if side.gw is not None:
                hops.append((0, 0, f"{port}_gw"))
            for net, plen, what in hops:
                prefix = (net & prefix_mask(plen), plen)
                if prefix in first:
                    raise ValidationError(fw.name, (
                        f"{what} never takes effect: {first[prefix]} already "
                        "routes it"))
                first[prefix] = f"an earlier {port}_routes entry"
    for bal in cfg.balancers.values():
        if len(bal.paths) != 2 or bal.paths[0] == bal.paths[1]:
            raise ValidationError(bal.name,
                                  "balancer needs exactly two distinct paths")
        for path in bal.override.values():
            if path not in bal.paths:
                raise ValidationError(bal.name,
                                      f"override path {path!r} not in paths")
    flows = set()
    traffic_keys = FORMAT["traffic"].by_name
    flow_defaults = _field_defaults(TrafficSpec)
    for t in cfg.traffic:
        fid = t.flow_id
        if fid in flows:
            raise ValidationError(fid, "duplicate flow")
        flows.add(fid)
        if t.src not in cfg.hosts:
            raise ValidationError(fid, f"traffic src {t.src!r} is not a host")
        if t.dst is None and t.dst_ip is None:
            raise ValidationError(fid, "traffic needs dst or dst_ip")
        if t.dst is not None and t.dst not in cfg.hosts:
            raise ValidationError(fid, f"traffic dst {t.dst!r} is not a host")
        if t.dst is not None and t.dst_ip is not None:
            raise ValidationError(fid, "dst has no effect beside dst_ip")
        for key, kinds in FLOW_KEYS.items():
            attr = traffic_keys[key].attr
            if t.kind not in kinds and getattr(t, attr) != flow_defaults[attr]:
                raise ValidationError(fid, f"{key} has no effect on a {t.kind}"
                                           " flow")
        if t.kind == "cbr" and not 0 < t.rate_bps <= MAX_CBR_RATE:
            raise ValidationError(
                fid, f"cbr rate must be in (0, {MAX_CBR_RATE}] bps")
        if t.kind == "ping" and t.count <= 0:
            raise ValidationError(fid, "ping count must be > 0")
        if t.kind == "bulk" and t.total_bytes <= 0:
            raise ValidationError(fid, "bulk total must be > 0")
    if horizon_us is None:
        horizon_us = cfg.duration_us
    offered = offered_packets(cfg, horizon_us)
    if offered > MAX_OFFERED_PACKETS:
        raise ValidationError("traffic", (
            f"the flows offer {offered} packets by {SECONDS.write(horizon_us)}"
            f" s, over the cap of {MAX_OFFERED_PACKETS}"))
    targets = {"fail_node": ("node", names), "fail_link": ("link", link_ids)}
    either = ("node or link", names | link_ids)
    for f in cfg.faults:
        what, pool = targets.get(f.action, either)
        if f.target not in pool:
            raise ValidationError(f.target, f"{f.action} target is not a {what}")
    for name, node in host_gateways(cfg).items():
        if node is None:
            host = cfg.hosts[name]
            vlan = cfg.vlans.get(host.vlan)
            subnet = vlan.subnet if vlan is not None else None
            on = "" if host.vlan is None else f" on vlan {host.vlan}"
            within = "" if subnet is None else f" in {_write_ip_len(subnet)}"
            raise ValidationError(name, (
                f"gateway {ip_str(host.gw)} is not an L3 interface{on} or a "
                f"firewall side{within}"))
    # a LAG aggregates links between two systems (IEEE 802.1AX)
    ends = far_ends(cfg)
    bundles = {}  # (switch, LAG group) -> the (switch, group) it faces
    for name, sw in cfg.switches.items():
        for pid, spec in sw.ports.items():
            far = ends.get((name, pid))
            if spec.lag_group is None or far is None:
                continue
            peer, port = far
            peer_sw = cfg.switches.get(peer) if peer != name else None
            group = peer_sw and peer_sw.ports[port].lag_group
            faced = bundles.setdefault((name, spec.lag_group), (peer, group))
            if group is None or faced != (peer, group):
                raise ValidationError(f"{name}:{pid}", (
                    f"lag {spec.lag_group} member faces {peer}:{port}, "
                    "which is no lag member of another switch" if group is None
                    else f"lag {spec.lag_group} faces lag {group} of {peer} "
                    f"and lag {faced[1]} of {faced[0]}, but a lag joins two "
                    "switches"))
    _refuse_storms(cfg, ends)


def offered_packets(cfg: ScenarioConfig, horizon_us: int) -> int:
    """The packets cfg's flows offer by horizon_us, as the engine sends
    them; a bulk flow counts each segment once."""
    total = 0
    for t in cfg.traffic:
        if t.kind == "cbr":
            interval = cbr_interval_us(t.rate_bps)
            # a send falls before `stop`, and by the horizon
            last = (horizon_us if t.stop_us is None
                    else min(horizon_us, t.stop_us - 1))
            total += max(0, (last - t.start_us) // interval + 1)
        elif t.kind == "bulk":
            total += -(-t.total_bytes // BULK_SEGMENT)
        elif t.kind == "ping":
            total += min(t.count, max(
                0, (horizon_us - t.start_us) // PING_INTERVAL_US + 1))
    return total


def host_gateways(cfg: ScenarioConfig) -> dict:
    """Each host with a `gw` -> the node that answers it, or None: an L3
    interface at that address on the host's VLAN (on any VLAN for a host
    without one), else a firewall side inside the VLAN's declared subnet
    (anywhere without one). The first node declared wins."""
    l3s: dict = {}  # (vid, and None for any, ip) -> node
    for name, decl in cfg.l3s.items():
        for iface in decl.interfaces:
            for vid in (iface.vid, None):
                l3s.setdefault((vid, iface.ip), name)
    firewalls = {side.ip: name for name, fw in reversed(cfg.firewalls.items())
                 for side in (fw.inside, fw.outside)}
    answers = {}
    for host, decl in cfg.hosts.items():
        gw = decl.gw
        if gw is not None:
            node = l3s.get((decl.vlan, gw))
            vlan = cfg.vlans.get(decl.vlan)
            if node is None and (vlan is None or vlan.subnet is None
                                 or in_network(gw, *vlan.subnet)):
                node = firewalls.get(gw)
            answers[host] = node
    return answers


# -- engine construction ---------------------------------------------------

def far_ends(cfg: ScenarioConfig) -> dict:
    """Each cabled (node, port) -> the (node, port) at its link's far end."""
    ends = {}
    for link in cfg.links:
        ends[link.a] = link.b
        ends[link.b] = link.a
    return ends


def configure_ports(switch: Switch, decl: SwitchDecl, ends: dict):
    """Give switch the ports decl declares. A LAG member with no link in
    `ends` (`far_ends`) starts down, as IEEE 802.1AX aggregates only
    members whose link is up."""
    for pid in sorted(decl.ports, key=str):
        spec = decl.ports[pid]
        switch.configure_port(pid, spec)
        if spec.lag_group is not None and (switch.name, pid) not in ends:
            switch.set_port_up(pid, False)


def _router(cfg: ScenarioConfig, name: str,
            policy: Mapping = DEFAULT_ZONE_POLICY) -> ZoneRouter:
    """L3 switch `name`, reading zone `policy`; raises `L3Error` when its
    lines conflict."""
    router = ZoneRouter(policy=policy)
    decl = cfg.l3s[name]
    for iface in sorted(decl.interfaces, key=attrgetter("vid")):
        if iface.port == "trunk":  # L3Node sends on it tagged
            raise L3Error(f"vid {iface.vid}: port 'trunk' is the tagged "
                          "trunk; an interface on it has no port")
        router.add_interface(iface)
    for route in decl.routes:
        router.add_route(route)
    return router


def build_engine(cfg: ScenarioConfig, trace=None) -> Engine:
    """The engine for cfg at its seed; `trace` is as for `Engine`. The
    engine shares cfg's records and changes none of cfg."""
    eng = Engine(seed=cfg.seed, trace=trace)
    # one zone-policy table, shared by every L3 switch and firewall
    policy = {**DEFAULT_ZONE_POLICY,
              **{(a.from_zone, a.to_zone): a.verdict for a in cfg.acls}}

    ends = far_ends(cfg)
    for name, decl in sorted(cfg.switches.items()):
        configure_ports(SwitchNode(eng, name).switch, decl, ends)

    for name in sorted(cfg.l3s):
        L3Node(eng, name, _router(cfg, name, policy))

    for name, decl in sorted(cfg.firewalls.items()):
        fw = Firewall(nat_capacity=decl.nat_capacity)
        for masq in cfg.masquerades:
            if masq.node == name:
                fw.add_scope(masq.network, masq.prefix_len, masq.external)
        FirewallNode(eng, name, fw, decl.inside, decl.outside, decl.cap_bps,
                     enforce_zones=decl.zones, policy=policy)

    for name, decl in sorted(cfg.balancers.items()):
        lb = LoadBalancer(list(decl.paths), hash_salt=eng.hash_salt)
        lb.dest_override.update(decl.override)
        BalancerNode(eng, name, decl.ip, decl.peer_ip, lb)

    for name, decl in sorted(cfg.hosts.items()):
        HostNode(eng, name, decl.ip, decl.prefix_len, gw_ip=decl.gw)

    for link in cfg.links:
        eng.add_link(link.a[0], link.a[1], link.b[0], link.b[1], link.bw,
                     prop_us=link.prop, queue_cap=link.queue)

    for spec in cfg.traffic:
        if spec.dst_ip is None:
            spec = replace(spec, dst_ip=cfg.hosts[spec.dst].ip)
        eng.nodes[spec.src].add_generator(eng, spec)

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
            ports["up"] = PortConfig("access", vid=MGMT_VID)
        else:
            ports["up"] = PortConfig(
                "trunk", allowed=_edge_switch_vids(b_by_switch, sw))
        pn = 1
        for b in beamlines:
            vid = MGMT_VID if flat else beamline_vid(b)
            for n in range(HOSTS_PER_BEAMLINE):
                ports[f"p{pn}"] = PortConfig("access", vid=vid)
                host = f"bl{b:02d}h{n + 1}"
                gw = gw_for(b)
                cfg.hosts[host] = HostDecl(
                    host, ip_addr(beamline_host_ip(b, n)), host_plen,
                    gw=ip_addr(gw) if gw is not None else None,
                    vlan=vid, group=f"bl{b:02d}")
                cfg.links.append(LinkDecl((host, 0), (sw, f"p{pn}"), host_bw))
                pn += 1
        cfg.switches[sw] = SwitchDecl(sw, ports)
    return b_by_switch


def build_spring8_legacy() -> ScenarioConfig:
    """Pre-upgrade fabric: one flat broadcast domain, Fast Ethernet backbone,
    10 Mbps edge uplinks, a single border firewall."""
    cfg = ScenarioConfig()
    cfg.duration_us = 10_000_000
    # flat broadcast domain: every campus address is on-link, the border
    # firewall is the only gateway; beamlines are host groups, not VLANs
    cfg.vlans[MGMT_VID] = VlanDecl(MGMT_VID, "bl-user-lan",
                                   ip_network("10.0.0.0/8"))
    _populate_edge(cfg, host_bw=TEN, flat=True, gw_for=lambda b: "10.0.0.1",
                   host_plen=8)
    bb_ports = {}
    for i in range(1, 33):
        bb_ports[f"d{i:02d}"] = PortConfig("access", vid=MGMT_VID)
        cfg.links.append(LinkDecl((f"sw{i:02d}", "up"), ("bb", f"d{i:02d}"), TEN))
    bb_ports["mon"] = PortConfig("access", vid=MGMT_VID)
    bb_ports["fw"] = PortConfig("access", vid=MGMT_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)
    cfg.hosts["monitor"] = HostDecl("monitor", ip_addr("10.0.1.250"), 8,
                                    gw=ip_addr("10.0.0.1"), vlan=MGMT_VID,
                                    group="mgmt")
    cfg.links.append(LinkDecl(("monitor", 0), ("bb", "mon"), FAST))
    fw = FirewallDecl("fw0")
    fw.inside = FirewallSide("routed", ip_addr("10.0.0.1"), 8, "dmz")
    fw.outside = FirewallSide("routed", ip_addr("198.18.0.1"), 24, "public")
    cfg.firewalls["fw0"] = fw
    cfg.masquerades.append(MasqDecl("fw0", ip_addr("0.0.0.0"), 0,
                                    ip_addr("198.18.0.61")))
    cfg.links.append(LinkDecl(("bb", "fw"), ("fw0", "inside"), FAST))
    cfg.hosts["inet1"] = HostDecl("inet1", ip_addr("198.18.0.9"), 24,
                                  group="outside")
    cfg.links.append(LinkDecl(("fw0", "outside"), ("inet1", 0), FAST))
    cfg.traffic.append(TrafficSpec("ping", "bl01h1", "mon-check",
                                   dst="monitor", count=3))
    return cfg


def _quadrant_vids(q: int) -> tuple:
    return tuple(sorted([MGMT_VID] + [beamline_vid(b) for b in QUADRANTS[q]]
                        + list(STAFF_VIDS[q - 1:q])))


def _gateway(name: str, mgmt_ip: str, beamlines, staff_vids) -> L3Decl:
    """An L3 switch on the management VLAN that routes for the given beamline
    and staff VLANs."""
    return L3Decl(name, [VlanInterface(MGMT_VID, ip_addr(mgmt_ip), 24, "dmz")]
                  + [VlanInterface(beamline_vid(b), ip_addr(beamline_gw(b)),
                                   24, "dmz") for b in beamlines]
                  + [VlanInterface(vid, ip_addr(f"10.0.{vid}.1"), 24, "dmz")
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
        agg_ports = {up: PortConfig("trunk", allowed=vids,
                                    lag_group="lag1" if bundled else None)
                     for up, _ in uplinks}
        for i in range((q - 1) * 8 + 1, q * 8 + 1):
            sw = f"sw{i:02d}"
            agg_ports[f"d{i:02d}"] = PortConfig(
                "trunk", allowed=_edge_switch_vids(b_by_switch, sw))
            cfg.links.append(LinkDecl((sw, "up"), (agg, f"d{i:02d}"), FAST))
        if q <= 2:
            agg_ports["staff"] = PortConfig("access", vid=STAFF_VIDS[q - 1])
        cfg.switches[agg] = SwitchDecl(agg, agg_ports)
        for up, bb_port in uplinks:
            bb_ports[bb_port] = PortConfig(
                "trunk", allowed=vids, lag_group=f"lag{agg}" if bundled else None)
            cfg.links.append(LinkDecl((agg, up), ("bb", bb_port), GIG))
    return bb_ports


def _add_operations(cfg: ScenarioConfig):
    """The monitor and NMS hosts on the backbone's management VLAN."""
    for host, n, port in (("monitor", 250, "mon"), ("nms", 251, "nms")):
        cfg.switches["bb"].ports[port] = PortConfig("access", vid=MGMT_VID)
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
    cfg.traffic.append(TrafficSpec("ping", "monitor", "mon-check",
                                   dst="bl01h1", count=3))
    cfg.traffic.append(TrafficSpec("bulk", "bl01h1", "daq", dst=outside_host,
                                   total_bytes=10_000_000, src_port=40_000,
                                   dst_port=5001))


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
        cfg.switches[f"agg{q}"].ports["r"] = PortConfig(
            "trunk", allowed=_quadrant_vids(q))
        cfg.l3s[name] = _gateway(name, f"10.0.1.{q}", QUADRANTS[q],
                                 STAFF_VIDS[q - 1:q])
        cfg.links.append(LinkDecl((name, "trunk"), (f"agg{q}", "r"), GIG))
        routes = cfg.l3s[name].routes
        # other quadrants' beamline subnets are one transit hop away
        for b in range(1, BEAMLINES + 1):
            if quadrant_of(b) != q:
                net, plen = ip_network(beamline_subnet(b))
                routes.append(Route(
                    net, plen, gateway=ip_addr(f"10.0.1.{quadrant_of(b)}")))
        for i, vid in enumerate(STAFF_VIDS, start=1):
            if i != q:
                net, plen = ip_network(f"10.0.{vid}.0/24")
                routes.append(Route(net, plen, gateway=ip_addr(f"10.0.1.{i}")))
        routes.append(Route(0, 0, gateway=ip_addr(f"172.16.{q}.2")))

        fw = FirewallDecl(f"fw{q}")
        fw.inside = FirewallSide("routed", ip_addr(f"172.16.{q}.2"), 30,
                                 "dmz", gw=ip_addr(f"172.16.{q}.1"))
        fw.inside.routes = [(ip_addr("10.0.0.0"), 8, ip_addr(f"172.16.{q}.1"))]
        fw.outside = FirewallSide("routed", ip_addr(f"198.18.{q}.1"), 24,
                                  "public")
        cfg.firewalls[f"fw{q}"] = fw
        cfg.masquerades.append(MasqDecl(f"fw{q}", ip_addr("0.0.0.0"), 0,
                                        ip_addr(f"198.18.{q}.61")))
        cfg.l3s[name].interfaces.append(
            VlanInterface(70 + q, ip_addr(f"172.16.{q}.1"), 30, "dmz",
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
    bb_ports["l3"] = PortConfig("trunk", allowed=frozenset(cfg.vlans))
    bb_ports["adm"] = PortConfig("access", vid=CLEAN_VID)
    cfg.switches["bb"] = SwitchDecl("bb", bb_ports)

    name = "l3r"
    decl = _gateway(name, "10.0.1.1", range(1, BEAMLINES + 1), STAFF_VIDS)
    decl.interfaces.append(VlanInterface(CLEAN_VID,
                                         ip_addr(f"10.0.{CLEAN_VID}.1"), 24,
                                         "clean"))
    decl.interfaces.append(VlanInterface(99, ip_addr("192.0.2.1"), 24,
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
        fw.inside = FirewallSide("inline", None, 24, "dmz")
        fw.outside = FirewallSide("inline", None, 24, "public")
        cfg.firewalls[f"fw{i}"] = fw
        cfg.masquerades.append(MasqDecl(f"fw{i}", ip_addr("192.0.2.0"), 24,
                                        ip_addr(f"192.0.2.{60 + i}")))
        cfg.links.append(LinkDecl(("lbi", f"fw{i}"), (f"fw{i}", "inside"), GIG))
        cfg.links.append(LinkDecl((f"fw{i}", "outside"), ("lbo", f"fw{i}"), GIG))
    cfg.switches["psw"] = SwitchDecl("psw", {
        "lb": PortConfig("access", vid=MGMT_VID),
        "h1": PortConfig("access", vid=MGMT_VID),
        "h2": PortConfig("access", vid=MGMT_VID),
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
