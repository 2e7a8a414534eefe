"""Frames, VLAN tags, IPv4 packets and flow keys shared by every layer.

A `Packet` is checked once, where its fields are first chosen: the checked
`Packet(...)` constructor builds a flow's template at a host and a probe or
reply at a middlebox. Every other packet is a copy of a checked one, built
here without `__init__`: `packet_copy` on the forwarding path and `segment`
for each packet a host sends from its flow's template."""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

MIN_FRAME = 64
MAX_UNTAGGED = 1518
MAX_TAGGED = 1522
ETH_OVERHEAD = 18  # header + FCS, untagged
TAG_BYTES = 4  # an 802.1Q tag
IP_HEADER_BYTES = 40  # modeled IPv4 + transport header cost

PORTLESS_PROTOCOLS = frozenset({"probe"})  # health checks: NAT never sees them
PROTOCOLS = frozenset({"tcp", "udp", "icmp", "probe"})


class TagError(Exception):
    pass


class AlreadyTagged(TagError):
    pass


class NotTagged(TagError):
    pass


class InvalidVid(ValueError):
    pass


VIDS = frozenset(range(1, 4095))  # the VIDs `check_vid` accepts


def check_vid(vid: int) -> int:
    if not isinstance(vid, int) or not 1 <= vid <= 4094:
        raise InvalidVid(f"vid must be in [1, 4094], got {vid!r}")
    return vid


# IPv4 text is four decimal octets, each written as str(n) writes it: the
# strings ipaddress.IPv4Address accepts, which refuses leading zeros,
# signs, spaces and non-ASCII digits
_OCTET_TEXT = [str(n) for n in range(256)]
_OCTET = {text: n for n, text in enumerate(_OCTET_TEXT)}


def ip_addr(value: Union[int, str]) -> int:
    """Parse a dotted-quad string (or pass through an int) to a 32-bit address."""
    if isinstance(value, int):
        if not 0 <= value < 2**32:
            raise ValueError(f"address out of range: {value}")
        return value
    try:
        a, b, c, d = value.split(".")
        return _OCTET[a] << 24 | _OCTET[b] << 16 | _OCTET[c] << 8 | _OCTET[d]
    except (ValueError, KeyError):  # not four parts, or a part not an octet
        raise ValueError(f"not an IPv4 address: {value!r}") from None


def ip_str(addr: int) -> str:
    if not 0 <= addr < 2**32:
        raise ValueError(f"address out of range: {addr}")
    text = _OCTET_TEXT
    return ".".join((text[addr >> 24], text[addr >> 16 & 255],
                     text[addr >> 8 & 255], text[addr & 255]))


def ip_network(value: str) -> tuple[int, int]:
    """Parse "a.b.c.d/len" to (network int, prefix length), with len in
    [0, 32] written as an octet is; host bits are cleared."""
    addr, _, plen = value.partition("/")
    prefix_len = _OCTET.get(plen, 33)
    if prefix_len > 32:
        raise ValueError(f"not an IPv4 network: {value!r}")
    return ip_addr(addr) & prefix_mask(prefix_len), prefix_len


@functools.lru_cache(maxsize=64)
def prefix_mask(prefix_len: int) -> int:
    return ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0


def in_network(addr: int, net: int, prefix_len: int) -> bool:
    return (addr & prefix_mask(prefix_len)) == net


class PrefixTable:
    """Longest-prefix match: one dict per prefix length, probed longest first
    (Waldvogel et al., "Scalable High Speed IP Routing Lookups", SIGCOMM 1997).

    Prefixes are masked on insert, so host bits never stop a match. For an
    equal prefix the first value inserted wins; `insert` returns the value
    the table keeps.
    """

    def __init__(self):
        self._by_len: dict[int, dict[int, object]] = {}
        self._probe: list[tuple[int, dict[int, object]]] = []  # (mask, table)

    def insert(self, prefix: int, prefix_len: int, value):
        table = self._by_len.get(prefix_len)
        if table is None:
            table = self._by_len[prefix_len] = {}
            self._probe = [(prefix_mask(n), self._by_len[n])
                           for n in sorted(self._by_len, reverse=True)]
        return table.setdefault(prefix & prefix_mask(prefix_len), value)

    def lookup(self, addr: int):
        """Value of the longest prefix covering addr; None when none does."""
        for mask, table in self._probe:
            key = addr & mask
            if key in table:
                return table[key]
        return None


BROADCAST = b"\xff" * 6  # a MAC address is its 6 octets


def node_mac(name: str) -> bytes:
    """Stable locally-administered MAC derived from the node name."""
    digest = hashlib.blake2b(name.encode(), digest_size=6).digest()
    return b"\x02" + digest[1:]


class FlowKey(NamedTuple):
    src_ip: int
    dst_ip: int
    protocol: str
    src_port: int
    dst_port: int

    def mirrored(self) -> "FlowKey":
        return tuple.__new__(FlowKey, (  # skips the namedtuple's __new__
            self.dst_ip, self.src_ip, self.protocol, self.dst_port,
            self.src_port))

    def __str__(self) -> str:
        return (f"{ip_str(self.src_ip)}:{self.src_port}->"
                f"{ip_str(self.dst_ip)}:{self.dst_port}")


# Packet and Frame are not frozen, which would make them four times as slow to
# build, but are never changed: one frame object may be on several links.
@dataclass(slots=True, unsafe_hash=True)
class Packet:
    src_ip: int
    dst_ip: int
    protocol: str
    src_port: int = 0
    dst_port: int = 0
    payload_bytes: int = 0
    ttl: int = 64
    meta: tuple = ()
    # modeled on-the-wire IP packet size, set once: read on every hop
    size: int = field(init=False, compare=False, repr=False)
    # the flow key of the fields above, set once: read on every routed,
    # translated, balanced or LAG hop
    key: FlowKey = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        portless = self.protocol in PORTLESS_PROTOCOLS
        if portless and (self.src_port or self.dst_port):
            raise ValueError(f"{self.protocol} packets carry no ports")
        if not portless and not (0 <= self.src_port <= 65535 and 0 <= self.dst_port <= 65535):
            raise ValueError("ports must be 16-bit")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        self.size = self.payload_bytes + IP_HEADER_BYTES
        self.key = tuple.__new__(FlowKey, (  # skips the namedtuple's __new__
            self.src_ip, self.dst_ip, self.protocol, self.src_port,
            self.dst_port))


@dataclass(frozen=True, slots=True)
class Arp:
    """In-VLAN address resolution: broadcast request, unicast reply."""
    op: str  # "request" | "reply"
    sender_ip: int
    sender_mac: bytes
    target_ip: int


Payload = Union[Packet, Arp, int]


def payload_size(payload: Payload) -> int:
    if isinstance(payload, Packet):
        return payload.size
    if isinstance(payload, Arp):
        return 28
    return int(payload)


@dataclass(slots=True, unsafe_hash=True)
class Frame:
    src: bytes  # 6 octets; bit 0 of the first is the group bit
    dst: bytes
    payload: Payload
    size_bytes: int
    tag: Optional[int] = None  # its 802.1Q tag's VID; no 802.1p priority

    def __post_init__(self):
        if len(self.src) != 6 or len(self.dst) != 6:
            raise ValueError("MAC address needs exactly 6 octets")
        limit = MAX_UNTAGGED
        if self.tag is not None:
            check_vid(self.tag)
            limit = MAX_TAGGED
        if not MIN_FRAME <= self.size_bytes <= limit:
            raise ValueError(
                f"frame size {self.size_bytes} outside [{MIN_FRAME}, {limit}]")


def packet_copy(packet: Packet, src_ip: int, dst_ip: int, src_port: int,
                dst_port: int, ttl: int) -> Packet:
    """packet with other endpoints or ttl, for routing and NAT: no checks.
    The caller passes ports it took from a checked packet or a NAT pool, so
    they fit the protocol; ttl has no check."""
    out = object.__new__(Packet)
    out.src_ip, out.dst_ip, out.protocol = src_ip, dst_ip, packet.protocol
    out.src_port, out.dst_port, out.payload_bytes = (
        src_port, dst_port, packet.payload_bytes)
    out.ttl, out.meta, out.size = ttl, packet.meta, packet.size
    out.key = tuple.__new__(FlowKey, (
        src_ip, dst_ip, packet.protocol, src_port, dst_port))
    return out


def segment(template: Packet, payload_bytes: int, meta: tuple) -> Packet:
    """template carrying payload_bytes and meta, for a host's flow: no
    checks. The caller passes a payload size of at least 0; the template's
    endpoints, ports and key were checked when it was built."""
    out = object.__new__(Packet)
    out.src_ip, out.dst_ip, out.protocol = (
        template.src_ip, template.dst_ip, template.protocol)
    out.src_port, out.dst_port, out.payload_bytes = (
        template.src_port, template.dst_port, payload_bytes)
    out.ttl, out.meta, out.size = (
        template.ttl, meta, payload_bytes + IP_HEADER_BYTES)
    out.key = template.key
    return out


def frame_copy(frame: Frame, tag: Optional[int]) -> Frame:
    """frame retagged with tag, for the forwarding path: no checks."""
    size = frame.size_bytes
    if frame.tag is not None:
        size -= TAG_BYTES
    if tag is not None:
        size += TAG_BYTES
    out = object.__new__(Frame)
    out.src, out.dst, out.payload = frame.src, frame.dst, frame.payload
    out.size_bytes, out.tag = size, tag
    return out


def make_frame(src: bytes, dst: bytes, payload: Payload,
               tag: Optional[int] = None) -> Frame:
    """A new frame for payload: Frame's size check without its __init__."""
    size = (payload.size if payload.__class__ is Packet
            else payload_size(payload)) + ETH_OVERHEAD
    if size < MIN_FRAME:
        size = MIN_FRAME
    limit = MAX_UNTAGGED
    if tag is not None:
        size += TAG_BYTES
        limit = MAX_TAGGED
    if size > limit:
        raise ValueError(f"frame size {size} outside [{MIN_FRAME}, {limit}]")
    out = object.__new__(Frame)
    out.src, out.dst, out.payload, out.size_bytes, out.tag = (
        src, dst, payload, size, tag)
    return out


def push_tag(frame: Frame, vid: int) -> Frame:
    if frame.tag is not None:
        raise AlreadyTagged(f"frame already tagged with vid {frame.tag}")
    return frame_copy(frame, check_vid(vid))


def pop_tag(frame: Frame) -> tuple[Frame, int]:
    if frame.tag is None:
        raise NotTagged("frame carries no 802.1Q tag")
    return frame_copy(frame, None), frame.tag


def flow_key(packet: Packet) -> FlowKey:
    return packet.key


def frame_flow_key(frame: Frame) -> FlowKey:
    """Flow key for hashing decisions; MAC-derived fallback for non-IP frames."""
    if isinstance(frame.payload, Packet):
        return frame.payload.key
    src = int.from_bytes(frame.src[2:], "big")
    dst = int.from_bytes(frame.dst[2:], "big")
    return FlowKey(src, dst, "icmp", 0, 0)
