"""Frames, VLAN tags, IPv4 packets and flow keys shared by every layer."""
from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

TPID = 0x8100
MIN_FRAME = 64
MAX_UNTAGGED = 1518
MAX_TAGGED = 1522
ETH_OVERHEAD = 18  # header + FCS, untagged
IP_HEADER_BYTES = 40  # modeled IPv4 + transport header cost

PORTLESS_PROTOCOLS = frozenset({"icmp", "probe"})
PROTOCOLS = frozenset({"tcp", "udp", "icmp", "probe"})


class TagError(Exception):
    pass


class AlreadyTagged(TagError):
    pass


class NotTagged(TagError):
    pass


class InvalidVid(ValueError):
    pass


def check_vid(vid: int) -> int:
    if not isinstance(vid, int) or not 1 <= vid <= 4094:
        raise InvalidVid(f"vid must be in [1, 4094], got {vid!r}")
    return vid


def ip_addr(value: Union[int, str]) -> int:
    """Parse a dotted-quad string (or pass through an int) to a 32-bit address."""
    if isinstance(value, int):
        if not 0 <= value < 2**32:
            raise ValueError(f"address out of range: {value}")
        return value
    return int(ipaddress.IPv4Address(value))


@functools.lru_cache(maxsize=8192)
def ip_str(addr: int) -> str:
    return str(ipaddress.IPv4Address(addr))


def ip_network(value: str) -> tuple[int, int]:
    """Parse "a.b.c.d/len" to (network int, prefix length)."""
    net = ipaddress.IPv4Network(value, strict=False)
    return int(net.network_address), net.prefixlen


@functools.lru_cache(maxsize=64)
def prefix_mask(prefix_len: int) -> int:
    return ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0


def in_network(addr: int, net: int, prefix_len: int) -> bool:
    return (addr & prefix_mask(prefix_len)) == net


class PrefixTable:
    """Longest-prefix match: one dict per prefix length, probed longest first
    (Waldvogel et al., "Scalable High Speed IP Routing Lookups", SIGCOMM 1997).

    Prefixes are masked on insert, so host bits never stop a match. For an
    equal prefix the first value inserted wins.
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
        table.setdefault(prefix & prefix_mask(prefix_len), value)

    def lookup(self, addr: int):
        """Value of the longest prefix covering addr; None when none does."""
        for mask, table in self._probe:
            key = addr & mask
            if key in table:
                return table[key]
        return None


@dataclass(frozen=True, slots=True)
class MacAddress:
    octets: bytes

    def __post_init__(self):
        if len(self.octets) != 6:
            raise ValueError("MAC address needs exactly 6 octets")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    @property
    def is_broadcast(self) -> bool:
        return self.octets == b"\xff" * 6

    @property
    def is_multicast(self) -> bool:
        return bool(self.octets[0] & 1)

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)


BROADCAST = MacAddress(b"\xff" * 6)


@dataclass(frozen=True, slots=True)
class VlanTag:
    vid: int
    pcp: int = 0

    tpid = TPID

    def __post_init__(self):
        check_vid(self.vid)
        if not 0 <= self.pcp <= 7:
            raise ValueError(f"pcp must be in [0, 7], got {self.pcp}")


class FlowKey(NamedTuple):
    src_ip: int
    dst_ip: int
    protocol: str
    src_port: int
    dst_port: int

    def mirrored(self) -> "FlowKey":
        return FlowKey(self.dst_ip, self.src_ip, self.protocol,
                       self.dst_port, self.src_port)

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

    @property
    def size(self) -> int:
        """Modeled on-the-wire IP packet size."""
        return self.payload_bytes + IP_HEADER_BYTES


@dataclass(frozen=True, slots=True)
class Arp:
    """In-VLAN address resolution: broadcast request, unicast reply."""
    op: str  # "request" | "reply"
    sender_ip: int
    sender_mac: MacAddress
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
    src: MacAddress
    dst: MacAddress
    payload: Payload
    size_bytes: int
    tag: Optional[VlanTag] = None

    def __post_init__(self):
        limit = MAX_TAGGED if self.tag is not None else MAX_UNTAGGED
        if not MIN_FRAME <= self.size_bytes <= limit:
            raise ValueError(
                f"frame size {self.size_bytes} outside [{MIN_FRAME}, {limit}]")


@functools.cache
def vlan_tag(vid: int) -> VlanTag:
    """The one pcp-0 tag of a VID."""
    return VlanTag(vid)


def frame_copy(frame: Frame, size_bytes: int, tag: Optional[VlanTag]) -> Frame:
    """push_tag or pop_tag for the forwarding path: no checks."""
    out = object.__new__(Frame)
    out.src, out.dst, out.payload = frame.src, frame.dst, frame.payload
    out.size_bytes, out.tag = size_bytes, tag
    return out


def make_frame(src: MacAddress, dst: MacAddress, payload: Payload,
               tag: Optional[VlanTag] = None) -> Frame:
    size = max(MIN_FRAME, payload_size(payload) + ETH_OVERHEAD)
    if tag is not None:
        size += 4
    return Frame(src, dst, payload, size, tag)


def push_tag(frame: Frame, vid: int, pcp: int = 0) -> Frame:
    if frame.tag is not None:
        raise AlreadyTagged(f"frame already tagged with vid {frame.tag.vid}")
    check_vid(vid)
    tag = vlan_tag(vid) if pcp == 0 else VlanTag(vid, pcp)
    return frame_copy(frame, frame.size_bytes + 4, tag)


def pop_tag(frame: Frame) -> tuple[Frame, int]:
    if frame.tag is None:
        raise NotTagged("frame carries no 802.1Q tag")
    return frame_copy(frame, frame.size_bytes - 4, None), frame.tag.vid


def classify_dst(frame: Frame) -> str:
    if frame.dst.is_broadcast:
        return "broadcast"
    if frame.dst.is_multicast:
        return "multicast"
    return "unicast"


def flow_key(packet: Packet) -> FlowKey:
    return FlowKey(packet.src_ip, packet.dst_ip, packet.protocol,
                   packet.src_port, packet.dst_port)


def frame_flow_key(frame: Frame) -> FlowKey:
    """Flow key for hashing decisions; MAC-derived fallback for non-IP frames."""
    if isinstance(frame.payload, Packet):
        return flow_key(frame.payload)
    src = int.from_bytes(frame.src.octets[2:], "big")
    dst = int.from_bytes(frame.dst.octets[2:], "big")
    return FlowKey(src, dst, "icmp", 0, 0)
