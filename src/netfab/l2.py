"""MAC-learning Layer-2 switches with per-port VLAN membership and LAG hashing."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional

from .packet import (VIDS, Frame, FlowKey, InvalidVid, check_vid,
                     frame_copy, frame_flow_key)

FDB_AGING_US = 300_000_000  # 300 s
FLOW_CACHE_ENTRIES = 8192  # a switch's flow rows; a full table starts over
NO_VIDS = frozenset()  # every access port's `allowed`: one set, not one each


class L2Error(Exception):
    pass


class UnknownPort(L2Error):
    pass


class NoLiveMember(L2Error):
    pass


@dataclass(frozen=True, slots=True)
class PortConfig:
    """One switch port's VLAN membership, as a `[switch]` line declares it.
    The config and every switch built from it share the record, so it is
    frozen; whether the port is up is the switch's state."""
    mode: str  # "access" | "trunk"
    vid: Optional[int] = None
    allowed: frozenset = NO_VIDS
    lag_group: Optional[str] = None

    def __post_init__(self):
        if self.mode == "access":
            check_vid(self.vid)
            object.__setattr__(self, "allowed", NO_VIDS)
        elif self.mode == "trunk":
            if not self.allowed:
                raise InvalidVid("trunk allowed set must be non-empty")
            allowed = frozenset(self.allowed)  # no copy of a frozenset
            # 10.0 == 10, so the subset test alone would pass a float
            if not (allowed <= VIDS
                    and all(map(isinstance, allowed, repeat(int)))):
                for vid in allowed:
                    check_vid(vid)  # raises for the first VID it refuses
            object.__setattr__(self, "allowed", allowed)
            object.__setattr__(self, "vid", None)
        else:
            raise ValueError(f"unknown port mode {self.mode!r}")

    @property
    def vids(self) -> frozenset:
        """The VIDs the port carries."""
        return self.allowed if self.mode == "trunk" else frozenset((self.vid,))


@dataclass(slots=True)
class FdbEntry:
    """A learned station; its (vid, mac) key holds the rest."""
    port: object  # a bridge port: a port id, or (LAG group,), its aggregator
    last_seen: int


def lag_select(members: list, key: FlowKey, salt: bytes = b"") -> int:
    """Pick a LAG member for a flow by rendezvous hashing.

    Deterministic per key, near-uniform over random keys, and a member
    going down only remaps the flows that used it.
    """
    if not members:
        raise NoLiveMember("no live member in LAG group")
    raw = (f"{key.src_ip},{key.dst_ip},{key.protocol},"
           f"{key.src_port},{key.dst_port}|").encode() + salt
    best, best_w = None, -1
    for m in members:
        w = int.from_bytes(
            hashlib.blake2b(raw + str(m).encode(), digest_size=8).digest(), "big")
        if w > best_w:
            best, best_w = m, w
    return best


class Switch:
    """One VLAN-aware learning bridge; owned by a single engine.

    A LAG group is one bridge port, `(group,)`, its aggregator (IEEE
    802.1AX), for learning, filtering and flooding. A known unicast flow
    forwards from one exact-match row, as Open vSwitch's microflow cache
    does, and the row holds the flow's actions: (ingress port, tag, src,
    dst) -> (the source's FdbEntry, its emission). For a plain port the
    emission is (egress port, the tag a frame leaves with, None), which a
    hit replays: the frame itself when its tag stays, else one copy. For an
    aggregator it is (None, VID, the LAG egress), whose member the memo
    resolves per flow, and for a port that is down (None, VID, ()). A row
    is added when the source is learned and the destination is known behind
    another bridge port; the table is emptied by a station move, an FDB
    deletion, a port change and at FLOW_CACHE_ENTRIES rows, so a row always
    decides as the port records would. A miss reads the records: `ports`,
    `down` and each PortConfig. LAG choices are memoised per (live members,
    flow), which no port change or FDB sweep makes stale, and the memo too
    is emptied at FLOW_CACHE_ENTRIES entries.
    """

    def __init__(self, name: str, hash_salt: bytes = b""):
        self.name = name
        self.ports: dict[int, PortConfig] = {}
        self.down: set = set()  # ports set down by set_port_up
        self.trunks: set = set()  # ports whose mode is "trunk"
        self.fdb: dict[tuple, FdbEntry] = {}
        self.hash_salt = hash_salt
        self._lag_memo: dict[tuple, int] = {}  # (live, flow key) -> member
        self._flows: dict[tuple, tuple] = {}  # (port, tag, src, dst) -> row

    def configure_port(self, port_id, cfg: PortConfig) -> PortConfig:
        """Give port_id cfg's membership, up; with no LAG it keeps its group."""
        old = self.ports.get(port_id)
        if cfg.lag_group is None and old is not None:
            cfg = replace(cfg, lag_group=old.lag_group)
        self.ports[port_id] = cfg
        self.down.discard(port_id)
        if cfg.mode == "trunk":
            self.trunks.add(port_id)
        else:
            self.trunks.discard(port_id)
        self._flows.clear()
        # an entry naming the port goes when the port drops its VLAN or joins
        # a group; `_egress_of` picks an aggregator's members by VID
        stale = [k for k, e in self.fdb.items() if e.port == port_id
                 and (k[0] not in cfg.vids or cfg.lag_group is not None)]
        for k in stale:
            del self.fdb[k]
        return cfg

    def set_port_up(self, port_id: int, up: bool):
        if port_id not in self.ports:
            raise UnknownPort(f"{self.name} has no port {port_id}")
        if up:
            self.down.discard(port_id)
        else:
            self.down.add(port_id)
        self._flows.clear()

    def ingress(self, port_id: int, frame: Frame,
                now: int) -> Optional[list[tuple[int, Frame]]]:
        """Process an arriving frame; returns (egress port, frame) emissions,
        or None when the port refuses it: down, or not carrying its VID.

        A frame that keeps its tag leaves as the same object; a retagged copy
        is made once, tagged for trunks and untagged for access ports.
        """
        tag = frame.tag
        flows = self._flows
        row = flows.get((port_id, tag, frame.src, frame.dst))
        if row is not None:  # a known flow: its source is learned here
            known, out, vid, egresses = row
            known.last_seen = now
        else:
            port = self.ports.get(port_id)
            if port is None:
                raise UnknownPort(f"{self.name} has no port {port_id}")
            # classification: a trunk has no vid, an access port no allowed
            if tag is None:
                vid = port.vid
            elif tag in port.allowed:
                vid = tag
            else:
                return None
            if vid is None or port_id in self.down:
                return None

            # learning refreshes a known station in place; a group source is
            # never learned, so a frame to a group address misses and floods
            fdb = self.fdb
            src, dst = frame.src, frame.dst
            lag = port.lag_group
            bridge = port_id if lag is None else (lag,)
            known = None
            if not src[0] & 1:
                known = fdb.get((vid, src))
                if known is None:
                    known = fdb[(vid, src)] = FdbEntry(bridge, now)
                else:
                    if known.port != bridge:
                        flows.clear()  # a station move
                    known.port, known.last_seen = bridge, now

            # forwarding decision
            entry = fdb.get((vid, dst))
            if entry is None:
                egresses = self._flood_targets(port_id, vid)
            elif entry.port == bridge:
                return []  # destination behind the ingress bridge port
            else:
                out, vid, egresses = self._egress_of(entry.port, vid)
                if known is not None:
                    if len(flows) >= FLOW_CACHE_ENTRIES:
                        flows.clear()
                    flows[(port_id, tag, src, dst)] = (known, out, vid,
                                                       egresses)
        if egresses is None:  # one port, and vid the tag the frame leaves with
            if vid == tag:
                return [(out, frame)]
            return [(out, frame_copy(frame, vid))]

        if tag is None:
            untagged, tagged = frame, None
        else:
            untagged, tagged = None, frame
        emissions: list[tuple[int, Frame]] = []
        trunks = self.trunks
        memo = self._lag_memo
        for t, live in egresses:
            if live is not None:
                key = (live, frame_flow_key(frame))
                t = memo.get(key)
                if t is None:
                    if len(memo) >= FLOW_CACHE_ENTRIES:
                        memo.clear()
                    t = memo[key] = lag_select(*key, self.hash_salt)
            if t in trunks:
                if tagged is None:
                    tagged = frame_copy(frame, vid)
                emissions.append((t, tagged))
            else:
                if untagged is None:
                    untagged = frame_copy(frame, None)
                emissions.append((t, untagged))
        return emissions

    def _egress_of(self, bridge, vid: int) -> tuple:
        """How a frame of VLAN vid leaves for a bridge port, as a flow row
        holds it: (port, the tag it leaves with, None) for a port that is up,
        else (None, vid, egresses): ((None, live members of the group that
        carry vid),) for an aggregator `(group,)`, or () when it cannot."""
        ports, down = self.ports, self.down
        if not isinstance(bridge, tuple):
            if bridge in down:
                return None, vid, ()
            return bridge, vid if bridge in self.trunks else None, None
        live = tuple([p for p in sorted(ports, key=str)
                      if ports[p].lag_group in bridge and p not in down
                      and (ports[p].vid == vid or vid in ports[p].allowed)])
        return None, vid, ((None, live),) if live else ()

    def _flood_targets(self, ingress_port, vid: int) -> list:
        """Every other port that is up and carries vid, in port order, as
        `_egress_of` gives it: a LAG group once, at its first live member,
        never the ingress bridge port."""
        ports, down = self.ports, self.down
        skip = ports[ingress_port].lag_group
        out = []
        first = {}  # LAG group -> its place in out
        for p in sorted(ports, key=str):
            cfg = ports[p]
            if (p == ingress_port or p in down
                    or (cfg.vid != vid and vid not in cfg.allowed)):
                continue
            group = cfg.lag_group
            if group is None:
                out.append((p, None))
            elif group != skip:
                at = first.get(group)
                if at is None:
                    first[group] = len(out)
                    out.append((None, (p,)))
                else:
                    out[at] = (None, out[at][1] + (p,))
        return out

    def age_fdb(self, now: int):
        stale = [k for k, e in self.fdb.items()
                 if now - e.last_seen > FDB_AGING_US]
        for k in stale:
            del self.fdb[k]
        if stale:
            self._flows.clear()

    def reset_dynamic(self):
        self.fdb.clear()
        self._flows.clear()
