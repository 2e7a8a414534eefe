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
    port: int
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

    It forwards from per-VLAN tables, as Linux bridge VLAN filtering does
    (net/bridge/br_vlan.c), built on first use and dropped by every port
    change. LAG choices are memoised until a port change or FDB sweep.

    A known unicast flow forwards from one exact-match row, as Open
    vSwitch's microflow cache does: (ingress port, tag, src, dst) -> (the
    source's FdbEntry, VID, egresses). A row is added when the source is
    learned on its ingress port and the destination is known on another;
    the table is emptied by a station move, an FDB deletion, a port change
    and at FLOW_CACHE_ENTRIES rows, so a row always decides as the tables
    would. A station seen on another member of its entry's LAG group has
    not moved (IEEE 802.1AX learns on the aggregator): either member gives
    the same egress, so the entry follows it, on a hit too, and no row is
    dropped. No row leads back into the ingress port's own group, where
    the tables decide by member.
    """

    def __init__(self, name: str, hash_salt: bytes = b""):
        self.name = name
        self.ports: dict[int, PortConfig] = {}
        self.down: set = set()  # ports set down by set_port_up
        self.trunks: set = set()  # ports whose mode is "trunk"
        self.fdb: dict[tuple, FdbEntry] = {}
        self.hash_salt = hash_salt
        self._egress: dict[tuple, tuple] = {}  # by (port, vid)
        self._plans: dict[tuple, tuple] = {}  # (ingress, vid) -> egresses
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
        self._forget_tables()
        # purge learned entries for VLANs this port no longer carries
        stale = [k for k, e in self.fdb.items()
                 if e.port == port_id and k[0] not in cfg.vids]
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
        self._forget_tables()

    def _forget_tables(self):
        self._egress.clear()
        self._plans.clear()
        self._lag_memo.clear()
        self._flows.clear()

    def ingress(self, port_id: int, frame: Frame,
                now: int) -> Optional[list[tuple[int, Frame]]]:
        """Process an arriving frame; returns (egress port, frame) emissions,
        or None when the port refuses it: down, or not carrying its VID.

        A frame that arrives tagged leaves trunks as the same object; the
        untagged copy is made once, when an access port needs it.
        """
        tag, src, dst = frame.tag, frame.src, frame.dst
        if tag is None:
            untagged, tagged = frame, None
        else:
            untagged, tagged = None, frame
        flows = self._flows
        row = flows.get((port_id, tag, src, dst))
        if row is not None:  # a known flow: its source is learned here
            known, vid, egresses = row
            known.port, known.last_seen = port_id, now
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
            lag = port.lag_group
            known = None
            if not src[0] & 1:
                known = fdb.get((vid, src))
                if known is None:
                    known = fdb[(vid, src)] = FdbEntry(port_id, now)
                else:
                    if known.port != port_id and (
                            lag is None
                            or self.ports[known.port].lag_group != lag):
                        flows.clear()  # a station move
                    known.port, known.last_seen = port_id, now

            # forwarding decision
            entry = fdb.get((vid, dst))
            if entry is None:
                egresses = self._flood_targets(port_id, vid)
            elif entry.port == port_id:
                return []  # destination behind the ingress port: filter
            else:
                egresses = self._egress.get((entry.port, vid))
                if egresses is None:
                    egresses = self._egress_of(entry.port, vid)
                if known is not None and (
                        lag is None
                        or self.ports[entry.port].lag_group != lag):
                    if len(flows) >= FLOW_CACHE_ENTRIES:
                        flows.clear()
                    flows[(port_id, tag, src, dst)] = (known, vid, egresses)

        out: list[tuple[int, Frame]] = []
        trunks = self.trunks
        for t, live in egresses:
            if live is not None:
                key = (live, frame_flow_key(frame))
                t = self._lag_memo.get(key)
                if t is None:
                    t = self._lag_memo[key] = lag_select(*key, self.hash_salt)
            if t in trunks:
                if tagged is None:
                    tagged = frame_copy(frame, vid)
                out.append((t, tagged))
            else:
                if untagged is None:
                    untagged = frame_copy(frame, None)
                out.append((t, untagged))
        return out

    def _egress_of(self, port_id: int, vid: int) -> tuple:
        """How a frame for port_id leaves: ((port, None),), ((None, live
        members of its LAG group),), or () when it cannot. `ingress` reads
        the memo itself and calls this only on a miss."""
        key = (port_id, vid)
        if key not in self._egress:
            cfg = self.ports.get(port_id)
            egress = ()
            if cfg is not None and vid in cfg.vids:
                if cfg.lag_group is None:
                    if port_id not in self.down:
                        egress = ((port_id, None),)
                else:
                    live = tuple(p for p, c in sorted(self.ports.items())
                                 if c.lag_group == cfg.lag_group
                                 and p not in self.down and vid in c.vids)
                    if live:
                        egress = ((None, live),)
            self._egress[key] = egress
        return self._egress[key]

    def _flood_targets(self, ingress_port: int, vid: int) -> tuple:
        """Every other VLAN member in port order, a LAG group once at its
        first live member, never the ingress port's group."""
        plan = self._plans.get((ingress_port, vid))
        if plan is None:
            group = self.ports[ingress_port].lag_group
            plan = self._plans[(ingress_port, vid)] = tuple(
                e for p, cfg in sorted(self.ports.items()) if p != ingress_port
                for e in self._egress_of(p, vid)
                if e[1] is None or (p == e[1][0] and cfg.lag_group != group))
        return plan

    def age_fdb(self, now: int):
        stale = [k for k, e in self.fdb.items()
                 if now - e.last_seen > FDB_AGING_US]
        for k in stale:
            del self.fdb[k]
        self._lag_memo.clear()
        if stale:
            self._flows.clear()

    def reset_dynamic(self):
        self.fdb.clear()
        self._flows.clear()
