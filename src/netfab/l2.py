"""MAC-learning Layer-2 switches with per-port VLAN membership and LAG hashing."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from .packet import (Frame, FlowKey, InvalidVid, check_vid, frame_copy,
                     frame_flow_key, vlan_tag)

DEFAULT_FDB_AGING_US = 300_000_000  # 300 s


class L2Error(Exception):
    pass


class UnknownPort(L2Error):
    pass


class NoLiveMember(L2Error):
    pass


@dataclass
class PortConfig:
    port_id: int
    mode: str  # "access" | "trunk"
    vid: Optional[int] = None
    allowed: frozenset = frozenset()
    lag_group: Optional[str] = None
    up: bool = True

    def __post_init__(self):
        if self.mode == "access":
            check_vid(self.vid)
            self.allowed = frozenset()
        elif self.mode == "trunk":
            if not self.allowed:
                raise InvalidVid("trunk allowed set must be non-empty")
            self.allowed = frozenset(check_vid(v) for v in self.allowed)
            self.vid = None
        else:
            raise ValueError(f"unknown port mode {self.mode!r}")

    def member_of(self, vid: int) -> bool:
        if self.mode == "access":
            return self.vid == vid
        return vid in self.allowed


@dataclass(slots=True)
class FdbEntry:
    vlan: int
    mac: "MacAddress"
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
    """

    def __init__(self, name: str, fdb_aging_us: int = DEFAULT_FDB_AGING_US,
                 hash_salt: bytes = b""):
        self.name = name
        self.ports: dict[int, PortConfig] = {}
        self.fdb: dict[tuple, FdbEntry] = {}
        self.fdb_aging_us = fdb_aging_us
        self.hash_salt = hash_salt
        self.counters: dict[int, dict[str, int]] = {}
        self._egress: dict[tuple, Optional[tuple]] = {}  # by (port, vid)
        self._plans: dict[tuple, tuple] = {}  # (ingress, vid) -> egresses
        self._lag_memo: dict[tuple, int] = {}  # (live, flow key) -> member

    def configure_port(self, port_id: int, mode: str, vid: Optional[int] = None,
                       allowed=(), lag_group: Optional[str] = None) -> PortConfig:
        if port_id in self.ports and lag_group is None:
            lag_group = self.ports[port_id].lag_group
        cfg = PortConfig(port_id=port_id, mode=mode, vid=vid,
                         allowed=frozenset(allowed), lag_group=lag_group)
        self.ports[port_id] = cfg
        if port_id not in self.counters:
            self.counters[port_id] = {"rx_frames": 0, "rx_bytes": 0,
                                      "tx_frames": 0, "tx_bytes": 0,
                                      "drop_frames": 0, "drop_bytes": 0}
        self._forget_tables()
        # purge learned entries for VLANs this port no longer carries
        stale = [k for k, e in self.fdb.items()
                 if e.port == port_id and not cfg.member_of(e.vlan)]
        for k in stale:
            del self.fdb[k]
        return cfg

    def set_port_up(self, port_id: int, up: bool):
        if port_id not in self.ports:
            raise UnknownPort(f"{self.name} has no port {port_id}")
        self.ports[port_id].up = up
        self._forget_tables()

    def _forget_tables(self):
        self._egress.clear()
        self._plans.clear()
        self._lag_memo.clear()

    def ingress(self, port_id: int, frame: Frame, now: int) -> list[tuple[int, Frame]]:
        """Process an arriving frame; returns (egress port, frame) emissions.

        A frame that arrives tagged with pcp 0 leaves trunks as the same
        object; the untagged copy is made once, when an access port needs it.
        """
        port = self.ports.get(port_id)
        if port is None:
            raise UnknownPort(f"{self.name} has no port {port_id}")
        c = self.counters[port_id]
        size = frame.size_bytes
        c["rx_frames"] += 1
        c["rx_bytes"] += size
        # VLAN classification: a trunk has no vid, an access port no allowed
        tag = frame.tag
        if tag is None:
            vid, untagged, tagged = port.vid, frame, None
        else:
            vid = tag.vid if tag.vid in port.allowed else None
            untagged, tagged = None, (frame if tag.pcp == 0 else None)
            size -= 4
        if vid is None or not port.up:
            c["drop_frames"] += 1
            c["drop_bytes"] += frame.size_bytes
            return []

        # learning
        src = frame.src
        if not src.is_multicast:
            self.fdb[(vid, src)] = FdbEntry(vid, src, port_id, now)

        # forwarding decision
        entry = None if frame.dst.is_multicast else self.fdb.get((vid, frame.dst))
        if entry is None:
            egresses = self._flood_targets(port_id, vid)
        elif entry.port == port_id:
            return []  # destination behind the ingress port: filter silently
        else:
            egress = self._egress_of(entry.port, vid)
            egresses = (egress,) if egress is not None else ()

        out: list[tuple[int, Frame]] = []
        for t, live in egresses:
            if live is not None:
                key = (live, frame_flow_key(frame))
                t = self._lag_memo.get(key)
                if t is None:
                    t = self._lag_memo[key] = lag_select(*key, self.hash_salt)
            if self.ports[t].mode == "trunk":
                if tagged is None:
                    tagged = frame_copy(frame, size + 4, vlan_tag(vid))
                emitted = tagged
            else:
                if untagged is None:
                    untagged = frame_copy(frame, size, None)
                emitted = untagged
            tc = self.counters[t]
            tc["tx_frames"] += 1
            tc["tx_bytes"] += emitted.size_bytes
            out.append((t, emitted))
        return out

    def _egress_of(self, port_id: int, vid: int) -> Optional[tuple]:
        """How a frame for port_id leaves: (port, None), (None, live members
        of its LAG group), or None when it cannot."""
        key = (port_id, vid)
        if key not in self._egress:
            cfg = self.ports.get(port_id)
            egress = None
            if cfg is not None and cfg.member_of(vid):
                if cfg.lag_group is None:
                    egress = (port_id, None) if cfg.up else None
                else:
                    live = tuple(p for p, c in sorted(self.ports.items())
                                 if c.lag_group == cfg.lag_group and c.up
                                 and c.member_of(vid))
                    egress = (None, live) if live else None
            self._egress[key] = egress
        return self._egress[key]

    def _flood_targets(self, ingress_port: int, vid: int) -> tuple:
        """Every other VLAN member in port order, a LAG group once at its
        first live member, never the ingress port's group."""
        plan = self._plans.get((ingress_port, vid))
        if plan is None:
            group = self.ports[ingress_port].lag_group
            plan = self._plans[(ingress_port, vid)] = tuple(
                e for p, cfg in sorted(self.ports.items())
                if p != ingress_port and (e := self._egress_of(p, vid))
                and (e[1] is None or (p == e[1][0] and cfg.lag_group != group)))
        return plan

    def age_fdb(self, now: int):
        stale = [k for k, e in self.fdb.items()
                 if now - e.last_seen > self.fdb_aging_us]
        for k in stale:
            del self.fdb[k]
        self._lag_memo.clear()

    def reset_dynamic(self):
        self.fdb.clear()
