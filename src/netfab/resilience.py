"""Redundant firewall paths: probe-driven health state and per-flow dispatch."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .l2 import lag_select
from .packet import FlowKey

DEFAULT_PROBE_INTERVAL_US = 1_000_000
DEFAULT_DOWN_THRESHOLD = 3
DEFAULT_UP_THRESHOLD = 2


class Unavailable(Exception):
    """Both paths down; the packet is reported, never silently dropped."""


class UnknownPath(Exception):
    pass


@dataclass
class PathHealth:
    path_id: str
    consecutive_missed: int = 0
    consecutive_replies: int = 0
    state: str = "up"
    last_probe_sent: Optional[int] = None
    outstanding: bool = False


class LoadBalancer:
    """Health-probes two firewall paths and pins flows to live ones."""

    def __init__(self, name: str, path_ids: list[str],
                 probe_interval_us: int = DEFAULT_PROBE_INTERVAL_US,
                 down_threshold: int = DEFAULT_DOWN_THRESHOLD,
                 up_threshold: int = DEFAULT_UP_THRESHOLD,
                 hash_salt: bytes = b""):
        if len(path_ids) != 2:
            raise ValueError("exactly two firewall paths are balanced")
        self.name = name
        self.paths = {pid: PathHealth(pid) for pid in path_ids}
        self.probe_interval_us = probe_interval_us
        self.down_threshold = down_threshold
        self.up_threshold = up_threshold
        self.hash_salt = hash_salt
        self.flow_affinity: dict[FlowKey, str] = {}
        self.dest_override: dict[int, str] = {}  # external ip -> path
        self.transitions: list[tuple[str, str]] = []  # (path, up|down), drained by owner

    def up_paths(self) -> list[str]:
        return [pid for pid in sorted(self.paths) if self.paths[pid].state == "up"]

    def probe_tick(self, now: int) -> list[str]:
        """Evaluate misses and return the paths due a new probe."""
        due = []
        for pid in sorted(self.paths):
            path = self.paths[pid]
            if (path.last_probe_sent is not None
                    and now < path.last_probe_sent + self.probe_interval_us):
                continue
            if path.outstanding:
                path.consecutive_missed += 1
                path.consecutive_replies = 0
                if path.state == "up" and path.consecutive_missed >= self.down_threshold:
                    path.state = "down"
                    self.transitions.append((pid, "down"))
            path.outstanding = True
            path.last_probe_sent = now
            due.append(pid)
        return due

    def on_probe_reply(self, path_id: str, now: int):
        path = self.paths.get(path_id)
        if path is None:
            raise UnknownPath(path_id)
        path.outstanding = False
        path.consecutive_missed = 0
        if path.state == "down":
            path.consecutive_replies += 1
            if path.consecutive_replies >= self.up_threshold:
                path.state = "up"
                path.consecutive_replies = 0
                self.transitions.append((path_id, "up"))

    def dispatch(self, key: FlowKey, dst_ip: Optional[int] = None) -> str:
        """Choose the path for a packet of this flow."""
        up = self.up_paths()
        if not up:
            raise Unavailable("both firewall paths are down")
        if dst_ip is not None:
            owner = self.dest_override.get(dst_ip)
            if owner is not None:
                # packets addressed to a firewall's external address follow
                # that firewall while it lives, else the surviving path
                return owner if owner in up else up[0]
        pinned = self.flow_affinity.get(key)
        if pinned is not None and pinned in up:
            return pinned
        choice = lag_select(up, key, self.hash_salt)
        self.flow_affinity[key] = choice
        return choice

    def reset_dynamic(self):
        self.flow_affinity.clear()
        for path in self.paths.values():
            self.paths[path.path_id] = PathHealth(path.path_id)
