"""Redundant firewall paths: probe-driven health state and per-flow dispatch."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .l2 import lag_select
from .packet import FlowKey

PROBE_INTERVAL_US = 1_000_000
DOWN_THRESHOLD = 3  # missed probes before a path goes down
UP_THRESHOLD = 2  # replies before a down path comes back


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

    def __init__(self, path_ids: list[str], hash_salt: bytes = b""):
        if len(path_ids) != 2 or path_ids[0] == path_ids[1]:
            raise ValueError("exactly two distinct firewall paths are balanced")
        # in path-id order, which reset_dynamic keeps: every list of paths
        # this class returns is sorted without sorting
        self.paths = {pid: PathHealth(pid) for pid in sorted(path_ids)}
        # the paths whose state is up, in path order; rebuilt, never changed
        # in place, whenever a path changes state
        self.up: list[str] = list(self.paths)
        self.hash_salt = hash_salt
        self.flow_affinity: dict[FlowKey, str] = {}
        self.dest_override: dict[int, str] = {}  # external ip -> path
        self.transitions: list[tuple[str, str]] = []  # (path, up|down), drained by owner

    def _set_state(self, path: PathHealth, state: str):
        path.state = state
        self.up = [pid for pid, p in self.paths.items() if p.state == "up"]
        self.transitions.append((path.path_id, state))

    def probe_tick(self, now: int) -> list[str]:
        """Evaluate misses and return the paths due a new probe."""
        due = []
        for pid, path in self.paths.items():
            if (path.last_probe_sent is not None
                    and now < path.last_probe_sent + PROBE_INTERVAL_US):
                continue
            if path.outstanding:
                path.consecutive_missed += 1
                path.consecutive_replies = 0
                if path.state == "up" and path.consecutive_missed >= DOWN_THRESHOLD:
                    self._set_state(path, "down")
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
            if path.consecutive_replies >= UP_THRESHOLD:
                path.consecutive_replies = 0
                self._set_state(path, "up")

    def dispatch(self, key: FlowKey, dst_ip: Optional[int] = None) -> str:
        """Choose the path for a packet of this flow."""
        up = self.up
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
        self.up = list(self.paths)
