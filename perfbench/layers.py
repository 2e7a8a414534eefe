"""Per-layer attribution for the traced run, from outside the program.

`LayerTrace` replaces public functions and methods of the netfab layers with
timing wrappers for the duration of a `with` block and puts the originals
back afterwards. A function imported by name into another module (for
example `make_frame` in `netfab.engine`, or `lag_select` in
`netfab.resilience`) is patched in every module that binds it, so calls
through either name are counted.

Each wrapper records calls, total time and self time: total minus the time
spent in nested wrapped calls. Self times of all wrapped functions add up to
the wall time of the outermost wrapped calls, which `LayerTrace.self_total`
lets the caller check.
"""
from __future__ import annotations

import itertools
import sys
import time
import weakref
from collections import Counter

# (stat name, module, class or None, attribute). A class attribute is a
# method; without a class the attribute is a module-level function.
TIMED = [
    ("engine.schedule", "netfab.engine", "Engine", "schedule"),
    ("engine.send", "netfab.engine", "Engine", "send"),
    ("engine.run_until", "netfab.engine", "Engine", "run_until"),
    ("engine.handler.switch", "netfab.engine", "SwitchNode", "on_frame"),
    ("engine.handler.switch", "netfab.engine", "SwitchNode", "on_event"),
    ("engine.handler.l3", "netfab.engine", "L3Node", "on_frame"),
    ("engine.handler.l3", "netfab.engine", "L3Node", "on_event"),
    ("engine.handler.firewall", "netfab.engine", "FirewallNode", "on_frame"),
    ("engine.handler.firewall", "netfab.engine", "FirewallNode", "on_event"),
    ("engine.handler.balancer", "netfab.engine", "BalancerNode", "on_frame"),
    ("engine.handler.balancer", "netfab.engine", "BalancerNode", "on_event"),
    ("engine.handler.host", "netfab.engine", "HostNode", "on_frame"),
    ("engine.handler.host", "netfab.engine", "HostNode", "on_event"),
    ("l2.ingress", "netfab.l2", "Switch", "ingress"),
    ("l2.lag_select", "netfab.l2", None, "lag_select"),
    ("l3.forward", "netfab.l3", "ZoneRouter", "forward"),
    ("l3.route_lookup", "netfab.l3", "ZoneRouter", "route_lookup"),
    ("firewall.masquerade_out", "netfab.firewall", "Firewall",
     "masquerade_out"),
    ("firewall.masquerade_in", "netfab.firewall", "Firewall",
     "masquerade_in"),
    ("firewall.shaper", "netfab.firewall", "Shaper", "offer"),
    ("firewall.shaper", "netfab.firewall", "Shaper", "shape"),
    ("resilience.dispatch", "netfab.resilience", "LoadBalancer", "dispatch"),
    ("resilience.probe_tick", "netfab.resilience", "LoadBalancer",
     "probe_tick"),
    ("packet.make_frame", "netfab.packet", None, "make_frame"),
    ("packet.push_tag", "netfab.packet", None, "push_tag"),
    ("packet.pop_tag", "netfab.packet", None, "pop_tag"),
    ("packet.flow_key", "netfab.packet", None, "flow_key"),
    ("scenario.parse", "netfab.scenario", None, "parse_scenario"),
    ("scenario.validate", "netfab.scenario", None, "validate_scenario"),
    ("scenario.build_engine", "netfab.scenario", None, "build_engine"),
    ("verify.affected_vlans", "netfab.verify", None, "affected_vlans"),
    ("verify.status", "netfab.verify", None, "status"),
    ("verify.verify", "netfab.verify", None, "verify"),
    ("fabric.broadcast_delivery", "netfab.fabric", None, "broadcast_delivery"),
]

# Counted but not timed, so the enclosing function keeps the time as its own.
COUNTED = [
    ("l2.flood", "netfab.l2", "Switch", "_flood_targets"),
]

DROP_REASONS = ("queue", "link-down", "fault", "no-link", "vlan", "acl",
                "no-route", "ttl", "nat-full", "no-binding", "unavailable")
L3_DROP_REASONS = ("acl", "no-route", "ttl")
FIREWALL_DROP_REASONS = ("queue", "acl", "nat-full", "no-binding", "fault")


def _engine_state(eng) -> Counter:
    """State sizes and drop counts of one engine, read after it ran."""
    state = Counter()
    kinds = {name: getattr(node, "kind", "")
             for name, node in eng.nodes.items()}
    for (node, reason), n in eng.metrics.drops.items():
        known = reason if reason in DROP_REASONS else "other"
        state["engine.drops." + known] += n
        if kinds.get(node) == "l3" and reason in L3_DROP_REASONS:
            state["l3.drops." + reason] += n
        if kinds.get(node) == "firewall" and reason in FIREWALL_DROP_REASONS:
            state["firewall.drops." + reason] += n
    state["resilience.unavailable"] += eng.metrics.unavailable
    for node in eng.nodes.values():
        if hasattr(node, "router"):
            state["l3.conn.entries"] += len(node.router.conn)
        if hasattr(node, "fw"):
            state["firewall.nat.entries"] += node.fw.nat_size()
        if hasattr(node, "lb"):
            state["resilience.affinity.entries"] += len(node.lb.flow_affinity)
    return state


class LayerTrace:
    """Context manager that wraps the layer functions listed in TIMED."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._engine_ids = weakref.WeakKeyDictionary()
        self._engine_state: dict[int, Counter] = {}
        self._next_engine = itertools.count()

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        hooks = {
            ("Engine", "send"): self._after_send,
            ("Engine", "run_until"): self._after_run_until,
            ("Switch", "ingress"): self._after_ingress,
            ("Shaper", "offer"): self._after_offer,
            ("Firewall", "masquerade_out"): self._after_masquerade_out,
            ("LoadBalancer", "dispatch"): self._after_dispatch,
        }
        befores = {
            ("Firewall", "masquerade_out"): lambda args: args[0].nat_size(),
            ("LoadBalancer", "dispatch"):
                lambda args: args[0].flow_affinity.get(args[1]),
        }
        try:
            for name, module, cls, attr in TIMED:
                self._patch(name, module, cls, attr, timed=True,
                            before=befores.get((cls, attr)),
                            after=hooks.get((cls, attr)))
            for name, module, cls, attr in COUNTED:
                self._patch(name, module, cls, attr, timed=False)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, name, module_name, cls_name, attr, timed, before=None,
               after=None):
        label = f"{module_name}.{cls_name or ''}.{attr}"
        module = sys.modules.get(module_name)
        owner = getattr(module, cls_name, None) if cls_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(label)
            return
        wrapper = (self._timer(name, original, self._guard(label, before),
                               self._guard(label, after)) if timed
                   else self._counter(name, original))
        if cls_name:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("netfab"):
                continue
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, bound_name, original))
                    setattr(mod, bound_name, wrapper)

    def _guard(self, label, hook):
        """Disable a hook, rather than fail the run, once the program no
        longer has the attribute it reads."""
        if hook is None:
            return None
        enabled = [True]

        def guarded(*args):
            if enabled[0]:
                try:
                    return hook(*args)
                except (AttributeError, IndexError, KeyError, TypeError):
                    enabled[0] = False
                    self.missing.append(f"hook on {label}")
            return None

        return guarded

    def _timer(self, name, fn, before, after):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts and peaks measured where the work happens ------------

    def _after_send(self, args, _result, _token):
        eng, node, port = args[0], args[1], args[2]
        link = eng.link_at.get((node, port))
        if link is not None:
            depth = max(link.pending)
            if depth > self.peaks["engine.link.peak_queue"]:
                self.peaks["engine.link.peak_queue"] = depth

    def _after_ingress(self, _args, result, _token):
        self.counts["l2.ingress.out"] += len(result)

    def _after_offer(self, args, _result, _token):
        depth = len(args[0].queue)
        if depth > self.peaks["firewall.shaper.peak_queue"]:
            self.peaks["firewall.shaper.peak_queue"] = depth

    def _after_masquerade_out(self, args, _result, size_before):
        if args[0].nat_size() == size_before:
            self.counts["firewall.nat.hits"] += 1

    def _after_dispatch(self, _args, result, pinned_before):
        if pinned_before is not None and pinned_before == result:
            self.counts["resilience.dispatch.pinned"] += 1

    def _after_run_until(self, args, _result, _token):
        eng = args[0]
        token = self._engine_ids.get(eng)
        if token is None:
            token = self._engine_ids[eng] = next(self._next_engine)
        self._engine_state[token] = _engine_state(eng)

    # -- results -----------------------------------------------------------

    def self_total(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def engine_state(self) -> Counter:
        total = Counter()
        for state in self._engine_state.values():
            total.update(state)
        return total
