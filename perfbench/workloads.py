"""The benchmark's workloads: seeded scenario text, the timed section, checks.

Each workload turns a seed into scenario text, the only input the program
gets. `setup` parses, validates and builds it the way `netfab run file.nf`
does; `run` is the timed section; `check` compares what came out against
facts the benchmark knows independently of the code under test.

Every checked operation ends in one of three states:

- `ok`;
- `incomplete`: the operation did not finish (a stalled transfer, a lost
  packet of a permitted stream, a transfer slower than its bound);
- `wrong`: the program gave a wrong answer (denied traffic delivered, frames
  not conserved, an audit answer that contradicts the topology).

Both of the last two count as failed operations; only `wrong` makes the run
incorrect.
"""
from __future__ import annotations

import hashlib
import random
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if not (SRC / "netfab" / "__init__.py").is_file():
    raise ImportError(f"netfab sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Called through their modules, so the traced run's patches apply.
import netfab  # noqa: E402
import netfab.scenario as nf_scenario  # noqa: E402
import netfab.verify as nf_verify  # noqa: E402

if Path(netfab.__file__).resolve().parent != SRC / "netfab":
    raise ImportError(f"netfab imported from {netfab.__file__}, not {SRC}")

OK, INCOMPLETE, WRONG = "ok", "incomplete", "wrong"
US = 1_000_000


@dataclass
class RepResult:
    """What one repetition of a workload produced."""
    digest: str
    # operation -> OK, INCOMPLETE or WRONG
    checks: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def parse_summary(lines: list[str]):
    """Split `Metrics.summary_lines()` into scalars and the per-flow table.

    Flow rows become (offered_B, delivered_B, payload_B, completed_s|None).
    """
    scalars, flows = {}, {}
    rows = iter(lines)
    for line in rows:
        if line.startswith("flow\t"):
            break
        key, _, value = line.partition("=")
        scalars[key] = value
    for line in rows:
        fid, offered, delivered, payload, done = line.split("\t")
        flows[fid] = (int(offered), int(delivered), int(payload),
                      None if done == "-" else float(done))
    return scalars, flows


def traffic_decls(text: str) -> dict[str, dict]:
    """flow id -> key/value pairs of every [traffic] line of a scenario."""
    out, section = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line and section == "traffic":
            kv = dict(tok.split("=", 1) for tok in line.split())
            out[kv["flow"]] = kv
    return out


class Tree:
    """Physical link graph of a scenario: who hangs below whom, seen from
    the monitor host. Built from the declarations only."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.adj: dict[str, list] = {}
        for link in cfg.links:
            (na, _), (nb, _) = link.a, link.b
            self.adj.setdefault(na, []).append((nb, link.link_id))
            self.adj.setdefault(nb, []).append((na, link.link_id))
        self.monitor = min(h for h, d in cfg.hosts.items()
                           if d.group == "mgmt")
        self.parent = self._bfs(set(), set())

    def _bfs(self, dead_nodes: set, dead_links: set) -> dict:
        parent = {self.monitor: None}
        frontier = deque([self.monitor])
        while frontier:
            node = frontier.popleft()
            for nxt, link_id in sorted(self.adj.get(node, [])):
                if nxt in parent or nxt in dead_nodes or link_id in dead_links:
                    continue
                parent[nxt] = node
                frontier.append(nxt)
        return parent

    def beamline_hosts(self) -> list[str]:
        return sorted(h for h, d in self.cfg.hosts.items()
                      if d.group and d.group.startswith("bl"))

    def lost_vlans(self, dead_nodes: set, dead_links: set) -> list[int]:
        """VLANs of the audited hosts that no longer reach the monitor."""
        def cut(parent):
            return {d.vlan for h, d in self.cfg.hosts.items()
                    if d.vlan is not None
                    and d.group not in (None, "mgmt", "outside")
                    and h not in parent}
        baseline = cut(self.parent)
        return sorted(cut(self._bfs(dead_nodes, dead_links)) - baseline)


# -- simulations -------------------------------------------------------------

class Simulation:
    """A workload that runs one scenario to its horizon."""

    name = ""

    def texts(self, seed: int) -> dict[str, str]:
        raise NotImplementedError

    def setup(self, texts: dict[str, str]):
        (text,) = texts.values()
        cfg = nf_scenario.parse_scenario(text)
        nf_scenario.validate_scenario(cfg)
        return text, cfg, nf_scenario.build_engine(cfg)

    def run(self, prepared) -> dict:
        _text, cfg, eng = prepared
        eng.run_until(cfg.duration_us)
        return {}

    def check(self, prepared, ran: dict) -> RepResult:
        text, _cfg, eng = prepared
        lines = eng.metrics.summary_lines()
        scalars, flows = parse_summary(lines)
        created = int(scalars["frames_created"])
        consumed = int(scalars["frames_consumed"])
        result = RepResult(_digest(lines))
        result.checks["conservation"] = (
            OK if created == consumed + eng.residual_frames() else WRONG)
        for fid, decl in traffic_decls(text).items():
            result.checks[f"flow.{fid}"] = self.check_flow(
                fid, decl, flows.get(fid, (0, 0, 0, None)))
        result.outcomes = self.outcomes(flows, ran)
        return result

    def check_flow(self, fid: str, decl: dict, row) -> str:
        offered, delivered, payload, done = row
        if decl["kind"] == "bulk":
            complete = done is not None and payload == int(decl["total"])
        elif decl["kind"] == "ping":
            complete = (done is not None and offered > 0
                        and delivered == offered)
        else:
            complete = offered > 0 and delivered == offered
        return OK if complete else INCOMPLETE

    def outcomes(self, flows, ran) -> dict:
        return {}


# Two hosts either side of one NAT firewall, every link 1 Gbps, so the
# firewall's 170 Mbps cap is the only bottleneck on the path. The topology
# of the acceptance rig for the goodput and transfer-time criteria.
FIREWALL_RIG = """\
[engine]
seed={seed} duration={duration}

[vlan]
vid=10 name=dmz subnet=10.0.0.0/24
vid=20 name=public subnet=198.18.0.0/24

[switch]
name=si ports=h:access:10,f:access:10
name=so ports=h:access:20,f:access:20

[firewall]
name=fw inside=routed:10.0.0.1/24:dmz outside=routed:198.18.0.1/24:public cap={cap} nat_capacity=1024 zones=on

[masquerade]
node=fw network=0.0.0.0/0 external=198.18.0.61

[host]
name=h1 ip=10.0.0.{h1}/24 gw=10.0.0.1 vlan=10
name=h2 ip=198.18.0.{h2}/24 gw=198.18.0.1 vlan=20

[link]
a=h1:0 b=si:h bw=1000000000
a=si:f b=fw:inside bw=1000000000
a=h2:0 b=so:h bw=1000000000
a=so:f b=fw:outside bw=1000000000

[traffic]
kind=bulk src=h1 dst=h2 flow=xfer total={total} sport={sport} dport={dport}
"""


class FwBulk(Simulation):
    """One 50 MB transfer through the 170 Mbps NAT firewall rig."""

    name = "fw-bulk"
    CAP_BPS = 170_000_000
    TOTAL = 50_000_000
    HORIZON_S = 3  # the transfer needs about 2.4 s of simulated time
    BOUND_SHARE = 0.05  # acceptance criterion 4's tolerance

    def texts(self, seed: int) -> dict[str, str]:
        rng = random.Random(seed)
        return {"rig": FIREWALL_RIG.format(
            seed=rng.randrange(1 << 31), duration=self.HORIZON_S,
            cap=self.CAP_BPS, h1=rng.randrange(2, 255),
            h2=rng.choice([n for n in range(2, 255) if n != 61]),
            total=self.TOTAL + 1460 * rng.randrange(64),
            sport=rng.randrange(1024, 65536), dport=rng.randrange(1, 1024))}

    def check_flow(self, fid, decl, row) -> str:
        status_ = super().check_flow(fid, decl, row)
        bound_s = int(decl["total"]) * 8 / self.CAP_BPS
        late = status_ == OK and (abs(row[3] - bound_s)
                                  > bound_s * self.BOUND_SHARE)
        return INCOMPLETE if late else status_

    def outcomes(self, flows, ran) -> dict:
        _offered, _delivered, payload, done = flows.get("xfer",
                                                        (0, 0, 0, None))
        return {"completion_s": done,
                "goodput_mbps": payload * 8 / done / 1e6 if done else None}


class CampusMix(Simulation):
    """spring8-redundant with seeded east-west, north-south, admin and denied
    traffic, and fw1 failing at 1/3 of the horizon and recovering at 2/3."""

    name = "campus-mix"
    HORIZON_S = 15
    FAIL_S, RECOVER_S = 5, 10
    SWITCHOVER_STEP_US = 100_000
    SWITCHOVER_LIMIT_US = 5 * US
    EAST_WEST, NORTH_SOUTH, PINGS, DENIED = 24, 12, 5, 4

    def texts(self, seed: int) -> dict[str, str]:
        rng = random.Random(seed)
        cfg = nf_scenario.load_scenario("spring8-redundant")
        tree = Tree(cfg)
        hosts = tree.beamline_hosts()
        quadrant = {h: tree.parent[tree.parent[h]] for h in hosts}
        by_quadrant: dict[str, list] = {}
        for h in hosts:
            by_quadrant.setdefault(quadrant[h], []).append(h)
        quadrants = sorted(by_quadrant)
        ports = iter(rng.sample(range(20_000, 39_999), 64))
        lines = []
        for i in range(1, self.EAST_WEST + 1):
            qa, qb = rng.sample(quadrants, 2)
            start = rng.randrange(0, 1000) / 1000
            lines.append(
                f"kind=cbr src={rng.choice(by_quadrant[qa])} "
                f"dst={rng.choice(by_quadrant[qb])} flow=ew{i:02d} "
                f"start={start:g} stop={start + 12:g} rate=500000 "
                f"sport={next(ports)} dport={next(ports)}")
        span = (self.HORIZON_S - 2) / self.NORTH_SOUTH
        sources = rng.sample([h for h in hosts if h != "bl01h1"],
                             self.NORTH_SOUTH + self.DENIED)
        for i in range(self.NORTH_SOUTH):
            start = 1 + i * span + rng.randrange(0, int(span * 800)) / 1000
            dst = rng.choice(["ext1", "ext2"])
            lines.append(
                f"kind=bulk src={sources[i]} dst={dst} flow=ns{i + 1:02d} "
                f"start={start:g} total=1000000 "
                f"sport={41_000 + i} dport={rng.randrange(1, 1024)}")
        for i in range(1, self.PINGS + 1):
            start = rng.randrange(0, 11_000) / 1000
            lines.append(f"kind=ping src=admin dst={rng.choice(hosts)} "
                         f"flow=ping{i:02d} start={start:g} count=3")
        for i in range(1, self.DENIED + 1):
            start = rng.randrange(0, 10_000) / 1000
            lines.append(
                f"kind=cbr src={sources[self.NORTH_SOUTH + i - 1]} dst=admin "
                f"flow=deny{i:02d} start={start:g} stop={start + 3:g} "
                f"rate=200000 sport={next(ports)} dport={next(ports)}")
        text = (nf_scenario.serialize_scenario(cfg)
                + f"\n[engine]\nseed={rng.randrange(1 << 31)} "
                f"duration={self.HORIZON_S}\n"
                + "\n[traffic]\n" + "\n".join(lines) + "\n"
                + f"\n[fault]\nat={self.FAIL_S} action=fail_node target=fw1\n"
                f"at={self.RECOVER_S} action=recover target=fw1\n")
        return {"campus": text}

    def run(self, prepared) -> dict:
        """Run to the horizon, stopping every 100 ms after fw1 fails until
        the inside balancer marks its path down. Stopping and resuming
        `run_until` processes the same events in the same order."""
        _text, cfg, eng = prepared
        fail_us = self.FAIL_S * US
        eng.run_until(fail_us)
        switchover = None
        t = fail_us
        while t < fail_us + self.SWITCHOVER_LIMIT_US:
            t += self.SWITCHOVER_STEP_US
            eng.run_until(t)
            if _path_state(eng, "lbi", "fw1") != "up":
                switchover = (t - fail_us) / US
                break
        eng.run_until(cfg.duration_us)
        return {"switchover_s": switchover}

    def check_flow(self, fid, decl, row) -> str:
        if fid.startswith("deny"):
            return OK if row[0] > 0 and row[1] == 0 else WRONG
        return super().check_flow(fid, decl, row)

    def outcomes(self, flows, ran) -> dict:
        rows = [r for f, r in flows.items() if not f.startswith("deny")]
        offered = sum(r[0] for r in rows)
        delivered = sum(r[1] for r in rows)
        return {"delivered_over_offered":
                delivered / offered if offered else None,
                "fw1_switchover_s": ran.get("switchover_s")}


def _path_state(eng, balancer: str, path: str):
    """Health of one balancer path, or None when the program does not say."""
    try:
        return eng.nodes[balancer].lb.paths[path].state
    except (AttributeError, KeyError):
        return None


# -- operator queries --------------------------------------------------------

class OpsAudit:
    """`status` at a fault time for four seeded single faults, then `verify`
    of every invariant that applies to each bundled scenario, one query at a
    time through the public functions."""

    name = "ops-audit"
    FAULT_KINDS = ("edge-switch", "edge-uplink", "aggregation", "backbone")
    STATUS_SCENARIOS = ("spring8-redundant", "spring8-upgraded")
    BUNDLED = ("spring8-legacy", "spring8-upgraded", "spring8-redundant")
    INVARIANTS = ("isolation", "zone-policy", "nat-bijection", "failover",
                  "determinism")

    def texts(self, seed: int) -> dict[str, str]:
        rng = random.Random(seed)
        out = {}
        # each of the two scenarios gets two of the four fault kinds
        on_first = set(rng.sample(self.FAULT_KINDS, 2))
        for kind in self.FAULT_KINDS:
            name = self.STATUS_SCENARIOS[0 if kind in on_first else 1]
            cfg = nf_scenario.load_scenario(name)
            action, target = self._fault(kind, Tree(cfg), rng)
            at_s = 3 + rng.randrange(0, 500) / 1000
            out[f"status.{kind}"] = (
                nf_scenario.serialize_scenario(cfg)
                + f"\n[engine]\nseed={rng.randrange(1 << 31)}\n"
                + f"\n[fault]\nat={at_s:g} action={action} target={target}\n")
        for name in self.BUNDLED:
            out[f"verify.{name}"] = (
                nf_scenario.serialize_scenario(nf_scenario.load_scenario(name))
                + f"\n[engine]\nseed={rng.randrange(1 << 31)}\n")
        return out

    @staticmethod
    def _fault(kind: str, tree: Tree, rng: random.Random):
        edges = sorted({tree.parent[h] for h in tree.beamline_hosts()})
        if kind == "edge-switch":
            return "fail_node", rng.choice(edges)
        if kind == "edge-uplink":
            sw = rng.choice(edges)
            (link_id,) = [lid for nxt, lid in tree.adj[sw]
                          if nxt == tree.parent[sw]]
            return "fail_link", link_id
        if kind == "aggregation":
            aggregations = sorted({tree.parent[e] for e in edges})
            return "fail_node", rng.choice(aggregations)
        return "fail_node", tree.parent[tree.parent[edges[0]]]

    def setup(self, texts: dict[str, str]):
        cfgs = {}
        for key, text in texts.items():
            cfg = nf_scenario.parse_scenario(text)
            nf_scenario.validate_scenario(cfg)
            nf_scenario.build_engine(cfg)
            cfgs[key] = cfg
        return cfgs

    def run(self, cfgs) -> dict:
        answers = {}
        for key, cfg in cfgs.items():
            if key.startswith("status."):
                (fault,) = cfg.faults
                answers[key] = nf_verify.status(cfg, fault.at_us + US // 2)
                continue
            for inv in self.INVARIANTS:
                if inv == "failover" and not cfg.balancers:
                    continue
                answers[f"{key}.{inv}"] = nf_verify.verify(cfg, inv,
                                                           seed=cfg.seed)
        return answers

    def check(self, cfgs, answers: dict) -> RepResult:
        lines = []
        for key in sorted(answers):
            lines.append(key)
            lines.extend(answers[key].lines())
        result = RepResult(_digest(lines))
        affected_total = 0
        for key, answer in sorted(answers.items()):
            if key.startswith("status."):
                result.checks[key] = self._check_status(cfgs[key], answer)
                affected_total += len(answer.affected_vlans)
            else:
                expect_pass = key != "verify.spring8-legacy.isolation"
                result.checks[key] = (OK if answer.passed == expect_pass
                                      else WRONG)
        result.outcomes = {"queries": len(answers),
                           "affected_vlans": affected_total}
        return result

    @staticmethod
    def _check_status(cfg, report) -> str:
        (fault,) = cfg.faults
        tree = Tree(cfg)
        dead_nodes = {fault.target} if fault.action == "fail_node" else set()
        dead_links = {fault.target} if fault.action == "fail_link" else set()
        expected = tree.lost_vlans(dead_nodes, dead_links)
        if list(report.affected_vlans) != expected:
            return WRONG
        states = {name: state for name, _kind, state, _ in report.nodes}
        if any(states.get(n) != "failed" for n in dead_nodes):
            return WRONG
        return OK


WORKLOADS = {w.name: w for w in (FwBulk(), CampusMix(), OpsAudit())}
