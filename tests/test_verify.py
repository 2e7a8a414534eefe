import copy
import functools
import gc
import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TraceLines, affected_vlans_oracle, random_topology
from netfab import engine
from netfab.l2 import PortConfig
from netfab.l3 import VlanInterface
from netfab.packet import ip_addr
from netfab.scenario import (BUNDLED, FaultDecl, L3Decl, LinkDecl,
                             build_spring8_legacy,
                             build_spring8_redundant, build_spring8_upgraded,
                             build_engine, host_gateways, parse_scenario,
                             serialize_scenario, validate_scenario)
from netfab.verify import (DIGEST_BATCH, INVARIANTS, UnknownInvariant,
                           UnknownNode, _run_digest, affected_vlans, status,
                           verify)


@pytest.fixture(scope="module")
def legacy():
    return build_spring8_legacy()


@pytest.fixture(scope="module")
def upgraded():
    return build_spring8_upgraded()


@pytest.fixture(scope="module")
def redundant():
    return build_spring8_redundant()


class TestIsolation:
    def test_legacy_fails_with_counterexample(self, legacy):
        r = verify(legacy, "isolation")
        assert not r.passed
        assert "bl01" in r.detail

    def test_upgraded_passes(self, upgraded):
        r = verify(upgraded, "isolation")
        assert r.passed

    def test_redundant_passes(self, redundant):
        assert verify(redundant, "isolation").passed


class TestZonePolicy:
    @pytest.mark.parametrize("build", [build_spring8_legacy,
                                       build_spring8_upgraded,
                                       build_spring8_redundant])
    def test_outbound_allowed_inbound_denied(self, build):
        assert verify(build(), "zone-policy").passed


class TestNatBijection:
    def test_upgraded(self, upgraded):
        r = verify(upgraded, "nat-bijection")
        assert r.passed and "64" in r.detail

    def test_redundant(self, redundant):
        assert verify(redundant, "nat-bijection").passed


class TestFailover:
    def test_redundant_passes_with_switchover_time(self, redundant):
        r = verify(redundant, "failover")
        assert r.passed
        assert "switchover" in r.detail

    def test_non_redundant_fails(self, upgraded):
        assert not verify(upgraded, "failover").passed

    def test_reads_records_not_lines(self, redundant, monkeypatch):
        """The check watches trace records as they happen; no line is
        formatted, and the answer is the one it gave parsing lines."""
        def no_lines(*_record):
            raise AssertionError("a trace line was formatted")

        monkeypatch.setattr(engine, "trace_line", no_lines)
        r = verify(redundant, "failover")
        assert r.passed
        assert r.detail == ("switchover in 3.0s; post-failover transfer "
                            "completed at 15.087s")


class TestDeterminism:
    def test_legacy(self, legacy):
        assert verify(legacy, "determinism").passed

    def test_unknown_invariant(self, legacy):
        with pytest.raises(UnknownInvariant):
            verify(legacy, "teleportation")

    @pytest.mark.parametrize("name, digest, parsed", [
        pytest.param(name, digest, parsed,
                     id=f"{name}-{digest}" + ("-parsed" if parsed else ""))
        for name, digest in (("spring8-legacy", "0deae6957ba9991b"),
                             ("spring8-redundant", "fc1b5c2eab82dd04"),
                             ("spring8-upgraded", "3e350eb50e31a2b2"))
        for parsed in (False, True)
    ])
    def test_bundled_trace_digest_pinned(self, name, digest, parsed):
        """Trace + summary at the scenario's own seed; a change here means
        the model's behaviour changed. The scenario's text runs the same."""
        cfg = BUNDLED[name]()
        if parsed:
            cfg = parse_scenario(serialize_scenario(cfg))
        assert _run_digest(cfg)[:16] == digest

    def test_batched_digest_hashes_every_line(self):
        """The digest is sha256 of the whole trace text, then the summary,
        however the lines are batched: a run with a failover spans many
        batches and ends in a partial one."""
        cfg = replace(build_spring8_redundant(), duration_us=4_000_000,
                      faults=[FaultDecl(1_000_000, "fail_node", "fw1")])
        lines = TraceLines()
        eng = build_engine(cfg, trace=lines)
        eng.run_until(cfg.duration_us)
        events = {line.split("\t")[2] for line in lines}
        assert {"ev=fault", "ev=drop", "ev=probe", "ev=path_down",
                "ev=tx", "ev=rx", "ev=nat"} <= events
        assert len(lines) > 4 * DIGEST_BATCH and len(lines) % DIGEST_BATCH
        text = lines.text() + "\n".join(eng.metrics.summary_lines())
        assert _run_digest(cfg) == \
            hashlib.sha256(text.encode()).hexdigest()

    def test_bundled_trace_digests_ignore_the_hash_seed(self):
        """String hashes, and so the order of sets of strings, change with
        PYTHONHASHSEED; a run in one process cannot see whether its trace
        depends on them, so two processes with different seeds compare."""
        script = ("from netfab.scenario import BUNDLED\n"
                  "from netfab.verify import _run_digest\n"
                  "for name in sorted(BUNDLED):\n"
                  "    cfg = BUNDLED[name]()\n"
                  "    print(name, _run_digest(cfg))\n")
        src = str(Path(engine.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH"))))}
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=300).stdout)
        assert [line.split()[0] for line in outputs[0].splitlines()] == \
            sorted(BUNDLED)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_queries_leave_the_scenario_untouched(name):
    """verify's trial runs and status share the caller's declarations, so
    every query must leave what cfg serializes to as it was."""
    cfg = BUNDLED[name]()
    before = serialize_scenario(cfg)
    for invariant in INVARIANTS:
        if invariant == "failover" and not cfg.balancers:
            continue
        verify(cfg, invariant, seed=cfg.seed)
    status(cfg, 2_000_000)
    assert serialize_scenario(cfg) == before
    assert "rogue" not in cfg.hosts
    assert not any("rogue" in sw.ports for sw in cfg.switches.values())
    assert not any("rogue" in (link.a[0], link.b[0]) for link in cfg.links)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_queries_leave_no_cyclic_garbage(name, gc_off):
    """Every engine a query builds is closed before it returns, so reference
    counting frees it and a full collection afterwards finds nothing."""
    cfg = BUNDLED[name]()
    queries = [functools.partial(verify, cfg, invariant, seed=cfg.seed)
               for invariant in INVARIANTS
               if invariant != "failover" or cfg.balancers]
    queries.append(functools.partial(status, cfg, 3_500_000))
    for query in queries:
        gc.collect()
        query()
        assert gc.collect() == 0, query.args


class TestStatus:
    def test_healthy_network_empty_affected(self, redundant):
        rep = status(copy.deepcopy(redundant), 2_000_000)
        assert rep.affected_vlans == []

    def test_failed_edge_switch_lists_its_beamlines(self, redundant):
        cfg = copy.deepcopy(redundant)
        cfg.faults.append(FaultDecl(1_000_000, "fail_node", "sw01"))
        rep = status(cfg, 2_000_000)
        # sw01 hosts beamlines 1, 9 and 17 of quadrant 1
        assert rep.affected_vlans == [2, 10, 18]

    def test_failed_backbone_lists_all_beamlines(self, redundant):
        cfg = copy.deepcopy(redundant)
        cfg.faults.append(FaultDecl(1_000_000, "fail_node", "bb"))
        rep = status(cfg, 2_000_000)
        beamline_vids = set(range(2, 64))
        assert beamline_vids <= set(rep.affected_vlans)

    def test_failed_uplink_link(self, redundant):
        cfg = copy.deepcopy(redundant)
        cfg.faults.append(FaultDecl(1_000_000, "fail_link",
                                    "sw01:up-agg1:d01"))
        rep = status(cfg, 2_000_000)
        assert rep.affected_vlans == [2, 10, 18]

    def test_node_filter_and_unknown(self, redundant):
        rep = status(copy.deepcopy(redundant), 1_500_000, node="lbi")
        assert len(rep.nodes) == 1
        assert rep.nodes[0][1] == "balancer"
        with pytest.raises(UnknownNode):
            status(copy.deepcopy(redundant), 1_000_000, node="ghost")

    def test_affected_analysis_direct(self, redundant):
        # sw02 carries beamlines 2 and 10 (quadrant 1 spreads 17 beamlines
        # over 8 switches, so only sw01 picks up a third one)
        assert affected_vlans(redundant, {"sw02"}, set()) == [3, 11]

    @pytest.mark.parametrize("name, digest, count", [
        ("spring8-legacy", "696b03ab5ae89d1d", 67),  # each one: [1]
        ("spring8-upgraded", "f41aff9ee16198dd", 89),
        ("spring8-redundant", "13fc00e235ab2234", 90),
    ])
    def test_single_fault_answers_pinned(self, name, digest, count):
        """Every single dead switch, L3 switch, firewall or balancer, then
        every dead link between two of them; the digest of the answers is
        the one the per-host search gave."""
        cfg = BUNDLED[name]()
        infra = {*cfg.switches, *cfg.l3s, *cfg.firewalls, *cfg.balancers}
        faults = [(n, {n}, set()) for n in sorted(infra)]
        faults += [(l.link_id, set(), {l.link_id}) for l in cfg.links
                   if l.a[0] in infra and l.b[0] in infra]
        lines = []
        for target, nodes, links in faults:
            vlans = affected_vlans(cfg, nodes, links)
            lines.append(f"{target} {','.join(map(str, vlans)) or '-'}")
        assert len(lines) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] \
            == digest


SHARED_GATEWAY_ADDRESS = """
[vlan]
vid=10 name=v10
vid=20 name=v20

[switch]
name=edge ports=h:access:20,t:trunk:10|20,u:trunk:10|20

[l3]
name=r1
node=r1 vid=10 ip=10.0.10.1/24 zone=dmz
name=r2
node=r2 vid=20 ip=10.0.10.1/24 zone=dmz

[host]
name=h1 ip=10.0.10.20/24 gw=10.0.10.1 vlan=20 group=bl01

[link]
a=h1:0 b=edge:h bw=100000000
a=r1:trunk b=edge:t bw=1000000000
a=r2:trunk b=edge:u bw=1000000000
"""


def test_affected_vlans_finds_the_gateway_on_the_hosts_vlan():
    """Two L3 switches answer one address, each on its own VLAN; a host's
    gateway is the one on its VLAN, as validation reads it, so losing that
    L3 switch or the host's switch cuts the host's VLAN."""
    cfg = parse_scenario(SHARED_GATEWAY_ADDRESS)
    validate_scenario(cfg)
    assert host_gateways(cfg) == {"h1": "r2"}
    assert affected_vlans(cfg, {"r2"}, set()) == [20]
    assert affected_vlans(cfg, {"edge"}, set()) == [20]
    assert affected_vlans(cfg, {"r1"}, set()) == []


@pytest.mark.parametrize("name, digest", [
    ("spring8-redundant", "f8c53ac59bd7907e"),
    ("spring8-upgraded", "966cb4db8ccf39f0"),
])
def test_fault_applies_first_however_late_it_was_queued(name, digest):
    """A fault at 0.5 s from a `[fault]` line, queued before the run, and
    the same fault queued at 0.5 s - 1 µs, after the events of 0.5 s that
    the run queued so far, give one trace: a fault applies before every
    other event of its microsecond."""
    cfg = replace(BUNDLED[name](), duration_us=12_000_000)
    filed = replace(cfg, faults=[FaultDecl(500_000, "fail_node", "fw1")])
    assert _run_digest(filed)[:16] == digest
    lines = TraceLines()
    eng = build_engine(cfg, trace=lines)
    eng.run_until(499_999)
    eng.inject_fault(500_000, "fail_node", "fw1")
    eng.run_until(cfg.duration_us)
    text = lines.text() + "\n".join(eng.metrics.summary_lines())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _with_gateway(cfg, rng):
    """Put an L3 switch on a trunk of a random switch, with interfaces on
    some VLANs, and point some of those VLANs' hosts at it."""
    vids = sorted(cfg.vlans)
    sw = rng.choice(sorted(cfg.switches))
    cfg.switches[sw].ports["r"] = PortConfig("trunk", allowed=tuple(
        sorted(rng.sample(vids, rng.randint(1, len(vids))))))
    core = L3Decl("core")
    for vid in rng.sample(vids, rng.randint(1, len(vids))):
        core.interfaces.append(
            VlanInterface(vid, ip_addr(f"10.{vid}.0.254"), 16, "dmz"))
    cfg.l3s["core"] = core
    cfg.links.append(LinkDecl(("core", "trunk"), (sw, "r"), 100_000_000))
    gateways = {i.vid: i.ip for i in core.interfaces}
    for decl in cfg.hosts.values():
        if decl.vlan in gateways and rng.random() < 0.7:
            decl.gw = gateways[decl.vlan]


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gateway=st.booleans(), data=st.data())
def test_affected_vlans_matches_per_host_search(seed, gateway, data):
    rng = random.Random(seed)
    cfg = random_topology(rng)
    if gateway:
        _with_gateway(cfg, rng)
    monitor = rng.choice(sorted(cfg.hosts))
    for name, decl in cfg.hosts.items():
        decl.group = "mgmt" if name == monitor else f"bl{decl.vlan:02d}"
    dead_nodes = data.draw(st.sets(st.sampled_from(sorted(cfg.node_names())),
                                   max_size=4))
    dead_links = data.draw(st.sets(st.sampled_from(
        [l.link_id for l in cfg.links]), max_size=4))
    assert affected_vlans(cfg, dead_nodes, dead_links) == \
        affected_vlans_oracle(cfg, dead_nodes, dead_links)
