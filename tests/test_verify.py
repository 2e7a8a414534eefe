import copy
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import affected_vlans_oracle
from netfab.fabric import random_topology
from netfab.packet import ip_addr
from netfab.scenario import (BUNDLED, FaultDecl, IfaceDecl, L3Decl, LinkDecl,
                             PortSpec, build_spring8_legacy,
                             build_spring8_redundant, build_spring8_upgraded,
                             parse_scenario, serialize_scenario)
from netfab.verify import (UnknownInvariant, UnknownNode, _run_digest,
                           affected_vlans, status, verify)


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
        assert _run_digest(cfg, cfg.seed)[:16] == digest


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


def _with_gateway(cfg, rng):
    """Put an L3 switch on a trunk of a random switch, with interfaces on
    some VLANs, and point some of those VLANs' hosts at it."""
    vids = sorted(cfg.vlans)
    sw = rng.choice(sorted(cfg.switches))
    cfg.switches[sw].ports["r"] = PortSpec("trunk", allowed=tuple(
        sorted(rng.sample(vids, rng.randint(1, len(vids))))))
    core = L3Decl("core")
    for vid in rng.sample(vids, rng.randint(1, len(vids))):
        core.interfaces.append(
            IfaceDecl("core", vid, ip_addr(f"10.{vid}.0.254"), 16, "dmz"))
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
