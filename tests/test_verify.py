import copy

import pytest

from netfab.scenario import (BUNDLED, FaultDecl, build_spring8_legacy,
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
