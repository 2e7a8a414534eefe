import random

from hypothesis import given, settings, strategies as st

from conftest import random_topology, vlan_reach_oracle
from netfab.fabric import broadcast_delivery, build_switch_fabric


def test_generated_topologies_validate():
    from netfab.scenario import validate_scenario
    rng = random.Random(7)
    for _ in range(20):
        validate_scenario(random_topology(rng))


def test_broadcast_matches_oracle_small_sweep():
    rng = random.Random(20260823)
    for _ in range(40):
        cfg = random_topology(rng)
        switches, peer = build_switch_fabric(cfg)
        for host in cfg.hosts:
            got = broadcast_delivery(cfg, host, switches, peer)
            assert got == vlan_reach_oracle(cfg, host)


def test_single_switch_same_vlan():
    rng = random.Random(3)
    # degenerate case: smallest generator output still obeys the oracle
    cfg = random_topology(random.Random(0))
    host = sorted(cfg.hosts)[0]
    assert broadcast_delivery(cfg, host) == vlan_reach_oracle(cfg, host)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_broadcast_over_lag_bundles_matches_oracle(seed):
    """Inter-switch links as LAG bundles of 1-3 members, some of them
    uncabled: a member with no link leaves its bundle (IEEE 802.1AX), so a
    broadcast crosses a bundle exactly when one of its members is cabled,
    and reaches the hosts the graph search over the cabled links finds."""
    from netfab.scenario import validate_scenario
    cfg = random_topology(random.Random(seed), lag_members=3)
    validate_scenario(cfg)
    switches, peer = build_switch_fabric(cfg)
    for host in cfg.hosts:
        assert broadcast_delivery(cfg, host, switches, peer) == \
            vlan_reach_oracle(cfg, host)
