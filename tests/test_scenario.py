import hashlib
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from netfab.l3 import VERDICTS, ZONES
from netfab.packet import ip_addr, prefix_mask
from netfab.scenario import (BUNDLED, AclDecl, BalancerDecl, FaultDecl,
                             FirewallDecl, HostDecl, IfaceDecl, L3Decl,
                             LinkDecl, LoopError, MasqDecl, ParseError,
                             PortSpec, RouteDecl, ScenarioConfig, SideDecl,
                             SwitchDecl, TrafficDecl, ValidationError,
                             VlanDecl, build_engine, build_spring8_legacy,
                             build_spring8_redundant, build_spring8_upgraded,
                             load_scenario, parse_scenario, serialize_scenario,
                             validate_scenario, QUADRANTS)

MINIMAL = """
[engine]
seed=1 duration=5

[vlan]
vid=10 name=lab subnet=10.0.10.0/24

[switch]
name=sw1 ports=p1:access:10,p2:access:10

[host]
name=h1 ip=10.0.10.1/24 vlan=10
name=h2 ip=10.0.10.2/24 vlan=10

[link]
a=h1:0 b=sw1:p1 bw=100000000
a=h2:0 b=sw1:p2 bw=100000000

[traffic]
kind=ping src=h1 dst=h2 flow=p count=2
"""


class TestParse:
    def test_minimal(self):
        cfg = parse_scenario(MINIMAL)
        validate_scenario(cfg)
        assert len(cfg.switches["sw1"].ports) == 2
        assert all(p.mode == "access" for p in cfg.switches["sw1"].ports.values())
        assert cfg.seed == 1 and cfg.duration_us == 5_000_000

    def test_minimal_runs(self):
        cfg = parse_scenario(MINIMAL)
        eng = build_engine(cfg)
        eng.run_until(cfg.duration_us)
        assert eng.metrics.flows["p"].delivered_packets == 2

    def test_error_carries_line_number(self):
        bad = "[switch]\nname=sw1 ports=p1:access:10\nbogus line here\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(bad)
        assert err.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_scenario("[warp]\nname=x\n")

    def test_declaration_before_section(self):
        with pytest.raises(ParseError):
            parse_scenario("name=sw1 ports=p1:access:10\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_scenario("[host]\nname=h1 name=h2 ip=10.0.0.1/24\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario("# preamble\n\n[engine]\nseed=3  # trailing\n")
        assert cfg.seed == 3


class TestValidation:
    def test_link_to_undeclared_node(self):
        text = MINIMAL + "[link]\na=h3:0 b=sw1:p1 bw=1000\n"
        with pytest.raises(ValidationError):
            validate_scenario(parse_scenario(text))

    def test_link_to_missing_port(self):
        text = MINIMAL.replace("b=sw1:p2", "b=sw1:p9")
        with pytest.raises(ValidationError):
            validate_scenario(parse_scenario(text))

    def test_undeclared_vlan_on_port(self):
        text = MINIMAL.replace("p2:access:10", "p2:access:99")
        with pytest.raises(ValidationError):
            validate_scenario(parse_scenario(text))

    def test_traffic_unknown_src(self):
        text = MINIMAL + "[traffic]\nkind=ping src=h9 dst=h2 flow=x count=1\n"
        with pytest.raises(ValidationError):
            validate_scenario(parse_scenario(text))

    def test_fault_unknown_target(self):
        text = MINIMAL + "[fault]\nat=1 action=fail_node target=nope\n"
        with pytest.raises(ValidationError):
            validate_scenario(parse_scenario(text))


LOOPY = """
[vlan]
vid=10 name=v10

[switch]
name=s1 ports=t1:trunk:10,t2:trunk:10
name=s2 ports=t1:trunk:10,t2:trunk:10
name=s3 ports=t1:trunk:10,t2:trunk:10

[link]
a=s1:t1 b=s2:t2 bw=1000000000
a=s2:t1 b=s3:t2 bw=1000000000
a=s3:t1 b=s1:t2 bw=1000000000
"""


class TestLoops:
    def test_three_switch_cycle(self):
        with pytest.raises(LoopError) as err:
            validate_scenario(parse_scenario(LOOPY))
        assert err.value.vid == 10
        assert set(err.value.cycle) == {"s1", "s2", "s3"}

    def test_breaking_one_link_clears_it(self):
        text = "\n".join(l for l in LOOPY.splitlines()
                         if not l.startswith("a=s3:t1"))
        validate_scenario(parse_scenario(text))

    def test_lag_parallel_links_are_one_edge(self):
        text = """
[vlan]
vid=10 name=v10

[switch]
name=s1 ports=t1:trunk:10:g1,t2:trunk:10:g1
name=s2 ports=t1:trunk:10:g1,t2:trunk:10:g1

[link]
a=s1:t1 b=s2:t1 bw=1000000000
a=s1:t2 b=s2:t2 bw=1000000000
"""
        validate_scenario(parse_scenario(text))

    def test_parallel_links_without_lag_loop(self):
        text = """
[vlan]
vid=10 name=v10

[switch]
name=s1 ports=t1:trunk:10,t2:trunk:10
name=s2 ports=t1:trunk:10,t2:trunk:10

[link]
a=s1:t1 b=s2:t1 bw=1000000000
a=s1:t2 b=s2:t2 bw=1000000000
"""
        with pytest.raises(LoopError):
            validate_scenario(parse_scenario(text))


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_serialize_parse_fixpoint(self, name):
        cfg = BUNDLED[name]()
        once = serialize_scenario(cfg)
        again = serialize_scenario(parse_scenario(once))
        assert once == again
        validate_scenario(parse_scenario(again))

    def test_minimal_fixpoint(self):
        once = serialize_scenario(parse_scenario(MINIMAL))
        assert serialize_scenario(parse_scenario(once)) == once

    @pytest.mark.parametrize("name, digest", [
        ("spring8-legacy", "08cc484fbfb038fa"),
        ("spring8-redundant", "b9dcad2fa9e19a7c"),
        ("spring8-upgraded", "3de20ed3301c8ad0"),
        ("minimal", "cab7666e308feec7"),
    ])
    def test_serialization_pinned(self, name, digest):
        """sha256[:16] of the serialized text; a change here means the
        file format changed."""
        cfg = (parse_scenario(MINIMAL) if name == "minimal"
               else BUNDLED[name]())
        text = serialize_scenario(cfg)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "mini.nf"
        path.write_text(MINIMAL)
        cfg = load_scenario(str(path))
        assert "sw1" in cfg.switches
        assert "h2" in load_scenario("spring8-legacy").hosts or True


# -- parse(serialize(cfg)) == cfg for any config the format can express ------

WORDS = st.text("abcdefgh", min_size=1, max_size=4)
PORT_IDS = st.integers(0, 99) | WORDS
VIDS = st.integers(1, 4094)
IPS = st.integers(0, 2**32 - 1)
PREFIX_LENS = st.integers(0, 32)
ZONE_NAMES = st.sampled_from(ZONES)
TIMES_US = st.integers(0, 10**12)
L4_PORTS = st.integers(0, 65535)
COUNTS = st.integers(0, 10**10)


def maybe(strategy):
    return st.none() | strategy


@st.composite
def networks(draw):
    plen = draw(PREFIX_LENS)
    return draw(IPS) & prefix_mask(plen), plen


def keyed(keys, build):
    """A dict of declarations under their own name or vid, as parsed."""
    return st.lists(keys, max_size=3, unique=True).flatmap(
        lambda ks: st.tuples(*map(build, ks)).map(
            lambda decls: dict(zip(ks, decls))))


def in_file_order(strategy, key):
    return st.lists(strategy, max_size=3).map(lambda ds: sorted(ds, key=key))


PORT_SPECS = (
    st.builds(PortSpec, st.just("access"), vid=VIDS, lag=maybe(WORDS))
    | st.builds(PortSpec, st.just("trunk"), lag=maybe(WORDS),
                allowed=st.lists(VIDS, min_size=1, max_size=3).map(
                    lambda vids: tuple(sorted(vids)))))


@st.composite
def sides(draw):
    ip = draw(maybe(IPS))
    return SideDecl(draw(st.sampled_from(("routed", "inline"))), ip,
                    24 if ip is None else draw(PREFIX_LENS), draw(ZONE_NAMES),
                    gw=draw(maybe(IPS)), peer=draw(maybe(WORDS)),
                    routes=draw(st.lists(st.builds(
                        lambda net, via: (*net, via), networks(), IPS),
                        max_size=2)))


@st.composite
def flows(draw):
    dst, dst_ip = draw(st.sampled_from(((True, False), (False, True),
                                        (True, True))))
    return TrafficDecl(
        draw(st.sampled_from(("cbr", "bulk", "ping"))), draw(WORDS),
        draw(WORDS), dst=draw(WORDS) if dst else None,
        dst_ip=draw(IPS) if dst_ip else None, start_us=draw(TIMES_US),
        stop_us=draw(maybe(TIMES_US)), rate=draw(COUNTS),
        total=draw(COUNTS), count=draw(COUNTS), sport=draw(L4_PORTS),
        dport=draw(L4_PORTS))


# node names carry a per-kind prefix so they are unique across sections
CONFIGS = st.builds(
    ScenarioConfig,
    seed=st.integers(-2**63, 2**63 - 1),
    duration_us=TIMES_US,
    vlans=keyed(VIDS, lambda vid: st.builds(VlanDecl, st.just(vid), WORDS,
                                            maybe(networks()))),
    switches=keyed(WORDS.map("s".__add__), lambda name: st.builds(
        SwitchDecl, st.just(name),
        st.dictionaries(PORT_IDS, PORT_SPECS, min_size=1, max_size=3))),
    l3s=keyed(WORDS.map("r".__add__), lambda name: st.builds(
        L3Decl, st.just(name), in_file_order(st.builds(
            IfaceDecl, st.just(name), VIDS, IPS, PREFIX_LENS, ZONE_NAMES,
            maybe(PORT_IDS)), attrgetter("vid")))),
    firewalls=keyed(WORDS.map("f".__add__), lambda name: st.builds(
        FirewallDecl, st.just(name), cap_bps=st.integers(1, 10**10),
        nat_capacity=st.integers(0, 10**4), zones=st.booleans(),
        inside=sides(), outside=sides())),
    balancers=keyed(WORDS.map("b".__add__), lambda name: st.builds(
        BalancerDecl, st.just(name), IPS, IPS,
        st.lists(WORDS, min_size=1, max_size=3).map(tuple),
        st.dictionaries(IPS, WORDS, max_size=2))),
    hosts=keyed(WORDS.map("h".__add__), lambda name: st.builds(
        HostDecl, st.just(name), IPS, PREFIX_LENS, gw=maybe(IPS),
        vlan=maybe(VIDS), group=maybe(WORDS))),
    links=in_file_order(st.builds(
        LinkDecl, st.tuples(WORDS, PORT_IDS), st.tuples(WORDS, PORT_IDS),
        st.integers(1, 10**10), prop=st.integers(0, 10**4),
        queue=st.integers(1, 10**4)), attrgetter("link_id")),
    routes=in_file_order(st.builds(
        lambda node, net, via: RouteDecl(node, *net, **via), WORDS,
        networks(), st.fixed_dictionaries({"via_vid": VIDS})
        | st.fixed_dictionaries({"gateway": IPS})),
        attrgetter("node", "prefix_len", "prefix")),
    acls=in_file_order(st.builds(AclDecl, ZONE_NAMES, ZONE_NAMES,
                                 st.sampled_from(VERDICTS)),
                       attrgetter("from_zone", "to_zone")),
    masquerades=in_file_order(st.builds(
        lambda node, net, ext: MasqDecl(node, *net, ext), WORDS, networks(),
        IPS), attrgetter("node", "prefix_len", "network")),
    traffic=st.lists(flows(), max_size=3),
    faults=st.lists(st.builds(
        FaultDecl, TIMES_US,
        st.sampled_from(("fail_node", "fail_link", "recover")),
        WORDS | st.builds("{}:1-{}:p2".format, WORDS, WORDS)), max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(CONFIGS)
def test_parse_inverts_serialize(cfg):
    assert parse_scenario(serialize_scenario(cfg)) == cfg


class TestBundledCounts:
    def test_legacy_segments_and_bandwidths(self):
        cfg = build_spring8_legacy()
        validate_scenario(cfg)
        assert len(cfg.vlans) == 65
        uplinks = [l for l in cfg.links
                   if l.a[0].startswith("sw") and l.b[0] == "bb"]
        assert uplinks and all(l.bw == 10_000_000 for l in uplinks)
        host_links = [l for l in cfg.links if l.a[0].startswith("bl")]
        assert all(l.bw == 10_000_000 for l in host_links)
        # one flat broadcast domain: every switch port is in vlan 1
        for sw in cfg.switches.values():
            assert all(p.mode == "access" and p.vid == 1
                       for p in sw.ports.values())

    def test_upgraded_segments(self):
        cfg = build_spring8_upgraded()
        validate_scenario(cfg)
        assert len(cfg.vlans) == 65  # 1 mgmt + 62 beamline + 2 staff
        names = [v.name for v in cfg.vlans.values()]
        assert names.count("mgmt") == 1
        assert sum(n.startswith("bl") for n in names) == 62
        assert sum(n.startswith("staff") for n in names) == 2

    def test_upgraded_quadrants_and_firewalls(self):
        cfg = build_spring8_upgraded()
        assert len(cfg.firewalls) == 4
        sizes = sorted(len(list(bls)) for bls in QUADRANTS.values())
        assert sizes == [14, 14, 17, 17]
        assert max(len(list(b)) for b in QUADRANTS.values()) == 17
        for fw in cfg.firewalls.values():
            assert fw.cap_bps == 170_000_000

    def test_upgraded_uplink_bandwidths(self):
        cfg = build_spring8_upgraded()
        edge_up = [l for l in cfg.links
                   if l.a[0].startswith("sw") and l.b[0].startswith("agg")]
        assert len(edge_up) == 32
        assert all(l.bw == 100_000_000 for l in edge_up)
        backbone = [l for l in cfg.links
                    if l.a[0].startswith("agg") and l.b[0] == "bb"]
        assert backbone and all(l.bw == 1_000_000_000 for l in backbone)

    def test_upgraded_scale(self):
        cfg = build_spring8_upgraded()
        beamline_hosts = [h for h in cfg.hosts.values()
                          if h.group and h.group.startswith("bl")]
        assert len(beamline_hosts) == 62 * 8
        assert len(cfg.hosts) + len(cfg.switches) >= 500

    def test_redundant_counts(self):
        cfg = build_spring8_redundant()
        validate_scenario(cfg)
        assert len(cfg.vlans) == 66  # clean network joins the same L3 switch
        assert len(cfg.l3s["l3r"].interfaces) >= 66
        assert len(cfg.firewalls) == 2
        assert all(fw.nat_capacity >= 64 for fw in cfg.firewalls.values())
        assert len(cfg.balancers) == 2

    def test_redundant_has_lag(self):
        cfg = build_spring8_redundant()
        lagged = [(sw.name, pid) for sw in cfg.switches.values()
                  for pid, p in sw.ports.items() if p.lag is not None]
        assert lagged
        bb_lags = {p.lag for p in cfg.switches["bb"].ports.values()
                   if p.lag is not None}
        assert len(bb_lags) == 4  # one bundle per aggregation switch

    def test_redundant_override_maps_each_firewall(self):
        cfg = build_spring8_redundant()
        for bal in cfg.balancers.values():
            assert set(bal.override.values()) == {"fw1", "fw2"}
            assert ip_addr("192.0.2.61") in bal.override
