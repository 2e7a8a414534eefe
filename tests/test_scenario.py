import hashlib
import random
from dataclasses import asdict
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (breaks_lag_rule, looped_vids, random_topology,
                      switch_links_on)
from netfab.engine import FirewallSide, TrafficSpec
from netfab.l2 import PortConfig
from netfab.l3 import VERDICTS, ZONES, Route, VlanInterface
from netfab.packet import (BROADCAST, Arp, ip_addr, make_frame, node_mac,
                           prefix_mask)
from netfab.scenario import (BUNDLED, FORMAT, MAX_SECONDS, AclDecl,
                             BalancerDecl, FaultDecl, FirewallDecl, HostDecl,
                             L3Decl, LinkDecl, LoopError, MasqDecl,
                             ParseError, ScenarioConfig, ScenarioError,
                             SwitchDecl, ValidationError,
                             VlanDecl, build_engine, build_spring8_legacy,
                             build_spring8_redundant, build_spring8_upgraded,
                             load_scenario, offered_packets, parse_scenario,
                             serialize_scenario, validate_scenario, QUADRANTS)
from netfab.verify import _run_digest

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

    @pytest.mark.parametrize("text, line", [
        ("[switch]\nname=sw1 ports=p1:access:10,p2:access:5000\n", 2),
        ("[switch]\nname=sw1 ports=t:trunk:10|0\n", 2),
        ("[l3]\nname=core\nnode=core vid=4095 ip=10.0.0.1/24 zone=dmz\n", 3),
    ])
    def test_vid_out_of_range_names_its_line(self, text, line):
        """The port and interface records check their own VIDs."""
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == line
        assert "vid must be in [1, 4094]" in err.value.reason

    def test_route_section_before_its_l3_switch(self):
        cfg = parse_scenario(
            "[route]\nnode=core prefix=10.9.0.0/16 via_vid=10\n\n"
            "[l3]\nname=core\nnode=core vid=10 ip=10.0.10.254/24 zone=dmz\n")
        validate_scenario(cfg)
        assert cfg.l3s["core"].routes == [
            Route(ip_addr("10.9.0.0"), 16, via_vid=10)]

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

    @pytest.mark.parametrize("traffic", [
        "kind=cbr src=h1 dst=h2 flow=f rate=12000000 start=0.0005 stop=0.2",
        "kind=cbr src=h1 dst=h2 flow=f rate=7777777 start=0.3",
        "kind=cbr src=h1 dst=h2 flow=f rate=7777777 start=0.3 stop=0.1",
        "kind=ping src=h1 dst=h2 flow=f count=3 start=0.5"])
    def test_offered_packets_are_what_the_engine_sends(self, traffic):
        """The count MAX_OFFERED_PACKETS bounds is exact for cbr and ping
        flows at any horizon: cbr sends before `stop`, pings up to
        `count`."""
        cfg = parse_scenario(MINIMAL.replace(
            "kind=ping src=h1 dst=h2 flow=p count=2", traffic))
        validate_scenario(cfg)
        eng = build_engine(cfg)
        for horizon in (0, 500, 250_000, 1_000_000, 2_500_000, 5_000_000):
            eng.run_until(horizon)
            assert (offered_packets(cfg, horizon)
                    == eng.metrics.flow("f").offered_packets)


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

    def test_lag_members_cabled_either_way_are_one_edge(self):
        """A bundle is one logical link whichever end each member's
        declaration names first (IEEE 802.1AX)."""
        text = """
[vlan]
vid=10 name=v10

[switch]
name=s1 ports=t1:trunk:10:g1,t2:trunk:10:g1
name=s2 ports=t1:trunk:10:g1,t2:trunk:10:g1

[link]
a=s1:t1 b=s2:t1 bw=1000000000
a=s2:t2 b=s1:t2 bw=1000000000
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


@settings(max_examples=300, deadline=2000)
@given(st.integers(0, 2**32 - 1), st.data())
def test_loop_check_matches_cycle_count(seed, data):
    """Extra inter-switch links on a random tree fabric and two new
    switches, some of them LAGs whose members are cabled either way round:
    a file whose LAG groups do not each join two switches is refused as
    such, and otherwise validation reports a loop exactly when some VID's
    links, a bundle counted once, close a cycle, and the loop it reports is
    a cycle of links that carry its VID."""
    cfg = random_topology(random.Random(seed))
    for name in ("y1", "y2"):
        cfg.switches[name] = SwitchDecl(name, {})
    names, vids = sorted(cfg.switches), sorted(cfg.vlans)
    for k in range(data.draw(st.integers(0, 4))):
        a, b = data.draw(st.lists(st.sampled_from(names), min_size=2,
                                  max_size=2))
        lags = data.draw(st.lists(st.sampled_from([None, "g1", "g2"]),
                                  min_size=2, max_size=2))
        allowed = data.draw(st.sets(st.sampled_from(vids), min_size=1))
        for m in range(data.draw(st.integers(1, 3))):  # members
            ends = []
            for name, lag in zip((a, b), lags):
                port = f"x{k}.{m}.{len(ends)}"
                cfg.switches[name].ports[port] = PortConfig(
                    "trunk", allowed=allowed, lag_group=lag)
                ends.append((name, port))
            if data.draw(st.booleans()):
                ends.reverse()
            cfg.links.append(LinkDecl(ends[0], ends[1], 100_000_000))
    if breaks_lag_rule(cfg):
        with pytest.raises(ValidationError):
            validate_scenario(cfg)
        return
    looped = looped_vids(cfg)
    if not looped:
        validate_scenario(cfg)
        return
    with pytest.raises(LoopError) as err:
        validate_scenario(cfg)
    vid, cycle = err.value.vid, err.value.cycle
    assert vid == min(looped) and len(set(cycle)) == len(cycle)
    edges = switch_links_on(cfg, vid)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        joining = [key for key, pair in edges.items() if {a, b} == set(pair)]
        # a two-switch cycle goes out on one logical link, back on another
        assert len(joining) >= (2 if len(cycle) == 2 else 1)


@st.composite
def small_fabrics(draw):
    """A file of 1-4 switches with access, trunk and LAG ports on VIDs 10
    and 20, 0-2 firewalls with one or two inline sides and 0-2 balancers,
    cabled at random: each LAG group joins one pair of switches and each
    link frames alike at both ends, so only the loop check can refuse it."""
    cfg = ScenarioConfig()
    for vid in (10, 20):
        cfg.vlans[vid] = VlanDecl(vid, f"v{vid}")
    switches = [f"s{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    for name in switches:
        cfg.switches[name] = SwitchDecl(name, {})
    free = []  # the firewall sides and balancer ports with no link yet
    for i in range(draw(st.integers(0, 2))):
        fw = FirewallDecl(f"fw{i}")
        modes = draw(st.sampled_from([("inline", "inline"),
                                      ("inline", "routed"),
                                      ("routed", "inline")]))
        fw.inside = FirewallSide(modes[0], None, 24, "dmz")
        fw.outside = FirewallSide(modes[1], None, 24, "public")
        cfg.firewalls[fw.name] = fw
        free += [(fw.name, "inside"), (fw.name, "outside")]
    for i in range(draw(st.integers(0, 2))):
        name = f"lb{i}"
        cfg.balancers[name] = BalancerDecl(name, ip_addr(f"10.0.0.{2 * i + 1}"),
                                           ip_addr(f"10.0.0.{2 * i + 2}"),
                                           ("x", "y"))
        free += [(name, "front"), (name, "x"), (name, "y")]
    vids = st.sets(st.sampled_from([10, 20]), min_size=1)

    def port(sw, spec):
        ports = cfg.switches[sw].ports
        pid = f"p{len(ports)}"
        ports[pid] = spec
        return sw, pid

    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["trunk", "access", "lag", "edge",
                                     "direct"]))
        a, b = draw(st.lists(st.sampled_from(switches), min_size=2,
                             max_size=2))
        if kind == "trunk":
            ends = (port(a, PortConfig("trunk", allowed=draw(vids))),
                    port(b, PortConfig("trunk", allowed=draw(vids))))
        elif kind == "access":
            vid = draw(st.sampled_from([10, 20]))
            ends = (port(a, PortConfig("access", vid=vid)),
                    port(b, PortConfig("access", vid=vid)))
        elif kind == "lag":
            if a == b:
                continue
            group = "-".join(sorted((a, b)))  # one bundle per switch pair
            allowed = draw(vids)
            ends = (port(a, PortConfig("trunk", allowed=allowed,
                                       lag_group=group)),
                    port(b, PortConfig("trunk", allowed=allowed,
                                       lag_group=group)))
        elif not free or (kind == "direct" and len(free) < 2):
            continue
        elif kind == "edge":
            far = free.pop(draw(st.integers(0, len(free) - 1)))
            vid = draw(st.sampled_from([10, 20]))
            ends = (port(a, PortConfig("access", vid=vid)), far)
        else:
            ends = (free.pop(draw(st.integers(0, len(free) - 1))),
                    free.pop(draw(st.integers(0, len(free) - 1))))
        cfg.links.append(LinkDecl(*ends, 10_000_000))
    return cfg


@settings(max_examples=150, deadline=5000)
@given(small_fabrics())
def test_loop_check_agrees_with_the_engine(cfg):
    """One broadcast ARP arrives at every cabled port, on each VID a trunk
    carries: a file the loop check accepts has no frame in flight 50 ms
    later, and one it refuses for a cycle with no balancer on it still has
    some. A balancer sends a broadcast from `front` down one path only,
    while the check counts each, so a cycle through one may not storm."""
    try:
        validate_scenario(cfg)
        loop = None
    except LoopError as exc:
        loop = exc
    eng = build_engine(cfg)
    arp = Arp("request", ip_addr("10.0.0.100"), node_mac("probe"),
              ip_addr("10.0.0.101"))
    for link in cfg.links:
        for node, pid in (link.a, link.b):
            spec = cfg.switches[node].ports[pid] if node in cfg.switches else None
            tags = spec.allowed if spec is not None and spec.allowed else (None,)
            for tag in sorted(tags, key=str):
                eng.send(node, pid, make_frame(node_mac(node), BROADCAST, arp,
                                               tag))
    eng.run_until(50_000)
    if loop is None:
        assert eng.residual_frames() == 0
    elif not set(loop.cycle) & set(cfg.balancers):
        assert eng.residual_frames() > 0, loop


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
        ("spring8-legacy", "3361c62ff29b41ca"),
        ("spring8-redundant", "6032515f41578733"),
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

    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_engine_leaves_declarations_untouched(self, name):
        """The engine shares cfg's port, interface, route, traffic and
        firewall side records, and each switch keeps its own ports dict. So
        building it and running it through a LAG member's failure and
        recovery must change no record, no ports dict and no serialized
        byte of cfg."""
        cfg = BUNDLED[name]()
        member = next((l.link_id for l in cfg.links if l.a[0] in cfg.switches
                       and cfg.switches[l.a[0]].ports[l.a[1]].lag_group), None)
        if member is not None:
            cfg.faults += [FaultDecl(1_000_000, "fail_link", member),
                           FaultDecl(2_000_000, "recover", member)]
        records = [*(p for sw in cfg.switches.values()
                     for p in sw.ports.values()),
                   *(r for l3 in cfg.l3s.values()
                     for r in (*l3.interfaces, *l3.routes)),
                   *cfg.traffic,
                   *(s for fw in cfg.firewalls.values()
                     for s in (fw.inside, fw.outside))]
        fields = [asdict(r) for r in records]
        ports = {n: [(p, id(r)) for p, r in sw.ports.items()]
                 for n, sw in cfg.switches.items()}
        before = serialize_scenario(cfg)

        def untouched():
            assert [asdict(r) for r in records] == fields
            for n, sw in cfg.switches.items():
                assert [(p, id(r)) for p, r in sw.ports.items()] == ports[n]
                own = eng.nodes[n].switch.ports
                assert own is not sw.ports
                assert all(own[p] is r for p, r in sw.ports.items())
            assert serialize_scenario(cfg) == before

        eng = build_engine(cfg)
        untouched()
        # each host queues its own copy of a flow declared by dst alone
        decl = next(t for t in cfg.traffic if t.flow_id == "mon-check")
        (gen,) = [e[4] for e in eng._heap if e[2] == "traffic"
                  and e[3] is eng.nodes[decl.src]
                  and e[4].flow_id == "mon-check"]
        assert decl.dst_ip is None  # declared by dst alone
        assert gen.dst_ip == cfg.hosts[decl.dst].ip
        # fault targets are checked against the declared ids, and injected
        # by the engine's: the two must be one set
        assert set(eng.links) == {l.link_id for l in cfg.links}
        eng.run_until(1_500_000)  # the member is down
        untouched()
        eng.run_until(cfg.duration_us)
        untouched()

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "mini.nf"
        path.write_text(MINIMAL)
        cfg = load_scenario(str(path))
        assert "sw1" in cfg.switches
        assert cfg.hosts["h2"].ip == ip_addr("10.0.10.2")
        assert cfg.hosts["h2"].vlan == 10
        assert (serialize_scenario(load_scenario("spring8-legacy"))
                == serialize_scenario(build_spring8_legacy()))


# -- parse(serialize(cfg)) == cfg for any config the format can express ------

WORDS = st.text("abcdefgh", min_size=1, max_size=4)
PORT_IDS = st.integers(0, 99) | WORDS
VIDS = st.integers(1, 4094)
IPS = st.integers(0, 2**32 - 1)
PREFIX_LENS = st.integers(0, 32)
ZONE_NAMES = st.sampled_from(ZONES)
TIMES_US = st.integers(0, MAX_SECONDS * 1_000_000)
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
    st.builds(PortConfig, st.just("access"), vid=VIDS,
              lag_group=maybe(WORDS))
    | st.builds(PortConfig, st.just("trunk"), lag_group=maybe(WORDS),
                allowed=st.frozensets(VIDS, min_size=1, max_size=3)))


@st.composite
def sides(draw):
    ip = draw(maybe(IPS))
    return FirewallSide(
        draw(st.sampled_from(("routed", "inline"))), ip,
        24 if ip is None else draw(PREFIX_LENS), draw(ZONE_NAMES),
        gw=draw(maybe(IPS)),
        routes=draw(st.lists(st.builds(
            lambda net, via: (*net, via), networks(), IPS), max_size=2)))


@st.composite
def flows(draw):
    dst, dst_ip = draw(st.sampled_from(((True, False), (False, True),
                                        (True, True))))
    return TrafficSpec(
        draw(st.sampled_from(("cbr", "bulk", "ping"))), draw(WORDS),
        draw(WORDS), dst=draw(WORDS) if dst else None,
        dst_ip=draw(IPS) if dst_ip else None, start_us=draw(TIMES_US),
        stop_us=draw(maybe(TIMES_US)), rate_bps=draw(COUNTS),
        total_bytes=draw(COUNTS), count=draw(COUNTS), src_port=draw(L4_PORTS),
        dst_port=draw(L4_PORTS))


# node names carry a per-kind prefix so they are unique across sections
CONFIGS = st.builds(
    ScenarioConfig,
    seed=st.integers(-2**63, 2**63 - 1),
    duration_us=TIMES_US,
    vlans=keyed(VIDS, lambda vid: st.builds(VlanDecl, st.just(vid), WORDS,
                                            maybe(networks()))),
    switches=keyed(WORDS.map("s".__add__), lambda name: st.builds(
        SwitchDecl, st.just(name),
        st.dictionaries(PORT_IDS, PORT_SPECS, max_size=3))),
    l3s=keyed(WORDS.map("r".__add__), lambda name: st.builds(
        L3Decl, st.just(name), in_file_order(st.builds(
            VlanInterface, VIDS, IPS, PREFIX_LENS, ZONE_NAMES,
            maybe(PORT_IDS)), attrgetter("vid")),
        in_file_order(st.builds(
            lambda net, via: Route(*net, **via), networks(),
            st.fixed_dictionaries({"via_vid": VIDS})
            | st.fixed_dictionaries({"gateway": IPS})),
            attrgetter("prefix_len", "prefix")))),
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
        assert list(cfg.vlans) == [1]  # the flat LAN carries no other VID
        assert {h.vlan for h in cfg.hosts.values()} <= {1, None}
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
                  for pid, p in sw.ports.items() if p.lag_group is not None]
        assert lagged
        bb_lags = {p.lag_group for p in cfg.switches["bb"].ports.values()
                   if p.lag_group is not None}
        assert len(bb_lags) == 4  # one bundle per aggregation switch

    def test_uncabled_lag_member_leaves_its_bundle(self):
        """With one member link of agg3's uplink bundle deleted, every
        quadrant-3 host still gets all 3 echo replies from bl01h2: flows
        hash only onto the member that is cabled (IEEE 802.1AX)."""
        cfg = build_spring8_redundant()
        links = len(cfg.links)
        cfg.links = [l for l in cfg.links if l.link_id != "agg3:up2-bb:a3y"]
        assert len(cfg.links) == links - 1
        hosts = [f"bl{b:02d}h{n}" for b in QUADRANTS[3] for n in range(1, 9)]
        cfg.traffic = [TrafficSpec("ping", h, h, dst="bl01h2", count=3)
                       for h in hosts]
        validate_scenario(cfg)
        eng = build_engine(cfg)
        eng.run_until(4_000_000)
        answered = [h for h in hosts if eng.nodes[h].ping_seen.get(h) == 3]
        assert len(answered) == len(hosts) == 112
        assert not [k for k in eng.metrics.drops if k[1] == "no-link"]

    def test_redundant_override_maps_each_firewall(self):
        cfg = build_spring8_redundant()
        for bal in cfg.balancers.values():
            assert set(bal.override.values()) == {"fw1", "fw2"}
            assert ip_addr("192.0.2.61") in bal.override


# A campus in miniature with a line of every kind: h1's cbr flow crosses
# the L3 switch to h2, h2's bulk flow the routed firewall fwr to o1, and
# h1's pings the balancer pair and inline fw1 to e1 and back.
EVERY_KEY = """
[engine]
seed=1 duration=2

[vlan]
vid=10 name=lab subnet=10.0.10.0/24
vid=20 name=ops subnet=10.0.20.0/24
vid=99 name=wan subnet=192.0.2.0/24

[switch]
name=edge ports=h1:access:10,h2:access:20,u1:trunk:10|20:g,u2:trunk:10|20:g
name=agg ports=d1:trunk:10|20:g,d2:trunk:10|20:g,r:trunk:10|20
name=pub ports=lb:access:99,e1:access:99

[l3]
name=core
node=core vid=10 ip=10.0.10.1/24 zone=public
node=core vid=20 ip=10.0.20.1/24 zone=clean
node=core vid=30 ip=172.16.0.1/30 zone=public port=fw
node=core vid=99 ip=192.0.2.1/24 zone=public port=wan

[firewall]
name=fwr inside=routed:172.16.0.2/30:public outside=routed:198.18.0.1/30:dmz cap=170000000 nat_capacity=1024 zones=off inside_gw=172.16.0.1 outside_gw=198.18.0.9
name=fw1 inside=inline::public outside=inline::dmz cap=170000000 nat_capacity=64 zones=off
name=fw2 inside=inline::public outside=inline::dmz cap=170000000 nat_capacity=64 zones=off

[balancer]
name=lbi ip=192.0.2.2 peer_ip=192.0.2.3 paths=fw1,fw2 override=192.0.2.61:fw1,192.0.2.62:fw2
name=lbo ip=192.0.2.3 peer_ip=192.0.2.2 paths=fw1,fw2 override=192.0.2.61:fw1,192.0.2.62:fw2

[host]
name=h1 ip=10.0.10.9/24 gw=10.0.10.1 vlan=10 group=lab
name=h2 ip=10.0.20.9/24 gw=10.0.20.1 vlan=20 group=ops
name=e1 ip=192.0.2.9/24 vlan=99 group=outside
name=o1 ip=198.18.0.9/24 group=outside

[link]
a=h1:0 b=edge:h1 bw=100000000
a=h2:0 b=edge:h2 bw=100000000
a=edge:u1 b=agg:d1 bw=1000000000
a=edge:u2 b=agg:d2 bw=1000000000
a=agg:r b=core:trunk bw=1000000000
a=core:fw b=fwr:inside bw=1000000000
a=fwr:outside b=o1:0 bw=1000000000
a=core:wan b=lbi:front bw=1000000000
a=lbi:fw1 b=fw1:inside bw=1000000000
a=lbi:fw2 b=fw2:inside bw=1000000000
a=fw1:outside b=lbo:fw1 bw=1000000000
a=fw2:outside b=lbo:fw2 bw=1000000000
a=lbo:front b=pub:lb bw=1000000000
a=e1:0 b=pub:e1 bw=1000000000

[route]
node=core prefix=0.0.0.0/0 gateway=172.16.0.2

[acl]
from=public to=clean verdict=permit

[masquerade]
node=fwr network=0.0.0.0/0 external=198.18.0.61
node=fw1 network=192.0.2.0/24 external=192.0.2.61
node=fw2 network=192.0.2.0/24 external=192.0.2.62

[traffic]
kind=cbr src=h1 dst=h2 flow=c start=0.1 stop=1.5 rate=200000 sport=5000 dport=6000
kind=bulk src=h2 dst=o1 flow=b start=0.2 total=30000 sport=40000 dport=5001
kind=ping src=h1 dst=e1 flow=p start=0.3 count=2

[fault]
at=1 action=fail_link target=edge:u1-agg:d1
"""

# the keys only the offline tools read: `status` and `verify` group hosts,
# and a VLAN's name is its label
READ_OFFLINE = {("host", "group"), ("vlan", "name")}
_TRAFFIC = {"kind": "bulk", "src": "h2", "dst": "o1", "dst_ip": "192.0.2.9",
            "flow": "x", "start": "0.25", "stop": "1", "rate": "400000",
            "total": "20000", "count": "1", "sport": "5001", "dport": "6001"}
_FIREWALL = {"name": "fwx", "inside": "routed:172.16.0.3/30:public",
             "outside": "inline::dmz", "cap": "100000", "nat_capacity": "0",
             "zones": "on", "inside_gw": "172.16.0.3",
             "inside_routes": "10.0.20.0/24:172.16.0.3",
             "outside_gw": "198.18.0.10",
             "outside_routes": "198.18.0.0/24:198.18.0.10"}
# a line of EVERY_KEY, by its start, -> a new value for each of its keys;
# the traffic and firewall lines stand for each kind of flow and side
KEY_EDITS = {
    "seed=1": {"seed": "3", "duration": "1.5"},
    "vid=10 ": {"vid": "11", "subnet": "10.0.11.0/24"},
    "name=edge ": {"name": "edge2", "ports": "h1:access:20,h2:access:20,"
                   "u1:trunk:10|20:g,u2:trunk:10|20:g"},
    "name=core": {"name": "core2"},
    "node=core vid=99 ": {"node": "core2", "vid": "10", "ip": "10.0.10.2/24",
                          "zone": "dmz", "port": "wan2"},
    "name=fwr ": _FIREWALL,
    "name=fw1 ": {**_FIREWALL, "inside": "routed:192.0.2.5/24:public",
                  "outside": "routed:192.0.2.6/24:dmz"},
    "name=lbo ": {"name": "lbx", "ip": "192.0.2.4", "peer_ip": "192.0.2.5",
                  "paths": "fw1,fw3",
                  "override": "192.0.2.61:fw2,192.0.2.62:fw1"},
    "name=h1 ": {"name": "h9", "ip": "10.0.10.8/24", "gw": "10.0.10.2",
                 "vlan": "20"},
    "a=h2:0 ": {"a": "h2:1", "b": "edge:h1", "bw": "10000000", "prop": "50",
                "queue": "1"},
    "node=core prefix": {"node": "core2", "prefix": "10.0.0.0/8",
                         "via_vid": "99", "gateway": "172.16.0.3"},
    "from=": {"from": "dmz", "to": "dmz", "verdict": "deny-new"},
    "node=fw1 ": {"node": "fw2", "network": "10.0.0.0/8",
                  "external": "192.0.2.63"},
    "kind=cbr": {**_TRAFFIC, "src": "h2"},
    "kind=bulk": {**_TRAFFIC, "kind": "cbr", "src": "h1", "dst": "e1"},
    "kind=ping": {**_TRAFFIC, "kind": "cbr", "src": "h2", "dst": "h2"},
    "at=": {"at": "1.2", "action": "fail_node",
            "target": "edge:u2-agg:d2"},
}


def _line_forms(text: str) -> dict:
    """Each declaration line of text -> (its section, its FORMAT form)."""
    forms, section = {}, None
    for line in filter(None, text.splitlines()):
        if line.startswith("["):
            section = line[1:-1]
            continue
        form = FORMAT[section]
        if form.child is not None and not line.startswith(
                f"{form.keys[0].name}="):
            form = form.child
        forms[line] = section, form
    return forms


def _with_key(text: str, start: str, key: str, value: str) -> str:
    """text with `key=value` set on its one line that begins with start."""
    [line] = [line for line in text.splitlines() if line.startswith(start)]
    kv = dict(tok.split("=", 1) for tok in line.split())
    kv[key] = value
    return text.replace(line, " ".join(f"{k}={v}" for k, v in kv.items()))


def _outcome(text: str) -> str:
    """The run digest of text, or "refused" when it does not validate."""
    try:
        cfg = parse_scenario(text)
        validate_scenario(cfg)
    except ScenarioError:
        return "refused"
    return _run_digest(cfg)


def test_key_edits_cover_every_key():
    """Each kind of declaration has a line in KEY_EDITS with an edit for
    each of its keys, bar those only the offline tools read."""
    forms = _line_forms(EVERY_KEY)
    covered = set()
    for start, edits in KEY_EDITS.items():
        [(section, form)] = [forms[line] for line in forms
                             if line.startswith(start)]
        keys = {key.name for key in form.keys} - {
            key for sec, key in READ_OFFLINE if sec == section}
        assert set(edits) == keys, start
        covered.add(id(form))
    every_form = [form for f in FORMAT.values()
                  for form in (f, f.child) if form is not None]
    assert covered == set(map(id, every_form))
    assert sum(len(form.keys) for form in every_form) == 63


@pytest.fixture(scope="module")
def every_key_digest():
    digest = _outcome(EVERY_KEY)
    assert digest != "refused"
    return digest


@pytest.mark.parametrize("start, key", [(start, key) for start in KEY_EDITS
                                        for key in KEY_EDITS[start]])
def test_every_key_changes_the_run_or_is_refused(every_key_digest, start,
                                                 key):
    """A key the engine ignores for its kind of line would leave the run as
    it was: changing it must change the run digest or fail validation."""
    edited = _with_key(EVERY_KEY, start, key, KEY_EDITS[start][key])
    assert edited != EVERY_KEY
    assert _outcome(edited) != every_key_digest
