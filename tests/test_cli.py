import os
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TraceLines
from netfab.cli import main
from netfab.l2 import Switch
from netfab.scenario import (BUNDLED, MAX_LINK_BW, MAX_OFFERED_PACKETS,
                             build_engine,
                             build_spring8_redundant, build_spring8_upgraded,
                             load_scenario, parse_scenario, serialize_scenario,
                             validate_scenario)
from test_acceptance import FIREWALL_RIG

MINI = """
[engine]
seed=1 duration=3

[vlan]
vid=10 name=lab

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


def write_mini(tmp_path):
    path = tmp_path / "mini.nf"
    path.write_text(MINI)
    return str(path)


def test_scenarios_lists_bundled(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["spring8-legacy", "spring8-redundant", "spring8-upgraded"]


def test_run_writes_report_and_trace(tmp_path, capsys):
    mini = write_mini(tmp_path)
    trace = tmp_path / "t.log"
    report = tmp_path / "r.txt"
    assert main(["run", mini, "--trace", str(trace),
                 "--report", str(report)]) == 0
    rep = report.read_text()
    assert "frames_created=" in rep and "flow\t" in rep
    lines = trace.read_text().splitlines()
    assert lines and all(l.startswith("t=") and "\tev=" in l for l in lines)


@pytest.mark.parametrize("name", ["spring8-legacy", "spring8-redundant",
                                  "spring8-upgraded"])
def test_trace_file_matches_trace_text(name, tmp_path):
    trace = tmp_path / "t.log"
    assert main(["run", name, "--trace", str(trace),
                 "--report", os.devnull]) == 0
    cfg = load_scenario(name)
    lines = TraceLines()
    build_engine(cfg, trace=lines).run_until(cfg.duration_us)
    assert trace.read_bytes() == lines.text().encode()


def test_trace_to_stdout_precedes_report(tmp_path, capsys):
    assert main(["run", write_mini(tmp_path), "--trace", "-"]) == 0
    out = capsys.readouterr().out.splitlines()
    first_report = out.index(f"scenario={tmp_path / 'mini.nf'}")
    assert first_report > 0
    assert all(l.startswith("t=") for l in out[:first_report])
    assert not any(l.startswith("t=") for l in out[first_report:])


def test_traced_run_memory_is_flat(tmp_path):
    """Tracing the criterion-4 rig to a file: the trace streams, so doubling
    the horizon (past the first window's ramp) leaves the peak flat."""
    rig = tmp_path / "rig.nf"
    rig.write_text(FIREWALL_RIG.format(duration=60, total=1_000_000_000))

    def peak(until: str) -> int:
        tracemalloc.start()
        try:
            assert main(["run", str(rig), "--until", until, "--trace",
                         str(tmp_path / "t.log"),
                         "--report", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.01")  # first-call allocations
    short, long = peak("0.5"), peak("1")
    assert (tmp_path / "t.log").stat().st_size > 4_000_000
    assert long <= 1.2 * short


def test_run_report_to_stdout(tmp_path, capsys):
    assert main(["run", write_mini(tmp_path)]) == 0
    assert "drops_total=" in capsys.readouterr().out


def test_verify_exit_codes(capsys):
    assert main(["verify", "spring8-upgraded", "--invariant", "isolation"]) == 0
    assert "result=pass" in capsys.readouterr().out
    assert main(["verify", "spring8-legacy", "--invariant", "isolation"]) == 1
    assert "result=fail" in capsys.readouterr().out


ISOLATION_PROBE = """
[vlan]
vid=10 name=a
vid=20 name=b

[switch]
name=sw1 ports=p1:access:10,p2:access:20,t1:trunk:10|20

[host]
name=a1 ip=10.1.1.1/24 vlan=10 group=bl01
name=b1 ip=10.1.2.1/24 vlan=20 group=bl02

[link]
a=a1:0 b=sw1:p1 bw=100000000
"""


def test_isolation_probe_needs_an_access_port(tmp_path, capsys):
    """The probe plugs its rogue host in beside the first bl02 host; when
    that host is on no switch, the check fails (exit 1) rather than the
    program (exit 3)."""
    path = tmp_path / "probe.nf"
    path.write_text(ISOLATION_PROBE)
    assert main(["verify", str(path), "--invariant", "isolation"]) == 1
    out = capsys.readouterr().out
    assert "result=fail" in out
    assert "detail=bl02 probe host b1 is on no switch access port" in out


@pytest.mark.parametrize("b1_link", ["a=b1:0 b=sw1:t1 bw=100000000",
                                     "a=sw1:t1 b=b1:0 bw=100000000"])
def test_host_on_trunk_port_rejected(tmp_path, capsys, b1_link):
    """A trunk has no native VLAN, so it would drop every untagged frame
    the host sends, whichever end of the link names the host."""
    path = tmp_path / "probe.nf"
    path.write_text(ISOLATION_PROBE + b1_link + "\n")
    assert main(["verify", str(path), "--invariant", "isolation"]) == 2
    assert ("error: b1: sw1:t1 is a trunk port, which drops untagged frames"
            in capsys.readouterr().err)


ROUTED = """
[engine]
seed=1 duration=3

[l3]
name=core
node=core vid=10 ip=10.0.10.254/24 zone=dmz port=p
node=core vid=20 ip=10.0.20.254/24 zone=dmz port=r

[host]
name=h1 ip=10.0.10.1/24 gw=10.0.10.254 vlan=10
name=h2 ip=10.0.20.1/24 gw=10.0.20.254 vlan=20

[link]
a=h1:0 b=core:p bw=100000000
a=h2:0 b=core:r bw=100000000

[traffic]
kind=ping src=h1 dst=h2 flow=p count=2
"""


@pytest.mark.parametrize("h1_link", ["a=h1:0 b=core:trunk bw=100000000",
                                     "a=core:trunk b=h1:0 bw=100000000"])
def test_host_on_l3_trunk_port_rejected(tmp_path, capsys, h1_link):
    """An L3 switch's `trunk` takes tagged frames only, so it would drop
    every untagged frame the host sends, whichever end names the host."""
    path = tmp_path / "routed.nf"
    path.write_text(ROUTED.replace(
        "node=core vid=10 ip=10.0.10.254/24 zone=dmz port=p",
        "node=core vid=10 ip=10.0.10.254/24 zone=dmz").replace(
        "a=h1:0 b=core:p bw=100000000", h1_link))
    assert main(["run", str(path)]) == 2
    assert ("error: h1: core:trunk is a trunk port, which drops untagged "
            "frames" in capsys.readouterr().err)


@pytest.mark.parametrize("old, new, error", [
    ("", "", None),
    ("gw=10.0.20.254 vlan=20", "gw=10.0.10.254", None),
    ("gw=10.0.20.254 vlan=20", "gw=10.0.10.254 vlan=20",
     "h2: gateway 10.0.10.254 is not an L3 interface on vlan 20 or a "
     "firewall side"),
    ("gw=10.0.20.254 vlan=20", "gw=10.0.20.253 vlan=20",
     "h2: gateway 10.0.20.253 is not an L3 interface on vlan 20 or a "
     "firewall side"),
    ("gw=10.0.20.254 vlan=20", "gw=10.0.20.253",
     "h2: gateway 10.0.20.253 is not an L3 interface or a firewall side"),
])
def test_host_gateway_must_be_a_router(tmp_path, capsys, old, new, error):
    """A host's gateway is an L3 interface on its VLAN (or, without a
    VLAN, any L3 interface or firewall side)."""
    path = tmp_path / "routed.nf"
    path.write_text(ROUTED.replace(old, new))
    if error is None:
        assert main(["run", str(path)]) == 0
        assert "host_delivered=2\n" in capsys.readouterr().out
        return
    assert main(["run", str(path)]) == 2
    assert f"error: {error}" in capsys.readouterr().err


def test_host_gateway_firewall_side_in_its_vlan_subnet(tmp_path, capsys):
    """A firewall side is a gateway only for the VLAN whose declared subnet
    holds its address: the rig's inside address is no gateway for h2."""
    path = tmp_path / "rig.nf"
    text = FIREWALL_RIG.format(duration=3, total=1_000_000)
    assert "gw=198.18.0.1 vlan=20" in text
    path.write_text(text.replace("gw=198.18.0.1 vlan=20",
                                 "gw=10.0.0.1 vlan=20"))
    assert main(["run", str(path)]) == 2
    assert ("error: h2: gateway 10.0.0.1 is not an L3 interface on vlan 20 "
            "or a firewall side in 198.18.0.0/24") in capsys.readouterr().err


@pytest.mark.parametrize("key", ["outside_peer=h2", "inside_peer=h1"])
def test_firewall_peer_without_effect_rejected(tmp_path, capsys, key):
    """A firewall learns its inside router from the packets it forwards,
    so the old peer keys are no longer part of the format."""
    path = tmp_path / "rig.nf"
    text = FIREWALL_RIG.format(duration=3, total=1_000_000)
    path.write_text(text.replace("zones=on", f"zones=on {key}"))
    assert main(["run", str(path)]) == 2
    name = key.partition("=")[0]
    assert f": unknown key {name!r}\n" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "inside_gw=192.0.2.1", "inside_routes=10.0.0.0/8:192.0.2.1",
    "outside_gw=192.0.2.9", "outside_routes=198.51.100.0/24:192.0.2.9"])
def test_inline_side_gateway_and_routes_rejected(tmp_path, capsys, key):
    """An inline side passes each frame on to the MAC it was sent to, or to
    the router its inside learned, so it never looks up a next hop."""
    path = tmp_path / "redundant.nf"
    text = serialize_scenario(build_spring8_redundant())
    line = "name=fw1 inside=inline::dmz outside=inline::public"
    assert line in text
    path.write_text(text.replace(line, f"{line} {key}"))
    assert main(["run", str(path)]) == 2
    name = key.partition("=")[0]
    assert (f"error: fw1: {name} has no effect on an inline side\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("route, error", [
    # r1 already routes this prefix via 10.0.1.2
    ("node=r1 prefix=10.18.1.0/24 gateway=10.0.1.3",
     "route 10.18.1.0/24 never takes effect: vid 1 already routes it"),
    # r1's own connected subnet on vid 3
    ("node=r1 prefix=10.2.1.0/24 gateway=10.0.1.3",
     "route 10.2.1.0/24 never takes effect: vid 3 already routes it"),
], ids=["earlier-route", "connected-subnet"])
def test_route_that_never_takes_effect_rejected(tmp_path, capsys, route,
                                                error):
    """A router keeps the first entry for a prefix, so a second route to
    it, or a route to a connected subnet, would never be used."""
    path = tmp_path / "upgraded.nf"
    text = serialize_scenario(build_spring8_upgraded())
    line = "node=r1 prefix=10.18.1.0/24 gateway=10.0.1.2"
    assert line in text
    path.write_text(text.replace(line, f"{line}\n{route}"))
    assert main(["run", str(path)]) == 2
    assert f"error: r1: {error}\n" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, error", [
    ("zones=on", "zones=on inside_routes=10.0.0.0/24:10.0.0.2",
     "fw: inside_routes 10.0.0.0/24 never takes effect: the inside subnet "
     "already routes it"),
    ("zones=on", "zones=on inside_routes=10.8.0.0/16:10.0.0.2,"
     "10.8.0.0/16:10.0.0.3",
     "fw: inside_routes 10.8.0.0/16 never takes effect: an earlier "
     "inside_routes entry already routes it"),
    ("zones=on", "zones=on outside_gw=198.18.0.2 "
     "outside_routes=0.0.0.0/0:198.18.0.3",
     "fw: outside_gw never takes effect: an earlier outside_routes entry "
     "already routes it"),
    ("external=198.18.0.61", "external=198.18.0.61\n"
     "node=fw network=0.0.0.0/0 external=198.18.0.62",
     "fw: masquerade 0.0.0.0/0 never takes effect: an earlier line already "
     "scopes it"),
], ids=["side-subnet", "earlier-route", "gw-beside-default", "masquerade"])
def test_firewall_line_that_never_takes_effect_rejected(tmp_path, capsys,
                                                        old, new, error):
    """A side's next hops and the NAT scopes each keep the first entry for
    a prefix, so a route to the side's own subnet or to a prefix an earlier
    route gives, a gateway beside a default route, and a second scope for
    one network would never be used."""
    path = tmp_path / "rig.nf"
    text = FIREWALL_RIG.format(duration=3, total=1_000_000)
    assert old in text
    path.write_text(text.replace(old, new))
    assert main(["run", str(path)]) == 2
    assert f"error: {error}\n" in capsys.readouterr().err


def test_second_acl_for_a_zone_pair_rejected(tmp_path, capsys):
    """Zone policy keeps one verdict per zone pair, so of two `[acl]` lines
    for a pair only the last would take effect."""
    acl = "\n[acl]\nfrom=dmz to=clean verdict=permit\n"
    validate_scenario(parse_scenario(MINI + acl))
    path = tmp_path / "mini.nf"
    path.write_text(MINI + acl + "from=dmz to=clean verdict=deny-new\n")
    assert main(["run", str(path)]) == 2
    assert ("error: acl: from=dmz to=clean is declared twice\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("traffic, error", [
    ("kind=ping src=h1 dst=h2 flow=p count=5 stop=1",
     "stop has no effect on a ping flow"),
    ("kind=bulk src=h1 dst=h2 flow=p total=1000 stop=0.001",
     "stop has no effect on a bulk flow"),
    ("kind=bulk src=h1 dst=h2 flow=p total=1000 rate=5",
     "rate has no effect on a bulk flow"),
    ("kind=cbr src=h1 dst=h2 flow=p rate=100000 total=1000",
     "total has no effect on a cbr flow"),
    ("kind=cbr src=h1 dst=h2 flow=p rate=100000 count=2",
     "count has no effect on a cbr flow"),
    ("kind=ping src=h1 dst=h2 flow=p count=2 sport=7",
     "sport has no effect on a ping flow"),
    ("kind=ping src=h1 dst=h2 flow=p count=2 dport=7",
     "dport has no effect on a ping flow"),
    ("kind=ping src=h1 dst=h2 dst_ip=10.0.10.2 flow=p count=2",
     "dst has no effect beside dst_ip"),
])
def test_traffic_keys_the_flow_kind_ignores_rejected(tmp_path, capsys,
                                                     traffic, error):
    """The engine reads `stop` and `rate` only for cbr, `total` only for
    bulk, `count` only for ping, no port for ping, and `dst_ip` before
    `dst`, so a key it would ignore is refused."""
    path = tmp_path / "mini.nf"
    path.write_text(MINI.replace("kind=ping src=h1 dst=h2 flow=p count=2",
                                 traffic))
    assert main(["run", str(path)]) == 2
    assert f"error: p: {error}\n" in capsys.readouterr().err


BALANCER_LOOP = """
[engine]
seed=1 duration=0.1

[vlan]
vid=10 name=v10

[switch]
name=sw ports=h:access:10,f:access:10,x:access:10

[balancer]
name=lb ip=10.0.10.2 peer_ip=10.0.10.3 paths=x,y

[host]
name=h1 ip=10.0.10.1/24 vlan=10

[link]
a=h1:0 b=sw:h bw=100000000
a=lb:front b=sw:f bw=100000000
a=lb:x b=sw:x bw=100000000

[traffic]
kind=ping src=h1 dst_ip=10.0.10.99 flow=p count=1
"""


def test_balancer_front_and_path_on_one_vlan_rejected(tmp_path, capsys):
    """A balancer passes a broadcast from `front` to a path and a frame from
    a path back to `front`, so both on one VLAN of sw circle for ever (29,999
    frames in 0.1 s before the check)."""
    path = tmp_path / "loop.nf"
    path.write_text(BALANCER_LOOP)
    assert main(["run", str(path)]) == 2
    assert "error: vlan 10 forms a loop: lb - sw\n" in capsys.readouterr().err


# two balancers cabled path to front both ways: no switch, no VLAN
BALANCER_RING = (
    BALANCER_LOOP.replace("h:access:10,f:access:10,x:access:10", "h:access:10")
    .replace("name=lb ip=10.0.10.2 peer_ip=10.0.10.3 paths=x,y",
             "name=la ip=10.0.10.2 peer_ip=10.0.10.3 paths=x,y\n"
             "name=lb ip=10.0.10.4 peer_ip=10.0.10.5 paths=x,y")
    .replace("a=lb:front b=sw:f bw=100000000\na=lb:x b=sw:x bw=100000000",
             "a=la:x b=lb:front bw=100000000\n"
             "a=lb:x b=la:front bw=100000000"))


@pytest.mark.parametrize("text, error", [
    (BALANCER_RING, "balancers form a loop: la - lb"),
    # an inline firewall in place of lb
    (BALANCER_RING.replace("name=lb ip=10.0.10.4 peer_ip=10.0.10.5 "
                           "paths=x,y\n", "")
     .replace("[host]", "[firewall]\nname=fw inside=inline::dmz "
              "outside=inline::public\n\n[host]")
     .replace("b=lb:front", "b=fw:inside").replace("a=lb:x", "a=fw:outside"),
     "balancers and inline firewalls form a loop: la - fw"),
], ids=["balancers", "balancer-and-firewall"])
def test_loop_that_crosses_no_vlan_named_by_its_nodes(tmp_path, capsys, text,
                                                      error):
    """A loop on no VLAN is worded by the kinds of node in it, not always
    as one of inline firewalls."""
    path = tmp_path / "ring.nf"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"error: {error}\n" in capsys.readouterr().err


def test_switch_before_a_balancers_front_accepted(tmp_path, capsys):
    """A switch between l3r:wan and lbi:front puts `front` in a domain none
    of lbi's paths reaches, so spring8-redundant stays loop-free."""
    path = tmp_path / "sandwich.nf"
    text = serialize_scenario(build_spring8_redundant())
    link = "a=l3r:wan b=lbi:front bw=1000000000"
    assert link in text
    path.write_text(text.replace(link, (
        "a=l3r:wan b=wsw:r bw=1000000000\n"
        "a=lbi:front b=wsw:f bw=1000000000")).replace(
        "[firewall]", "[switch]\nname=wsw ports=f:access:99,r:access:99\n\n"
        "[firewall]").replace("[vlan]\n", "[vlan]\nvid=99 name=wan\n"))
    assert main(["run", str(path), "--until", "1"]) == 0
    [row] = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("daq\t")]
    assert row.endswith("\t10000000\t0.830055")  # 0.830027 without wsw


def test_ring_of_two_balancers_rejected(tmp_path, capsys):
    """A frame from wsw into lbi:front leaves on a path, crosses fw1 to lbo,
    leaves lbo:front and reaches wsw again: 50,073 frames by 0.1 s before
    the check, against 9,327 for spring8-redundant itself."""
    path = tmp_path / "ring.nf"
    text = serialize_scenario(build_spring8_redundant())
    links = ("a=l3r:wan b=lbi:front bw=1000000000\n",
             "a=lbo:front b=psw:lb bw=1000000000\n")
    assert all(link in text for link in links)
    path.write_text(text.replace(links[0], (
        "a=l3r:wan b=wsw:r bw=1000000000\n"
        "a=lbi:front b=wsw:i bw=1000000000\n"
        "a=lbo:front b=wsw:o bw=1000000000\n")).replace(links[1], "").replace(
        "[firewall]", "[switch]\nname=wsw ports=i:access:99,o:access:99,"
        "r:access:99\n\n[firewall]").replace("[vlan]\n",
                                             "[vlan]\nvid=99 name=wan\n"))
    assert main(["run", str(path)]) == 2
    assert ("error: vlan 99 forms a loop: lbi - fw1 - lbo - wsw\n"
            in capsys.readouterr().err)


LBI = ("name=lbi ip=192.0.2.2 peer_ip=192.0.2.3 paths=fw1,fw2 "
       "override=192.0.2.61:fw1,192.0.2.62:fw2")


@pytest.mark.parametrize("line, link, error", [
    # no link names the second path, so the file would run with one path
    ("name=lbi ip=192.0.2.2 peer_ip=192.0.2.3 paths=fw1,fw1 "
     "override=192.0.2.61:fw1", "a=lbi:fw2 b=fw2:inside bw=1000000000\n",
     "lbi: balancer needs exactly two distinct paths"),
    # the second entry would silently replace the first
    (LBI.replace("192.0.2.62:fw2", "192.0.2.61:fw2"), "",
     "override: duplicate override address '192.0.2.61'"),
], ids=["paths", "override"])
def test_balancer_line_naming_one_thing_twice_rejected(tmp_path, capsys,
                                                       line, link, error):
    path = tmp_path / "redundant.nf"
    text = serialize_scenario(build_spring8_redundant())
    assert LBI in text and link in text
    path.write_text(text.replace(LBI, line).replace(link, ""))
    assert main(["run", str(path)]) == 2
    assert error in capsys.readouterr().err


def test_numbered_and_named_ports_on_one_switch_run(tmp_path, capsys):
    """A switch whose ports are `1` and `up` floods the first ARP request
    in port order, and the ping across it completes."""
    path = tmp_path / "mixed.nf"
    path.write_text(MINI.replace("p1:access:10,p2:access:10",
                                 "1:access:10,up:access:10")
                    .replace("sw1:p1", "sw1:1").replace("sw1:p2", "sw1:up"))
    assert main(["run", str(path)]) == 0
    assert "\np\t192\t192\t112\t1.000056\n" in capsys.readouterr().out


def test_nat_bijection_remote_inside_scope(tmp_path, capsys):
    """The synthetic flows' remote comes from the masquerade scope's own
    network, not from its external address, which may lie outside it."""
    path = tmp_path / "rig.nf"
    path.write_text(FIREWALL_RIG.format(duration=3, total=1_000_000).replace(
        "network=0.0.0.0/0", "network=203.0.113.0/24"))
    assert main(["verify", str(path), "--invariant", "nat-bijection"]) == 0
    assert ("detail=64 flows, 64 distinct outside tuples, 64 correct "
            "reversals") in capsys.readouterr().out


def test_failover_with_renamed_firewalls(tmp_path, capsys):
    path = tmp_path / "renamed.nf"
    text = serialize_scenario(build_spring8_redundant())
    path.write_text(text.replace("fw1", "fwa").replace("fw2", "fwb"))
    assert main(["verify", str(path), "--invariant", "failover"]) == 0
    assert ("detail=switchover in 3.0s; post-failover transfer completed at "
            "15.087s") in capsys.readouterr().out


def test_failover_needs_two_bl01_hosts(tmp_path, capsys):
    path = tmp_path / "one-host.nf"
    text = serialize_scenario(build_spring8_redundant())
    path.write_text("\n".join(line for line in text.splitlines()
                              if not re.search(r"\bbl01h[2-8]\b", line)))
    assert main(["verify", str(path), "--invariant", "failover"]) == 1
    out = capsys.readouterr().out
    assert "result=fail" in out
    assert "detail=scenario lacks probe traffic endpoints" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nf"
    bad.write_text("[switch]\nwhat\n")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, error", [
    ("bw=100000000\na=h2", "bw=x\na=h2", "line 16: bw: expected an integer, "
                                         "got 'x'"),
    ("p2:access:10", "p2:access:1O", "line 9: ports: expected an integer, "
                                     "got '1O'"),
    ("p2:access:10", "p2:trunk:10|x", "line 9: ports: expected an integer, "
                                      "got 'x'"),
    ("vid=10", "vid=ten", "line 6: vid: expected an integer, got 'ten'"),
    ("count=2", "count=2.0", "line 20: count: expected an integer, "
                             "got '2.0'"),
], ids=["bw", "access-vid", "trunk-vid", "vid", "count"])
def test_integer_parse_error_names_the_expected_form(tmp_path, capsys, old,
                                                     new, error):
    """Every integer in a scenario file is read by one reader, whose error
    names the form it expects rather than passing int()'s message on."""
    bad = tmp_path / "bad.nf"
    bad.write_text(MINI.replace(old, new, 1))
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("token, port", [("²", "²"), ("٣", 3)],
                         ids=["superscript-two", "arabic-indic-three"])
def test_port_token_is_a_number_exactly_when_int_reads_one(tmp_path, capsys,
                                                          token, port):
    """'²' is a digit that int() refuses, so it names a port as 'up' does;
    '٣' is a decimal digit, so it is port 3. Either runs, and parse inverts
    serialize on it."""
    text = MINI.replace("p2", token)
    path = tmp_path / "ports.nf"
    path.write_text(text)
    assert main(["run", str(path), "--report", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    cfg = parse_scenario(text)
    assert port in cfg.switches["sw1"].ports
    assert cfg.links[1].b == ("sw1", port)
    assert parse_scenario(serialize_scenario(cfg)) == cfg


def test_link_faster_than_the_bound_rejected(tmp_path, capsys):
    """A link may run at MAX_LINK_BW and no faster: beyond it a frame would
    serialize in less than 1 ns."""
    for bw, code in ((MAX_LINK_BW, 0), (MAX_LINK_BW + 1, 2), (10**30, 2)):
        path = tmp_path / "fast.nf"
        path.write_text(MINI.replace("bw=100000000\na=h2",
                                     f"bw={bw} prop=0\na=h2"))
        assert main(["run", str(path), "--report", os.devnull]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"error: h1:0-sw1:p1: bw must be at most "
                       f"{MAX_LINK_BW} bps\n")


def test_inject_emits_derived_scenario(tmp_path, capsys):
    mini = write_mini(tmp_path)
    assert main(["inject", mini, "--at", "1", "--action", "fail_node",
                 "--target", "sw1"]) == 0
    out = capsys.readouterr().out
    assert "[fault]" in out and "target=sw1" in out
    derived = tmp_path / "derived.nf"
    derived.write_text(out)
    assert main(["run", str(derived)]) == 0


def test_inject_unknown_target(tmp_path, capsys):
    mini = write_mini(tmp_path)
    assert main(["inject", mini, "--at", "1", "--action", "fail_node",
                 "--target", "nope"]) == 2


def test_status_reports_nodes(tmp_path, capsys):
    mini = write_mini(tmp_path)
    assert main(["status", mini, "--at", "1", "--node", "sw1"]) == 0
    out = capsys.readouterr().out
    assert "node=sw1" in out and "kind=switch" in out


@pytest.mark.parametrize("old, new", [
    ("kind=ping src=h1 dst=h2 flow=p count=2", "kind=cbr src=h1 dst=h2 flow=c"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=cbr src=h1 dst=h2 flow=c rate=0"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=cbr src=h1 dst=h2 flow=c rate=12000000001"),
    ("a=h2:0 b=sw1:p2 bw=100000000", "a=h2:0 b=sw1:p2 bw=0"),
    # one value out of its range or form
    ("[vlan]\nvid=10 name=lab\n\n[switch]\nname=sw1 ports=p1:access:10,",
     "[switch]\nname=sw1 ports=p1:access:5000,"),
    ("name=h1 ip=10.0.10.1/24", "name=h1 ip=10.0.10.1/40"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=5000 ip=10.0.10.254/24 zone=dmz\n\n[traffic]"),
    ("seed=1 duration=3", "seed=1 duration=-1"),
    ("flow=p count=2", "flow=p count=2 start=-1"),
    ("seed=1 duration=3", "seed=9223372036854775808 duration=3"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=ping src=h1 dst=h2 flow=p count=2 sport=70000"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=cbr src=h1 dst=h2 flow=c rate=1000000 dport=65536"),
    ("a=h2:0 b=sw1:p2 bw=100000000", "a=h2:0 b=sw1:p2 bw=100000000 prop=-1"),
    ("a=h2:0 b=sw1:p2 bw=100000000", "a=h2:0 b=sw1:p2 bw=100000000 queue=0"),
    ("[traffic]", "[firewall]\nname=fw1 inside=routed:10.0.10.254/24:dmz "
     "outside=routed:198.18.0.1/24:public zones=yes\n\n[traffic]"),
    ("vid=10 name=lab", "vid=10 name="),
    # declarations that do not fit together
    ("flow=p count=2", "flow=p count=0"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=bulk src=h1 dst=h2 flow=b total=0"),
    ("[traffic]", "[fault]\nat=1 action=fail_link target=sw1\n\n[traffic]"),
    ("[traffic]",
     "[fault]\nat=1 action=fail_node target=h1:0-sw1:p1\n\n[traffic]"),
    ("kind=ping src=h1 dst=h2 flow=p count=2",
     "kind=ping src=h1 dst=h2 flow=p count=2\n"
     "kind=ping src=h2 dst=h1 flow=p count=3"),
    # an L3 switch whose interfaces or routes conflict
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz\n"
     "node=core vid=10 ip=10.0.20.254/24 zone=dmz\n\n[traffic]"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz\n"
     "node=core vid=20 ip=10.0.0.254/16 zone=dmz\n\n[traffic]"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz\n\n"
     "[route]\nnode=core prefix=10.9.0.0/16 via_vid=20\n\n[traffic]"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz\n\n"
     "[route]\nnode=core prefix=10.9.0.0/16 gateway=10.0.20.1\n\n[traffic]"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz\n\n"
     "[route]\nnode=core prefix=10.9.0.0/16\n\n[traffic]"),
    ("[traffic]", "[route]\nnode=sw1 prefix=10.9.0.0/16 via_vid=10\n\n"
     "[traffic]"),
    # an L3 interface the engine would send on the wrong port: the tagged
    # trunk, or an untagged port that already carries another VLAN
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz port=trunk\n\n[traffic]"),
    ("[traffic]", "[l3]\nname=core\n"
     "node=core vid=10 ip=10.0.10.254/24 zone=dmz port=r\n"
     "node=core vid=20 ip=10.0.20.254/24 zone=dmz port=r\n\n[traffic]"),
])
def test_run_rejects_unrunnable_input(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.nf"
    bad.write_text(MINI.replace(old, new))
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_host_vlan_not_on_its_port_rejected(tmp_path, capsys):
    """h2 declares VID 20, which is declared but not what its access port
    carries, so it could never reach a VID 20 peer."""
    bad = tmp_path / "bad.nf"
    bad.write_text(MINI.replace("vid=10 name=lab",
                                "vid=10 name=lab\nvid=20 name=office")
                   .replace("10.0.10.2/24 vlan=10", "10.0.10.2/24 vlan=20"))
    assert main(["run", str(bad)]) == 2
    assert "h2: vlan 20 is not carried by sw1:p2" in capsys.readouterr().err


def test_host_outside_its_vlan_subnet_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.nf"
    bad.write_text(MINI.replace("vid=10 name=lab",
                                "vid=10 name=lab subnet=10.0.10.0/25")
                   .replace("10.0.10.2/24", "10.0.10.200/24"))
    assert main(["run", str(bad)]) == 2
    assert ("h2: 10.0.10.200 is outside vlan 10's subnet 10.0.10.0/25"
            in capsys.readouterr().err)


LAG_PROBE = """
[vlan]
vid=10 name=flat

[switch]
name=sw1 ports=p1:access:10,u1:access:10:g,u2:access:10:g
name=sw2 ports=p1:access:10,u1:access:10:g,u2:access:10:g

[host]
name=a1 ip=10.0.10.11/24 vlan=10 group=bl01
name=b1 ip=10.0.10.21/24 vlan=10 group=bl02

[link]
a=a1:0 b=sw1:p1 bw=100000000
a=b1:0 b=sw2:p1 bw=100000000
a=sw1:u1 b=sw2:u1 bw=1000000000

[traffic]
kind=ping src=b1 dst=a1 flow=p count=3
"""


def test_isolation_probe_leaves_out_an_uncabled_lag_member(tmp_path, capsys):
    """One flat VLAN over a bundle with one member cabled: the engine sends
    on that member only (IEEE 802.1AX), so the bl02 host's pings are all
    answered, and the isolation probe, which floods on the same rule, must
    find bl01 reachable too."""
    path = tmp_path / "lag.nf"
    path.write_text(LAG_PROBE)
    assert main(["run", str(path)]) == 0
    assert "host_delivered=3\n" in capsys.readouterr().out
    assert main(["verify", str(path), "--invariant", "isolation"]) == 1
    out = capsys.readouterr().out
    assert "result=fail" in out and "reached a1" in out


SPLIT_LAG = """
[vlan]
vid=10 name=v10

[switch]
name=s1 ports=h:access:10,u1:access:10:g1,u2:access:10:g1
name=s2 ports=h:access:10,u:access:10:g1
name=s3 ports=h:access:10,u:access:10:g1

[host]
name=h1 ip=10.0.10.1/24 vlan=10
name=h2 ip=10.0.10.2/24 vlan=10
name=h3 ip=10.0.10.3/24 vlan=10

[link]
a=h1:0 b=s1:h bw=100000000
a=h2:0 b=s2:h bw=100000000
a=h3:0 b=s3:h bw=100000000
a=s1:u1 b=s2:u bw=100000000
a=s1:u2 b=s3:u bw=100000000

[traffic]
kind=ping src=h1 dst=h2 flow=p2 count=3
kind=ping src=h1 dst=h3 flow=p3 count=3
"""


@pytest.mark.parametrize("text, error", [
    # s1 hashes each flow onto one member, so a ping to the host behind the
    # other switch is lost (both flows at seed 1, without the check)
    (SPLIT_LAG, "s1:u2: lag g1 faces lag g1 of s3 and lag g1 of s2, but a "
                "lag joins two switches"),
    (SPLIT_LAG.replace("u:access:10:g1\nname=s3", "u:access:10\nname=s3")
     .replace("a=s1:u2 b=s3:u bw=100000000\n", ""),
     "s1:u1: lag g1 member faces s2:u, which is no lag member of another "
     "switch"),
    (SPLIT_LAG.replace("a=s1:u1 b=s2:u bw=100000000\n"
                       "a=s1:u2 b=s3:u bw=100000000",
                       "a=s1:u1 b=s1:u2 bw=100000000"),
     "s1:u1: lag g1 member faces s1:u2, which is no lag member of another "
     "switch"),
], ids=["split-over-two-switches", "member-facing-a-plain-port",
        "cabled-to-itself"])
def test_lag_that_joins_other_than_two_switches_rejected(tmp_path, capsys,
                                                         text, error):
    """Every cabled member of a switch's LAG group faces a LAG member of
    one group on one other switch (IEEE 802.1AX)."""
    path = tmp_path / "lag.nf"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"error: {error}\n" in capsys.readouterr().err


LAG_PAIR = """
[engine]
seed=1 duration=1

[vlan]
vid=10 name=lab

[switch]
name=s1 ports=h:access:10,u1:trunk:10:g,u2:trunk:10:g
name=s2 ports=h:access:10,u1:trunk:10:g,u2:trunk:10:g

[host]
name=a ip=10.0.10.1/24 vlan=10
name=b ip=10.0.10.2/24 vlan=10

[link]
a=a:0 b=s1:h bw=100000000
a=b:0 b=s2:h bw=100000000
a=s1:u1 b=s2:u1 bw=1000000000
a=s1:u2 b=s2:u2 bw=1000000000

[traffic]
kind=cbr src=a dst=b flow=ab rate=1000000 sport=1000 dport=5001 stop=0.5
kind=cbr src=b dst=a flow=ba rate=1000000 sport=2000 dport=5001 stop=0.5
"""


def test_lag_between_two_switches_carries_both_directions(tmp_path, capsys,
                                                           monkeypatch):
    """Two switches joined by a two-member LAG, a station behind each, and
    a cbr flow each way whose key hashes onto the other member: every flow
    delivers all it offered and no frame drops."""
    flows = {1000: "ab", 2000: "ba"}  # source port -> flow
    used = {}  # (switch, flow) -> the members its data frames left by
    ingress = Switch.ingress

    def watch(self, port, frame, now):
        out = ingress(self, port, frame, now)
        for egress, sent in out or ():
            flow = flows.get(getattr(sent.payload, "src_port", None))
            if flow is not None and egress in ("u1", "u2"):
                used.setdefault((self.name, flow), set()).add(egress)
        return out

    monkeypatch.setattr(Switch, "ingress", watch)
    path = tmp_path / "lag.nf"
    path.write_text(LAG_PAIR)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "drops_total=0\n" in out
    rows = [line.split("\t") for line in out.splitlines()
            if line.startswith(("ab\t", "ba\t"))]
    assert len(rows) == 2
    assert all(int(offered) == int(delivered) > 0
               for _, offered, delivered, *_ in rows)
    assert used == {("s1", "ab"): {"u1"}, ("s2", "ba"): {"u2"}}


TWO_SWITCHES = """
[engine]
seed=1 duration=0.1

[vlan]
vid=10 name=v10
vid=20 name=v20

[switch]
name=sw1 ports=h:access:10,a:access:10,c:access:10
name=sw2 ports=h:access:10,a:access:20,c:access:20

[host]
name=h1 ip=10.0.10.1/24 vlan=10
name=h2 ip=10.0.10.2/24 vlan=10

[link]
a=h1:0 b=sw1:h bw=100000000
a=h2:0 b=sw2:h bw=100000000
a=sw1:a b=sw2:a bw=100000000
a=sw1:c b=sw2:c bw=100000000

[traffic]
kind=ping src=h1 dst_ip=10.0.10.99 flow=p count=1
"""
INLINE_LOOP = """
[engine]
seed=1 duration=0.1

[vlan]
vid=10 name=v10

[switch]
name=sw1 ports=h:access:10,i:access:10,o:access:10

[firewall]
name=fw inside=inline::dmz outside=inline::public

[host]
name=h1 ip=10.0.10.1/24 vlan=10

[link]
a=h1:0 b=sw1:h bw=100000000
a=sw1:i b=fw:inside bw=100000000
a=fw:outside b=sw1:o bw=100000000

[traffic]
kind=ping src=h1 dst_ip=10.0.10.99 flow=p count=1
"""


@pytest.mark.parametrize("text, error", [
    # each access-access link bridges vlan 10 into vlan 20, so one ARP
    # would circle sw1 - sw2 - sw1 for ever
    (TWO_SWITCHES, "sw1: vlan 10 is not carried by sw2:a"),
    # an inline firewall passes a broadcast from one side to the other
    (INLINE_LOOP, "vlan 10 forms a loop: fw - sw1"),
    # two firewalls that each bridge vlan 10 on sw1 into vlan 20 on sw2
    (INLINE_LOOP.replace("name=sw1 ports=h:access:10,i:access:10,o:access:10",
                         "name=sw1 ports=h:access:10,i:access:10,j:access:10\n"
                         "name=sw2 ports=o:access:20,p:access:20")
     .replace("vid=10 name=v10", "vid=10 name=v10\nvid=20 name=v20")
     .replace("name=fw ", "name=fx inside=inline::dmz outside=inline::public\n"
              "name=fw ")
     .replace("a=fw:outside b=sw1:o bw=100000000",
              "a=fw:outside b=sw2:o bw=100000000\n"
              "a=sw1:j b=fx:inside bw=100000000\n"
              "a=fx:outside b=sw2:p bw=100000000"),
     "vlan 20 forms a loop: "),
    # two inline firewalls cabled into a ring of their own
    (INLINE_LOOP.replace("name=fw ", "name=fx inside=inline::dmz "
                         "outside=inline::public\nname=fw ")
     .replace("a=sw1:i b=fw:inside bw=100000000\n"
              "a=fw:outside b=sw1:o bw=100000000",
              "a=fx:outside b=fw:inside bw=100000000\n"
              "a=fw:outside b=fx:inside bw=100000000"),
     "inline firewalls form a loop: "),
    # an access port sends untagged frames, which a trunk drops
    (TWO_SWITCHES.replace("a:access:20,c:access:20", "a:trunk:10|20")
     .replace("a=sw1:c b=sw2:c bw=100000000\n", ""),
     "sw1: sw2:a is a trunk port, which drops untagged frames"),
], ids=["two-access-links", "inline-firewall", "firewalls-joining-two-vlans",
        "firewall-ring", "access-to-trunk"])
def test_links_the_vlan_model_cannot_see_rejected(tmp_path, capsys, text,
                                                  error):
    path = tmp_path / "bad.nf"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    assert f"error: {error}" in capsys.readouterr().err


def assert_rejects_line(tmp_path, capsys, text: str, bad_line: str):
    """`netfab run` exits 2 on text, naming the line that is bad_line."""
    lineno = text.splitlines().index(bad_line) + 1
    path = tmp_path / "bad.nf"
    path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {lineno}: ")
    assert "expected seconds in [0, 86400]" in err


def test_duration_over_a_day_rejected(tmp_path, capsys):
    bad = "seed=1 duration=86400.000001"
    assert_rejects_line(tmp_path, capsys,
                        MINI.replace("seed=1 duration=3", bad), bad)


def test_fault_time_over_a_day_rejected(tmp_path, capsys):
    bad = "at=1e9 action=fail_node target=sw1"
    text = MINI.replace("[traffic]", f"[fault]\n{bad}\n\n[traffic]")
    assert_rejects_line(tmp_path, capsys, text, bad)


def test_until_over_a_day_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", write_mini(tmp_path), "--until", "86401"])
    assert exc.value.code == 2
    assert "--until: expected seconds in [0, 86400], got '86401'" \
        in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def crash(*_args, **_kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("netfab.cli.build_engine", crash)
    assert main(["run", write_mini(tmp_path)]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


DAY_LONG = MINI.replace("seed=1 duration=3", "seed=1 duration=86400")
FAST_CBR = "kind=cbr src=h1 dst=h2 flow=c rate=12000000000"


def write_day_long(tmp_path, traffic: str) -> str:
    path = tmp_path / "day.nf"
    path.write_text(DAY_LONG.replace("kind=ping src=h1 dst=h2 flow=p count=2",
                                     traffic))
    return str(path)


@pytest.mark.parametrize("traffic", [
    FAST_CBR, "kind=bulk src=h1 dst=h2 flow=b total=1000000000000"])
def test_offered_packets_over_the_cap_rejected(tmp_path, capsys, traffic):
    """A file whose flows would offer more than MAX_OFFERED_PACKETS over its
    day-long run exits 2 naming the cap: `run` and `verify` to its duration,
    `status` at its end."""
    path = write_day_long(tmp_path, traffic)
    for argv in (["run", path], ["status", path, "--at", "86400"],
                 ["verify", path, "--invariant", "determinism"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: traffic: the flows offer ")
        assert f"over the cap of {MAX_OFFERED_PACKETS}" in err


def test_offered_packets_counted_to_the_horizon_asked(tmp_path, capsys):
    """A cbr flow's packets are counted to `--until` or `--at`, so the
    day-long file runs to a short horizon."""
    path = write_day_long(tmp_path, FAST_CBR)
    assert main(["run", path, "--until", "0.001", "--report", os.devnull]) == 0
    assert main(["status", path, "--at", "0.001"]) == 0
    assert "error" not in capsys.readouterr().err


_SERIALIZED = {name: tuple(serialize_scenario(build()).splitlines())
               for name, build in BUNDLED.items()}
FUZZ_VALUES = ("0", "-1", "x", str(10**30))


@st.composite
def mutants(draw):
    """A serialized bundled scenario with 1-3 lines deleted, duplicated or
    given a value that is odd here: from elsewhere in the file, or one of
    FUZZ_VALUES."""
    lines = list(_SERIALIZED[draw(st.sampled_from(sorted(_SERIALIZED)))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "revalue")))
        if op == "delete":
            del lines[i]
            continue
        if op == "duplicate":
            lines.insert(i, lines[i])
            continue
        fields = lines[i].split()
        keyed = [j for j, f in enumerate(fields) if "=" in f]
        if not keyed:
            continue
        j = draw(st.sampled_from(keyed))
        other = [f.split("=", 1)[1] for f in
                 lines[draw(st.integers(0, len(lines) - 1))].split()
                 if "=" in f]
        value = draw(st.sampled_from(sorted(other) + list(FUZZ_VALUES)))
        fields[j] = f"{fields[j].split('=', 1)[0]}={value}"
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=20, deadline=None)
@given(text=mutants())
def test_mutated_scenario_never_crashes(tmp_path_factory, text):
    """Whatever a mutated file says, `run` answers with exit 0, 1 or 2:
    never 3, an internal error."""
    path = tmp_path_factory.mktemp("fuzz") / "mutant.nf"
    path.write_text(text)
    assert main(["run", str(path), "--until", "0.1",
                 "--report", os.devnull]) in (0, 1, 2)
