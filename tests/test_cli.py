import pytest

from netfab.cli import main

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


def test_run_report_to_stdout(tmp_path, capsys):
    assert main(["run", write_mini(tmp_path)]) == 0
    assert "drops_total=" in capsys.readouterr().out


def test_verify_exit_codes(capsys):
    assert main(["verify", "spring8-upgraded", "--invariant", "isolation"]) == 0
    assert "result=pass" in capsys.readouterr().out
    assert main(["verify", "spring8-legacy", "--invariant", "isolation"]) == 1
    assert "result=fail" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nf"
    bad.write_text("[switch]\nwhat\n")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


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
])
def test_run_rejects_unrunnable_input(tmp_path, capsys, old, new):
    bad = tmp_path / "bad.nf"
    bad.write_text(MINI.replace(old, new))
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def crash(*_args, **_kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("netfab.cli.build_engine", crash)
    assert main(["run", write_mini(tmp_path)]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
