"""The benchmark's per-layer hooks name functions netfab still has.

`perfbench/layers.py` wraps each (module, class, attribute) it lists and
reports the ones it cannot find as "not traced". Its own suite checks that
list is empty, but only when the benchmark's tests run; this checks the same
lookups with the program's tests, and runs a scenario under the hooks, which
turn themselves off when an attribute they read is gone.

It also pins the model digests of two `perfbench/workloads.py` workloads,
so a speed claim is checked to keep the model, and checks that the ops-audit
workload's setup leaves no cyclic garbage; lints the package and its
tests for imports no module uses, and the package for definitions nothing
in it reads; holds the frame hop on spring8-redundant and on the firewall
rig to a budget of Python calls per event, a switch's flood to calls that
do not grow with its width, and loading a scenario file to one per
declaration line; and keeps the README's table of scenario keys to the
format's own.
"""
import ast
import gc
import importlib
import re
import importlib.util
import sys
from pathlib import Path

import pytest

from test_acceptance import FIREWALL_RIG
from netfab.l2 import PortConfig, Switch
from netfab.packet import BROADCAST, make_frame
from netfab.scenario import (FORMAT, build_engine, load_scenario,
                             parse_scenario, serialize_scenario,
                             validate_scenario)

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PACKAGE = ROOT / "src" / "netfab"
TESTS = ROOT / "tests"


def _load(name: str, path: Path):
    """path as module `name`, registered first: `dataclasses` reads a
    class's module from `sys.modules`."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_layers():
    return _load("perfbench_layers", LAYERS)


def test_every_bench_hook_resolves():
    layers = _load_layers()
    hooks = layers.TIMED + layers.COUNTED
    assert hooks
    missing = []
    for _name, module_name, cls_name, attr in hooks:
        owner = importlib.import_module(module_name)
        if cls_name is not None:  # the patcher reads vars(), not getattr()
            owner = vars(owner).get(cls_name)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{cls_name or ''}.{attr}")
    assert missing == []


def test_bench_hooks_stay_enabled_on_a_run():
    """A hook that reads an attribute the program no longer has turns itself
    off and says so in `missing`; a short traced run keeps every hook on and
    each of them sees work."""
    layers = _load_layers()
    for _name, module_name, _cls, _attr in layers.TIMED + layers.COUNTED:
        importlib.import_module(module_name)  # the patcher reads sys.modules
    eng = build_engine(load_scenario("spring8-redundant"))
    with layers.LayerTrace() as trace:
        eng.run_until(3_000_000)
    assert trace.missing == []
    assert trace.peaks["engine.link.peak_queue"] > 0  # Engine.send
    assert trace.peaks["firewall.shaper.peak_queue"] > 0  # Shaper.offer
    assert trace.counts["firewall.nat.hits"] > 0  # Firewall.masquerade_out
    assert trace.counts["resilience.dispatch.pinned"] > 0  # dispatch
    state = trace.engine_state()  # Engine.run_until
    assert {"l3.conn.entries", "firewall.nat.entries",
            "resilience.affinity.entries",
            "resilience.unavailable"} <= set(state)
    assert state["l3.conn.entries"] > 0


@pytest.mark.parametrize("name, digest", [
    ("fw-bulk", "6269e79a17cfbf34"),
    ("campus-mix", "b2b3f31f514cf9ca"),
])
def test_bench_model_digest_at_seed_1(name, digest):
    """One repetition of the workload at seed 1 gives the `model_digest`
    `perfbench/run.py` reports: the digest of the run's summary lines. A
    change that claims a speed-up keeps it."""
    workload = _load("perfbench_workloads", WORKLOADS).WORKLOADS[name]
    prepared = workload.setup(workload.texts(1))
    result = workload.check(prepared, workload.run(prepared))
    assert set(result.checks.values()) == {"ok"}
    assert result.digest == digest


def test_ops_audit_setup_leaves_no_cyclic_garbage(gc_off):
    """The ops-audit workload's `setup` builds an engine for each scenario
    text and drops it. Nothing points back into an engine, so reference
    counting frees each one and no cyclic garbage is left for the timed
    queries."""
    workload = _load("perfbench_workloads", WORKLOADS).WORKLOADS["ops-audit"]
    texts = workload.texts(1)
    gc.collect()
    workload.setup(texts)  # its result dropped at once
    assert gc.collect() == 0


def _unused_imports(path: Path) -> list[str]:
    """Names path imports but never reads. `from __future__` is exempt, and
    an annotation counts as a read: under postponed evaluation the parser
    still makes it expressions."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert modules
    assert [u for m in modules for u in _unused_imports(m)] == []


# definitions nothing in the package reads, each with its reader
READ_OUTSIDE_THE_PACKAGE = {
    "engine.Engine.residual_frames",  # frame conservation: tests, perfbench
    "packet.push_tag",  # tests, and perfbench's hooks
    "packet.pop_tag",  # tests, and perfbench's hooks
    "packet.flow_key",  # tests, and perfbench's hooks
}


def _definitions(path: Path):
    """(qualified name, name) of each module-level function and class and
    each method not named like `__x__` that path defines."""
    tree = ast.parse(path.read_text(), str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, kinds[:2])
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_is_read_in_the_package():
    """Each function, class and method of the package is named somewhere
    in it beyond its own definition, or is listed with the reader outside
    the package that keeps it."""
    modules = sorted(PACKAGE.glob("*.py"))
    named = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unread = {qualified for path in modules
              for qualified, name in _definitions(path) if name not in named}
    assert unread == READ_OUTSIDE_THE_PACKAGE


CALLS_PER_EVENT_CEILING = 5.16  # 5.085 when set
RIG_CALLS_PER_EVENT_CEILING = 5.68  # 5.596 when set


def _calls_per_event(eng, until_us: int) -> float:
    """Python calls per event processed while eng runs to until_us. Every
    event pushed is processed or still queued, and every push takes the
    next sequence number."""
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        eng.run_until(until_us)
    finally:
        sys.setprofile(None)
    events = eng._seq - len(eng._heap)
    assert events > 70_000
    return calls / events


def test_python_calls_per_event_within_budget():
    """Python calls per processed event on spring8-redundant run to 3 s.
    The count is exact on any host, so a call added to the frame hop shows
    here without timing noise."""
    eng = build_engine(load_scenario("spring8-redundant"))
    assert _calls_per_event(eng, 3_000_000) <= CALLS_PER_EVENT_CEILING


def test_firewall_rig_calls_per_event_within_budget():
    """Python calls per processed event on the 170 Mbps firewall rig run to
    1 s: one backlogged NAT'd transfer, so a call added to the NAT, shaper
    or bulk sender path shows here without timing noise."""
    cfg = parse_scenario(FIREWALL_RIG.format(duration=1,
                                             total=2_000_000_000))
    validate_scenario(cfg)
    eng = build_engine(cfg)
    assert _calls_per_event(eng, cfg.duration_us) <= (
        RIG_CALLS_PER_EVENT_CEILING)


def _flood_calls(width: int) -> int:
    """Python calls to flood one frame from a fresh ingress port of a
    switch with `width` access ports on one VLAN."""
    sw = Switch("sw")
    for p in range(width):
        sw.configure_port(f"p{p:03d}", PortConfig("access", vid=10))
    sw.ingress("p000", make_frame(bytes(6), BROADCAST, 46), now=0)
    frame = make_frame(bytes(5) + b"\x01", BROADCAST, 46)
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        out = sw.ingress("p001", frame, now=1)
    finally:
        sys.setprofile(None)
    assert len(out) == width - 1
    return calls


def test_python_calls_per_flood_do_not_grow_with_switch_width():
    """A flood reads each port's record in one pass and makes no call per
    port, so a 256-port switch floods with the calls a 16-port one does."""
    assert _flood_calls(256) == _flood_calls(16)


LOAD_CALLS_PER_LINE_CEILING = 21.35  # 21.13 when set


def test_python_calls_per_declaration_line_within_budget():
    """Python calls per declaration line to parse, validate and build the
    text of spring8-redundant, after one load has filled the module caches.
    The count is exact on any host, so a call added to the load path shows
    here without timing noise."""
    text = serialize_scenario(load_scenario("spring8-redundant"))
    lines = [l for l in text.splitlines() if l and not l.startswith("[")]

    def load():
        cfg = parse_scenario(text)
        validate_scenario(cfg)
        return build_engine(cfg)

    load()
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        eng = load()
    finally:
        sys.setprofile(None)
    assert len(lines) > 1200
    assert calls / len(lines) <= LOAD_CALLS_PER_LINE_CEILING


def test_readme_keys_table_matches_the_format():
    """Each section's row of the README's keys table names, in backticks,
    exactly the keys `FORMAT` gives that section's lines."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = line.split(" | ")
        if len(cells) == 3 and re.fullmatch(r"\| `\w+`", cells[0]):
            rows[cells[0][3:-1]] = set(re.findall(r"`(\w+)`",
                                                  cells[1] + cells[2]))
    assert rows.keys() == FORMAT.keys()
    for section, form in FORMAT.items():
        keys = {key.name for key in form.keys}
        if form.child is not None:
            keys |= {key.name for key in form.child.keys}
        assert rows[section] == keys, section
