"""The benchmark's per-layer hooks name functions netfab still has.

`perfbench/layers.py` wraps each (module, class, attribute) it lists and
reports the ones it cannot find as "not traced". Its own suite checks that
list is empty, but only when the benchmark's tests run; this checks the same
lookups with the program's tests, and runs a scenario under the hooks, which
turn themselves off when an attribute they read is gone.
"""
import importlib
import importlib.util
from pathlib import Path

from netfab.scenario import build_engine, load_scenario

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
