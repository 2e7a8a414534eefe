"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from layers import TIMED, LayerTrace
from run import END_TO_END, PER_LAYER
from workloads import FIREWALL_RIG, WORKLOADS, nf_scenario

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_text_other_seed_other_text(name):
    workload = WORKLOADS[name]
    first = workload.texts(7)
    assert workload.texts(7) == first
    other = workload.texts(8)
    assert first.keys() == other.keys()
    assert all(first[key] != other[key] for key in first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_text_validates(name, seed):
    for text in WORKLOADS[name].texts(seed).values():
        nf_scenario.validate_scenario(nf_scenario.parse_scenario(text))


def _bindings():
    """Every module or class binding of a function LayerTrace wraps."""
    out = {}
    for _name, module, cls, attr in TIMED:
        owner = sys.modules[module]
        if cls:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("netfab"):
                for bound, value in vars(mod).items():
                    if value is original:
                        out[(mod_name, bound)] = value
        out[(module, cls, attr)] = original
    return out


def test_wrappers_patch_every_binding_and_restore_originals():
    engine = sys.modules["netfab.engine"]
    resilience = sys.modules["netfab.resilience"]
    before = _bindings()
    make_frame = before[("netfab.packet", "make_frame")]
    with LayerTrace() as trace:
        assert not trace.missing
        assert engine.make_frame is not make_frame
        assert engine.make_frame.__wrapped__ is make_frame
        assert resilience.lag_select is not before[("netfab.l2", "lag_select")]
    assert _bindings() == before
    assert engine.make_frame is make_frame


def test_restores_originals_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with LayerTrace():
            raise RuntimeError("boom")
    assert _bindings() == before


def _small_rig_digest():
    text = FIREWALL_RIG.format(seed=3, duration=1, cap=170_000_000, h1=9, h2=9,
                               total=2_000_000, sport=40_000, dport=5001)
    t0 = time.perf_counter()
    cfg = nf_scenario.parse_scenario(text)
    nf_scenario.validate_scenario(cfg)
    eng = nf_scenario.build_engine(cfg)
    eng.run_until(cfg.duration_us)
    wall = time.perf_counter() - t0
    lines = "\n".join(eng.metrics.summary_lines())
    return hashlib.sha256(lines.encode()).hexdigest(), wall


def test_traced_run_keeps_the_model_and_accounts_for_its_time():
    untraced, _ = _small_rig_digest()
    with LayerTrace() as trace:
        traced, wall = _small_rig_digest()
    assert traced == untraced
    assert trace.stats["firewall.masquerade_out"][0] > 0
    assert trace.stats["scenario.parse"][0] == 1
    assert 0.95 <= trace.self_total() / wall <= 1.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
