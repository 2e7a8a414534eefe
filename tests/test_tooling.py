"""The benchmark's per-layer hooks name functions netfab still has.

`perfbench/layers.py` wraps each (module, class, attribute) it lists and
reports the ones it cannot find as "not traced". Its own suite checks that
list is empty, but only when the benchmark's tests run; this checks the same
lookups with the program's tests.
"""
import importlib
import importlib.util
from pathlib import Path

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
