"""The benchmark's tracer wraps opcsp functions by module and attribute
name.  Every name it wraps must still resolve, or `perfbench/run.py --trace 1`
and `tools/bench_record.py` crash instead of a test failing."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # loaded by path, so perfbench's workload modules stay off sys.path
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_target_resolves():
    tracer = _load_tracer()
    targets = [target for group in tracer.SPANNED.values() for target in group]
    assert targets
    for module_name, path in targets:
        owner, attr = tracer._resolve(module_name, path)
        assert callable(getattr(owner, attr)), (module_name, path)
