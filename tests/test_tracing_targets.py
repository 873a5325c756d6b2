"""Every layer the benchmark tracer wraps still exists in the package.

`bench/tracing.py` looks each target up by name when `bench/run.py --trace 1`
installs it, so a deleted or renamed method would fail only there.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load_tracing().TARGETS
    assert targets
    for name, modname, attr, _ in targets:
        module = importlib.import_module(f"weilforms.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name
