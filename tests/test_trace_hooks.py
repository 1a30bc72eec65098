"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps the
functions that ``perfbench/spans.py`` lists in ``TARGETS``; a renamed or
moved function would break that run, so each entry must resolve here."""

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _spans().TARGETS
    assert targets
    for name, (modname, attr, _) in targets.items():
        module = importlib.import_module(modname)
        assert Path(module.__file__).parent.name == "ghwkit", name
        owner, _, leaf = attr.rpartition(".")
        if owner:
            # a method is wrapped on its class, from the class's own namespace
            cls = getattr(module, owner)
            assert inspect.isclass(cls) and callable(cls.__dict__.get(leaf)), name
        else:
            assert callable(getattr(module, leaf, None)), name
