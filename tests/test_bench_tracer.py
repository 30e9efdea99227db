"""The benchmark's tracer names functions of rggames by string; each must resolve.

`bench/tracer.py` wraps the functions in its `TRACED` table, looking each one
up with `getattr`, so a rename in `src/` would break `bench/run.py --trace 1`.
This test loads the tracer module from its file, without installing it, and
checks every name.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(module, qualname) for module, names in load_tracer().TRACED.items()
         for qualname in names]


@pytest.mark.parametrize("module,qualname", NAMES, ids=[f"{m}.{q}" for m, q in NAMES])
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"rggames.{module}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
