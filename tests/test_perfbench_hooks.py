"""The benchmark's traced run wraps hvsinglet functions by module and name
and reads some of their arguments by position; a rename or a reordered
signature would break it silently.  This loads its hook table by path and
checks every hook against the package."""

import importlib.util
import inspect
from pathlib import Path

import pytest


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, function) -> {position: parameter name} the tracer reads
READ_ARGS = {
    ("inequalities", "margin"): {0: "name"},
    ("correlators", "mc_correlator"): {0: "params", 2: "n", 4: "shards"},
    ("geometry", "sample_unit_batch"): {1: "n"},
    ("geometry", "sample_cap_batch"): {3: "n"},
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_tracing().TRACED


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"hvsinglet.{module}"), name)


@pytest.mark.parametrize("module,name", [(m, f) for m, f, _, _ in TRACED])
def test_traced_function_exists(module, name):
    assert callable(_function(module, name))


@pytest.mark.parametrize("hook,positions", sorted(READ_ARGS.items()))
def test_arguments_the_tracer_reads_stay_in_place(hook, positions):
    assert hook in {(m, f) for m, f, _, _ in TRACED}
    params = list(inspect.signature(_function(*hook)).parameters.values())
    for pos, name in positions.items():
        assert params[pos].name == name
        assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_positivity_audit_keeps_its_cache():
    assert hasattr(_function("models", "thv_positivity_margin"), "cache_info")
