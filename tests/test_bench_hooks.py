"""The benchmark tracer still finds every cache and function it names.

xx0bench/tracer.py reads the program's lru caches by their private names;
a cache that is renamed or removed reads None, and a traced round then
prints "value": null.  Its per-layer metrics read spans named after public
functions; a function that is renamed or made private records no span, and
its metric silently reads 0.  The tracer is loaded from its file and never
installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "xx0bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("xx0bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cache_ratios_find_every_cache(tracer):
    ratios = tracer.cache_ratios()
    assert ratios, "cache_ratios() names no cache"
    missing = [name for name, value in ratios.items() if value is None]
    assert not missing, f"caches not found: {missing}"


def _is_traced_function(tracer, short: str, name: str) -> bool:
    """Whether install() wraps xx0chain.<short>.<name> under the span <short>.<name>."""
    obj = getattr(importlib.import_module(f"xx0chain.{short}"), name, None)
    return (
        not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", "") == f"xx0chain.{short}"
        and obj.__name__ == name
        and (short != "cli" or name in tracer._CLI_ENTRY)
    )


def test_span_metrics_name_traced_functions(tracer):
    spans = {span for span, _ in tracer._SPAN_METRICS}
    assert spans, "_SPAN_METRICS names no span"
    laurent = importlib.import_module("xx0chain.qexact").LaurentPoly
    unresolved = []
    for span in sorted(spans):
        short, _, name = span.partition(".")
        assert short in tracer.MODULES, span
        if span in ("xx0core.det_path", "xx0core.spectral_path"):
            ok = bool(tracer._PATH_SPANS) and all(_is_traced_function(tracer, short, f) for f in tracer._PATH_SPANS)
        elif name.startswith("LaurentPoly."):
            label = name.removeprefix("LaurentPoly.")
            ok = any(lab == label and callable(vars(laurent).get(slot)) for slot, lab in tracer._LAURENT_SLOTS.items())
        else:
            ok = _is_traced_function(tracer, short, name)
        if not ok:
            unresolved.append(span)
    assert not unresolved, f"spans no traced function records: {unresolved}"
