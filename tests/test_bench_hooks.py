"""The benchmark tracer's cache lookups still find every cache they name.

xx0bench/tracer.py reads the program's lru caches by their private names;
a cache that is renamed or removed reads None, and a traced round then
prints "value": null.  The tracer is loaded from its file and never installed.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "xx0bench" / "tracer.py"


def test_cache_ratios_find_every_cache():
    spec = importlib.util.spec_from_file_location("xx0bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ratios = tracer.cache_ratios()
    assert ratios, "cache_ratios() names no cache"
    missing = [name for name, value in ratios.items() if value is None]
    assert not missing, f"caches not found: {missing}"
