"""Spans around the public functions of xx0chain, recorded from outside the program.

install() replaces every public function bound in the namespace of each
traced module (including names a module imports from another, such as
schur_jacobi_trudi in xx0core and edoracle) with a wrapper that records a
span: name, start, end and the index of the enclosing span.  The
LaurentPoly operator slots are wrapped on the class.  Spans are kept in
memory in flat arrays and written out by dump() after the timed region.
Nothing is installed unless a traced round asks for it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
from array import array
from time import perf_counter

MODULES = ("xx0core", "schur", "combinat", "edoracle", "qexact", "boxcount", "asym", "cli")

# cli.main runs the subcommand, formats the rows and writes them; its cmd_*
# helpers stay inside its span so that its self time is the whole front end.
_CLI_ENTRY = ("main",)

_LAURENT_SLOTS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "exact_div": "exact_div",
}

# persistence_* spans are named by the path they take
_PATH_SPANS = {"persistence_ferro", "persistence_domain_wall"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, path_span: bool = False):
        nid = self._id(name)
        det_id = self._id("xx0core.det_path") if path_span else -1
        spec_id = self._id("xx0core.spectral_path") if path_span else -1
        starts, ends, parents, name_ids, stack = self.starts, self.ends, self.parents, self.name_ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            if path_span:
                method = kwargs.get("method", args[4] if len(args) > 4 else "determinant")
                name_ids.append(det_id if method == "determinant" else spec_id)
            else:
                name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for short in MODULES:
            mod = importlib.import_module(f"xx0chain.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("xx0chain."):
                    continue
                home = home.rsplit(".", 1)[1]
                if home == "cli" and attr not in _CLI_ENTRY:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self.wrap(f"{home}.{obj.__name__}", obj, obj.__name__ in _PATH_SPANS)
                setattr(mod, attr, wrapped[id(obj)])
        laurent = importlib.import_module("xx0chain.qexact").LaurentPoly
        for slot, label in _LAURENT_SLOTS.items():
            if slot in vars(laurent):
                setattr(laurent, slot, self.wrap(f"qexact.LaurentPoly.{label}", vars(laurent)[slot]))

    def summary(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self time in s)}; self time is duration minus child durations."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name_ids[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += dur[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def dump(self, path: str) -> None:
        """Write the spans as gzipped TSV: index, name, parent index, start, end (s)."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.names[self.name_ids[i]]}\t{self.parents[i]}\t"
                    f"{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )


def _hit_ratio(*caches):
    """hits / lookups over the given lru caches; None when any is absent, 0.0 with no lookups."""
    if any(c is None or not hasattr(c, "cache_info") for c in caches):
        return None
    hits = sum(c.cache_info().hits for c in caches)
    lookups = hits + sum(c.cache_info().misses for c in caches)
    return hits / lookups if lookups else 0.0


def cache_ratios() -> dict[str, float | None]:
    """Hit ratios of the program's caches; a cache a later version removes reads None."""
    core = importlib.import_module("xx0chain.xx0core")
    ed = importlib.import_module("xx0chain.edoracle")
    return {
        "xx0core.amplitude_table.hit_ratio": _hit_ratio(getattr(core, "_amplitude_table_cached", None)),
        "xx0core.spectral_terms.hit_ratio": _hit_ratio(
            getattr(core, "_ferro_spectral_terms", None), getattr(core, "_dw_spectral_terms", None)
        ),
        "edoracle.eigh.hit_ratio": _hit_ratio(getattr(ed, "_eigh_cached", None)),
    }


# (metric, span name, field); field is "calls" or "self_s"
_SPAN_METRICS = [
    ("xx0core.amplitude_table", "calls"), ("xx0core.amplitude_table", "self_s"),
    ("xx0core.det_path", "calls"), ("xx0core.det_path", "self_s"),
    ("xx0core.spectral_path", "calls"), ("xx0core.spectral_path", "self_s"),
    ("schur.schur_jacobi_trudi", "calls"), ("schur.schur_jacobi_trudi", "self_s"),
    ("schur.binet_cauchy_kernel", "calls"), ("schur.binet_cauchy_kernel", "self_s"),
    ("combinat.enumerate_partitions_in_box", "calls"),
    ("edoracle.build_hamiltonian", "self_s"),
    ("edoracle.thermal_operator", "calls"), ("edoracle.thermal_operator", "self_s"),
    ("edoracle.build_state_vector", "self_s"), ("edoracle.oracle_correlator", "self_s"),
    ("qexact.LaurentPoly.mul", "calls"), ("qexact.LaurentPoly.mul", "self_s"),
    ("qexact.LaurentPoly.exact_div", "calls"), ("qexact.LaurentPoly.exact_div", "self_s"),
    ("qexact.exact_det", "self_s"), ("qexact.det_by_minors", "self_s"),
    ("qexact.q_binomial_determinant", "self_s"),
    ("boxcount.zq", "self_s"), ("boxcount.zq_cspp", "self_s"),
    ("boxcount.kuperberg_matrix", "self_s"), ("boxcount.box_det_identity", "self_s"),
    ("cli.main", "self_s"),
]


def layer_metrics(summary: dict[str, tuple[int, float]]) -> dict[str, float | None]:
    """Per-layer metrics of one traced round, without trace.overhead_s."""
    out: dict[str, float | None] = {}
    for span, field in _SPAN_METRICS:
        calls, self_s = summary.get(span, (0, 0.0))
        out[f"{span}.{field}"] = calls if field == "calls" else self_s
    # the estimate layer is everything asym does itself, helpers included
    out["asym.estimate.self_s"] = math.fsum(s for k, (_, s) in summary.items() if k.startswith("asym."))
    out.update(cache_ratios())
    return out
