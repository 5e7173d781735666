"""What each entry point loads: the lazy package root and the call-time imports.

The package root serves its names on first use, `cli` loads only the modules
its commands run, and `schur` (with `combinat`) and `fractions` (with
`decimal`) load only where they are called.  Within one pytest session every
module is loaded already, so each load path is checked in a fresh interpreter.
The brute-force oracles live in tests/oracles.py and nowhere in the package.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xx0chain
from xx0chain import cli, edoracle, xx0core

import oracles

SRC = str(Path(xx0chain.__file__).resolve().parents[1])
CLI_MODULES = {
    "xx0chain", "xx0chain.errors", "xx0chain.qexact", "xx0chain.boxcount", "xx0chain.asym",
    "xx0chain.xx0core", "xx0chain.edoracle", "xx0chain.cli",
}


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter with src/ on the path; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


class TestPackageRoot:
    def test_every_name_is_its_home_modules_object(self):
        assert len(xx0chain.__all__) == 47
        for name in xx0chain.__all__:
            home = importlib.import_module(f"xx0chain.{xx0chain._HOMES[name]}")
            assert getattr(xx0chain, name) is getattr(home, name), name

    def test_dir_lists_every_name(self):
        assert set(xx0chain.__all__) <= set(dir(xx0chain))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            xx0chain.no_such_name  # noqa: B018
        assert not hasattr(xx0chain, "schur_jacobi")

    def test_no_oracle_is_served_by_the_package(self):
        tree = ast.parse(Path(oracles.__file__).read_text())
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
        public = sorted(name for name in defined if not name.startswith("_"))
        assert "count_lattice_path_families" in public and "DEFAULT_ENUM_BUDGET" in public
        modules = [xx0chain] + [
            importlib.import_module(f"xx0chain.{m.name}") for m in pkgutil.iter_modules(xx0chain.__path__)
        ]
        for module in modules:
            served = [name for name in public if hasattr(module, name)]
            assert served == [], module.__name__

    def test_vandermonde_stays_importable_from_schur(self):
        from xx0chain import qexact, schur

        assert schur.vandermonde is qexact.vandermonde is xx0chain.vandermonde

    def test_import_loads_no_submodule_until_a_name_is_used(self):
        code = (
            "import json, sys, xx0chain\n"
            "before = sorted(m for m in sys.modules if m.startswith('xx0chain.'))\n"
            "xx0chain.zq(2, 2, 2)\n"
            "after = sorted(m for m in sys.modules if m.startswith('xx0chain.'))\n"
            "print(json.dumps([before, after, 'numpy' in sys.modules]))\n"
        )
        before, after, numpy_loaded = json.loads(run_fresh(code))
        assert before == []
        assert after == ["xx0chain.boxcount", "xx0chain.errors", "xx0chain.qexact"]
        assert not numpy_loaded


def test_cli_loads_only_what_its_commands_run():
    # the count, correlator and asym commands and box_det_identity load nothing more
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    mods = sorted(m for m in sys.modules if m.startswith('xx0chain'))\n"
        "    return mods, [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "import xx0chain.cli as cli\n"
        "steps = [loaded()]\n"
        "for argv in (['count', 'zq', '--L', '3', '--N', '3', '--P', '3'],\n"
        "             ['correlator', 'ferro', '--M', '20', '--N', '4', '--n', '2', '--beta', '1'],\n"
        "             ['asym', 'domain_wall', '--M', '20', '--N', '4', '--n', '2', '--beta', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    steps.append(loaded())\n"
        "assert cli.boxcount.box_det_identity(3, 6, 11).all_equal\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    for mods, extra in json.loads(run_fresh(code)):
        assert set(mods) == CLI_MODULES
        assert extra == []


def test_call_time_imports_run_in_a_fresh_interpreter(capsys):
    # every caller of schur outside schur itself, each first to load it in its interpreter
    verify = ["verify", "--suite", "binet-cauchy,schur-block-sum", "--sets", "1", "--Lmax", "2"]
    efp = ["correlator", "efp", "--M", "8", "--N", "3", "--n", "0,2", "--beta", "0"]
    v, u, M = (1.1, 0.9j, 1.3 + 0.2j), (0.8, 1.2 - 0.1j), 5
    state = xx0core.ground_state(4, 2)
    w = tuple(complex(x) for x in np.exp(0.5j * np.asarray(state.roots)))
    calls = [
        f"cli.main({verify!r})",
        f"cli.main({efp!r})",
        f"print(repr(xx0core.domain_wall_formfactor({v!r}, {u!r}, 1, {M})))",
        f"print(repr(xx0core.scalar_product({w!r}, {w!r}, 4)))",
        "print(repr(xx0core.scalar_product((1, 2j, 3, -1j), (2, 1j, -3, 1), 2)))",
        f"print(repr(edoracle.build_state_vector({w!r}, 4, 2).tolist()))",
    ]
    for call in calls:
        got = run_fresh(f"from xx0chain import cli, edoracle, xx0core\n{call}\n")
        exec(call, {"cli": cli, "edoracle": edoracle, "xx0core": xx0core})
        assert got == capsys.readouterr().out, call
