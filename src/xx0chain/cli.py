"""Command-line front end.

Subcommands: `correlator` (persistence / emptiness / walker tables),
`count` (exact box counts and generating functions), `verify` (identity
and oracle suites with a nonzero exit on any failure), and `asym`
(exact-vs-asymptotic comparison tables).

Output is deterministic: fixed row order, floats at 15 significant digits,
exact integers as decimal strings, polynomials as exponent->coefficient
maps.  Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import asym, boxcount, edoracle, xx0core
from .errors import EnumerationBudgetError

FLOAT_FMT = "{:.15g}"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT.format(x)
    return str(x)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None, command: str) -> None:
    if fmt == "json":
        payload = {"command": command, "columns": columns, "rows": rows}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [
                    json.dumps(row[c], separators=(",", ":")) if isinstance(row[c], dict) else row[c]
                    for c in columns
                ]
            )
        text = buf.getvalue()
    _write(text, out_path)


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- correlator ----------------------------------------------------------


def _correlator(kind: str):
    """xx0core.persistence_<kind>, looked up at call time."""
    return getattr(xx0core, f"persistence_{kind}")


def cmd_correlator(args) -> int:
    rows: list[dict] = []
    if args.kind == "walker":
        for M in args.M:
            for beta in args.beta:
                table = xx0core.amplitude_table(M, beta, 1)
                for k in range(M + 1):
                    for l in range(M + 1):
                        v = complex(table[k, l])
                        rows.append(
                            {
                                "M": M,
                                "beta": _fmt(beta),
                                "k": k,
                                "l": l,
                                "value_re": _fmt(v.real),
                                "value_im": _fmt(v.imag),
                                "method": "determinant",
                                "warnings": "" if cmath.isfinite(v) else f"non-finite value {v}",
                            }
                        )
        columns = ["M", "beta", "k", "l", "value_re", "value_im", "method", "warnings"]
        _emit(rows, columns, args.format, args.out, "correlator")
        return 0

    for M, N, n, beta in itertools.product(args.M, args.N, args.n, args.beta):
        row = {"M": M, "N": N, "n": n, "beta": _fmt(beta)}
        try:
            if args.kind == "efp":
                value = complex(xx0core.efp_formfactor(xx0core.ground_state(M, N), n))
                method, warn = "determinant", ""
            else:
                res = _correlator(args.kind)(M, N, n, beta, method=args.method, max_states=args.budget)
                value, method, warn = res.value, res.method, "; ".join(res.warnings)
        except EnumerationBudgetError as exc:
            row.update(value_re="", value_im="", method="budget-exceeded", warnings=str(exc))
            rows.append(row)
            continue
        row.update(
            value_re=_fmt(float(value.real)),
            value_im=_fmt(float(value.imag)),
            method=method,
            warnings=warn,
        )
        rows.append(row)
    columns = ["M", "N", "n", "beta", "value_re", "value_im", "method", "warnings"]
    _emit(rows, columns, args.format, args.out, "correlator")
    return 0


# -- count ---------------------------------------------------------------


def cmd_count(args) -> int:
    sides = ["N", "P"] if args.kind in ("a_cspp", "zq_cspp") else ["L", "N", "P"]
    count = boxcount.staircase_qbinom_det if args.kind == "qbinom_det" else getattr(boxcount, args.kind)
    rows: list[dict] = []
    for values in itertools.product(*(getattr(args, side) for side in sides)):
        value = count(*values)  # an exact int or a LaurentPoly
        rows.append(dict(zip(sides, values), value=str(value) if isinstance(value, int) else value.to_json_obj()))
    _emit(rows, sides + ["value"], args.format, args.out, "count")
    return 0


# -- verify --------------------------------------------------------------


def _worst(*devs: float) -> float:
    """The largest deviation; NaN when any is NaN, so that the suite fails."""
    return math.nan if any(math.isnan(d) for d in devs) else max(devs)


def _random_points(rng, n: int, lo: float, hi: float) -> tuple:
    """n complex points, moduli in [lo, hi) drawn before the uniform phases."""
    return tuple(rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n)))


def _bethe_parameters(state) -> tuple:
    return tuple(np.exp(0.5j * np.asarray(state.roots)))


def _suite_binet_cauchy(args) -> tuple[bool, float]:
    from . import schur  # call-time: only the two Schur suites load schur

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    injected = args.inject_fault
    for _ in range(args.sets):
        for N in range(1, 4):
            x = _random_points(rng, N, 0.5, 1.5)
            y = _random_points(rng, N, 0.5, 1.5)
            for L in range(0, args.Lmax + 1):
                for n in range(0, L + 1):
                    kern = schur.binet_cauchy_kernel(L, n, y, x)
                    if injected:
                        kern = kern + 1e-6
                        injected = False
                    brute = schur.binet_cauchy_bruteforce(L, n, y, x, max_terms=args.budget)
                    scale = max(abs(kern), abs(brute), 1.0)
                    worst = _worst(worst, abs(kern - brute) / scale)
    return worst <= args.tol, worst


def _suite_schur_block_sum(args) -> tuple[bool, float]:
    from . import schur  # call-time: only the two Schur suites load schur

    rng = np.random.default_rng(args.seed + 1)
    worst = 0.0
    for _ in range(args.sets):
        for N in range(1, 4):
            for n in range(0, N + 1):
                v = _random_points(rng, N, 0.6, 1.4)
                u = _random_points(rng, N - n, 0.6, 1.4)
                M = N + 3
                brute = schur.padded_schur_sum_bruteforce(M + 1 - N, n, v, u, max_terms=args.budget)
                pref = np.prod([complex(x) ** (2 * n) for x in u]) if len(u) else 1.0
                det_form = xx0core.domain_wall_formfactor(v, u, n, M) / pref
                scale = max(abs(brute), abs(det_form), 1.0)
                worst = _worst(worst, abs(brute - det_form) / scale)
    return worst <= args.tol, worst


def _suite_box_determinants(args) -> tuple[bool, float]:
    bad = 0
    for N in range(1, args.Lmax + 1):
        for P in range(N + 1, 2 * N):
            for L in range(1, N + 1):
                if not boxcount.box_det_identity(L, N, P).all_equal:
                    bad += 1
    return bad == 0, float(bad)


def _suite_orthogonality(args) -> tuple[bool, float]:
    worst = 0.0
    for M in range(1, args.Mmax + 1):
        for N in range(1, min(args.Nmax, M + 1) + 1):
            states = list(xx0core.enumerate_bethe_states(M, N))
            for i, si in enumerate(states):
                ui = _bethe_parameters(si)
                norm_i = xx0core.norm_squared(si)
                got = xx0core.scalar_product(ui, ui, M)
                worst = _worst(worst, abs(got - norm_i) / norm_i)
                for sj in states[i + 1:]:
                    uj = _bethe_parameters(sj)
                    sp = xx0core.scalar_product(ui, uj, M)
                    worst = _worst(worst, abs(sp) / math.sqrt(norm_i * xx0core.norm_squared(sj)))
    return worst <= args.tol, worst


def _suite_identity_resolution(args) -> tuple[bool, float]:
    worst = 0.0
    for M in range(1, args.Mmax + 1):
        for N in range(1, min(args.Nmax, M + 1) + 1):
            basis = edoracle.sector_basis(M, N)
            acc = np.zeros((basis.dim, basis.dim), dtype=complex)
            for state in xx0core.enumerate_bethe_states(M, N):
                vec = edoracle.build_state_vector(_bethe_parameters(state), M, N)
                acc += np.outer(vec, vec.conj()) / xx0core.norm_squared(state)
            worst = _worst(worst, float(np.max(np.abs(acc - np.eye(basis.dim)))))
    return worst <= args.tol, worst


def _suite_correlators(args) -> tuple[bool, float]:
    worst = 0.0
    for M in range(2, args.Mmax + 1):
        for N in range(1, min(args.Nmax, M) + 1):
            for n in range(0, N + 1):
                for beta in (0.0, 1.0):
                    for kind in ("ferro", "domain_wall"):
                        a = _correlator(kind)(M, N, n, beta).value
                        b = _correlator(kind)(M, N, n, beta, method="spectral_sum").value
                        c = edoracle.oracle_correlator(kind, M, N, n, beta)
                        if not all(map(cmath.isfinite, (a, b, c))):
                            worst = math.nan
                            continue
                        scale = max(abs(a), abs(b), abs(c))
                        if scale < 1e-12:
                            continue  # all three vanish (n exceeds the empty-site capacity)
                        worst = _worst(worst, abs(a - b) / scale, abs(a - c) / scale)
    return worst <= args.tol, worst


_SUITES = {
    "binet-cauchy": _suite_binet_cauchy,
    "schur-block-sum": _suite_schur_block_sum,
    "box-determinants": _suite_box_determinants,
    "orthogonality": _suite_orthogonality,
    "identity-resolution": _suite_identity_resolution,
    "correlators": _suite_correlators,
}


def cmd_verify(args) -> int:
    selected = [s for s in args.suite.split(",") if s] if args.suite else list(_SUITES)
    unknown = [s for s in selected if s not in _SUITES]
    if unknown:
        sys.stderr.write(f"unknown suite(s): {', '.join(unknown)}\n")
        return 2
    all_ok = True
    lines = []
    for name, fn in _SUITES.items():
        if name not in selected:
            continue
        ok, dev = fn(args)
        all_ok = all_ok and ok
        lines.append(f"{name}: {'PASS' if ok else 'FAIL'} (max deviation {dev:.3e})")
    lines.append(f"verify: {'PASS' if all_ok else 'FAIL'}")
    _write("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


# -- asym ----------------------------------------------------------------


def cmd_asym(args) -> int:
    rows: list[dict] = []
    for M, N, n, beta in itertools.product(args.M, args.N, args.n, args.beta):
        est = getattr(asym, f"{args.kind}_asymptotic")(M, N, n, beta)
        row = {"M": M, "N": N, "n": n, "beta": _fmt(beta)}
        if M <= args.exact_max_M:
            res = _correlator(args.kind)(M, N, n, beta)
            val = res.value.real
            row["exact_log"] = "nonpositive" if val <= 0 else _fmt(math.log(val))
            trusted = math.isfinite(val) and val > 0 and not res.warnings
            row["status"] = "ok" if trusted else "unreliable"
        else:
            row["exact_log"] = ""
            row["status"] = "asym-only"
        row["asym_log"] = _fmt(est.log_value)
        for key in ("amplitude", "critical_exponent", "phi"):
            row[key] = _fmt(est.pieces[key])
        rows.append(row)
    columns = [
        "M", "N", "n", "beta", "exact_log", "asym_log",
        "amplitude", "critical_exponent", "phi", "status",
    ]
    _emit(rows, columns, args.format, args.out, "asym")
    return 0


# -- parser ----------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later call of main."""
    p = argparse.ArgumentParser(prog="xx0chain", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="write output to this file")

    pc = sub.add_parser("correlator", help="persistence / emptiness / walker tables")
    pc.add_argument("kind", choices=("ferro", "domain_wall", "efp", "walker"))
    pc.add_argument("--M", type=_parse_int_list, default=[6])
    pc.add_argument("--N", type=_parse_int_list, default=[2])
    pc.add_argument("--n", type=_parse_int_list, default=[0])
    pc.add_argument("--beta", type=_parse_float_list, default=[1.0])
    pc.add_argument("--method", choices=("determinant", "spectral_sum"), default="determinant")
    pc.add_argument("--budget", type=int, default=xx0core.SPECTRAL_BUDGET, help="spectral-sum state budget")
    common(pc)
    pc.set_defaults(func=cmd_correlator)

    pn = sub.add_parser("count", help="exact box counts and generating functions")
    pn.add_argument("kind", choices=("macmahon", "zq", "zq_cspp", "a_cspp", "qbinom_det"))
    pn.add_argument("--L", type=_parse_int_list, default=[2])
    pn.add_argument("--N", type=_parse_int_list, default=[2])
    pn.add_argument("--P", type=_parse_int_list, default=[2])
    common(pn)
    pn.set_defaults(func=cmd_count)

    pv = sub.add_parser("verify", help="run identity and oracle suites")
    pv.add_argument("--suite", default="", help="comma-separated suite names (default: all)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.add_argument("--sets", type=int, default=3, help="random point sets per suite")
    pv.add_argument("--Lmax", type=int, default=3)
    pv.add_argument("--Mmax", type=int, default=5)
    pv.add_argument("--Nmax", type=int, default=2)
    pv.add_argument("--budget", type=int, default=10**6)
    pv.add_argument(
        "--inject-fault",
        action="store_true",
        help="negative control: perturb one kernel value and expect failure",
    )
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pa = sub.add_parser("asym", help="exact vs asymptotic comparison table")
    pa.add_argument("kind", choices=("ferro", "domain_wall"))
    pa.add_argument("--M", type=_parse_int_list, default=[20])
    pa.add_argument("--N", type=_parse_int_list, default=[2])
    pa.add_argument("--n", type=_parse_int_list, default=[1])
    pa.add_argument("--beta", type=_parse_float_list, default=[10.0])
    pa.add_argument("--exact-max-M", dest="exact_max_M", type=int, default=24)
    common(pa)
    pa.set_defaults(func=cmd_asym)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # the library's domain checks: an out-of-range argument
        sys.stderr.write(f"xx0chain {args.command}: {exc}\n")
        return 2


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
