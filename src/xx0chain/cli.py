"""Command-line front end.

    xx0chain <command> [kind] [--option value | --option=value]...

Commands: `correlator` (persistence / emptiness / walker tables), `count`
(exact box counts and generating functions), `verify` (identity and oracle
suites with a nonzero exit on any failure), and `asym` (exact-vs-asymptotic
comparison tables).  Each command's kinds, options and defaults are the
table _COMMANDS, which `xx0chain <command> --help` prints after this text.

The kind may stand anywhere among the options.  The token after an option is
its value, even one that begins with '-' (`--beta -0.5,1`).  List options
take comma-separated values; a repeated option keeps its last value.  An
option may be shortened to a prefix that no other option of its command
shares (`--exact` for `--exact-max-M`).  `--inject-fault` takes no value: it
makes `verify` perturb one kernel value, a negative control that must fail.
`verify --suite` names suites, comma-separated (default: all), and `--out`
writes to a file in place of stdout.

Output is deterministic: fixed row order, floats at 15 significant digits,
exact integers as decimal strings, polynomials as exponent->coefficient
maps.  Exit codes: 0 ok, 1 verification failure, 2 usage error.  A command
line that does not parse prints its usage and the error on stderr, nothing
on stdout; an argument outside a function's domain prints one
`xx0chain <command>: ...` line on stderr.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from . import asym, boxcount, edoracle, xx0core
from .errors import EnumerationBudgetError

FLOAT_FMT = "{:.15g}"


def _fmt(x) -> str:
    if isinstance(x, float):
        return FLOAT_FMT.format(x)
    return str(x)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _emit(rows: list[dict], columns: list[str], fmt: str, out_path: str | None, command: str) -> None:
    if fmt == "json":
        text = _indented({"command": command, "columns": columns, "rows": rows}) + "\n"
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


def _indented(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str keys, each flat level written by one C-encoder call.

    json.dumps runs the pure-Python encoder whenever indent is set, but a
    separator may hold the newline and indent itself: a dict or list whose
    values are scalars or empty is one json.dumps, and only the levels above
    it are joined here.
    """
    inner = pad + "  "
    nested = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else None
    if not nested:  # a scalar, or an empty container, which indent leaves as {} or []
        return json.dumps(obj)
    if not any(v and isinstance(v, (dict, list, tuple)) for v in nested):
        text = json.dumps(obj, separators=("," + inner, ": "))
    elif isinstance(obj, dict):
        text = "{" + ("," + inner).join(json.dumps(k) + ": " + _indented(v, inner) for k, v in obj.items()) + "}"
    else:
        text = "[" + ("," + inner).join(_indented(v, inner) for v in obj) + "]"
    return text[0] + inner + text[1:-1] + pad + text[-1]


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


# -- command table and parser ---------------------------------------------

_OUTPUT = {"format": (("csv", "json"), "csv"), "out": (str, None)}

# command -> (handler, kind choices or None, {option: (convert, default)}).  A
# tuple convert lists the option's choices, bool marks a flag that takes no
# value, and a callable default is read when a command line is parsed.
_COMMANDS = {
    "correlator": (cmd_correlator, ("ferro", "domain_wall", "efp", "walker"), {
        "M": (_ints, [6]),
        "N": (_ints, [2]),
        "n": (_ints, [0]),
        "beta": (_floats, [1.0]),
        "method": (("determinant", "spectral_sum"), "determinant"),
        "budget": (int, lambda: xx0core.SPECTRAL_BUDGET),
        **_OUTPUT,
    }),
    "count": (cmd_count, ("macmahon", "zq", "zq_cspp", "a_cspp", "qbinom_det"), {
        "L": (_ints, [2]),
        "N": (_ints, [2]),
        "P": (_ints, [2]),
        **_OUTPUT,
    }),
    "verify": (cmd_verify, None, {
        "suite": (str, ""),
        "seed": (int, 0),
        "tol": (float, 1e-9),
        "sets": (int, 3),
        "Lmax": (int, 3),
        "Mmax": (int, 5),
        "Nmax": (int, 2),
        "budget": (int, 10**6),
        "inject-fault": (bool, False),
        "out": (str, None),
    }),
    "asym": (cmd_asym, ("ferro", "domain_wall"), {
        "M": (_ints, [20]),
        "N": (_ints, [2]),
        "n": (_ints, [1]),
        "beta": (_floats, [10.0]),
        "exact-max-M": (int, 24),
        **_OUTPUT,
    }),
}


def _usage(command: str | None) -> str:
    if command is None:
        head = "<command> [kind]"
    else:
        kinds = _COMMANDS[command][1]
        head = command + (" {" + ",".join(kinds) + "}" if kinds else "")
    return f"usage: xx0chain {head} [--option value | --option=value]..."


def _help(command: str | None):
    """Print the module docstring, then the commands or one command's options with their defaults; exit 0."""
    lines = [__doc__.strip(), "", _usage(command)]
    if command is None:
        for name, (_, kinds, _) in _COMMANDS.items():
            lines.append(f"  {name}" + (" {" + ",".join(kinds) + "}" if kinds else ""))
    else:
        for name, (convert, default) in _COMMANDS[command][2].items():
            if convert is bool:
                lines.append(f"  --{name}")
                continue
            default = default() if callable(default) else default
            value = "{" + ",".join(convert) + "}" if isinstance(convert, tuple) else convert.__name__.strip("_").upper()
            shown = ",".join(map(str, default)) if isinstance(default, list) else default
            lines.append(f"  --{name} {value}  (default: {shown})")
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    """A usage error: the usage line and the message on stderr, nothing on stdout; exit 2."""
    sys.stderr.write(f"{_usage(command)}\nxx0chain{'' if command is None else ' ' + command}: error: {message}\n")
    raise SystemExit(2)


def _option(command: str, options: dict, name: str) -> str:
    """The option that name spells or, failing that, the one option it is a prefix of."""
    if name in options or name == "help":
        return name
    hits = [opt for opt in (*options, "help") if opt.startswith(name)]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: --{name} could match {', '.join('--' + h for h in hits)}")
    if not hits:
        _fail(command, f"unrecognized arguments: --{name}")
    return hits[0]


def _parse(argv: list[str]) -> SimpleNamespace:
    """One pass over a command line, read against _COMMANDS; SystemExit on a usage error or --help."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in ("-h", "--help"):
            _help(None)
        _fail(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    command = argv[0]
    kinds, options = _COMMANDS[command][1:]
    values = {name: default() if callable(default) else default for name, (_, default) in options.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token == "-h":
            _help(command)
        if not token.startswith("--"):
            _fail(command, f"unrecognized arguments: {token}")
        name, eq, text = token[2:].partition("=")
        name = _option(command, options, name)
        if name == "help":
            _help(command)
        convert = options[name][0]
        if convert is bool:
            if eq:
                _fail(command, f"argument --{name}: ignored explicit argument {text!r}")
            values[name] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                _fail(command, f"argument --{name}: expected one argument")
        if isinstance(convert, tuple):
            if text not in convert:
                _fail(command, f"argument --{name}: invalid choice: {text!r} (choose from {', '.join(convert)})")
            values[name] = text
            continue
        try:
            values[name] = convert(text)
        except ValueError:
            _fail(command, f"argument --{name}: invalid value: {text!r}")
    if kinds is not None:
        if not positionals:
            _fail(command, "the following arguments are required: kind")
        if positionals[0] not in kinds:
            _fail(command, f"argument kind: invalid choice: {positionals[0]!r} (choose from {', '.join(kinds)})")
        values["kind"] = positionals.pop(0)
    if positionals:
        _fail(command, f"unrecognized arguments: {' '.join(positionals)}")
    return SimpleNamespace(command=command, **{name.replace("-", "_"): v for name, v in values.items()})


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:  # the library's domain checks: an out-of-range argument
        sys.stderr.write(f"xx0chain {args.command}: {exc}\n")
        return 2


def console_entry() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
