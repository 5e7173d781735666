"""The three workloads: their seeded case lists, the calls into xx0chain, and the checks.

A workload is a plan (the calls one round makes, built from the seed), an
execution of that plan (the only timed part) and a check of every output
against the independent references.  Every plan has the same shape on every
seed: the seed moves inverse temperatures, site counts, box orientations and
the order of calls, never the chain sizes, so the cost of a round and the
number of operations in it do not depend on it.

An operation is one checked value.  The operations a workload lists as known
faults fail on every seed because of faults in the program; every other
operation must pass.

The check functions import the references (and with them scipy) only after
the timed region, so they add nothing to a round's wall time or peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Relative tolerance on a correlator value, and absolute tolerance on its
# logarithm.  Outside the known faults the determinant path stays within
# 1e-7 of the reference on every chain and temperature range used here.
VALUE_TOL = 1e-6
# Relative tolerance on the pieces of a low-temperature estimate: the Barnes
# G expansion the program uses beyond N = 64 is within 1e-10 of the sums of
# logarithms the references use.
ESTIMATE_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One checked value."""

    ident: str
    ok: bool
    detail: str = ""


# -- det-grid ---------------------------------------------------------------
#
# Temperature sweeps on long chains.  Each (M, N) chain gets three
# inverse temperatures, one drawn log-uniformly from each third of its safe
# range, and three site counts n.  `correlator ferro`, `correlator
# domain_wall` and both `asym` tables run the same n x beta grid, so the
# first command on a chain builds one amplitude table per beta and the other
# three reuse it.  The safe range of each chain ends well before the
# determinant path overflows or loses accuracy (at M = 1000 the first NaN
# appears at beta = 5 for N = 60, at beta = 11 for N = 40, at beta = 27 for
# N = 20).
DET_CHAINS = (
    # (M, N, beta_lo, beta_hi)
    (1000, 60, 0.5, 3.0),
    (1000, 40, 0.5, 6.0),
    (1000, 20, 1.0, 16.0),
    (400, 40, 0.5, 6.0),
    (400, 10, 2.0, 30.0),
    (200, 16, 2.0, 24.0),
    (100, 10, 4.0, 30.0),
    (60, 6, 8.0, 40.0),
)
DET_N_SITES = (1, 2, 3, 4, 5, 6)
DET_BETAS_PER_CHAIN = 3
DET_SITES_PER_CHAIN = 3

# Correlators the determinant path gets wrong today, independent of the
# seed: NaN from overflow in the LU product and in the (M+1)^N and
# exp(beta E) prefactors, and finite garbage from LU on an ill-conditioned
# Gram matrix.  Each is evaluated by `correlator` and by `asym`, which
# reports them with status=ok.
DET_FAULTS = (
    ("ferro", 1000, 100, 3, 1.0),
    ("ferro", 400, 40, 3, 30.0),
    ("ferro", 60, 20, 3, 40.0),
    ("ferro", 24, 20, 1, 40.0),
    ("ferro", 12, 10, 1, 40.0),
    ("domain_wall", 1000, 100, 3, 1.0),
    ("domain_wall", 12, 8, 1, 40.0),
)


def _beta_text(x: float) -> str:
    # four significant digits, so the value the CLI parses is the value checked
    return f"{x:.4g}"


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k values, one log-uniform draw in each of k equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / k
    return [math.exp(a + step * (i + rng.random())) for i in range(k)]


def _grid_args(command: str, kind: str, M: int, N: int, ns, betas) -> list[str]:
    args = [command, kind, "--M", str(M), "--N", str(N), "--n", ",".join(map(str, ns))]
    args += ["--beta", ",".join(betas)]
    if command == "asym":
        args += ["--exact-max-M", str(M)]
    return args


def det_grid_plan(seed: int) -> list[list[str]]:
    rng = random.Random(f"det-grid/{seed}")
    plan = []
    for M, N, lo, hi in DET_CHAINS:
        betas = [_beta_text(b) for b in _strata(rng, lo, hi, DET_BETAS_PER_CHAIN)]
        ns = sorted(rng.sample(DET_N_SITES, DET_SITES_PER_CHAIN))
        for command in ("correlator", "asym"):
            for kind in ("ferro", "domain_wall"):
                plan.append(_grid_args(command, kind, M, N, ns, betas))
    for kind, M, N, n, beta in DET_FAULTS:
        for command in ("correlator", "asym"):
            plan.append(_grid_args(command, kind, M, N, [n], [_beta_text(beta)]))
    return plan


def run_cli(plan: list[list[str]]) -> list[tuple[int, str]]:
    """Run each argument list through xx0chain.cli.main in this process; keep code and stdout."""
    from xx0chain import cli

    out = []
    for argv in plan:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
    return out


def _float_or_none(text: str):
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _check_value(ident: str, re_text: str, im_text: str, log_ref: float) -> Op:
    re, im = _float_or_none(re_text), _float_or_none(im_text)
    if re is None or im is None:
        return Op(ident, False, f"non-finite value {re_text!r} {im_text!r}")
    if re <= 0.0:
        return Op(ident, False, f"value {re!r}, reference exp({log_ref:.6g})")
    if abs(math.log(re) - log_ref) > VALUE_TOL or abs(im) > VALUE_TOL * re:
        return Op(ident, False, f"value {re!r}{im:+.3e}j, reference {math.exp(log_ref)!r}")
    return Op(ident, True)


def _check_estimate(ident: str, row: dict, kind: str, M: int, N: int, n: int, beta: float) -> Op:
    import references as ref

    want = ref.asym_pieces(kind, M, N, n, beta)
    want["asym_log"] = math.fsum(want.values())
    for key, w in want.items():
        got = _float_or_none(row[key])
        if got is None or abs(got - w) > ESTIMATE_TOL * max(1.0, abs(w)):
            return Op(ident, False, f"{key} {row[key]!r}, reference {w!r}")
    return Op(ident, True)


def check_det_grid(plan, results) -> list[Op]:
    import references as ref

    ops = []
    for argv, (code, text) in zip(plan, results):
        command, kind = argv[0], argv[1]
        if code != 0:
            ops.append(Op(" ".join(argv), False, f"exit code {code}"))
            continue
        rows = list(csv.DictReader(io.StringIO(text)))
        # every (n, beta) of the grid once, and nothing else
        want = Counter(_grid_points(argv))
        got = Counter((int(r["M"]), int(r["N"]), int(r["n"]), float(r["beta"])) for r in rows)
        for point in sorted((want - got).elements()):
            ops.append(Op(f"{command} {kind} {point} row", False, "row missing"))
        for point in sorted((got - want).elements()):
            ops.append(Op(f"{command} {kind} {point} row", False, "row not asked for"))
        for row in rows:
            M, N, n, beta = int(row["M"]), int(row["N"]), int(row["n"]), float(row["beta"])
            log_ref = (ref.log_ferro if kind == "ferro" else ref.log_domain_wall)(M, N, n, beta)
            ident = f"{command} {kind} ({M},{N},{n},{row['beta']})"
            if command == "correlator":
                ops.append(_check_value(ident, row["value_re"], row["value_im"], log_ref))
                continue
            exact = _float_or_none(row["exact_log"])
            if row["status"] != "ok" or exact is None or abs(exact - log_ref) > VALUE_TOL:
                ops.append(Op(ident + " exact_log", False, f"{row['exact_log']!r} ({row['status']}), reference {log_ref!r}"))
            else:
                ops.append(Op(ident + " exact_log", True))
            ops.append(_check_estimate(ident + " estimate", row, kind, M, N, n, beta))
    return ops


def _grid_points(argv: list[str]) -> list[tuple[int, int, int, float]]:
    """The (M, N, n, beta) rows one correlator or asym call should print."""
    opt = dict(zip(argv[2::2], argv[3::2]))
    M, N = int(opt["--M"]), int(opt["--N"])
    return [(M, N, int(n), float(b)) for n in opt["--n"].split(",") for b in opt["--beta"].split(",")]


def _det_fault_idents() -> frozenset[str]:
    out = set()
    for kind, M, N, n, beta in DET_FAULTS:
        b = _beta_text(beta)
        out.add(f"correlator {kind} ({M},{N},{n},{b})")
        out.add(f"asym {kind} ({M},{N},{n},{b}) exact_log")
    return frozenset(out)


# -- cross-check --------------------------------------------------------------
#
# Rings within the exact-diagonalization budget.  Every case is evaluated by
# the determinant path, the spectral-sum path and the ED oracle.  Each chain
# is swept over beta = 0 and one log-uniform draw from each of four strata
# reaching beta = 40; changing the chain rebuilds the spectral terms and the
# eigendecomposition, changing only beta reuses both.
XC_CHAINS = (
    # (kind, M, N, n)
    ("ferro", 10, 3, 2),
    ("ferro", 12, 4, 2),
    ("ferro", 12, 4, 3),
    ("ferro", 11, 5, 2),
    ("domain_wall", 12, 3, 1),
    ("domain_wall", 10, 4, 2),
    ("domain_wall", 14, 3, 2),
    ("domain_wall", 11, 4, 1),
)
XC_BETA_STRATA = ((0.2, 2.0), (2.0, 8.0), (8.0, 20.0), (20.0, 40.0))
XC_PATHS = ("determinant", "spectral_sum", "ed_oracle")


def cross_check_plan(seed: int) -> list[tuple]:
    rng = random.Random(f"cross-check/{seed}")
    plan = []
    for kind, M, N, n in XC_CHAINS:
        betas = [0.0] + [math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in XC_BETA_STRATA]
        plan.extend((kind, M, N, n, beta) for beta in betas)
    return plan


def run_cross_check(plan) -> list[tuple[complex, complex, complex]]:
    from xx0chain import edoracle, xx0core

    out = []
    for kind, M, N, n, beta in plan:
        fn = xx0core.persistence_ferro if kind == "ferro" else xx0core.persistence_domain_wall
        det = fn(M, N, n, beta).value
        spectral = fn(M, N, n, beta, method="spectral_sum").value
        ed = edoracle.oracle_correlator(kind, M, N, n, beta)
        out.append((det, spectral, ed))
    return out


def check_cross_check(plan, results) -> list[Op]:
    import references as ref

    ops = []
    for (kind, M, N, n, beta), values in zip(plan, results):
        log_ref = (ref.log_ferro if kind == "ferro" else ref.log_domain_wall)(M, N, n, beta)
        for path, v in zip(XC_PATHS, values):
            ident = f"{path} {kind} ({M},{N},{n},{beta!r})"
            ops.append(_check_value(ident, repr(v.real), repr(v.imag), log_ref))
    return ops


# -- exact-q ------------------------------------------------------------------
#
# Generating functions (many factors, one large exact division), q-binomial
# determinants (Bareiss elimination with many small exact divisions) and the
# two-block determinant identity in its proved regime P/2 < N < P.  The seed
# sets the call order, the L <-> N orientation of each zq and macmahon box
# (the product formula is symmetric and so is its cost) and the sides of the
# macmahon boxes.
EXQ_ZQ = ((8, 8, 8), (8, 6, 7), (6, 6, 6))
EXQ_CSPP = ((8, 10), (6, 8))
EXQ_QBINOM = ((5, 5, 5), (4, 5, 6))
EXQ_BOX_DET = ((5, 6, 10), (3, 6, 11), (2, 5, 9))
EXQ_MACMAHON_BOXES = 6


def exact_q_plan(seed: int) -> list[tuple]:
    rng = random.Random(f"exact-q/{seed}")

    def oriented(L, N, P):
        return (N, L, P) if rng.random() < 0.5 else (L, N, P)

    plan = [("zq",) + oriented(*box) for box in EXQ_ZQ]
    plan += [("zq_cspp", N, P) for N, P in EXQ_CSPP]
    plan += [("qbinom_det",) + box for box in EXQ_QBINOM]
    plan += [("macmahon",) + oriented(*(rng.randint(1, 30) for _ in range(3))) for _ in range(EXQ_MACMAHON_BOXES)]
    plan += [("box_det_identity",) + box for box in EXQ_BOX_DET]
    rng.shuffle(plan)
    return plan


def run_exact_q(plan) -> list:
    from xx0chain import boxcount, cli

    out = []
    for kind, *sides in plan:
        if kind == "box_det_identity":
            out.append(boxcount.box_det_identity(*sides))
            continue
        flags = ("--N", "--P") if kind == "zq_cspp" else ("--L", "--N", "--P")
        argv = ["count", kind, "--format", "json"]
        for flag, side in zip(flags, sides):
            argv += [flag, str(side)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out.append((code, buf.getvalue()))
    return out


def _series_props(obj: dict, lowest: int, span: int, total: int) -> str:
    """'' when obj is palindromic on [lowest, lowest + span] with coefficient sum total."""
    coeffs = {int(e): int(c) for e, c in obj.items()}
    if min(coeffs) != lowest or max(coeffs) != lowest + span:
        return f"support [{min(coeffs)}, {max(coeffs)}], want [{lowest}, {lowest + span}]"
    if any(coeffs.get(lowest + span - (e - lowest), 0) != c for e, c in coeffs.items()):
        return "not palindromic"
    if sum(coeffs.values()) != total:
        return f"coefficient sum {sum(coeffs.values())}, want {total}"
    return ""


def _check_series(ident: str, got: dict, want_lowest: int, want: list[int], total: int) -> Op:
    props = _series_props(got, want_lowest, len(want) - 1, total)
    if props:
        return Op(ident, False, props)
    import references as ref

    want_json = ref.series_to_json(want_lowest, want)
    if got != want_json:
        bad = sorted((e for e in got.keys() | want_json.keys() if got.get(e) != want_json.get(e)), key=int)
        return Op(ident, False, f"{len(bad)} coefficients differ, first at q^{bad[0]}")
    return Op(ident, True)


def check_exact_q(plan, results) -> list[Op]:
    import references as ref

    ops = []
    for (kind, *sides), result in zip(plan, results):
        ident = f"{kind} {tuple(sides)}"
        if kind == "box_det_identity":
            L, N, P = sides
            cal_p = P - N + 1
            want = ref.box_series(L, N, cal_p)
            total = ref.box_count(L, N, cal_p)
            for field in ("det_value", "qbd_value", "zq_value"):
                got = getattr(result, field).to_json_obj()
                ops.append(_check_series(f"{ident} {field}", got, 0, want, total))
            flags_ok = result.all_equal and result.in_proved_regime
            ops.append(Op(f"{ident} flags", flags_ok, "" if flags_ok else "all_equal/in_proved_regime false"))
            continue
        code, text = result
        if code != 0:
            ops.append(Op(ident, False, f"exit code {code}"))
            continue
        rows = json.loads(text)["rows"]
        if len(rows) != 1:
            ops.append(Op(ident, False, f"{len(rows)} rows, want 1"))
            continue
        value = rows[0]["value"]
        if kind == "macmahon":
            want = str(ref.box_count(*sides))
            ops.append(Op(ident, value == want, f"{value}, want {want}"))
        elif kind == "zq":
            ops.append(_check_series(ident, value, 0, ref.box_series(*sides), ref.box_count(*sides)))
        elif kind == "qbinom_det":
            L, N, P = sides
            lowest = N * P * (P - 1) // 2
            ops.append(_check_series(ident, value, lowest, ref.box_series(L, N, P), ref.box_count(L, N, P)))
        else:  # zq_cspp
            lowest, want = ref.cspp_series(*sides)
            ops.append(_check_series(ident, value, lowest, want, ref.cspp_count(*sides)))
    return ops


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int], list]  # seed -> the calls of one round
    run: Callable[[list], list]  # the timed part: plan -> raw outputs
    check: Callable[[list, list], list[Op]]
    # operations in one round; the plan's shape does not depend on the seed
    ops_per_round: int
    known_faults: frozenset[str] = frozenset()


DET_GRID_OPS = (
    len(DET_CHAINS) * DET_SITES_PER_CHAIN * DET_BETAS_PER_CHAIN * (2 + 2 * 2)  # correlator: 1 op, asym: 2
    + len(DET_FAULTS) * (1 + 2)
)
CROSS_CHECK_OPS = len(XC_CHAINS) * (1 + len(XC_BETA_STRATA)) * len(XC_PATHS)
EXACT_Q_OPS = len(EXQ_ZQ) + len(EXQ_CSPP) + len(EXQ_QBINOM) + EXQ_MACMAHON_BOXES + 4 * len(EXQ_BOX_DET)

WORKLOADS = {
    "det-grid": Workload(det_grid_plan, run_cli, check_det_grid, DET_GRID_OPS, _det_fault_idents()),
    "cross-check": Workload(cross_check_plan, run_cross_check, check_cross_check, CROSS_CHECK_OPS),
    "exact-q": Workload(exact_q_plan, run_exact_q, check_exact_q, EXACT_Q_OPS),
}
