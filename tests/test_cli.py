import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xx0chain import cli, xx0core


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestCorrelator:
    def test_grid_size(self, capsys):
        rc, out = run_cli(
            ["correlator", "ferro", "--M", "7", "--N", "2", "--n", "0,1,2", "--beta", "0,1"],
            capsys,
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6

    def test_budget_defaults_to_the_spectral_budget(self, capsys, monkeypatch):
        # (8,3) has 84 Bethe states: within the budget, and past it once the constant falls to 17
        argv = ["correlator", "ferro", "--M", "8", "--N", "3", "--n", "1", "--method", "spectral_sum"]
        (row,) = csv.DictReader(io.StringIO(run_cli(argv, capsys)[1]))
        assert row["method"] == "spectral_sum"
        monkeypatch.setattr(xx0core, "SPECTRAL_BUDGET", 17)
        (row,) = csv.DictReader(io.StringIO(run_cli(argv, capsys)[1]))
        assert row["method"] == "budget-exceeded"
        assert run_cli(argv + ["--budget", "84"], capsys)[1].splitlines()[1].endswith(",spectral_sum,")

    def test_negative_beta_list_after_a_space(self, capsys):
        # the token after --beta is its value, even where it reads like an option
        for beta in ("-0.5,1", "-1e-3"):
            argv = ["correlator", "ferro", "--M", "10", "--N", "3", "--n", "2"]
            rc, spaced = run_cli(argv + ["--beta", beta], capsys)
            assert rc == 0 and spaced == run_cli(argv + [f"--beta={beta}"], capsys)[1]
            assert len(spaced.splitlines()) == 1 + beta.count(",") + 1

    def test_n_zero_rows_are_one(self, capsys):
        rc, out = run_cli(
            ["correlator", "ferro", "--M", "6", "--N", "2", "--n", "0", "--beta", "0,0.5,1"],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(float(r["value_re"]) == 1.0 for r in rows)

    def test_csv_json_round_trip(self, capsys):
        argv = ["correlator", "domain_wall", "--M", "6", "--N", "2", "--n", "1,2", "--beta", "1"]
        _, out_csv = run_cli(argv, capsys)
        _, out_json = run_cli(argv + ["--format", "json"], capsys)
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)["rows"]
        assert len(csv_rows) == len(json_rows)
        for rc_, rj in zip(csv_rows, json_rows):
            assert rc_["value_re"] == str(rj["value_re"])
            assert rc_["value_im"] == str(rj["value_im"])

    def test_walker_table(self, capsys):
        rc, out = run_cli(["correlator", "walker", "--M", "2", "--beta", "0"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        diag = [r for r in rows if r["k"] == r["l"]]
        assert all(float(r["value_re"]) == pytest.approx(1.0) for r in diag)

    def test_walker_output_bytes_pinned(self, capsys):
        # sha256 of stdout, recorded while the full (M+1) x (M+1) table was cached
        rc, out = run_cli(["correlator", "walker", "--M", "7,30", "--beta", "0.3,2.5"], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d374ebf75702edd7f5b869abff768720a82aceef7225093b51c23c93b9a9003e"
        )

    def test_walker_overflow_warns(self, capsys):
        # exp(beta) overflows at beta = 800: every row is NaN and must say so in its warnings, while
        # numpy's RuntimeWarnings (errors in this test run) stay inside the table's build
        xx0core._amplitude_table_cached.cache_clear()
        rc = cli.main(["correlator", "walker", "--M", "7", "--beta", "0.3,800"])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 64
        for r in rows:
            finite = math.isfinite(float(r["value_re"])) and math.isfinite(float(r["value_im"]))
            assert finite == (r["beta"] == "0.3")
            assert r["warnings"] == ("" if finite else "non-finite value (nan+nanj)")

    def test_efp_kind(self, capsys):
        rc, out = run_cli(
            ["correlator", "efp", "--M", "3", "--N", "1", "--n", "1", "--beta", "0"], capsys
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["value_re"]) == pytest.approx(0.75)

    def test_efp_ignores_beta(self, capsys):
        # efp is the beta = 0 sine-kernel form factor on every row, whatever --beta says
        rc, out = run_cli(["correlator", "efp", "--M", "100", "--N", "30", "--n", "20", "--beta", "0,5"], capsys)
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["beta"] for r in rows] == ["0", "5"]
        assert rows[0]["value_re"] == rows[1]["value_re"] == "{:.15g}".format(
            xx0core.efp_formfactor(xx0core.ground_state(100, 30), 20)
        )

    def test_ill_conditioned_domain_wall_is_real(self, capsys):
        # Cholesky fails here; the sorted QR of the Gram factor gives the
        # benchmark's reference value, real, with only the ill-conditioned warning
        rc, out = run_cli(["correlator", "domain_wall", "--M", "12", "--N", "8", "--n", "1", "--beta", "40"], capsys)
        assert rc == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["value_re"]) == pytest.approx(1.31083890573e-5, rel=1e-9)
        assert row["value_im"] == "0"
        assert row["warnings"] == "ill-conditioned determinant (conditioning estimate nan)"

    def test_ferro_above_one_is_warned(self, capsys):
        # the weights span 1 to 3.5e-323 here and the QR of the Gram factor
        # gives 2.60, which no probability can be; the row says so
        rc, out = run_cli(["correlator", "ferro", "--M", "12", "--N", "10", "--n", "1", "--beta", "800"], capsys)
        assert rc == 0
        (row,) = csv.DictReader(io.StringIO(out))
        assert float(row["value_re"]) <= 1 or "ferro correlator exceeds 1 (log " in row["warnings"]


class TestCount:
    def test_macmahon(self, capsys):
        rc, out = run_cli(["count", "macmahon", "--L", "2", "--N", "2", "--P", "2"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["value"] == "20"

    def test_zq_json_exact_form(self, capsys):
        rc, out = run_cli(
            ["count", "zq", "--L", "1", "--N", "1", "--P", "1", "--format", "json"], capsys
        )
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == {"0": "1", "1": "1"}

    def test_symmetric_argument_permutations(self, capsys):
        _, out_a = run_cli(["count", "zq", "--L", "1", "--N", "2", "--P", "3"], capsys)
        _, out_b = run_cli(["count", "zq", "--L", "3", "--N", "2", "--P", "1"], capsys)
        val_a = list(csv.DictReader(io.StringIO(out_a)))[0]["value"]
        val_b = list(csv.DictReader(io.StringIO(out_b)))[0]["value"]
        assert val_a == val_b

    def test_a_cspp_and_zq_cspp(self, capsys):
        _, out = run_cli(["count", "a_cspp", "--N", "2", "--P", "2"], capsys)
        assert list(csv.DictReader(io.StringIO(out)))[0]["value"] == "6"
        _, out = run_cli(["count", "zq_cspp", "--N", "1", "--P", "2"], capsys)
        assert json.loads(list(csv.DictReader(io.StringIO(out)))[0]["value"]) == {
            "0": "1",
            "1": "1",
            "2": "1",
        }

    def test_qbinom_det_pattern(self, capsys):
        # staircase-index determinant carries the box generating function
        from xx0chain.boxcount import zq
        from xx0chain.qexact import LaurentPoly, exact_half

        _, out = run_cli(
            ["count", "qbinom_det", "--L", "2", "--N", "2", "--P", "2", "--format", "json"],
            capsys,
        )
        got = LaurentPoly.from_json_obj(json.loads(out)["rows"][0]["value"])
        want = LaurentPoly.monomial(1, exact_half(2 * 2 * 1)) * zq(2, 2, 2)
        assert got == want
        # the empty determinant at P = 0
        _, out = run_cli(["count", "qbinom_det", "--P", "0", "--format", "json"], capsys)
        assert json.loads(out)["rows"][0]["value"] == {"0": "1"}

    def test_qbinom_det_on_a_long_side(self, capsys):
        # [1201, 1200] = 1 + q + ... + q^1200; a recursive q-binomial overflowed the stack here
        rc, out = run_cli(["count", "qbinom_det", "--L", "1200", "--N", "1", "--P", "1", "--format", "json"], capsys)
        assert rc == 0
        assert json.loads(out)["rows"][0]["value"] == {str(e): "1" for e in range(1201)}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24,
)


@given(JSON_VALUES)
@example({"rows": [{"value": {}, "é": "ß→∞"}, {}], "columns": [[], ["x"]], "n": 1.5e-300})
def test_indented_json_is_the_indent_2_encoding(obj):
    assert cli._indented(obj) == json.dumps(obj, indent=2)


# sha256 of stdout, recorded before the exact layer moved to integer arithmetic;
# qbinom_det (8,8,8), the widest packed determinant, was recorded before
# exact_det moved from Laurent-ring Bareiss to packed integers
PINNED_COUNT_OUTPUTS = {
    "count zq --L 8 --N 8 --P 8": "443e5e1f65f40b4ab82f03013f9c7cc98bb46d57d76b6183697a2676bbf7d24f",
    "count zq_cspp --N 8 --P 10": "324cc98c39745c76e1940a96f67d552d38ba8006a8d424a4a5e55f50ed59523a",
    "count qbinom_det --L 5 --N 5 --P 5": "3fb924728eb711d29b9f1faf4b5ca330445f01266dc592507d44bf903bd4bdf1",
    "count qbinom_det --L 8 --N 8 --P 8": "cca345692ace8de875bfdac83cd85f3bb3d94a6dc9e2a15edd7b514454136bb7",
    "count macmahon --L 30 --N 30 --P 30": "bb417b38893ca441c8da6eb21d8af507a934e4ddd420d28233aea616a3f1f79f",
}


@pytest.mark.parametrize("command", sorted(PINNED_COUNT_OUTPUTS))
def test_count_output_bytes_pinned(command, capsys):
    rc, out = run_cli(command.split() + ["--format", "json"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_COUNT_OUTPUTS[command]


# sha256 of stdout (csv), recorded before the column-strict counts and both
# estimates went through one box count; the last three entries, with sides of
# 70 and 100, were re-recorded when every box count became one log1p sum, which
# prints the exact count's log where a Barnes G-ratio was off by ~1e-10.  The
# domain-wall (200,16) entry was re-recorded when the determinant path went to
# real arithmetic.  Its exact_log column moved toward 50-digit Gram values, to
# within 2e-14 of them: (n, beta) = (2,3) from 5.6e-14 off, (5,3) from -4.2e-13
# and (5,20) from 5.5e-13; (2,20) prints the same digits.  The ferro (60,6) and
# domain-wall (200,16) entries were re-recorded when the Gram determinant was
# folded by the ring's reflection into real halves normalized by 1/(M+1):
# exact_log at (200,16,5,3) from -2.2e-14 to -1.5e-15 off a 32-digit Gram value,
# (60,6,1,8) from -1.3e-14 to -5.7e-15 and (60,6,1,40) from +1.5e-14 to -1.3e-14
# off 40-digit ones
PINNED_ASYM_OUTPUTS = {
    "asym ferro --M 60 --N 6 --n 1,3 --beta 8,40 --exact-max-M 60":
        "98db5932a638a37f0e11e9d07f4d32c8a7d408649553751f1dbb671682d97b29",
    "asym domain_wall --M 200 --N 16 --n 2,5 --beta 3,20 --exact-max-M 200":
        "670e50fc93303fbe659e42a11e0b8e987b217c8d75aebe4ae29cee8b3b9bde0e",
    "asym ferro --M 1000 --N 100 --n 3 --beta 1 --exact-max-M 24":
        "36baa4dd34b40eb70e91f4ee967dfe57453d0ce10f89343ab2f275e54aaa9499",
    "asym domain_wall --M 1000 --N 100 --n 3 --beta 1 --exact-max-M 24":
        "a4f4a9bb11284feebbc081f251e500132028a9342111da377ef874ba59a7d8ad",
    "asym ferro --M 300 --N 70 --n 1,2 --beta 5 --exact-max-M 24":
        "bf33ef556f471429750d2a7dd96671c78d7662ec3cbd539d099780cdb7d57fa0",
}


@pytest.mark.parametrize("command", sorted(PINNED_ASYM_OUTPUTS))
def test_asym_output_bytes_pinned(command, capsys):
    rc, out = run_cli(command.split(), capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_ASYM_OUTPUTS[command]


# sha256 of stdout (csv) of long-chain determinant-path tables, recorded
# before the site-sum matrix and the Gram values were cached.  The three
# correlator tables on M = 1000 with N = 60 or a domain wall were re-recorded
# when the determinant path went to real arithmetic (phase-free Dirichlet
# rows, one real Gram product per beta): their values moved in the last
# printed digits, by at most 1.7e-11 relative, to within 1.8e-13 of 32-digit
# Gram values, from up to 1.7e-11 off.  All five were re-recorded when the
# Gram determinant was folded into real halves normalized by 1/(M+1), which
# drops the cancellation against (N+Ng) log(M+1): their 14 moved values went
# from up to 1.8e-13 to within 5.8e-14 of 32-digit Gram values (log errors)
PINNED_DET_OUTPUTS = {
    "correlator ferro --M 1000 --N 60 --n 1,3 --beta 0.5,3":
        "9b59468e05927dd088d7897ef0d21e6794d968e59e65511914d01d97235f835b",
    "correlator domain_wall --M 1000 --N 60 --n 1,3 --beta 0.5,3":
        "d3f16f72ab5a82fda62520de9f2affdf3cf4c43f045f33e3a60d3d07ce9d362b",
    "correlator ferro --M 1000 --N 100 --n 3 --beta 1":
        "ea283d7a442de046ba02096c4694ef04fd4bff0fdaa5b0cf1ea3e4146116787e",
    "correlator domain_wall --M 1000 --N 100 --n 3 --beta 1":
        "ec2a30937dbf9013223cc58d365777e50194752f42ac933ee5cde98dd1112cf7",
    "asym ferro --M 400 --N 40 --n 2,5 --beta 1,6 --exact-max-M 400":
        "0b0a37d3d9401ffc4a3f5978e1c923d197958246eaaa1f350e91d9ab5a335261",
}


@pytest.mark.parametrize("command", sorted(PINNED_DET_OUTPUTS))
def test_determinant_output_bytes_pinned(command, capsys):
    rc, out = run_cli(command.split(), capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DET_OUTPUTS[command]


# sha256 of stdout (csv) of the paths no entry above reaches, recorded while
# the sorted QR and the spectral minors took C as real rows plus separate
# imaginary border rows.  Each correlator value below fails the Cholesky gate:
# the QR recomputes it, within 1e-9 of the spectral path, and the row is warned
PINNED_FALLBACK_OUTPUTS = {
    "correlator ferro --M 24 --N 20 --n 1 --beta 40":
        "d6ffaee8fe76748e98fa72c38a4467068d968d240b9307a76d0416cd15167215",
    "correlator ferro --M 16 --N 10 --n 6 --beta 34.523":
        "0dd3dac7ed018b5834565dbd9207c92f82835039d8cdc63f7d2508d1980ef4fa",
    "correlator ferro --M 32 --N 30 --n 3 --beta 34.652":
        "3325e5da71b994b412ed34256da725109b090a98d174e37196610dd7ec31f330",
    "correlator domain_wall --M 12 --N 8 --n 1 --beta 40":
        "d3b1b4e87b70abc34903bb9e5ea3a8584fdb9db3e4d7b427713b4781dcbbee86",
    "correlator domain_wall --M 13 --N 13 --n 5 --beta 34.843":
        "528a1eddfafc8f19868ad12dc0050ab17ebb3c7ec2ebf9023d74db51aeab7950",
    "correlator domain_wall --M 38 --N 37 --n 23 --beta 7.608":
        "7031645f618cabc38f9a565705725467deea3d0182a8a27c1e23367d6ba4dd6e",
    "correlator ferro --M 10 --N 3,4 --n 1,2 --beta 0,2.5,40 --method spectral_sum":
        "567503dfd3bb5e2c00b8891504388573844ac300c08850ee1d852d8d86f82d7b",
    "correlator domain_wall --M 10 --N 3,4 --n 1,2 --beta 0,2.5,40 --method spectral_sum":
        "27f8af46cc0577147bd872a5721135530f10277e7b8dbd25ec835c2faa8177e9",
}


@pytest.mark.parametrize("command", sorted(PINNED_FALLBACK_OUTPUTS))
def test_fallback_output_bytes_pinned(command, capsys):
    rc, out = run_cli(command.split(), capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FALLBACK_OUTPUTS[command]


class TestVerify:
    def test_default_suite_passes(self, capsys):
        rc, out = run_cli(["verify"], capsys)
        assert rc == 0
        assert out.strip().endswith("verify: PASS")

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(["verify"], capsys)
        _, out2 = run_cli(["verify"], capsys)
        assert out1 == out2

    def test_injected_fault_fails_with_named_suite(self, capsys):
        rc, out = run_cli(["verify", "--inject-fault"], capsys)
        assert rc == 1
        assert "binet-cauchy: FAIL" in out

    def test_nan_correlator_fails(self, capsys, monkeypatch):
        # negative control: a NaN value must not fold away as a small deviation
        def nan_result(M, N, n, beta, method="determinant", max_states=None):
            return xx0core.CorrelatorResult(complex(math.nan, math.nan), method, (M, N, n, beta))

        monkeypatch.setattr(xx0core, "persistence_ferro", nan_result)
        rc, out = run_cli(["verify", "--suite", "correlators", "--Mmax", "4", "--Nmax", "2"], capsys)
        assert rc == 1
        assert "correlators: FAIL (max deviation nan)" in out

    def test_nan_among_vanishing_values_fails(self, capsys, monkeypatch):
        # 0, NaN, 0 has scale 0 and must not be skipped as "all three vanish"
        def ferro(M, N, n, beta, method="determinant", max_states=None):
            value = complex(math.nan, 0.0) if method == "spectral_sum" else 0j
            return xx0core.CorrelatorResult(value, method, (M, N, n, beta))

        monkeypatch.setattr(xx0core, "persistence_ferro", ferro)
        monkeypatch.setattr(cli.edoracle, "oracle_correlator", lambda kind, *args: 0.0)
        monkeypatch.setattr(xx0core, "persistence_domain_wall", ferro)
        rc, out = run_cli(["verify", "--suite", "correlators", "--Mmax", "3", "--Nmax", "1"], capsys)
        assert rc == 1
        assert "correlators: FAIL (max deviation nan)" in out

    def test_nan_deviation_is_worst(self):
        assert math.isnan(cli._worst(0.0, math.nan, 1.0))
        assert math.isnan(cli._worst(math.nan, 0.5))
        assert cli._worst(0.0, math.inf) == math.inf

    def test_suite_filter(self, capsys):
        rc, out = run_cli(["verify", "--suite", "box-determinants", "--Lmax", "4"], capsys)
        assert rc == 0
        lines = [l for l in out.strip().splitlines() if ":" in l]
        assert lines[0].startswith("box-determinants:")
        assert len(lines) == 2  # one suite plus the summary

    def test_unknown_suite_usage_error(self, capsys):
        rc, _ = run_cli(["verify", "--suite", "nope"], capsys)
        assert rc == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        rc, out = run_cli(["verify", "--suite", "box-determinants", "--out", str(path)], capsys)
        assert rc == 0
        assert out == ""
        assert path.read_text().endswith("verify: PASS\n")


class TestAsymCmd:
    def test_columns_and_pieces(self, capsys):
        rc, out = run_cli(
            ["asym", "ferro", "--M", "20", "--N", "2", "--n", "1", "--beta", "10,20"], capsys
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        import math

        # beta doubling shifts only the critical-exponent piece, by -(N^2/2) log 2
        shift = float(rows[1]["critical_exponent"]) - float(rows[0]["critical_exponent"])
        assert shift == pytest.approx(-2.0 * math.log(2), rel=1e-12)
        assert rows[0]["amplitude"] == rows[1]["amplitude"]

    def test_amplitude_is_squared_count(self, capsys):
        import math

        from xx0chain.boxcount import a_cspp

        _, out = run_cli(["asym", "ferro", "--M", "20", "--N", "2", "--n", "1", "--beta", "10"], capsys)
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert math.exp(float(row["amplitude"])) == pytest.approx(a_cspp(2, 19) ** 2, rel=1e-9)

    def test_amplitude_exact_on_a_long_chain(self, capsys):
        # few particles on a million sites, where a ratio of Barnes G values cancels terms of size P^2 log P
        from xx0chain.boxcount import a_cspp

        _, out = run_cli(
            ["asym", "ferro", "--M", "1000000", "--N", "3", "--n", "3", "--beta", "1e4", "--exact-max-M", "24"],
            capsys,
        )
        row = list(csv.DictReader(io.StringIO(out)))[0]
        want = 2 * math.log(a_cspp(3, 999997))
        assert float(row["amplitude"]) == pytest.approx(want, rel=1e-12, abs=0)

    def test_asym_only_marking(self, capsys):
        _, out = run_cli(
            ["asym", "ferro", "--M", "18,40", "--N", "2", "--n", "1", "--beta", "10",
             "--exact-max-M", "20"],
            capsys,
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["status"] == "ok" and rows[0]["exact_log"] != ""
        assert rows[1]["status"] == "asym-only" and rows[1]["exact_log"] == ""

    def test_status_flags_bad_exact_values(self, capsys):
        # (60,20,3,40) overflowed in linear space and is now evaluated in log
        # space; (24,20,1,40) is ill-conditioned: its value, from the QR of the
        # Gram factor, is right, but it carries the warning and must say so
        _, out = run_cli(
            ["asym", "ferro", "--M", "60", "--N", "20", "--n", "3", "--beta", "1,40", "--exact-max-M", "60"],
            capsys,
        )
        for row in csv.DictReader(io.StringIO(out)):
            assert row["status"] == "ok" and math.isfinite(float(row["exact_log"]))
        # log of the 60-digit Gram determinant 0.0286630991376770
        assert float(row["exact_log"]) == pytest.approx(-3.5521447278, abs=1e-7)
        _, out = run_cli(["asym", "ferro", "--M", "24", "--N", "20", "--n", "1", "--beta", "40"], capsys)
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert row["status"] == "unreliable"
        assert float(row["exact_log"]) == pytest.approx(-3.21842199688, abs=1e-9)

    def test_pieces_sum_to_estimate(self, capsys):
        _, out = run_cli(["asym", "domain_wall", "--M", "30", "--N", "3", "--n", "1", "--beta", "60"], capsys)
        row = list(csv.DictReader(io.StringIO(out)))[0]
        total = sum(float(row[k]) for k in ("amplitude", "critical_exponent", "phi"))
        assert total == pytest.approx(float(row["asym_log"]), rel=1e-12)


class TestParser:
    SEQUENCE = [
        ["correlator", "ferro", "--M", "7", "--N", "2", "--n", "1,2", "--beta", "0,1"],
        ["count", "zq", "--L", "2", "--N", "3", "--P", "2"],
        ["asym", "domain_wall", "--M", "20", "--N", "3", "--n", "1", "--beta", "2", "--format", "json"],
        ["correlator", "domain_wall", "--M", "8", "--n", "1", "--method", "spectral_sum"],
        ["verify", "--suite", "box-determinants"],
        ["correlator", "ferro", "--M", "7", "--N", "2", "--n", "1,2", "--beta", "0,1"],
    ]

    def test_outputs_do_not_depend_on_what_ran_before(self, capsys):
        forward = [run_cli(argv, capsys) for argv in self.SEQUENCE]
        backward = [run_cli(argv, capsys) for argv in reversed(self.SEQUENCE)]
        assert forward == backward[::-1]
        assert forward[0] == forward[-1]

    def test_kind_and_prefixes_anywhere(self, capsys):
        argv = ["asym", "ferro", "--M", "20", "--N", "2", "--n", "1", "--beta", "10", "--exact-max-M", "30"]
        want = run_cli(argv, capsys)
        for argv in (
            ["asym", "--M", "20", "ferro", "--N", "2", "--n", "1", "--beta", "10", "--exact-max-M", "30"],
            ["asym", "--M=20", "--N=2", "--n=1", "--be=10", "--exact", "30", "ferro"],
            ["asym", "ferro", "--M", "40", "--M", "20", "--N", "2", "--n", "1", "--beta", "10", "--e=30"],
        ):
            assert run_cli(argv, capsys) == want, argv

    # a command line that does not parse: usage and error on stderr, nothing on stdout, exit 2
    MALFORMED = [
        [],
        ["nonsense"],
        ["correlator", "ferro", "--X", "1"],
        ["correlator", "ferro", "--b", "1"],  # --beta or --budget
        ["correlator", "ferro", "--M"],
        ["correlator", "ferro", "--format", "xml"],
        ["correlator", "ferro", "--method=lu"],
        ["correlator", "nonsense"],
        ["correlator", "ferro", "--M", "x"],
        ["verify", "--tol", "small"],
        ["correlator", "--M", "7"],
        ["correlator", "ferro", "walker"],
        ["verify", "extra"],
        ["verify", "--inject-fault=1"],
        ["count", "zq", "-L", "2"],
    ]

    @pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
    def test_malformed_command_line_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: xx0chain ") and " error: " in error

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_names_every_option(self, command, capsys):
        _, kinds, options = cli._COMMANDS[command]
        for argv in ([command, "--help"], [command, "--out=x", "-h"], [command, "--he"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            out = capsys.readouterr().out
            assert exc.value.code == 0 and out.startswith(cli.__doc__.strip())
            named = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
            assert named == {f"--{name}" for name in options}
            assert all(kind in out for kind in kinds or ())
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0 and f"  {command}" in capsys.readouterr().out

    # arguments outside a function's domain: one stderr line naming the constraint, exit 2
    OUT_OF_DOMAIN = [
        ("asym ferro --M 5 --N 3 --n 4", "need n >= 0 and M - n >= N - 1"),
        ("asym ferro --beta 0", "need beta > 0 and finite"),
        ("asym domain_wall --beta nan", "need beta > 0 and finite"),
        ("asym domain_wall --N 2 --n 3", "need 0 <= n <= N and M >= N - 1"),
        ("correlator ferro --M 5 --N 3 --n 9", "need 0 <= n <= M+1"),
        ("correlator ferro --M 5 --N 9", "need 0 <= N <= M+1"),
        ("correlator ferro --beta inf", "beta must be finite"),
        ("correlator ferro --beta nan", "beta must be finite"),
        ("correlator domain_wall --M 0 --N 1 --n 1 --beta 0.5", "need M >= 1"),
        ("correlator ferro --M 0 --N 1 --n 1 --method spectral_sum", "need M >= 1"),
        ("asym domain_wall --M 0 --N 1 --n 1 --beta 0.5", "need M >= 1"),
        ("count zq_cspp --N 3 --P 1", "P >= N-1"),
        ("count macmahon --L -1", "box sides must be non-negative"),
        ("count qbinom_det --L -1 --N 2 --P 2", "box sides must be non-negative"),
        ("count qbinom_det --L 3 --N -1 --P 2", "box sides must be non-negative"),
        ("count qbinom_det --L 3 --N 2 --P -1", "box sides must be non-negative"),
    ]

    @pytest.mark.parametrize("command,constraint", OUT_OF_DOMAIN)
    def test_out_of_domain_is_a_usage_error(self, command, constraint, capsys):
        rc = cli.main(command.split())
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"xx0chain {command.split()[0]}: ")
        assert constraint in captured.err

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["correlator", "nonsense"])
        capsys.readouterr()
        rc, out = run_cli(["count", "macmahon", "--L", "2", "--N", "2", "--P", "2"], capsys)
        assert rc == 0 and out == "L,N,P,value\n2,2,2,20\n"
