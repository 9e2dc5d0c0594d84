import ast
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from importlib import resources
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import validate_table_schema
from perfbench.checks import exact_closed_forms
import zenoprop
from zenoprop import recursion, wavepacket
from zenoprop.cli import _numerical_guard, _write_table, main


@pytest.fixture
def runner():
    return CliRunner()


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def load_schema():
    with resources.files("zenoprop").joinpath("schemas/output.schema.json").open() as fh:
        return json.load(fh)


class TestFv:
    def test_grid_and_values(self, runner, tmp_path):
        out = tmp_path / "fv.csv"
        result = runner.invoke(main, ["fv", "--out", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = read_rows(out)
        assert header == ["t", "f_v"]
        assert len(rows) == 2100  # 2101 lines including the header
        assert float(rows[0][0]) == pytest.approx(0.01)
        assert float(rows[-1][0]) == pytest.approx(21.0)
        # frozen closed-form value at t = 0.01 with the calibrated strength
        assert float(rows[0][1]) == pytest.approx(0.9933628644603212, rel=1e-12)
        col = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(col) < 0)

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            res = runner.invoke(main, ["fv", "--out", str(path)])
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema(self, runner, tmp_path):
        out = tmp_path / "fv.json"
        res = runner.invoke(main, ["fv", "--out", str(out), "--format", "json"])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert validate_table_schema(doc, load_schema()) == []
        assert doc["meta"]["command"] == "fv"
        assert len(doc["rows"]) == 2100

    def test_unwritable_path_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(main, ["fv", "--out", str(tmp_path / "nope" / "fv.csv")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", ["fv", "fp"])
    def test_default_absorption_is_four_thirds_per_eps(self, runner, tmp_path, command):
        # the default strength is v0 eps = 4/3 exactly, reported as
        # v0 = 4/(3 eps), and f_v is taken on s = t/eps: at every eps the
        # f_v column is the eps = 1 column byte for byte
        def table(eps):
            out = tmp_path / f"{command}-{eps}.json"
            res = runner.invoke(main, [command, "--eps", eps, "--format", "json",
                                       "--out", str(out)])
            assert res.exit_code == 0, result_output(res)
            doc = json.loads(out.read_text())
            j = doc["columns"].index("f_v")
            return doc["meta"]["params"]["v0"], [row[j] for row in doc["rows"]]

        v0, unit = table("1")
        assert v0 == 4 / 3
        for eps in ("0.5", "0.3", "7", "1e-200"):
            v0, column = table(eps)
            assert v0 == 4 / (3 * float(eps))
            assert column == unit, eps
        assert table("0.5")[0] == pytest.approx(8 / 3)


class TestFp:
    def test_columns_and_breakpoint_rows(self, runner, tmp_path):
        out = tmp_path / "fp.csv"
        res = runner.invoke(
            main,
            ["fp", "--out", str(out), "--n-max", "3", "--samples-per-interval", "8"],
        )
        assert res.exit_code == 0, result_output(res)
        header, rows = read_rows(out)
        assert header == ["t", "f_p_model", "f_p_numeric", "f_v", "s", "side"]
        assert len(rows) == 4 * 8 + 3  # (n_max+1)*spi + n_max
        sides = [r[5] for r in rows]
        assert sides.count("minus") == 4
        assert sides.count("plus") == 3
        # peak row at t = 2 (one projection): numeric and model both 1/2
        peak = next(r for r in rows if r[5] == "minus" and float(r[0]) == 2.0)
        assert float(r := peak[1]) == pytest.approx(0.5, rel=1e-12), r
        assert float(peak[2]) == pytest.approx(0.5, abs=2e-3)
        trough = next(r for r in rows if r[5] == "plus" and float(r[0]) == 2.0)
        assert float(trough[1]) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("eps", ["0.1", "0.3", "0.7"])
    def test_model_rows_at_every_drop(self, runner, tmp_path, eps):
        # at the k-th projection, t = k eps, the model's minus row is its
        # peak 1/k and its plus row the trough 1/(2k), whatever eps
        out = tmp_path / "fp.csv"
        res = runner.invoke(main, ["fp", "--eps", eps, "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        _, rows = read_rows(out)
        drops = [(round(float(r[0]) / float(eps)), r[5], float(r[1])) for r in rows if r[5]]
        assert len(drops) == 2 * 20 + 1
        for k, side, model in drops:
            assert model == (1 / k if side == "minus" else 0.5 / k), (k, side)

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["fp", "--out", str(tmp_path / "x.csv"), "--n-max", "2", "--v0", "1e14"],
        )
        assert res.exit_code == 3

    def test_usage_errors(self, runner, tmp_path):
        res = runner.invoke(main, ["fp", "--out", str(tmp_path / "x.csv"), "--n-max", "0"])
        assert res.exit_code == 2
        res = runner.invoke(main, ["fp"])  # missing --out
        assert res.exit_code == 2


def result_output(res):
    return res.output + (repr(res.exception) if res.exception else "")


class TestExact:
    def test_values(self, runner, tmp_path):
        out = tmp_path / "exact.csv"
        res = runner.invoke(main, ["exact", "--out", str(out)])
        assert res.exit_code == 0
        header, rows = read_rows(out)
        table = {r[0]: float(r[1]) for r in rows}
        assert table["envelope_one_projection"] == 0.5
        assert table["envelope_two_projection_peak"] == pytest.approx(1 / 3, rel=1e-12)
        assert table["chain_pp_equal"] == pytest.approx(1 / (3 * np.sqrt(3)), rel=1e-12)
        assert table["chain_ppp_reconstructed"] == pytest.approx(0.125, rel=1e-10)
        assert table["time_averaged_two"] == pytest.approx(1 / 3, abs=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", ["1e-300", "1e-200", "1e-160", "0.1", "3", "1e160", "1e300"])
    def test_scale_free_at_extreme_eps(self, runner, tmp_path, eps):
        # the closed forms depend on ratios of instants only, so no eps
        # overflows, underflows or warns down to 4/(3 DBL_MAX), about
        # 7.4e-309, below which the default v0 = 4/(3 eps) overflows
        # (TestUsageErrors).  The envelopes are taken in s = t/eps, the
        # absorbing one at the default v0 eps = 4/3 exactly, so their rows
        # and the time averages are the eps = 1 bytes; the chain integrals
        # carry 1/sqrt(eps)
        def table(*args):
            out = tmp_path / "exact.csv"
            res = runner.invoke(main, ["exact", *args, "--out", str(out)])
            assert res.exit_code == 0, result_output(res)
            return dict(read_rows(out)[1])

        rows, unit = table("--eps", eps), table()
        want = exact_closed_forms(float(eps))
        assert list(rows) == list(want)
        for name, value in rows.items():
            if name.startswith(("envelope_", "time_averaged_", "absorbing_envelope_")):
                assert value == unit[name], name
            assert float(value) == pytest.approx(want[name], rel=1e-6), name

    def test_time_average_does_not_follow_the_blas_kernel(self, tmp_path):
        # the time average is one numpy reduction, not a matrix product, so
        # the exact table has the same bytes under every OpenBLAS core type
        # (a product read one ulp below the double nearest 1/3 under Prescott
        # and one ulp above it under Haswell)
        def table(coretype):
            out = tmp_path / f"exact-{coretype}.csv"
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = str(Path(zenoprop.__file__).parents[1])
            subprocess.run([sys.executable, "-m", "zenoprop.cli", "exact", "--out", str(out)],
                           env=env, check=True)
            return out.read_bytes()

        default = table(None)
        assert b"time_averaged_two,0.33333333333333331\n" in default
        assert table("Prescott") == default
        assert table("Haswell") == default


class TestLattice:
    def test_refinement_table(self, runner, tmp_path):
        out = tmp_path / "lat.csv"
        res = runner.invoke(main, ["lattice", "--out", str(out)])
        assert res.exit_code == 0
        header, rows = read_rows(out)
        assert header == ["steps_per_projection", "eta", "dtau", "ratio"]
        assert len(rows) == 6  # 5 levels + extrapolated
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=3e-10)  # measured 2.83e-11
        ratios = [float(r[3]) for r in rows[:-1]]
        assert ratios == sorted(ratios)  # monotone convergence recorded

    @pytest.mark.parametrize("m, eps", [(2.5, 0.3), (1e300, 1e-10), (1.0, 1e-300),
                                        (2.0**1022, 2.0**-1012)])
    def test_ratio_is_the_unit_walks(self, runner, tmp_path, m, eps):
        # the ratio is scale-free: at every (m, eps) the ratio column, the
        # extrapolated row too, is the unit table's (m = eps = 1, tau = 4),
        # byte for byte, where m / tau or eps / tau would leave the floats.
        # At m = 2^1022 and eps = 2^-1012 the finest dtau and eta are both
        # DBL_MIN exactly, the edge of the normal floats
        def ratios(*args):
            out = tmp_path / "lat.csv"
            res = runner.invoke(main, ["lattice", *args, "--out", str(out)])
            assert res.exit_code == 0, result_output(res)
            _, rows = read_rows(out)
            return [r[3] for r in rows]

        scaled = ratios("--m", repr(m), "--eps", repr(eps), "--tau", repr(4 * eps))
        assert scaled == ratios("--tau", "4")

    @pytest.mark.parametrize("m, eps", [(1e300, 1e-100), (1e-300, 1e100)])
    def test_eta_where_eps_over_m_leaves_the_floats(self, runner, tmp_path, m, eps):
        # eps/m is 1e-400 or 1e400, but eta = sqrt(eps/m)/sqrt(r) is 1e-200
        # or 1e200 over sqrt(r), written to the last digit
        out = tmp_path / "lat.csv"
        args = ["--m", repr(m), "--eps", repr(eps), "--tau", repr(4 * eps)]
        res = runner.invoke(main, ["lattice", *args, "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        _, rows = read_rows(out)
        root = 1e-200 if m > 1 else 1e200
        for row in rows[:-1]:
            assert float(row[1]) == pytest.approx(root / np.sqrt(float(row[0])), rel=1e-15, abs=0)

    @pytest.mark.parametrize("args, flags", [
        # dtau = eps / 1024 is subnormal at the finest level
        (["--eps", "1e-310", "--tau", "4e-310"], "'--eps'"),
        # eta = sqrt(1e300) / sqrt(5e-324) / 2 overflows
        (["--m", "5e-324", "--eps", "1e300", "--tau", "4e300"], "'--eps' / '--m'"),
        # eta = sqrt(1.6e-306) / sqrt(1.7e308) / 8 is subnormal, dtau is not
        (["--m", "1.7e308", "--eps", "1.6e-306", "--tau", "6.4e-306", "--levels", "3"],
         "'--eps' / '--m'"),
    ], ids=["dtau-subnormal", "eta-overflows", "eta-subnormal"])
    def test_scales_outside_the_normal_floats_are_refused(self, runner, tmp_path, args, flags):
        out = tmp_path / "lat.csv"
        res = runner.invoke(main, ["lattice", *args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        last = res.output.splitlines()[-1]
        assert last.startswith(f"Error: Invalid value for {flags}: ")
        assert len(last) < 200
        assert not out.exists()


    @pytest.mark.parametrize("args", [
        ["--tau", "3.5"], ["--tau", "1e-12"], ["--tau", "1e-300"],
        # tau/eps is taken in floats, where 0.3 / 0.1 is 2.9999999999999996
        ["--eps", "0.1", "--tau", "0.3"],
        # and 1e-300 / 1e300 is 0, a whole number but no interval
        ["--eps", "1e300", "--tau", "1e-300"],
    ])
    def test_tau_not_a_whole_number_of_eps_is_refused(self, runner, tmp_path, args):
        out = tmp_path / "lat.csv"
        res = runner.invoke(main, ["lattice", *args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        last = res.output.splitlines()[-1]
        assert last.startswith("Error: Invalid value for '--tau': ")
        assert "is not a whole number of eps" in last and len(last) < 200
        assert not out.exists()


    @pytest.mark.parametrize("levels", ["0", "2"])
    def test_fewer_than_three_levels_are_refused(self, runner, tmp_path, levels):
        # Richardson extrapolation needs three levels; the option's range
        # refuses fewer before any level is formed
        out = tmp_path / "lat.csv"
        res = runner.invoke(main, ["lattice", "--levels", levels, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert res.output.splitlines()[-1].startswith("Error: Invalid value for '--levels': ")
        assert not out.exists()


class TestConfigPrecedence:
    def test_file_beneath_flags(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 2.0, "v0": 1.0}))
        out = tmp_path / "fv.csv"
        # flag eps wins over file; file v0 wins over default calibration
        res = runner.invoke(
            main, ["fv", "--out", str(out), "--eps", "1.0", "--config", str(cfg)]
        )
        assert res.exit_code == 0
        _, rows = read_rows(out)
        assert float(rows[-1][0]) == pytest.approx(21.0)  # eps from flag
        want = (1 - np.exp(-1.0 * 0.01)) / (1.0 * 0.01)   # v0 from file
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-10)

    def test_env_var_override(self, runner, tmp_path):
        out = tmp_path / "fv.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 3.0}))
        # the environment sits above the config file
        res = runner.invoke(
            main, ["fv", "--out", str(out), "--config", str(cfg)],
            env={"ZENOPROP_FV_EPS": "2.0"},
        )
        assert res.exit_code == 0
        _, rows = read_rows(out)
        assert float(rows[-1][0]) == pytest.approx(42.0)

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        res = runner.invoke(
            main, ["fv", "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]
        )
        assert res.exit_code == 2


    def test_config_values_pass_through_option_types(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": "abc"}))
        out = tmp_path / "fv.json"
        res = runner.invoke(main, ["fv", "--out", str(out), "--config", str(cfg)])
        assert res.exit_code == 2
        cfg.write_text(json.dumps({"eps": 2}))
        res = runner.invoke(main, ["fv", "--out", str(out), "--format", "json",
                                   "--config", str(cfg)])
        assert res.exit_code == 0, result_output(res)
        eps = json.loads(out.read_text())["meta"]["params"]["eps"]
        assert isinstance(eps, float) and eps == 2.0

    def test_flag_and_parameter_name_keys(self, runner, tmp_path):
        args = {"samples-per-interval": 2}
        outputs = []
        for keys in ({"format": "json", "n-max": 1}, {"fmt": "json", "n_max": 1}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({**keys, **args}))
            out = tmp_path / f"fp{len(outputs)}.json"
            res = runner.invoke(main, ["fp", "--out", str(out), "--config", str(cfg)])
            assert res.exit_code == 0, result_output(res)
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["meta"]["params"]["n_max"] == 1


SMALL = ["--n-max", "3", "--samples-per-interval", "4"]


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["fv", "--eps", "nan"],
        ["fv", "--v0", "nan"],
        ["exact", "--eps", "inf"],
        ["pdx", "--p-sigma", "nan"],
    ])
    def test_non_finite_inputs(self, runner, tmp_path, args):
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "is not a finite positive number" in res.output

    @pytest.mark.parametrize("args", [
        ["lattice", "--tau", "3.5"],
        ["compare", "--samples-per-interval", "1"],
        ["fp", "--samples-per-interval", "1"],
        ["fp", "--grid-points", "2001"],
        ["compare", "--grid-points", "2001"],
        ["lattice", "--levels", "2"],
        ["lattice", "--eps", "1e-300"],
        ["lattice", "--eps", "1e-4"],
        ["lattice", "--levels", "600"],
        ["pdx", "--eps", "1"],
        ["pdx", "--v0", "1"],
        ["lattice", "--v0", "1"],
        ["compare", "--n-max", "0"],
        ["fp", "--n-max", "-1"],
        ["lattice", "--tau", "1e-300"],
        ["lattice", "--tau", "1e-12"],
        ["fp", "--v0", "1e-300", "--eps", "1e-300"],
        ["compare", "--v0", "1e300", "--eps", "1e300"],
    ])
    def test_library_value_errors(self, runner, tmp_path, args):
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.splitlines()[-1]) < 200

    @pytest.mark.parametrize("command", ["fv", "exact", "fp", "compare"])
    def test_overflowing_default_absorption(self, runner, tmp_path, command):
        # the default v0 = 4/(3 eps) is inf below eps = 4/(3 DBL_MAX)
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [command, "--eps", "1e-320", "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert isinstance(res.exception, SystemExit)
        last = res.output.splitlines()[-1]
        assert last.startswith("Error: Invalid value for '--eps': 1e-320 is too small")
        assert len(last) < 200
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fp", "compare"])
    @pytest.mark.parametrize("args", [
        ["--n-max", "3029"],
        ["--n-max", "1", "--samples-per-interval", "124869"],
        ["--n-max", "1" + "0" * 40],
        ["--samples-per-interval", "1" + "0" * 400],
        ["--n-max", "1" + "0" * 399, "--samples-per-interval", "1" + "0" * 399],
    ], ids=["n-max-over-cap", "samples-over-cap", "n-max-1e40", "samples-1e400",
            "both-400-digits"])
    def test_work_cap_refuses_before_running(self, runner, tmp_path, monkeypatch,
                                             command, args):
        def refuse(cfg):
            raise AssertionError("the recursion ran")

        monkeypatch.setattr(recursion, "run_recursion", refuse)
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [command, *args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert isinstance(res.exception, SystemExit)
        last = res.output.splitlines()[-1]
        assert last.startswith("Error: Invalid value for '--n-max' / '--samples-per-interval': ")
        assert "MAX_WORK" in last
        assert len(last) < 200
        assert not out.exists()

    @staticmethod
    def assert_eps_refused(runner, tmp_path, monkeypatch, args):
        # refused with one line naming --eps alone, before the recursion runs
        def refuse(cfg):
            raise AssertionError("the recursion ran")

        monkeypatch.setattr(recursion, "run_recursion", refuse)
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert isinstance(res.exception, SystemExit)
        last = res.output.splitlines()[-1]
        assert last.startswith("Error: Invalid value for '--eps': "), last
        assert "outside the normal floats" in last
        assert len(last) < 200
        assert not out.exists()

    @staticmethod
    def assert_unit_numeric_columns(runner, tmp_path, command, scales, sizes):
        # runs the m = eps = 1 recursion and writes its numeric columns byte
        # for byte
        def numeric_columns(scales):
            out = tmp_path / "x.csv"
            res = runner.invoke(main, [command, *scales, *sizes, "--out", str(out)])
            assert res.exit_code == 0, result_output(res)
            header, rows = read_rows(out)
            return {name: [row[j] for row in rows] for j, name in enumerate(header)
                    if name.endswith("_numeric")}

        assert numeric_columns(scales) == numeric_columns([])

    @pytest.mark.parametrize("args, refused", [
        (["fp", "--eps", "1e-320", "--v0", "1"], True),
        (["compare", "--eps", "1e-310", "--v0", "1"], True),
        (["fp", "--m", "1e-300", "--eps", "1e300"], False),
        (["fp", "--m", "1e300", "--eps", "1e-300"], False),
        (["fp", "--eps", "1e-308"], True),
        (["compare", "--eps", "1e305"], False),
        (["fp", "--m", "1e-300", "--eps", "1e8"], False),
    ], ids=["eps-1e-320", "eps-1e-310", "eps-over-m-inf", "eps-over-m-0", "rate-inf",
            "reach-inf", "kernel-x2-inf"])
    def test_out_of_range_scales_name_mass_and_eps(self, runner, tmp_path, monkeypatch, args,
                                                   refused):
        # scales at which sqrt(eps/m), m/eps or (n_max + 1) eps leave the
        # floats.  The recursion runs in units of eps, so m never reaches it
        # and no message names --m: an eps whose times t = s eps leave the
        # normal floats is refused naming --eps alone, and every other pair
        # writes the unit run's numeric columns
        if refused:
            self.assert_eps_refused(runner, tmp_path, monkeypatch, args)
        else:
            self.assert_unit_numeric_columns(runner, tmp_path, args[0], args[1:], [])

    @pytest.mark.parametrize("args", [
        ["fp", "--eps", "3.5e-307"],
        ["fp", "--eps", "1e307"],
        ["compare", "--eps", "1e307", "--n-max", "17"],
    ], ids=["eps-3.5e-307", "eps-1e307", "compare-eps-1e307-n-max-17"])
    def test_out_of_range_eps_is_refused(self, runner, tmp_path, monkeypatch, args):
        # the recursion runs in units of eps, so only the times t = s eps
        # meet the float limits: eps / samples_per_interval must be a normal
        # float and (n_max + 1) eps finite
        self.assert_eps_refused(runner, tmp_path, monkeypatch, args)

    def test_no_scale_gives_a_traceback(self, runner, tmp_path):
        # across the floats every (m, eps) either writes a finite table or
        # is a one-line usage error naming --eps
        scales = ["1e-320", "1e-308", "2e-307", "1e-300", "1e-150", "1", "1e150", "1e300",
                  "1e307", "1.7e308"]
        out = tmp_path / "x.csv"
        for m, eps in itertools.product(scales, scales):
            args = ["fp", "--m", m, "--eps", eps, "--n-max", "1", "--samples-per-interval", "2"]
            res = runner.invoke(main, [*args, "--out", str(out)])
            if res.exit_code == 0:
                _, rows = read_rows(out)
                assert np.isfinite([[float(x) for x in r[:5]] for r in rows]).all(), args
            else:
                assert res.exit_code == 2 and isinstance(res.exception, SystemExit), args
                assert res.output.splitlines()[-1].startswith(
                    "Error: Invalid value for '--eps': "), args
            out.unlink(missing_ok=True)

    @pytest.mark.parametrize("command, m, eps, sizes", [
        ("fp", "1", "1e-307", SMALL),
        ("fp", "1e300", "1", SMALL),
        ("fp", "1e-300", "1e-300", SMALL),
        ("fp", "1e-300", "1e5", SMALL),
        ("fp", "1", "8e306", []),
        ("fp", "1", "3.6e-307", []),
        ("compare", "1", "1e307", ["--n-max", "16"]),
    ], ids=["1-1e-307", "1e300-1", "1e-300-1e-300", "1e-300-1e5", "1-8e306", "1-3.6e-307",
            "compare-1-1e307-n-max-16"])
    def test_extreme_scales_in_range_still_run(self, runner, tmp_path, command, m, eps, sizes):
        # every (m, eps) whose times are normal floats runs, at the edges of
        # the --eps rule too
        self.assert_unit_numeric_columns(runner, tmp_path, command, ["--m", m, "--eps", eps],
                                         sizes)

    @pytest.mark.parametrize("args, flag", [
        (["fv", "--eps", "1e307"], "--eps"),
        (["exact", "--eps", "5e307"], "--eps"),
        (["fv", "--v0", "1e308", "--eps", "10"], "--v0"),
        (["exact", "--v0", "1e308", "--eps", "10"], "--v0"),
        (["fp", "--v0", "1e308", "--n-max", "2"], "--v0"),
        (["fv", "--v0", "1e-300", "--eps", "1e-300"], "--v0"),
        (["fv", "--eps", "1e-323", "--v0", "1"], "--eps"),
        # v0 t = 1e-322 s underflows to zero at s = 0.01 alone
        (["fv", "--v0", "1e-322", "--eps", "1"], "--v0"),
        # just past the ends of each table's s range: fv's t = 0.01 eps
        # under DBL_MIN and 21 eps over DBL_MAX, exact's t = eps/2 under
        # DBL_MIN, where 0.02 eps, 20 eps and eps would pass
        (["fv", "--eps", "2.2e-306"], "--eps"),
        (["fv", "--eps", "8.7e306"], "--eps"),
        (["exact", "--eps", "4.45e-308"], "--eps"),
    ], ids=["fv-eps-1e307", "exact-eps-5e307", "fv-v0-1e308", "exact-v0-1e308",
            "fp-v0-1e308-n-max-2", "fv-v0-eps-1e-300", "fv-eps-1e-323", "fv-v0-1e-322",
            "fv-eps-2.2e-306", "fv-eps-8.7e306", "exact-eps-4.45e-308"])
    def test_scales_outside_the_floats_name_their_flag(self, runner, tmp_path, args, flag):
        # every envelope subcommand refuses an eps whose times t = s eps leave
        # the normal floats, and a v0 whose v0 t leaves the positive finite
        # floats at either end of the table, as one line naming the flag
        out = tmp_path / "x.csv"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert isinstance(res.exception, SystemExit)
        last = res.output.splitlines()[-1]
        assert last.startswith(f"Error: Invalid value for '{flag}': "), last
        assert "outside the" in last and len(last) < 200
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["fv", "--eps", "8e306"],
        ["fv", "--eps", "2.3e-306"],
        ["exact", "--eps", "4e307"],
        ["exact", "--eps", "4.5e-308"],
        ["exact", "--v0", "1e300", "--eps", "4e7"],
        ["fv", "--v0", "1e-300", "--eps", "1e-6"],
        # t = eps/2 is DBL_MIN and t = 4 eps DBL_MAX exactly
        ["exact", "--eps", repr(2 * sys.float_info.min)],
        ["exact", "--eps", repr(sys.float_info.max / 4)],
        # v0 t = v0/2 is the least subnormal and 4 v0 is DBL_MAX exactly
        ["exact", "--v0", repr(2 * math.ulp(0.0)), "--eps", "1"],
        ["exact", "--v0", repr(sys.float_info.max / 4), "--eps", "1"],
    ])
    def test_scales_at_the_edges_still_run(self, runner, tmp_path, args):
        # the times and v0 t of these tables stay inside the floats, at
        # their edges too
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 0, result_output(res)


class TestCompare:
    def test_summary_rows(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        res = runner.invoke(
            main,
            ["compare", "--out", str(out), "--n-max", "4", "--samples-per-interval", "4"],
        )
        assert res.exit_code == 0, result_output(res)
        header, rows = read_rows(out)
        assert header[:4] == ["k", "t_peak", "peak_numeric", "peak_model"]
        assert len(rows) == 4
        for r in rows:
            k = int(float(r[0]))
            assert float(r[3]) == pytest.approx(1 / (k + 1), rel=1e-12)
            assert float(r[2]) == pytest.approx(1 / (k + 1), rel=5e-3)
            # absorbing envelope sits between trough and peak at the drop
            assert float(r[3]) / 2 < float(r[6]) < float(r[3])


class TestPdxCommand:
    def test_rejects_explicit_absorption(self, runner, tmp_path):
        res = runner.invoke(main, ["pdx", "--out", str(tmp_path / "x.csv"), "--v0", "2.0"])
        assert res.exit_code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, flags, message", [
        # eps from 2.5e-309 to 2.5e-308 at m = 1e-306: subnormal at the start
        (["--m", "1e-306"], "'--m' / '--p-sigma'", "m eps to m tau runs from 2.5e-309"),
        # tau = 1.88 m overflows at m = 1e308
        (["--m", "1e308"], "'--m' / '--p-sigma'", "m eps to m tau runs from 2.5e+305 to inf"),
        # the scan runs at m = 1, where p sigma = 1e10 needs 3.0e12 time points
        (["--m", "1e-300", "--p-sigma", "1e10"], "'--p-sigma'", "time grid of 3.008e+12"),
        # the packet energy p^2/2 overflows, or underflows to zero, while the
        # scan is set up: bad input, like the mass whose tau overflows
        (["--p-sigma", "1e200"], "'--p-sigma'", "packet energy inf is not finite and positive"),
        (["--p-sigma", "1e300"], "'--p-sigma'", "packet energy inf is not finite and positive"),
        (["--p-sigma", "1e-200"], "'--p-sigma'", "packet energy 0 is not finite and positive"),
    ], ids=["eps-subnormal", "tau-overflows", "m-1e-300-p-sigma-1e10", "p-sigma-1e200",
            "p-sigma-1e300", "p-sigma-1e-200"])
    def test_extreme_mass_is_usage_error(self, runner, tmp_path, args, flags, message):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", *args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        last = res.output.splitlines()[-1]
        assert last.startswith(f"Error: Invalid value for {flags}: {message}"), last
        assert len(last) < 200
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--m", "1e-306"], ["--m", "1e308"],
        # eps from 3.3e-310 at p sigma = 871, a grid just under the cap
        ["--m", "1e-303", "--p-sigma", "871"],
    ], ids=["eps-subnormal", "tau-overflows", "m-1e-303-p-sigma-871"])
    def test_mass_refused_before_the_scan(self, runner, tmp_path, monkeypatch, args):
        def scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(wavepacket, "pdx_delta_psi", scan)
        res = runner.invoke(main, ["pdx", *args, "--out", str(tmp_path / "pdx.csv")])
        assert res.exit_code == 2, result_output(res)
        assert "Invalid value for '--m' / '--p-sigma': " in res.output.splitlines()[-1]

    @pytest.mark.parametrize("p_sigma, message", [
        # q = 109 / p sigma steps per projection at the coarsest eps of the
        # scan outgrow an int64 index below p sigma of about 1.5e-17
        ("1e-20", "1.3617e+22 time steps per projection exceed an int64 index"),
        ("1e-71", "1.3617e+73 time steps per projection exceed an int64 index"),
        # the energy p^2 / 2 = 5e-309 is subnormal, and 1.25 / E overflows
        ("1e-154", "packet energy 5e-309 is subnormal"),
    ])
    def test_tiny_p_sigma_is_refused_before_the_scan(self, runner, tmp_path, monkeypatch,
                                                     p_sigma, message):
        def scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(wavepacket, "pdx_delta_psi", scan)
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--p-sigma", p_sigma, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        assert res.output.splitlines()[-1] == f"Error: Invalid value for '--p-sigma': {message}"
        assert not out.exists()

    def test_small_p_sigma_above_the_floor_runs(self, runner, tmp_path):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--p-sigma", "1e-12", "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        assert len(read_rows(out)[1]) == 9

    # the finest pdx time grid has tau / (eps / 4) = 300.8 p sigma steps
    # (tau = 18.8 m sigma / p, eps = 0.125 / E), so this p sigma needs one
    # point more than the cap allows
    OVER_CAP = wavepacket.MAX_TIME_POINTS / 300.8

    @pytest.mark.parametrize("p_sigma, code", [("10", 0), (repr(OVER_CAP), 2)],
                             ids=["default", "just-over-cap"])
    def test_time_point_cap(self, runner, tmp_path, p_sigma, code):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--p-sigma", p_sigma, "--out", str(out)])
        assert res.exit_code == code, result_output(res)
        assert out.exists() == (code == 0)
        if code:
            last = res.output.splitlines()[-1]
            assert last.startswith("Error: Invalid value for '--p-sigma': time grid of ")
            assert len(last) < 200

    def test_cap_admits_grid_just_below(self):
        # half a step short of a grid one point over the cap
        wp, tau, eps_values, _ = wavepacket.scan_geometry(
            (wavepacket.MAX_TIME_POINTS - 1.5) / 300.8)
        assert wavepacket.time_points(wp, eps_values[0], tau) == wavepacket.MAX_TIME_POINTS

    def test_delta_norm_is_independent_of_mass(self, runner, tmp_path):
        # the scan is the same physics at every m, so it runs at m = 1: every
        # mass writes m = 1's E_eps, predictor and delta_norm bytes, and eps
        # and tau in units of m
        def table(m, fmt="csv"):
            out = tmp_path / f"pdx.{fmt}"
            res = runner.invoke(main, ["pdx", "--m", m, "--format", fmt, "--out", str(out)])
            assert res.exit_code == 0, result_output(res)
            return read_rows(out)[1] if fmt == "csv" else json.loads(out.read_text())

        unit, unit_tau = table("1"), table("1", "json")["meta"]["params"]["tau"]
        for m in ["1e-300", "1e-200", "1e-10", "0.25", "16", "1e10", "1e200", "1e300"]:
            rows = table(m)
            assert [r[1:] for r in rows] == [r[1:] for r in unit], m
            assert [float(r[0]) for r in rows] == [float(m) * float(r[0]) for r in unit], m
            assert table(m, "json")["meta"]["params"]["tau"] == float(m) * unit_tau, m

    # delta_norm of the default scan at a step of eps/q, q the fewest steps
    # per projection interval within eps/4 (and the other bounds of
    # wavepacket._steps_per_projection), with the saw-tooth's drops on nodes
    # taken one-sidedly: within 1.5e-2 of the converged column 0.076205 ...
    # 0.212207 (Richardson in the step)
    PINNED_DELTA_NORM = [0.07514717435391985, 0.09520853140313865, 0.11652983877874534,
                         0.13476294433751645, 0.1501139480558925, 0.1744371247308019,
                         0.1883718929044952, 0.19923268554973336, 0.21204503237510539]

    def test_delta_norm_is_pinned(self, runner, tmp_path):
        # the momentum grid moves delta_norm by a few 1e-9 (kmax x 1.5 by up
        # to 2.2e-9, dk / 2 by up to 9.2e-10 on the two-sided grid), so the
        # pin is held to 2e-9
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        norms = [float(r[3]) for r in read_rows(out)[1]]
        np.testing.assert_allclose(norms, self.PINNED_DELTA_NORM, rtol=2e-9, atol=0)

    @pytest.mark.slow
    def test_scan_table(self, runner, tmp_path):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        header, rows = read_rows(out)
        assert header == ["eps", "E_eps", "predictor", "delta_norm"]
        assert len(rows) == 9
        norms = np.array([float(r[3]) for r in rows])
        assert np.all(norms > 0)
        assert norms[0] < norms[-1]  # suppression deepens as eps shrinks


SIZES = "'--n-max' / '--samples-per-interval'"
WALK = "'--tau' / '--levels'"


@pytest.mark.parametrize("args, flags", [
    (["fp", "--n-max", "0"], SIZES),
    (["fp", "--samples-per-interval", "1"], SIZES),
    (["fp", "--n-max", "3029"], SIZES),  # predicted work just over MAX_WORK
    (["pdx", "--p-sigma", repr(TestPdxCommand.OVER_CAP)], "'--p-sigma'"),
    (["lattice", "--tau", "40000"], WALK),  # 40,000 x 4^5 steps
    (["lattice", "--tau", "2", "--levels", "8"], WALK),  # 2 x 4^8 steps
], ids=["n-max-0", "samples-1", "work-over-cap", "time-points-over-cap", "walk-tau",
        "walk-levels"])
def test_library_refusals_name_their_flags(runner, tmp_path, args, flags):
    # a value the library refuses is one line of usage error naming the
    # flags that set it, and writes nothing
    out = tmp_path / "x.csv"
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2, result_output(res)
    assert isinstance(res.exception, SystemExit)
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert errors == [res.output.splitlines()[-1]], res.output
    assert errors[0].startswith(f"Error: Invalid value for {flags}: "), errors[0]
    assert len(errors[0]) < 200
    assert not out.exists()


# flags and the JSON params they record: v0 resolved (4/(3 eps) by default),
# pdx's tau in units of m, times --m
ENVELOPE = ["--m", "2", "--eps", "0.3"]
RECURSION = ["--n-max", "2", "--samples-per-interval", "4"]
META_CASES = {
    "fv": [(ENVELOPE, {"m": 2.0, "eps": 0.3, "v0": 4 / (3 * 0.3)}),
           ([*ENVELOPE, "--v0", "0.7"], {"m": 2.0, "eps": 0.3, "v0": 0.7})],
    "exact": [(ENVELOPE, {"m": 2.0, "eps": 0.3, "v0": 4 / (3 * 0.3)}),
              ([*ENVELOPE, "--v0", "0.7"], {"m": 2.0, "eps": 0.3, "v0": 0.7})],
    "fp": [([*ENVELOPE, *RECURSION], {"m": 2.0, "eps": 0.3, "v0": 4 / (3 * 0.3), "n_max": 2,
                                      "samples_per_interval": 4}),
           ([*ENVELOPE, *RECURSION, "--v0", "0.7"],
            {"m": 2.0, "eps": 0.3, "v0": 0.7, "n_max": 2, "samples_per_interval": 4})],
    "compare": [([*ENVELOPE, *RECURSION], {"m": 2.0, "eps": 0.3, "v0": 4 / (3 * 0.3),
                                           "n_max": 2, "samples_per_interval": 4}),
                ([*ENVELOPE, *RECURSION, "--v0", "0.7"],
                 {"m": 2.0, "eps": 0.3, "v0": 0.7, "n_max": 2, "samples_per_interval": 4})],
    "lattice": [(["--m", "2", "--eps", "0.5", "--tau", "2", "--levels", "3"],
                 {"m": 2.0, "eps": 0.5, "tau": 2.0, "levels": 3})],
    "pdx": [(["--m", "2", "--p-sigma", "3"],
             {"m": 2.0, "p_sigma": 3.0, "tau": 2.0 * wavepacket.scan_geometry(3.0)[1]})],
}


@pytest.mark.parametrize("name", sorted(main.commands))
def test_json_meta_records_every_flag(runner, tmp_path, name):
    # meta names the subcommand, and params holds exactly its flags but
    # --out and --format (and pdx's tau, which no flag sets), at the values
    # the table was made with
    declared = {p.name for p in main.commands[name].params if p.expose_value}
    declared = declared - {"out", "fmt"} | ({"tau"} if name == "pdx" else set())
    for args, params in META_CASES[name]:
        out = tmp_path / f"{name}.json"
        res = runner.invoke(main, [name, *args, "--format", "json", "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        meta = json.loads(out.read_text())["meta"]
        assert meta["command"] == name
        assert set(meta["params"]) == declared
        assert meta["params"] == params, args


class TestWriteTable:
    NAMES = ["x", "label", "y"]
    COLUMNS = (np.array([0.1, 2.0]), ["a", ""], [1 / 3, np.float64(4.0)])

    def test_csv_rows_zipped_from_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        _write_table(str(out), "csv", "t", {}, self.NAMES, self.COLUMNS)
        assert out.read_text() == "x,label,y\n0.10000000000000001,a,0.33333333333333331\n2,,4\n"

    def test_json_rows_zipped_from_columns(self, tmp_path):
        out = tmp_path / "t.json"
        _write_table(str(out), "json", "t", {"k": 1}, self.NAMES, self.COLUMNS)
        doc = json.loads(out.read_text())
        assert doc["meta"] == {"command": "t", "params": {"k": 1}}
        assert doc["columns"] == self.NAMES
        assert doc["rows"] == [[0.1, "a", 1 / 3], [2.0, "", 4.0]]

    def test_json_is_the_bytes_of_json_dumps(self, tmp_path):
        out = tmp_path / "t.json"
        _write_table(str(out), "json", "t", {"k": 1}, self.NAMES, self.COLUMNS)
        doc = {"meta": {"command": "t", "params": {"k": 1}}, "columns": self.NAMES,
               "rows": [[0.1, "a", 1 / 3], [2.0, "", 4.0]]}
        assert out.read_bytes() == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()

    def test_streamed_fp_json_is_the_bytes_of_json_dumps(self, runner, tmp_path):
        # floats survive a JSON round trip exactly, so the document can be
        # dumped again from what was written
        out = tmp_path / "fp.json"
        res = runner.invoke(main, ["fp", "--n-max", "3", "--samples-per-interval", "8",
                                   "--format", "json", "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        written = out.read_bytes()
        doc = json.loads(written)
        assert written == (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_numerical_failure(self, tmp_path, capsys, bad):
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exit_info:
            _write_table(str(out), "csv", "t", {}, ["x", "label"], ([1.0, bad], ["a", "b"]))
        assert exit_info.value.code == 3
        assert capsys.readouterr().err == "numerical failure: non-finite value in the t table\n"
        assert not out.exists()


class TestNumericalGuard:
    @staticmethod
    def refuse(*args):
        raise ValueError("refused")

    def test_value_error_names_the_flags_it_is_given(self):
        with pytest.raises(click.BadParameter) as info:
            _numerical_guard(self.refuse, 1.0, flags=["--a", "--b"])
        assert info.value.format_message() == "Invalid value for '--a' / '--b': refused"

    def test_value_error_without_flags_is_a_plain_usage_error(self):
        with pytest.raises(click.UsageError) as info:
            _numerical_guard(self.refuse, 1.0)
        assert type(info.value) is click.UsageError
        assert info.value.format_message() == "refused"

    @pytest.mark.parametrize("fn, args", [
        (np.multiply, (np.float64(1e308), 10.0)),  # overflow
        (np.divide, (np.float64(1.0), 0.0)),  # division by zero
        (np.divide, (np.float64(0.0), 0.0)),  # invalid
        (math.exp, (1000.0,)),  # a Python OverflowError
    ], ids=["over", "divide", "invalid", "python-overflow"])
    def test_float_errors_are_numerical_failures(self, capsys, fn, args):
        with pytest.raises(SystemExit) as exit_info:
            _numerical_guard(fn, *args, flags=["--a"])
        assert exit_info.value.code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")


def names_read(fn) -> set[str]:
    """Names loaded anywhere in the body of ``fn``, nested functions included."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.id for statement in tree.body[0].body for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", sorted(main.commands))
def test_every_option_is_read(name):
    # a subcommand declares only the options it uses or records in its meta
    command = main.commands[name]
    declared = {p.name for p in command.params if p.expose_value}
    assert sorted(declared - names_read(command.callback)) == []


def avx512_dispatch() -> bool:
    """Whether numpy runs its AVX-512 (X86_V4) loop of float64 ``exp``
    here, the dispatch level the reduced settings of
    ``test_tables_agree_across_dispatch_levels`` step down from."""
    from numpy.lib.introspect import opt_func_info

    targets = opt_func_info(func_name="^exp$", signature="float64").get("exp", {})
    return any(target["current"] == "X86_V4" for target in targets.values())


@pytest.mark.skipif(not avx512_dispatch(), reason="numpy dispatches no AVX-512 loops here")
def test_tables_agree_across_dispatch_levels(tmp_path):
    # the bytes hold for one numpy build at one CPU dispatch level: numpy's
    # SIMD loops of exp, expm1, log, arctan and others round differently at
    # each level.  Across levels every numeric cell of every subcommand at
    # its defaults agrees to 4 ulps relative, or 1e-15 absolute near zero
    # and in the oscillation ratios S = f_p/f_v - 1, which carry the
    # absolute error of a quotient near one (largest move measured with
    # AVX2 or SSE4.2 alone: 6.7e-16, 9 ulps of a compare s_peak of 1/3)
    commands = sorted(main.commands)
    script = ("import sys\nfrom zenoprop.cli import main\nfor cmd in sys.argv[2:]:\n"
              "    main([cmd, '--out', f'{sys.argv[1]}/{cmd}.csv'], standalone_mode=False)\n")

    def tables(features):
        out = tmp_path / (features or "default").replace(" ", "-")
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "NPY_ENABLE_CPU_FEATURES"}
        if features:
            env["NPY_ENABLE_CPU_FEATURES"] = features
        env["PYTHONPATH"] = str(Path(zenoprop.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script, str(out), *commands], env=env, check=True)
        return {cmd: read_rows(out / f"{cmd}.csv") for cmd in commands}

    default = tables(None)
    for features in ("X86_V2 X86_V3", "X86_V2"):
        for cmd, (header, rows) in tables(features).items():
            want_header, want_rows = default[cmd]
            assert header == want_header and len(rows) == len(want_rows), (features, cmd)
            for row, want_row in zip(rows, want_rows):
                for name, got, want in zip(header, row, want_row):
                    try:
                        got, want = float(got), float(want)
                    except ValueError:  # a text cell: the side or the row name
                        assert got == want, (features, cmd, name)
                        continue
                    bound = max(4 * np.finfo(float).eps * abs(want), 1e-15)
                    assert abs(got - want) <= bound, (features, cmd, name, got, want)


# ---------------------------------------------------------------------------
# the command line's contract over random flags
# ---------------------------------------------------------------------------

# float flag values: log-uniform magnitudes over the positive doubles, from
# the least subnormal to 1.78e308, and the edges that have broken flags before
FLOAT_FLAG = st.one_of(
    st.floats(-323.3, 308.25).map(lambda e: 10.0**e),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 5e-324, 1e-310, 1.7e308]),
)
# small sizes, the refused ones among them; every other flag takes FLOAT_FLAG
SIZE_FLAGS = {"--n-max": st.integers(-1, 20), "--samples-per-interval": st.integers(-1, 16),
              "--levels": st.integers(0, 4)}
# the columns and exact rows that are envelopes, which lie in (0, 1]
ENVELOPE_NAMES = ("f_p_", "f_v", "peak_", "trough_", "envelope_", "time_averaged_")


@st.composite
def invocations(draw):
    """A subcommand and a random value, or none, for each flag it declares
    but --out and --format; lattice's --tau is a whole number of --eps half
    the time, so that its sweep runs."""
    command = draw(st.sampled_from(sorted(main.commands)))
    flags = {p.opts[0]: draw(st.none() | SIZE_FLAGS.get(p.opts[0], FLOAT_FLAG))
             for p in main.commands[command].params
             if p.expose_value and p.name not in ("out", "fmt")}
    if command == "lattice" and draw(st.booleans()):
        flags["--tau"] = draw(st.integers(1, 8)) * (flags["--eps"] or 1.0)
    args = [command, "--format", draw(st.sampled_from(["csv", "json"]))]
    for flag, value in flags.items():
        if value is not None:
            args += [flag, repr(value)]
    return args


def numeric_cells(out: Path, fmt: str) -> dict[str, list[float]]:
    """The numeric cells of a table, by column name or, for ``exact``'s
    (name, value) rows, by row name."""
    if fmt == "csv":
        header, rows = read_rows(out)
    else:
        doc = json.loads(out.read_text())
        header, rows = doc["columns"], doc["rows"]
    if header == ["name", "value"]:
        return {name: [float(value)] for name, value in rows}
    cells = dict(zip(header, zip(*rows)))
    cells.pop("side", None)
    return {name: [float(x) for x in col] for name, col in cells.items()}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(invocations())
def test_every_subcommand_keeps_the_contract(args):
    # exit 0 writes a finite table whose envelopes lie in (0, 1]; exit 2
    # (bad input) or 3 (an untrustworthy number) ends in one error line
    # and writes nothing; nothing ends in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table"
        res = CliRunner().invoke(main, [*args, "--out", str(out)])
        assert res.exit_code in (0, 2, 3), result_output(res)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            result_output(res)
        assert "Traceback" not in res.output
        if res.exit_code:
            lines = res.output.splitlines()
            errors = [line for line in lines
                      if line.startswith(("Error:", "numerical failure:"))]
            assert errors == lines[-1:], res.output
            assert not out.exists()
            return
        for name, cells in numeric_cells(out, args[2]).items():
            assert all(map(math.isfinite, cells)), (name, args)
            if name.startswith(ENVELOPE_NAMES):
                assert all(0 < x <= 1 for x in cells), (name, args)
