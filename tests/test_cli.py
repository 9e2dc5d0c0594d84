import ast
import inspect
import itertools
import json
import textwrap
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import validate_table_schema
from perfbench.checks import exact_closed_forms
from zenoprop import recursion, wavepacket
from zenoprop.cli import _write_table, main


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
    @pytest.mark.parametrize("eps", ["1e-300", "1e-200", "1e-160", "1e160", "1e300"])
    def test_scale_free_at_extreme_eps(self, runner, tmp_path, eps):
        # the closed forms depend on ratios of instants only, so no eps
        # overflows, underflows or warns down to 4/(3 DBL_MAX), about
        # 7.4e-309, below which the default v0 = 4/(3 eps) overflows
        # (TestUsageErrors)
        out = tmp_path / "exact.csv"
        res = runner.invoke(main, ["exact", "--eps", eps, "--out", str(out)])
        assert res.exit_code == 0, result_output(res)
        _, rows = read_rows(out)
        want = exact_closed_forms(float(eps))
        assert [r[0] for r in rows] == list(want)
        for name, value in rows:
            assert float(value) == pytest.approx(want[name], rel=1e-6), name


class TestLattice:
    def test_refinement_table(self, runner, tmp_path):
        out = tmp_path / "lat.csv"
        res = runner.invoke(main, ["lattice", "--out", str(out)])
        assert res.exit_code == 0
        header, rows = read_rows(out)
        assert header == ["steps_per_projection", "eta", "dtau", "ratio"]
        assert len(rows) == 5  # 4 levels + extrapolated
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=0.02)
        ratios = [float(r[3]) for r in rows[:-1]]
        assert ratios == sorted(ratios)  # monotone convergence recorded

    @pytest.mark.parametrize("m, eps", [(2.5, 0.3), (1e300, 1e-10), (1.0, 1e-300)])
    def test_ratio_is_the_unit_walks(self, runner, tmp_path, m, eps):
        # the ratio is scale-free: at every (m, eps) the ratio column, the
        # extrapolated row too, is the unit table's (m = eps = 1, tau = 4),
        # byte for byte, where m / tau or eps / tau would leave the floats
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
        # dtau = eps / 256 is subnormal at the finest level
        (["--eps", "1e-310", "--tau", "4e-310"], "'--eps'"),
        # eta = sqrt(1e300) / sqrt(5e-324) / 2 overflows
        (["--m", "5e-324", "--eps", "1e300", "--tau", "4e300"], "'--eps' / '--m'"),
        # eta = sqrt(1.6e-307) / sqrt(1.7e308) / 2 is subnormal, dtau is not
        (["--m", "1.7e308", "--eps", "1.6e-307", "--tau", "6.4e-307", "--levels", "1"],
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
    ], ids=["fv-eps-1e307", "exact-eps-5e307", "fv-v0-1e308", "exact-v0-1e308",
            "fp-v0-1e308-n-max-2", "fv-v0-eps-1e-300", "fv-eps-1e-323"])
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
    ])
    def test_scales_at_the_edges_still_run(self, runner, tmp_path, args):
        # the times and v0 t of these tables stay inside the floats
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
    @pytest.mark.parametrize("args, message", [
        # the packet energy p^2/2 overflows while the scan is set up
        pytest.param(["--p-sigma", "1e200"], "packet energy inf", id="p-sigma-1e200"),
        pytest.param(["--p-sigma", "1e300"], "packet energy inf", id="p-sigma-1e300"),
    ])
    def test_extreme_mass_is_numerical_failure(self, runner, tmp_path, args, message):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", *args, "--out", str(out)])
        assert res.exit_code == 3, result_output(res)
        assert len(res.output.splitlines()) == 1, res.output
        assert res.output.startswith("numerical failure: ")
        assert message in res.output, res.output
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, flags", [
        # eps from 2.5e-309 to 2.5e-308 at m = 1e-306: subnormal at the start
        (["--m", "1e-306"], "'--m' / '--p-sigma'"),
        # tau = 1.88 m overflows at m = 1e308
        (["--m", "1e308"], "'--m' / '--p-sigma'"),
        # the scan runs at m = 1, where p sigma = 1e10 needs 3.0e12 time points
        (["--m", "1e-300", "--p-sigma", "1e10"], "'--p-sigma'"),
    ], ids=["eps-subnormal", "tau-overflows", "m-1e-300-p-sigma-1e10"])
    def test_extreme_mass_is_usage_error(self, runner, tmp_path, args, flags):
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", *args, "--out", str(out)])
        assert res.exit_code == 2, result_output(res)
        last = res.output.splitlines()[-1]
        assert last.startswith(f"Error: Invalid value for {flags}: ")
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
