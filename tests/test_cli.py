import ast
import inspect
import json
import textwrap
from importlib import resources

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import validate_table_schema
from perfbench.checks import exact_closed_forms
from zenoprop.cli import main


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
            ["fp", "--out", str(out), "--n-max", "3", "--grid-points", "4001",
             "--samples-per-interval", "8"],
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

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["fp", "--out", str(tmp_path / "x.csv"), "--n-max", "2",
             "--grid-points", "2001", "--v0", "1e14"],
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
        assert table["time_averaged_two"] == pytest.approx(1 / 3, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", ["1e-300", "1e-200", "1e-160", "1e160", "1e300"])
    def test_scale_free_at_extreme_eps(self, runner, tmp_path, eps):
        # the closed forms depend on ratios of instants only, so no eps a
        # float can hold overflows, underflows or warns
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
        args = {"grid-points": 2001, "samples-per-interval": 2}
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
        ["compare", "--samples-per-interval", "1", "--grid-points", "2001"],
        ["fp", "--samples-per-interval", "1", "--grid-points", "2001"],
        ["fp", "--n-max", "3", "--grid-points", "3"],
        ["compare", "--n-max", "3", "--grid-points", "3"],
        ["lattice", "--levels", "2"],
        ["lattice", "--eps", "1e-300"],
        ["lattice", "--eps", "1e-4"],
        ["lattice", "--levels", "600"],
        ["pdx", "--eps", "1"],
        ["pdx", "--v0", "1"],
        ["lattice", "--v0", "1"],
        ["fp", "--grid-points", "0"],
        ["fp", "--grid-points", "1"],
    ])
    def test_library_value_errors(self, runner, tmp_path, args):
        res = runner.invoke(main, [*args, "--out", str(tmp_path / "x.csv")])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.splitlines()[-1]) < 200


class TestCompare:
    def test_summary_rows(self, runner, tmp_path):
        out = tmp_path / "cmp.csv"
        res = runner.invoke(
            main,
            ["compare", "--out", str(out), "--n-max", "4", "--grid-points", "5001",
             "--samples-per-interval", "4"],
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
    @pytest.mark.parametrize("m", ["1e-300", "1e300"])
    def test_extreme_mass_is_numerical_failure(self, runner, tmp_path, m):
        # m**2 underflows at 1e-300 and overflows at 1e300; numpy raises
        # instead of warning, so the failure is one line
        out = tmp_path / "pdx.csv"
        res = runner.invoke(main, ["pdx", "--m", m, "--out", str(out)])
        assert res.exit_code == 3, result_output(res)
        assert len(res.output.splitlines()) == 1, res.output
        assert res.output.startswith("numerical failure: ")
        assert not out.exists()

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
