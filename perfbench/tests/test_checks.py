"""The benchmark's output checks must count corrupted tables as failed."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from perfbench import checks
from perfbench.workloads import Invocation

FP = Invocation("fp", (("m", 1.0), ("eps", 1.0), ("n-max", 3), ("samples-per-interval", 4)))
PDX = Invocation("pdx", (("m", 1.0),))

# (E eps, predictor, delta_norm) of the default pdx scan
PDX_SCAN = [
    (0.125, 4.9406564584124654e-324, 0.071959912564991277),
    (0.2, 1.9151695967138968e-174, 0.090162805765432563),
    (0.3, 7.721390531917718e-60, 0.12510997028359416),
    (0.4, 3.7233631217505106e-25, 0.12909242874649585),
    (0.5, 1.3887943864964021e-11, 0.14408800151465448),
    (0.7, 0.010134227381485708, 0.18248695133676174),
    (0.85, 0.4590726912139379, 0.1961508121224376),
    (1.0, 1.0, 0.19074377826157002),
    (1.25, 0.36787944117144233, 0.21923095041441143),
]


def _write(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else format(v, ".17g") for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def ideal_fp_rows():
    """An fp table for 3 projections holding the exact envelope where a
    closed form exists and the linear saw-tooth elsewhere."""
    s_vals, sides = checks.fp_layout(3, 4)
    rows = []
    for s, side in zip(s_vals, sides):
        env = checks.few_projection_envelope(s, side)
        if env is None:   # (3, 4): trough 1/6 at s = 3 rising to the peak 1/4
            env = (s - 3.0) / 4.0 + (4.0 - s) / 6.0
        fv = float(checks.absorbing_envelope(4.0 / 3.0, s))
        rows.append([s, env, env, fv, env / fv - 1.0, side])
    return rows


def _fake_cli(columns, rows):
    def cli_main(argv):
        _write(Path(argv[argv.index("--out") + 1]), columns, rows)
        return 0
    return cli_main


def _row(rows, s, side):
    return next(r for r in rows if r[0] == s and r[5] == side)


def test_ideal_fp_table_passes(tmp_path):
    _, verdict = checks.run_invocation(
        _fake_cli(checks.FP_COLUMNS, ideal_fp_rows()), FP, str(tmp_path / "fp.csv"))
    assert not verdict.failed, verdict.problems
    assert verdict.figures["peak_rel_err"] < 1e-15


def test_peak_off_by_1e3_fails(tmp_path):
    rows = ideal_fp_rows()
    row = _row(rows, 4.0, "minus")
    row[2] *= 1.0 + 1e-3
    _, verdict = checks.run_invocation(
        _fake_cli(checks.FP_COLUMNS, rows), FP, str(tmp_path / "fp.csv"))
    assert verdict.failed
    assert verdict.figures["peak_rel_err"] == pytest.approx(1e-3)


def test_trough_not_half_its_peak_fails(tmp_path):
    rows = ideal_fp_rows()
    _row(rows, 3.0, "plus")[2] = 0.2     # the peak before it is 1/3
    _, verdict = checks.run_invocation(
        _fake_cli(checks.FP_COLUMNS, rows), FP, str(tmp_path / "fp.csv"))
    assert verdict.failed
    assert any("trough" in p for p in verdict.problems)


def _pdx_rows(norms):
    return [(e / 50.0, e, pred, norm) for (e, pred, _), norm in zip(PDX_SCAN, norms)]


def test_seed_pdx_table_passes(tmp_path):
    rows = _pdx_rows([norm for _, _, norm in PDX_SCAN])
    _, verdict = checks.run_invocation(
        _fake_cli(checks.PDX_COLUMNS, rows), PDX, str(tmp_path / "pdx.csv"))
    assert not verdict.failed, verdict.problems
    assert verdict.figures["rank_rho"] == pytest.approx(1.0 - 6 * 8 / 720)


def test_shuffled_delta_norm_fails(tmp_path):
    norms = np.array([norm for _, _, norm in PDX_SCAN])
    rows = _pdx_rows(np.random.default_rng(0).permutation(norms))
    _, verdict = checks.run_invocation(
        _fake_cli(checks.PDX_COLUMNS, rows), PDX, str(tmp_path / "pdx.csv"))
    assert verdict.failed


def test_nonzero_exit_fails(tmp_path):
    def exits_3(argv):
        raise SystemExit(3)

    _, verdict = checks.run_invocation(exits_3, FP, str(tmp_path / "fp.csv"))
    assert verdict.failed


def test_cli_usage_error_fails(tmp_path):
    cli = pytest.importorskip("zenoprop.cli")
    bad = Invocation("fp", (("m", 1.0), ("eps", 1.0), ("n-max", 0), ("samples-per-interval", 4)))
    _, verdict = checks.run_invocation(
        lambda argv: cli.main.main(argv, standalone_mode=False), bad, str(tmp_path / "fp.csv"))
    assert verdict.failed


def test_envelope_that_depends_on_m_fails():
    reference = np.array([1.0, 0.5, 1.0 / 3.0])
    assert checks.scaling_problem(reference.copy(), reference) is None
    assert checks.scaling_problem(reference * (1 + 1e-9), reference) is not None
