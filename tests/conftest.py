import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))  # the benchmark package

from zenoprop import recursion
from zenoprop.cli import main


def fp_column(out, m, eps, *args):
    """The f_p_numeric column of the ``fp`` table at (m, eps), as the
    strings written to ``out``; ``args`` are further flags."""
    res = CliRunner().invoke(main, ["fp", "--m", repr(m), "--eps", repr(eps), *args,
                                    "--out", str(out)])
    assert res.exit_code == 0, (res.output, res.exception)
    header, *rows = out.read_text().splitlines()
    j = header.split(",").index("f_p_numeric")
    return [row.split(",")[j] for row in rows]


def pre_projection_slices(cfg):
    """The slices at s = 1..n_max+1, built by the same calls the recursion makes."""
    slices = [recursion.initial_slice(cfg)]
    for n in range(1, cfg.n_max + 1):
        slices.append(recursion.advance_slice(slices[-1], cfg, float(n + 1)))
    return slices


def fine_config(n_max):
    """n_max projections at 4096 samples per interval, at spacing 1/512
    sqrt(eps/m): fine enough for the right-limit oracle, whose trough
    error there is at most 2.5e-5 (``oracles.richardson_right_limit``)."""
    return recursion.RecursionConfig(n_max, 4096)


@pytest.fixture(scope="session")
def default_run():
    """The full 20-projection recursion at the default grid, shared by the
    saw-tooth acceptance checks (it is the expensive fixture of the suite).
    Yields (config, envelope curve, pre-projection slices at s = 1..n_max+1,
    wall-clock seconds of the run)."""
    cfg = recursion.RecursionConfig(20, 16)
    start = time.monotonic()
    curve = recursion.run_recursion(cfg)
    elapsed = time.monotonic() - start
    return cfg, curve, pre_projection_slices(cfg), elapsed


@pytest.fixture(scope="session")
def coarse_run():
    """A budget recursion for unit-level checks: 6 projections at 256
    samples per interval (spacing 1/128).  Yields (config, envelope curve,
    pre-projection slices at s = 1..7)."""
    cfg = recursion.RecursionConfig(6, 256)
    return cfg, recursion.run_recursion(cfg), pre_projection_slices(cfg)
