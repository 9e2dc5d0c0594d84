import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))  # the benchmark package

from zenoprop import recursion
from zenoprop.core import Grid1D


def pre_projection_slices(cfg):
    """The slices at s = 1..n_max+1, built by the same calls the recursion makes."""
    slices = [recursion.initial_slice(cfg)]
    for n in range(1, cfg.n_max + 1):
        slices.append(recursion.advance_slice(slices[-1], cfg, float(n + 1)))
    return slices


def extent_config(n_max, n_points):
    """m = eps = 1 with n_max projections at 16 samples per interval, on
    ``n_points`` points over the default grid's extent."""
    x_max = recursion.default_config(1.0, 1.0, n_max, 16).grid.x_max
    return recursion.RecursionConfig(1.0, 1.0, n_max, Grid1D(x_max, n_points))


def fine_config(n_max):
    """The default extent for n_max projections at 16 samples per interval,
    at spacing about 1e-3 sqrt(eps/m): fine enough for the right-limit
    oracle, whose smallest offset kernel then spans five spacings."""
    x_max = recursion.default_config(1.0, 1.0, n_max, 16).grid.x_max
    return extent_config(n_max, round(x_max / 1e-3) + 1)


@pytest.fixture(scope="session")
def default_run():
    """The full 20-projection recursion at the default grid, shared by the
    saw-tooth acceptance checks (it is the expensive fixture of the suite).
    Yields (config, envelope curve, pre-projection slices at s = 1..n_max+1,
    wall-clock seconds of the run)."""
    cfg = recursion.default_config(1.0, 1.0, 20, 16)
    start = time.monotonic()
    curve = recursion.run_recursion(cfg)
    elapsed = time.monotonic() - start
    return cfg, curve, pre_projection_slices(cfg), elapsed


@pytest.fixture(scope="session")
def coarse_run():
    """A budget recursion for unit-level checks: coarser grid, 6 projections.
    Yields (config, envelope curve, pre-projection slices at s = 1..7)."""
    cfg = extent_config(6, 6616)  # spacing 4.0e-3
    return cfg, recursion.run_recursion(cfg), pre_projection_slices(cfg)
