import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parent.parent))  # the benchmark package

from zenoprop import recursion


@pytest.fixture(scope="session")
def default_run():
    """The full 20-projection recursion at the default grid, shared by the
    saw-tooth acceptance checks (it is the expensive fixture of the suite).
    Yields (config, envelope curve, pre-projection slices at s = 1..n_max+1,
    wall-clock seconds of the run)."""
    cfg = recursion.default_config()
    start = time.monotonic()
    curve, slices = recursion.run_recursion(cfg, collect_slices=True)
    elapsed = time.monotonic() - start
    return cfg, curve, slices, elapsed


@pytest.fixture(scope="session")
def coarse_run():
    """A budget recursion for unit-level checks: coarser grid, 6 projections.
    Yields (config, envelope curve, pre-projection slices at s = 1..7)."""
    cfg = recursion.default_config(n_max=6, spacing_scale=4e-3)
    return (cfg, *recursion.run_recursion(cfg, collect_slices=True))
