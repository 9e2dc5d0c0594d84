"""The benchmark traces the package from outside by function and argument
name (``perfbench/spans.py``); small CLI runs under its tracer must still
find every layer function and every sized argument."""

from click.testing import CliRunner

from perfbench import spans
from zenoprop.cli import main

RUNS = (
    ["fp", "--n-max", "2", "--samples-per-interval", "4"],
    ["pdx"],
    ["lattice", "--levels", "3"],
)


def test_tracer_sees_every_layer_and_size(tmp_path):
    tracer = spans.Tracer()
    try:
        tracer.install()
        for args in RUNS:
            res = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out.csv")])
            assert res.exit_code == 0, (args, res.output, res.exception)
    finally:
        tracer.restore()
    assert not [span[2] for span in tracer.spans if span[5]]
    metrics = tracer.layer_metrics()
    for name, sizes in spans.SIZES.items():
        for metric, _, _ in sizes:
            assert metrics[f"{name}.{metric}"] > 0, f"{name}.{metric}"
