"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of ``zenoprop`` at every module attribute
that binds them (``zenoprop.recursion.heat_kernel`` as well as
``zenoprop.core.heat_kernel``), so calls between modules pass through the
wrapper.  Spans stay in memory as ``[id, parent id, name, start, end,
raised]`` and are written out by the caller when the run ends.  Nothing in
``src/`` changes; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

PACKAGE_MODULES = ("cli", "core", "exact", "sawtooth", "recursion", "lattice", "wavepacket")

# The functions that carry a layer's work, by defining module.
LAYERS = {
    "recursion": ("advance_slice", "boundary_amplitude", "initial_slice", "run_recursion"),
    "core": ("heat_kernel", "half_power_weights"),
    "wavepacket": (
        "delta_norm_scan",
        "stationary_delta_g",
        "pdx_delta_psi",
        "packet_boundary_derivative",
        "inner_boundary_convolution",
        "crossing_term",
    ),
    "lattice": ("continuum_peak_estimate", "constrained_walk_probability"),
    "exact": ("absorbing_envelope", "projected_envelope_exact", "time_averaged_envelope"),
    "sawtooth": ("sawtooth_envelope", "oscillation_ratio"),
}

CLI_SPAN = "cli"


def _advance_kernel_points(a) -> int:
    """Points of the heat kernel an advance convolves with: the kernel is
    cut at kernel_span widths and at the grid length."""
    cfg, h = a["cfg"], a["cfg"].grid.spacing
    dt = (a["s_next"] - a["prev"].s) * cfg.eps
    taps = min(int(np.ceil(cfg.kernel_span * np.sqrt(dt / cfg.m) / h)), cfg.grid.n_points - 1)
    return 2 * taps + 1


def _crossing_term_nk(kmax: float, dk: float) -> int:
    """Momentum points of a crossing-term call: the grid -kmax..kmax in
    steps of dk without k = 0."""
    k = np.arange(-kmax, kmax + dk, dk)
    return int(np.count_nonzero(np.abs(k) > 1e-12))


# Problem sizes read from a call's arguments: (metric, how calls combine, size).
SIZES = {
    "recursion.advance_slice": (
        ("grid_points", max, lambda a: a["cfg"].grid.n_points),
        ("kernel_points", max, _advance_kernel_points),
    ),
    "wavepacket.crossing_term": (
        ("nk_nt", sum, lambda a: _crossing_term_nk(a["kmax"], a["dk"]) * len(a["t_grid"])),
        ("nx", max, lambda a: int(np.atleast_1d(a["x1"]).size)),
    ),
    "lattice.constrained_walk_probability": (
        ("site_updates", sum, lambda a: a["cfg"].n_steps * (2 * a["cfg"].n_steps + 1)),
        ("walk_steps", max, lambda a: a["cfg"].n_steps),
    ),
}


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Spans and problem sizes of one pass of a workload.

    With ``record_spans=False`` only the sized functions are wrapped and
    only their sizes are kept, which is what an untraced pass needs."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans: list[list] = []
        self.sizes: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        for metric, combine, size in SIZES.get(name, ()):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            key = f"{name}.{metric}"
            value = size(bound.arguments)
            self.sizes[key] = combine((self.sizes[key], value)) if key in self.sizes else value
        if not self.record_spans:
            return fn(*args, **kwargs)
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None, False]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every binding of the layer functions in the package modules."""
        modules = [importlib.import_module(f"zenoprop.{m}") for m in PACKAGE_MODULES]
        for name in layer_names() if self.record_spans else SIZES:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"zenoprop.{mod_name}"), fn_name)
            wrapper = functools.wraps(original)(functools.partial(self.call, name, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self time and raised calls per layer function, the CLI's
        own time, and the problem sizes."""
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for name in layer_names() + [CLI_SPAN]:
            out[f"{name}.self_s"] = 0.0
            if name != CLI_SPAN:
                out[f"{name}.calls"] = 0
                out[f"{name}.errors"] = 0
        for span_id, _, name, start, end, raised in self.spans:
            out[f"{name}.self_s"] += end - start - covered[span_id]
            if name != CLI_SPAN:
                out[f"{name}.calls"] += 1
                out[f"{name}.errors"] += int(raised)
        for name, sizes in SIZES.items():
            for metric, _, _ in sizes:
                out[f"{name}.{metric}"] = self.sizes.get(f"{name}.{metric}", 0)
        return out
