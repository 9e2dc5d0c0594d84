"""Command-line surface: reproducible CSV/JSON tables for every experiment.

Subcommands: ``fv`` (absorbing envelope), ``fp`` (model + numeric saw-tooth
envelopes and their oscillation ratio), ``exact`` (closed-form boundary
values and chain-integral identities), ``lattice`` (walk refinement sweep),
``pdx`` (wave-packet perturbation scan), ``compare`` (peak/trough summary).

Each subcommand declares only the flags it reads or records in its JSON
meta.

Output is deterministic for a fixed configuration: floats are written with
17 significant digits, comma separated, LF line endings.  Exit codes:
0 success, 2 usage error, 3 numerical failure (including any non-finite
value about to be written).  Every flag can also be set through a
``ZENOPROP_<SUBCOMMAND>_<FLAG>`` environment variable, and a JSON config
file keyed by flag name supplies values beneath both.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from typing import NoReturn

import click
import numpy as np

from . import exact, lattice, recursion, sawtooth, wavepacket
from .core import NumericalFailure

CONTEXT_SETTINGS = {"auto_envvar_prefix": "ZENOPROP", "help_option_names": ["-h", "--help"]}


def _fail(message: str) -> NoReturn:
    click.echo(f"numerical failure: {message}", err=True)
    sys.exit(3)


def _write_table(path: str, fmt: str, command: str, params: dict, names, columns) -> None:
    """Check every numeric column is finite, then write the table; CSV lines
    are zipped from the columns and streamed to the file one row at a time,
    each through one ``%`` template that writes strings as they are and
    numbers with 17 significant digits.  A JSON document is streamed as the
    encoder's chunks, which ``json.dumps`` would join into one string."""
    columns = [np.asarray(col) for col in columns]
    text = [col.dtype.kind == "U" for col in columns]
    if not all(np.isfinite(col).all() for col, is_text in zip(columns, text) if not is_text):
        _fail(f"non-finite value in the {command} table")
    rows = zip(*(col.tolist() if is_text else col.astype(float, copy=False).tolist()
                 for col, is_text in zip(columns, text)))
    if fmt == "csv":
        template = ",".join("%s" if is_text else "%.17g" for is_text in text) + "\n"
        lines = itertools.chain([",".join(names) + "\n"], (template % row for row in rows))
    else:
        doc = {
            "meta": {"command": command, "params": params},
            "columns": list(names),
            "rows": [list(row) for row in rows],
        }
        lines = itertools.chain(json.JSONEncoder(indent=1, sort_keys=True).iterencode(doc),
                                ["\n"])
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as err:
        raise click.UsageError(f"cannot write {path}: {err}") from err


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Put a JSON config file into ``ctx.default_map``, where Click ranks it
    beneath flags and environment variables.  Keys are flag names
    (``n-max``, ``format``) or parameter names (``n_max``, ``fmt``)."""
    if not path:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise click.UsageError(f"cannot read config file {path}: {err}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    names = {key: p.name for p in ctx.command.params if p.expose_value
             for key in (p.name, *(opt.lstrip("-") for opt in p.opts))}
    for key in data:
        if key not in names:
            raise click.UsageError(f"unknown config key {key!r}")
    ctx.default_map = {**(ctx.default_map or {}), **{names[k]: v for k, v in data.items()}}


class _FinitePositive(click.ParamType):
    """A finite float > 0 (``click.FloatRange`` would let NaN through)."""

    name = "float"

    def convert(self, value, param, ctx) -> float:
        try:
            number = float(value)
        except (TypeError, ValueError):
            self.fail(f"{value!r} is not a valid float", param, ctx)
        if not 0 < number < float("inf"):
            self.fail(f"{value!r} is not a finite positive number", param, ctx)
        return number


POSITIVE = _FinitePositive()


def _numerical_guard(fn, *args, **kwargs):
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn(*args, **kwargs)
    except ValueError as err:
        raise click.UsageError(str(err)) from err
    except (NumericalFailure, ArithmeticError) as err:
        _fail(str(err))


mass_option = click.option("--m", type=POSITIVE, default=1.0, show_default=True,
                           help="Particle mass.")
spacing_option = click.option("--eps", type=POSITIVE, default=1.0, show_default=True,
                              help="Projection spacing.")
absorption_option = click.option("--v0", type=POSITIVE, default=None,
                                 help="Absorption strength (default 4/(3 eps)).")

output_options = [
    click.option("--out", required=True, type=click.Path(dir_okay=False, writable=False),
                 help="Output file path."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                 show_default=True, help="Output format."),
    click.option("--config", "config_path", type=click.Path(exists=False), default=None,
                 is_eager=True, expose_value=False, callback=_load_config,
                 help="JSON config file keyed by flag name (flags and env vars take precedence)."),
]

envelope_options = [mass_option, spacing_option, absorption_option, *output_options]

recursion_options = [
    click.option("--n-max", type=int, default=20, show_default=True, help="Number of projections."),
    click.option("--samples-per-interval", type=int, default=16, show_default=True,
                 help="Envelope samples per projection interval."),
]


def _with(options):
    def decorate(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return decorate


# Most refinement levels whose finest walk, 4**levels steps per interval,
# fits the walk cap; checked on the integer, before any level is formed.
_MAX_LEVELS = (lattice.MAX_WALK_STEPS.bit_length() - 1) // 2


def _resolve_v0(v0: float | None, eps: float) -> float:
    """``v0``, or the calibrated default 4/(3 eps), which overflows for eps
    below 4/(3 DBL_MAX), about 7.4e-309: a usage error, not a table."""
    if v0 is not None:
        return v0
    v0 = sawtooth.calibrate_absorption(eps)
    if not math.isfinite(v0):
        raise click.BadParameter(f"{eps!r} is too small: the default v0 = 4/(3 eps) "
                                 "overflows", param_hint="'--eps'")
    return v0


def _check_scales(eps: float, v0: float, s_first: float, s_last: float) -> None:
    """Refuse an ``--eps`` whose times t = s eps, s from s_first to s_last,
    leave the normal floats, or a ``--v0`` whose v0 t at either end leaves
    the positive finite floats: a usage error naming the flag."""
    first, last = s_first * eps, s_last * eps
    if not (first >= sys.float_info.min and last <= sys.float_info.max):
        raise click.BadParameter(f"{eps!r} puts the times t = s eps, from {first:.3g} to "
                                 f"{last:.3g}, outside the normal floats", param_hint="'--eps'")
    low, high = v0 * eps * s_first, v0 * eps * s_last
    if not (0 < low and high < math.inf):
        raise click.BadParameter(f"{v0!r} puts v0 t, from {low:.3g} to {high:.3g}, outside "
                                 "the positive finite floats", param_hint="'--v0'")


def _check_walk_scales(m: float, eps: float, levels: tuple[int, ...]) -> None:
    """Refuse an ``--eps`` whose time step dtau = eps/r, or an ``--eps`` and
    ``--m`` whose site spacing eta = sqrt(eps)/sqrt(m)/sqrt(r), leaves the
    normal floats at one of the steps per interval r in ``levels``: a usage
    error naming the flags.  Both fall as r grows, so the first and last
    levels bound them."""
    if not levels:
        return  # continuum_peak_estimate refuses an empty sweep
    coarse, fine = levels[0], levels[-1]
    if not eps / fine >= sys.float_info.min:
        raise click.BadParameter(f"{eps!r} puts dtau = eps/r at {eps / fine:.3g} for r = "
                                 f"{fine}, below the normal floats", param_hint="'--eps'")
    high, low = (math.sqrt(eps) / math.sqrt(m) / math.sqrt(r) for r in (coarse, fine))
    if not (sys.float_info.min <= low and high <= sys.float_info.max):
        raise click.BadParameter(f"eta = sqrt(eps)/sqrt(m)/sqrt(r), from {high:.3g} to "
                                 f"{low:.3g}, leaves the normal floats",
                                 param_hint=["--eps", "--m"])


@click.group(context_settings=CONTEXT_SETTINGS)
def main() -> None:
    """Boundary propagators for pulsed position measurements."""


@main.command()
@_with(envelope_options)
def fv(m, eps, v0, out, fmt) -> None:
    """Absorbing-potential boundary envelope on a fine time grid."""
    v0 = _resolve_v0(v0, eps)
    _check_scales(eps, v0, 0.01, 21.0)
    t = np.arange(1, 2101) * (0.01 * eps)
    vals = _numerical_guard(exact.absorbing_envelope, v0, t)
    _write_table(out, fmt, "fv", {"m": m, "eps": eps, "v0": v0}, ["t", "f_v"], (t, vals))


def _recursion_tables(eps, v0, n_max, samples_per_interval):
    """The columns of an envelope table, built from the unit recursion in
    s = t/eps (``recursion``): times t = s eps, the model saw-tooth, the
    numeric envelope, the absorbing envelope at strength v0 eps, and their
    oscillation ratio."""
    try:  # refused on the sizes and eps alone, before anything is allocated
        cfg = recursion.RecursionConfig(n_max, samples_per_interval)
    except (ValueError, OverflowError) as err:
        raise click.BadParameter(str(err),
                                 param_hint=["--n-max", "--samples-per-interval"]) from err
    _check_scales(eps, v0, 1 / samples_per_interval, n_max + 1)
    curve = recursion.run_recursion(cfg)
    s = curve.times
    model = sawtooth.sawtooth_envelope(1.0, s)
    # model is right-continuous; report the peak branch on '-' rows
    minus = curve.sides == "-"
    model[minus] = sawtooth.peak_value(s[minus] - 1)
    fvv = exact.absorbing_envelope(v0 * eps, s)
    return s * eps, curve, model, fvv, sawtooth.oscillation_ratio(curve.values, fvv)


@main.command()
@_with(envelope_options + recursion_options)
def fp(m, eps, v0, out, fmt, n_max, samples_per_interval) -> None:
    """Numeric + model saw-tooth envelopes with the oscillation ratio."""
    v0 = _resolve_v0(v0, eps)
    t, curve, model, fvv, s = _numerical_guard(_recursion_tables, eps, v0, n_max,
                                               samples_per_interval)
    sides = np.select([curve.sides == "-", curve.sides == "+"], ["minus", "plus"], "")
    params = {"m": m, "eps": eps, "v0": v0, "n_max": n_max,
              "samples_per_interval": samples_per_interval}
    _write_table(out, fmt, "fp", params,
                 ["t", "f_p_model", "f_p_numeric", "f_v", "s", "side"],
                 (t, model, curve.values, fvv, s, sides))


@main.command(name="exact")
@_with(envelope_options)
def exact_cmd(m, eps, v0, out, fmt) -> None:
    """Closed-form boundary values and chain-integral identities."""
    v0 = _resolve_v0(v0, eps)
    _check_scales(eps, v0, 0.5, 4.0)

    def build():
        orthant = exact.bridge_orthant
        return [
            ("envelope_no_projection", exact.projected_envelope_exact(eps, 0.5 * eps, 0)),
            ("envelope_one_projection", exact.projected_envelope_exact(eps, 1.5 * eps, 1)),
            ("envelope_two_projection_peak", exact.projected_envelope_exact(eps, 3 * eps, 2)),
            ("envelope_three_projection", exact.projected_envelope_exact(eps, 4 * eps, 3)),
            ("chain_pp_equal", orthant((eps, 2 * eps), 3 * eps) / np.sqrt(3 * eps)),
            ("chain_pm_equal", orthant((eps, 2 * eps), 3 * eps, (1, -1)) / np.sqrt(3 * eps)),
            ("chain_ppp_reconstructed",
             orthant((eps, 2 * eps, 3 * eps), 4 * eps) / np.sqrt(4 * eps)),
            ("time_averaged_one", exact.time_averaged_envelope(1)),
            ("time_averaged_two", exact.time_averaged_envelope(2)),
            ("absorbing_envelope_at_eps", exact.absorbing_envelope(v0, eps)),
        ]

    rows = _numerical_guard(build)
    _write_table(out, fmt, "exact", {"m": m, "eps": eps, "v0": v0},
                 ["name", "value"], zip(*rows))


@main.command(name="lattice")
@_with([mass_option, spacing_option, *output_options])
@click.option("--tau", type=POSITIVE, default=4.0, show_default=True,
              help="Total walk duration (multiple of eps).")
@click.option("--levels", type=click.IntRange(max=_MAX_LEVELS), default=4, show_default=True,
              help="Number of refinement levels (quadrupling).")
def lattice_cmd(m, eps, out, fmt, tau, levels) -> None:
    """Constrained-walk refinement sweep toward the continuum peak law."""
    level_list = tuple(4**j for j in range(1, levels + 1))
    _check_walk_scales(m, eps, level_list)

    sweep = _numerical_guard(lattice.continuum_peak_estimate, tau, eps, m=m, levels=level_list)
    # one row per level, then the extrapolated ratio on a row of zeros
    r = sweep.steps_per_projection.astype(float)
    columns = [np.append(col, last) for col, last in
               ((r, 0.0), (sweep.etas, 0.0), (eps / r, 0.0), (sweep.ratios, sweep.extrapolated))]
    _write_table(out, fmt, "lattice", {"m": m, "eps": eps, "tau": tau, "levels": levels},
                 ["steps_per_projection", "eta", "dtau", "ratio"], columns)


@main.command()
@_with([mass_option, *output_options])
@click.option("--p-sigma", type=POSITIVE, default=10.0, show_default=True,
              help="Dimensionless packet momentum p*sigma.")
def pdx(m, out, fmt, p_sigma) -> None:
    """Wave-packet perturbation scan against the suppression predictor; it
    scans its own eps values and calibrates v0 from each, at m = 1 (the
    scan is scale-free), reporting eps and tau in units of m, times --m."""

    def build():  # in units of sigma
        wp = wavepacket.WavePacket(q=-10.0, p=p_sigma, sigma=1.0, m=1.0)
        if not 0 < wp.energy < math.inf:
            raise NumericalFailure(f"packet energy {wp.energy:.6g} is not finite and positive")
        tau = 1.8 * abs(wp.q) * wp.m / wp.p + 0.8 * wp.zeno_time
        scan = np.array([0.125, 0.2, 0.3, 0.4, 0.5, 0.7, 0.85, 1.0, 1.25])
        eps_values = scan / wp.energy
        try:  # the smallest eps has the finest time grid
            wavepacket.time_points(wp, eps_values[0], tau)
        except ValueError as err:
            raise click.BadParameter(str(err), param_hint="'--p-sigma'") from err
        x_grid = np.linspace(0.05, abs(wp.q) + wp.p * tau / wp.m + 6.0, 400)
        norms, exponents = wavepacket.delta_norm_scan(wp, eps_values, tau, x_grid)
        return tau, (eps_values, scan, wavepacket.suppression_factor(exponents), norms)

    tau, (eps_values, *columns) = _numerical_guard(build)
    low, high = m * float(eps_values[0]), m * max(float(eps_values[-1]), tau)  # inf, no error
    if not (sys.float_info.min <= low and high <= sys.float_info.max):
        raise click.BadParameter(f"eps and tau in units of m, from {low:.3g} to {high:.3g}, "
                                 "leave the normal floats", param_hint=["--m", "--p-sigma"])
    _write_table(out, fmt, "pdx", {"m": m, "p_sigma": p_sigma, "tau": m * tau},
                 ["eps", "E_eps", "predictor", "delta_norm"], (m * eps_values, *columns))


@main.command()
@_with(envelope_options + recursion_options)
def compare(m, eps, v0, out, fmt, n_max, samples_per_interval) -> None:
    """Peak/trough summary: numeric recursion vs model vs absorbing envelope."""
    v0 = _resolve_v0(v0, eps)
    t, curve, model, fvv, s = _numerical_guard(_recursion_tables, eps, v0, n_max,
                                               samples_per_interval)

    # '-' rows sit at s = 1..n_max+1 and '+' rows at s = 1..n_max; the peak
    # of drop k is the '-' row at s = k + 1
    minus = curve.sides == "-"
    t_k, peak_n, peak_m, fv_k, s_k = (col[minus][1:] for col in
                                      (t, curve.values, model, fvv, s))
    troughs = curve.values[curve.sides == "+"]
    k = np.arange(1, len(troughs) + 1)
    trough_m = sawtooth.trough_value(k - 1)
    params = {"m": m, "eps": eps, "v0": v0, "n_max": n_max,
              "samples_per_interval": samples_per_interval}
    _write_table(out, fmt, "compare", params,
                 ["k", "t_peak", "peak_numeric", "peak_model",
                  "trough_numeric", "trough_model", "f_v_peak", "s_peak"],
                 (k, t_k, peak_n, peak_m, troughs, trough_m, fv_k, s_k))


if __name__ == "__main__":
    main()
