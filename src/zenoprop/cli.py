"""Command-line surface: reproducible CSV/JSON tables for every experiment.

Subcommands: ``fv`` (absorbing envelope), ``fp`` (model + numeric saw-tooth
envelopes and their oscillation ratio), ``exact`` (closed-form boundary
values and chain-integral identities), ``lattice`` (walk refinement sweep),
``pdx`` (wave-packet perturbation scan), ``compare`` (peak/trough summary).

Each subcommand declares only the flags it reads or records in its JSON
meta.

The library works in s = t/eps and interval counts.  Only this module
multiplies by eps and m, and it refuses a physical quantity that would
leave the floats, before anything runs, as a usage error naming the flags
that set it (``_check_range``; each envelope table resolves v0 and checks
its range of s in one call, ``_strength``).  Every library call runs
under one guard, ``_numerical_guard``: a ``ValueError`` is a usage error
naming the flags the call was given, and a ``NumericalFailure`` or float
error exits 3.

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


def _numerical_guard(fn, *args, flags=None):
    """``fn(*args)`` with numpy's float errors raised.  A library
    ``ValueError`` is bad input: a usage error naming ``flags``, or a plain
    one without them.  A ``NumericalFailure`` or float error exits 3."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return fn(*args)
    except ValueError as err:
        if flags:
            raise click.BadParameter(str(err), param_hint=flags) from err
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


def _check_range(what: str, low: float, high: float, flags: list[str],
                 normal: bool = True) -> None:
    """Refuse a quantity ``what`` that runs from ``low`` to ``high`` and
    leaves the normal floats (or with ``normal=False`` the positive finite
    floats): a usage error naming ``flags``."""
    floor = sys.float_info.min if normal else math.ulp(0.0)
    if not (low >= floor and high <= sys.float_info.max):
        kind = "normal" if normal else "positive finite"
        raise click.BadParameter(f"{what} runs from {low:.3g} to {high:.3g}, outside the "
                                 f"{kind} floats", param_hint=flags)


def _strength(v0: float | None, eps: float, s_first: float, s_last: float
              ) -> tuple[float, float]:
    """``v0`` and the strength v0 eps that the envelopes take, for a table
    on s = t/eps from ``s_first`` to ``s_last``.  The calibrated default is
    v0 eps = ``sawtooth.V0_EPS``, 4/3 exactly, with v0 = 4/(3 eps)
    reported, which overflows for eps below 4/(3 DBL_MAX), about 7.4e-309:
    a usage error, not a table.  The times t = s eps must be normal floats
    and v0 t positive finite ones (``_check_range``)."""
    if v0 is not None:
        rate = v0 * eps
    else:
        v0, rate = 4.0 / (3.0 * eps), sawtooth.V0_EPS
        if not math.isfinite(v0):
            raise click.BadParameter(f"{eps!r} is too small: the default v0 = 4/(3 eps) "
                                     "overflows", param_hint="'--eps'")
    _check_range("t = s eps", s_first * eps, s_last * eps, ["--eps"])
    _check_range("v0 t", rate * s_first, rate * s_last, ["--v0"], normal=False)
    return v0, rate


@click.group(context_settings=CONTEXT_SETTINGS)
def main() -> None:
    """Boundary propagators for pulsed position measurements."""


@main.command()
@_with(envelope_options)
def fv(m, eps, v0, out, fmt) -> None:
    """Absorbing-potential boundary envelope on a fine time grid."""
    v0, rate = _strength(v0, eps, 0.01, 21.0)
    j = np.arange(1, 2101)
    t = j * (0.01 * eps)
    vals = _numerical_guard(exact.absorbing_envelope, rate, j * 0.01)
    _write_table(out, fmt, "fv", {"m": m, "eps": eps, "v0": v0}, ["t", "f_v"], (t, vals))


def _recursion_tables(v0, eps, n_max, samples_per_interval):
    """``v0`` and the strength v0 eps (``_strength``), then the unit
    recursion in s = t/eps (``recursion``) and the model on its grid of
    intervals n = 0 .. n_max and offsets u = j/samples_per_interval,
    j = 0 .. samples_per_interval: s = n + u, the numeric envelope and the
    model saw-tooth, each an (n_max + 1, samples_per_interval + 1) array.
    The sizes are refused first, before anything is allocated."""
    cfg = _numerical_guard(recursion.RecursionConfig, n_max, samples_per_interval,
                           flags=["--n-max", "--samples-per-interval"])
    v0, rate = _strength(v0, eps, 1 / samples_per_interval, n_max + 1)
    n = np.arange(n_max + 1)[:, None]
    u = np.arange(samples_per_interval + 1) / samples_per_interval
    return (v0, rate, n + u, _numerical_guard(recursion.run_recursion, cfg),
            sawtooth.sawtooth_envelope(n, u))


def _against_fv(rate, s, f_p):
    """The absorbing envelope at strength ``rate`` on s, and the
    oscillation ratio of ``f_p`` about it."""
    f_v = exact.absorbing_envelope(rate, s)
    return f_v, sawtooth.oscillation_ratio(f_p, f_v)


@main.command()
@_with(envelope_options + recursion_options)
def fp(m, eps, v0, out, fmt, n_max, samples_per_interval) -> None:
    """Numeric + model saw-tooth envelopes with the oscillation ratio."""
    v0, rate, s, numeric, model = _recursion_tables(v0, eps, n_max, samples_per_interval)
    sides = np.full(s.shape, "", dtype="<U5")
    sides[:, 0], sides[:, -1] = "plus", "minus"
    # row 0 is the free interval, which starts with no drop
    s, numeric, model, sides = (col.ravel()[1:] for col in (s, numeric, model, sides))
    f_v, ratio = _numerical_guard(_against_fv, rate, s, numeric)
    params = {"m": m, "eps": eps, "v0": v0, "n_max": n_max,
              "samples_per_interval": samples_per_interval}
    _write_table(out, fmt, "fp", params, ["t", "f_p_model", "f_p_numeric", "f_v", "s", "side"],
                 (s * eps, model, numeric, f_v, ratio, sides))


@main.command(name="exact")
@_with(envelope_options)
def exact_cmd(m, eps, v0, out, fmt) -> None:
    """Closed-form boundary values and chain-integral identities."""
    v0, rate = _strength(v0, eps, 0.5, 4.0)

    def build():
        orthant = exact.bridge_orthant
        return [
            ("envelope_no_projection", exact.projected_envelope_exact(0.5, 0)),
            ("envelope_one_projection", exact.projected_envelope_exact(1.5, 1)),
            ("envelope_two_projection_peak", exact.projected_envelope_exact(3.0, 2)),
            ("envelope_three_projection", exact.projected_envelope_exact(4.0, 3)),
            ("chain_pp_equal", orthant((eps, 2 * eps), 3 * eps) / np.sqrt(3 * eps)),
            ("chain_pm_equal", orthant((eps, 2 * eps), 3 * eps, (1, -1)) / np.sqrt(3 * eps)),
            ("chain_ppp_reconstructed",
             orthant((eps, 2 * eps, 3 * eps), 4 * eps) / np.sqrt(4 * eps)),
            ("time_averaged_one", exact.time_averaged_envelope(1)),
            ("time_averaged_two", exact.time_averaged_envelope(2)),
            ("absorbing_envelope_at_eps", exact.absorbing_envelope(rate, 1.0)),
        ]

    rows = _numerical_guard(build)
    _write_table(out, fmt, "exact", {"m": m, "eps": eps, "v0": v0},
                 ["name", "value"], zip(*rows))


@main.command(name="lattice")
@_with([mass_option, spacing_option, *output_options])
@click.option("--tau", type=POSITIVE, default=4.0, show_default=True,
              help="Total walk duration (a whole number of eps).")
@click.option("--levels", type=click.IntRange(min=3, max=_MAX_LEVELS), default=5,
              show_default=True, help="Number of refinement levels (quadrupling).")
def lattice_cmd(m, eps, out, fmt, tau, levels) -> None:
    """Constrained-walk refinement sweep toward the continuum peak law."""
    level_list = tuple(4**j for j in range(1, levels + 1))
    r = np.array(level_list, dtype=float)
    dtau = eps / r
    eta = [math.sqrt(eps) / math.sqrt(m) / math.sqrt(x) for x in r]
    _check_range("dtau = eps/r", dtau[-1], dtau[0], ["--eps"])
    _check_range("eta = sqrt(eps)/sqrt(m)/sqrt(r)", eta[-1], eta[0], ["--eps", "--m"])
    n_intervals = tau / eps
    if not (n_intervals >= 1 and n_intervals.is_integer()):
        raise click.BadParameter(f"{tau!r} is not a whole number of eps = {eps!r}: tau/eps = "
                                 f"{n_intervals!r}", param_hint=["--tau"])

    sweep = _numerical_guard(lattice.continuum_peak_estimate, int(n_intervals), level_list,
                             flags=["--tau", "--levels"])
    # one row per level, then the extrapolated ratio on a row of zeros
    columns = [np.append(col, last) for col, last in
               ((r, 0.0), (eta, 0.0), (dtau, 0.0), (sweep.ratios, sweep.extrapolated))]
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
    _, tau, eps_values, _ = _numerical_guard(wavepacket.scan_geometry, p_sigma,
                                             flags=["--p-sigma"])
    _check_range("m eps to m tau", m * float(eps_values[0]),  # Python floats: inf, no error
                 m * max(float(eps_values[-1]), tau), ["--m", "--p-sigma"])
    tau, eps_values, *columns = _numerical_guard(wavepacket.delta_norm_scan, p_sigma)
    _write_table(out, fmt, "pdx", {"m": m, "p_sigma": p_sigma, "tau": m * tau},
                 ["eps", "E_eps", "predictor", "delta_norm"], (m * eps_values, *columns))


@main.command()
@_with(envelope_options + recursion_options)
def compare(m, eps, v0, out, fmt, n_max, samples_per_interval) -> None:
    """Peak/trough summary: numeric recursion vs model vs absorbing envelope."""
    v0, rate, s, numeric, model = _recursion_tables(v0, eps, n_max, samples_per_interval)
    # rows k = 1 .. n_max: the peak before the drop at s = k + 1 is the
    # u = 1 end of interval k, the trough after the drop at s = k its u = 0 end
    at, peak_n = s[1:, -1], numeric[1:, -1]
    f_v, ratio = _numerical_guard(_against_fv, rate, at, peak_n)
    params = {"m": m, "eps": eps, "v0": v0, "n_max": n_max,
              "samples_per_interval": samples_per_interval}
    _write_table(out, fmt, "compare", params,
                 ["k", "t_peak", "peak_numeric", "peak_model",
                  "trough_numeric", "trough_model", "f_v_peak", "s_peak"],
                 (np.arange(1, n_max + 1), at * eps, peak_n, model[1:, -1], numeric[1:, 0],
                  model[1:, 0], f_v, ratio))


if __name__ == "__main__":
    main()
