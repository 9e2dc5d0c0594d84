"""Physics checks on the tables the CLI writes, and the call that runs them.

Each checker reads one output file and returns a ``Verdict``: the accuracy
figures it measured and the problems it found.  An invocation with any
problem counts as failed.  Tolerances come from the physics and from the
accuracy the default grids reach today, which later changes may not lose;
never from the bytes of an earlier output, so a change that moves table
values by about 1e-15 still passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.workloads import Invocation

PEAK_TOL = 2.4e-7         # peaks 1/(k+1) at the default grid, relative
TROUGH_TOL = 3.2e-5       # sqrt(offset)-extrapolated troughs 1/(2(k+1)), relative
HALF_TOL = PEAK_TOL + TROUGH_TOL   # trough / peak before it, against 1/2
CLOSED_FORM_TOL = 1e-4    # criterion 1: 0-3 projection envelopes, absolute
RHO_MIN = 0.9             # criterion 7: Spearman rho of delta_norm vs predictor
LATTICE_TOL = 3e-3        # criterion 5: extrapolated walk ratio against 1
EXACT_TOL = 1e-6          # exact table against its closed forms, absolute
SCALING_TOL = 1e-12       # envelope against the m = 1 table, relative
COLUMN_TOL = 1e-12        # closed-form columns recomputed here, relative

FP_COLUMNS = ["t", "f_p_model", "f_p_numeric", "f_v", "s", "side"]
PDX_COLUMNS = ["eps", "E_eps", "predictor", "delta_norm"]
PDX_ROWS = 9
LATTICE_COLUMNS = ["steps_per_projection", "eta", "dtau", "ratio"]
FV_ROWS = 2100


@dataclass
class Verdict:
    figures: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    envelope: np.ndarray | None = None   # f_p_numeric of an fp table

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def require(self, ok, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return bool(ok)


def absorbing_envelope(v0: float, t):
    """(1 - exp(-v0 t)) / (v0 t), the complex-step envelope in closed form."""
    return -np.expm1(-v0 * t) / (v0 * t)


def _read_table(path: str, columns: list[str], verdict: Verdict):
    """Rows of a CSV table with these columns as lists of strings, or None
    after a problem."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        verdict.require(False, f"cannot read {path}: {err}")
        return None
    if not lines:
        verdict.require(False, f"{path} is empty")
        return None
    header = lines[0].split(",")
    if not verdict.require(header == columns, f"columns {header}, expected {columns}"):
        return None
    rows = [line.split(",") for line in lines[1:]]
    if not verdict.require(all(len(r) == len(header) for r in rows), "ragged rows"):
        return None
    return rows


def _floats(rows, index: int, verdict: Verdict) -> np.ndarray:
    try:
        return np.array([float(r[index]) for r in rows])
    except ValueError as err:
        verdict.require(False, f"column {index}: {err}")
        return np.full(len(rows), np.nan)


def _rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want))) if got.size else 0.0


def fp_layout(n_max: int, samples: int) -> tuple[np.ndarray, list[str]]:
    """Rescaled times s = t/eps and side labels of an fp table: per interval
    (n, n+1] the right limit at n ('plus'), samples - 1 interior points and
    the left limit at n + 1 ('minus'); the first interval has no right limit."""
    s_vals, sides = [], []
    for n in range(n_max + 1):
        if n:
            s_vals.append(float(n))
            sides.append("plus")
        s_vals += [n + j / samples for j in range(1, samples)]
        sides += [""] * (samples - 1)
        s_vals.append(float(n + 1))
        sides.append("minus")
    return np.array(s_vals), sides


def few_projection_envelope(s: float, side: str) -> float | None:
    """Criterion 1's map: the exact envelope at s = t/eps for 0-3
    projections, or None where no closed form is used."""
    if side == "plus":
        return {1.0: 0.5, 2.0: 0.25}.get(s)
    if s <= 1.0:
        return 1.0
    if s <= 2.0:
        return 0.5
    if s <= 3.0:
        return 0.25 * (1.0 + (2.0 / np.pi) * np.arctan(np.sqrt((s - 2.0) / s)))
    if s == 4.0 and side == "minus":
        return 0.25
    return None


def check_fp(path: str, inv: Invocation) -> Verdict:
    """Row count (n+1)s + n, envelope in (0, 1], peaks 1/(k+1), troughs half
    their peak, criterion-1 closed forms, and the f_v and s columns."""
    v = Verdict()
    n, samples = inv.option("n-max"), inv.option("samples-per-interval")
    eps = inv.option("eps")
    rows = _read_table(path, FP_COLUMNS, v)
    if rows is None:
        return v
    if not v.require(
        len(rows) == (n + 1) * samples + n,
        f"{len(rows)} rows, expected (n+1)s+n = {(n + 1) * samples + n}",
    ):
        return v
    t, env, fv, s = (_floats(rows, i, v) for i in (0, 2, 3, 4))
    sides = [r[5] for r in rows]
    want_s, want_sides = fp_layout(n, samples)
    v.require(sides == want_sides, "side column out of order")
    v.require(np.allclose(t / eps, want_s, rtol=1e-12, atol=0.0), "t off the s = t/eps grid")
    v.require(np.all((env > 0) & (env <= 1)), "envelope leaves (0, 1]")

    is_minus = np.array([sd == "minus" for sd in want_sides])
    is_plus = np.array([sd == "plus" for sd in want_sides])
    peaks, troughs = env[is_minus], env[is_plus]       # at s = k + 1
    k_peak, k_trough = np.arange(n + 1), np.arange(n)
    peak_err = float(np.max(np.abs(peaks * (k_peak + 1) - 1.0)))
    trough_err = float(np.max(np.abs(troughs * 2 * (k_trough + 1) - 1.0)))
    half_err = float(np.max(np.abs(2.0 * troughs / peaks[:n] - 1.0)))
    closed = [
        (val, want)
        for val, sv, sd in zip(env, want_s, want_sides)
        if (want := few_projection_envelope(sv, sd)) is not None
    ]
    closed_err = float(max(abs(val - want) for val, want in closed))
    v.figures.update(
        peak_rel_err=peak_err, trough_rel_err=trough_err, closed_form_abs_err=closed_err
    )
    v.require(peak_err <= PEAK_TOL, f"peak error {peak_err:.3e} > {PEAK_TOL:.1e}")
    v.require(trough_err <= TROUGH_TOL, f"trough error {trough_err:.3e} > {TROUGH_TOL:.1e}")
    v.require(half_err <= HALF_TOL, f"trough/peak off 1/2 by {half_err:.3e}")
    v.require(closed_err <= CLOSED_FORM_TOL,
              f"closed-form deviation {closed_err:.3e} > {CLOSED_FORM_TOL:.0e}")
    want_fv = absorbing_envelope(4.0 / (3.0 * eps), t)
    v.require(_rel_dev(fv, want_fv) <= COLUMN_TOL, "f_v column off its closed form")
    v.require(np.allclose(s, env / fv - 1.0, rtol=0.0, atol=1e-12), "s != f_p/f_v - 1")
    v.envelope = env
    return v


def spearman_rho(x, y) -> float:
    """Spearman rank correlation, ties given their average rank."""
    def ranks(a):
        a = np.asarray(a, dtype=float)
        ordered = np.sort(a)
        return (np.searchsorted(ordered, a, "left") + np.searchsorted(ordered, a, "right")) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def check_pdx(path: str, inv: Invocation) -> Verdict:
    """Criterion 7: delta_norm ranks with the predictor (rho > 0.9) and grows
    with E eps up to 0.5."""
    v = Verdict()
    rows = _read_table(path, PDX_COLUMNS, v)
    if rows is None:
        return v
    if not v.require(len(rows) == PDX_ROWS, f"{len(rows)} rows, expected {PDX_ROWS}"):
        return v
    e_eps, predictor, norm = (_floats(rows, i, v) for i in (1, 2, 3))
    v.require(np.all(np.diff(e_eps) > 0), "E_eps not increasing")
    v.require(np.all(np.isfinite(norm) & (norm > 0)), "delta_norm not finite and positive")
    v.require(np.all((predictor >= 0) & (predictor <= 1)), "predictor outside [0, 1]")
    rho = spearman_rho(norm, predictor)
    v.figures["rank_rho"] = rho
    v.require(rho > RHO_MIN, f"rank rho {rho:.4f} <= {RHO_MIN}")
    low = norm[e_eps <= 0.5]
    v.require(np.all(np.diff(low) > 0), "delta_norm not increasing for E eps <= 0.5")
    return v


def check_lattice(path: str, inv: Invocation) -> Verdict:
    """Refinement levels 4^j with eta = sqrt(dtau/m), and the extrapolated
    ratio within 3e-3 of the continuum peak law."""
    v = Verdict()
    m, eps, levels = inv.option("m"), inv.option("eps"), inv.option("levels")
    rows = _read_table(path, LATTICE_COLUMNS, v)
    if rows is None:
        return v
    if not v.require(len(rows) == levels + 1, f"{len(rows)} rows, expected {levels + 1}"):
        return v
    steps, eta, dtau, ratio = (_floats(rows, i, v) for i in range(4))
    r = 4.0 ** np.arange(1, levels + 1)
    v.require(np.array_equal(steps[:-1], r), "steps per projection are not 4^j")
    v.require(_rel_dev(dtau[:-1], eps / r) <= COLUMN_TOL, "dtau != eps / steps")
    v.require(_rel_dev(eta[:-1], np.sqrt(eps / r / m)) <= COLUMN_TOL, "eta != sqrt(dtau/m)")
    v.require(np.all(np.isfinite(ratio) & (ratio > 0)), "ratios not finite and positive")
    v.require(steps[-1] == eta[-1] == dtau[-1] == 0, "last row is not the extrapolation")
    err = abs(float(ratio[-1]) - 1.0)
    v.figures["lattice_extrap_err"] = err
    v.require(err <= LATTICE_TOL, f"extrapolated ratio off 1 by {err:.3e}")
    return v


def exact_closed_forms(eps: float) -> dict[str, float]:
    """Closed form of every row of the exact table."""
    return {
        "envelope_no_projection": 1.0,
        "envelope_one_projection": 0.5,
        "envelope_two_projection_peak": 1.0 / 3.0,
        "envelope_three_projection": 0.25,
        "chain_pp_equal": 1.0 / (3.0 * np.sqrt(3.0 * eps)),
        "chain_pm_equal": 1.0 / (6.0 * np.sqrt(3.0 * eps)),
        "chain_ppp_reconstructed": 1.0 / (8.0 * np.sqrt(eps)),
        "time_averaged_one": 0.5,
        "time_averaged_two": 1.0 / 3.0,
        "absorbing_envelope_at_eps": float(absorbing_envelope(4.0 / 3.0, 1.0)),
    }


def check_exact(path: str, inv: Invocation) -> Verdict:
    """Each row within 1e-6 of its closed form."""
    v = Verdict()
    rows = _read_table(path, ["name", "value"], v)
    if rows is None:
        return v
    want = exact_closed_forms(inv.option("eps"))
    names = [r[0] for r in rows]
    if not v.require(names == list(want), f"rows {names}, expected {list(want)}"):
        return v
    got = _floats(rows, 1, v)
    dev = np.abs(got - np.array(list(want.values())))
    err = float(np.max(dev))
    v.figures["closed_form_abs_err"] = err
    for name, d in zip(names, dev):
        v.require(d <= EXACT_TOL, f"{name} off its closed form by {d:.3e}")
    return v


def check_fv(path: str, inv: Invocation) -> Verdict:
    """The absorbing envelope on t = 0.01 eps .. 21 eps: its closed form,
    inside (0, 1] and decreasing."""
    v = Verdict()
    eps = inv.option("eps")
    rows = _read_table(path, ["t", "f_v"], v)
    if rows is None:
        return v
    if not v.require(len(rows) == FV_ROWS, f"{len(rows)} rows, expected {FV_ROWS}"):
        return v
    t, fv = _floats(rows, 0, v), _floats(rows, 1, v)
    v.require(_rel_dev(t, np.arange(1, FV_ROWS + 1) * (0.01 * eps)) <= COLUMN_TOL,
              "t off the 0.01 eps grid")
    want = absorbing_envelope(4.0 / (3.0 * eps), t)
    v.figures["closed_form_abs_err"] = float(np.max(np.abs(fv - want)))
    v.require(_rel_dev(fv, want) <= COLUMN_TOL, "f_v off its closed form")
    v.require(np.all((fv > 0) & (fv <= 1)), "f_v leaves (0, 1]")
    v.require(np.all(np.diff(fv) < 0), "f_v not decreasing")
    return v


CHECKERS = {
    "fp": check_fp,
    "pdx": check_pdx,
    "lattice": check_lattice,
    "exact": check_exact,
    "fv": check_fv,
}


def scaling_problem(envelope: np.ndarray, reference: np.ndarray) -> str | None:
    """The envelope depends on t/eps only, never on m: compare an fp
    envelope with the one at m = eps = 1."""
    if envelope.shape != reference.shape:
        return f"envelope has {envelope.size} rows, the m = 1 table {reference.size}"
    dev = _rel_dev(envelope, reference)
    if dev > SCALING_TOL:
        return f"envelope differs from the m = 1 table by {dev:.3e} relative"
    return None


def run_invocation(cli_main, inv: Invocation, out: str) -> tuple[float, Verdict]:
    """Call the CLI in-process and check what it wrote.

    Returns the call's wall time and the verdict.  An exception or a
    non-zero exit is a problem, like a failed output check."""
    Path(out).unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = cli_main(inv.argv(out))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:   # the benchmark counts the failure and goes on
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code not in (None, 0):
        return seconds, Verdict(problems=[f"{inv.command} ended with {code!r}"])
    return seconds, CHECKERS[inv.command](out, inv)
