"""zenoprop benchmark: one workload, timed, checked against the physics.

Run from the repository root:

    python3 perfbench/run.py --workload fp20 --seed 1 --seconds 15 --trace 0

The workloads (see ``workloads.py``) call the ``zenoprop`` CLI in-process,
one invocation after another, with numpy's default threads.  A run repeats
the workload's pass of invocations until ``--seconds`` have gone by, and at
least three times.  wall_s is the median pass, so the slower first pass,
which warms the allocator and caches, does not set it.

Every table written is checked (``checks.py``).  A pass must write the same
bytes as the first pass, and an fp envelope must match the m = eps = 1
table, which is computed once after the timed passes when the seed picks
another pair.  An invocation that raises, exits non-zero or fails a check
counts as failed.

``--trace 0`` reports the end-to-end metrics:

    wall_s               median wall time of one pass, after import
    setup_s              median time from a fresh interpreter to an imported
                         zenoprop.cli, over several interpreters
    peak_rss_mb          peak resident set of this process, which starts
                         fresh for every run and runs one workload
    ok_frac              1 - failed / attempted invocations
    peak_rel_err         max_k |peak_k (k+1) - 1|               (fp)
    trough_rel_err       max_k |trough_k 2(k+1) - 1|            (fp)
    closed_form_abs_err  largest deviation from a closed form   (fp, walks)
    rank_rho             Spearman rho, delta_norm vs predictor  (pdx)
    lattice_extrap_err   |extrapolated walk ratio - 1|          (walks)

An accuracy metric that a workload's tables do not carry is reported as
1.0 on that workload, a constant: every run reports every metric, and no
metric may read 0.

``--trace 1`` reports the per-layer metrics instead: for each wrapped
function ``<module>.<function>`` its calls, self time and raised calls, the
problem sizes read from the arguments, the CLI's own time and output bytes,
and ``trace.overhead_s``, the traced minus the untraced median pass time.
After an untraced first pass, traced and untraced passes alternate, and
the first pass is left out of the overhead.  Spans go to
``perfbench/out/spans-<workload>-s<seed>.json``; every run writes its
environment, metrics and problems to ``perfbench/out/result-*.json``.

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import checks, spans, workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 7
NOT_PRODUCED = 1.0

# (unit, worst value over invocations) of the accuracy figures
ACCURACY = {
    "peak_rel_err": ("1", max),
    "trough_rel_err": ("1", max),
    "closed_form_abs_err": ("1", max),
    "rank_rho": ("1", min),
    "lattice_extrap_err": ("1", max),
}

SETUP_CODE = "import zenoprop.cli; print(zenoprop.cli.__file__, flush=True)"


@dataclass
class Pass:
    """One pass of a workload's invocations: its CLI wall time, output
    bytes, a verdict and an output digest per invocation, and its tracer."""

    tracer: spans.Tracer
    wall_s: float = 0.0
    out_bytes: int = 0
    verdicts: list[checks.Verdict] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting an interpreter to an imported zenoprop.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                              env=env, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not Path(line.strip()).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup probe failed (exit {code}, imported {line.strip()!r})")
    return times


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def run_pass(cli_main, invs, tag: str, tracer: spans.Tracer) -> Pass:
    gc.collect()
    result = Pass(tracer=tracer)
    tracer.install()
    try:
        for i, inv in enumerate(invs):
            out = OUT / f"{tag}-{i}-{inv.command}.csv"
            seconds, verdict = checks.run_invocation(cli_main, inv, str(out))
            result.wall_s += seconds
            result.verdicts.append(verdict)
            data = out.read_bytes() if out.exists() else b""
            result.digests.append(hashlib.sha256(data).hexdigest())
            result.out_bytes += len(data)
    finally:
        tracer.restore()
    return result


def timed_passes(plain_main, invs, tag: str, seconds: float, trace: bool):
    """Untraced and traced passes, until ``seconds`` have gone by and at
    least MIN_PASSES.  With ``trace`` the passes alternate untraced, traced,
    untraced, ... and end on an untraced one."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while (len(untraced) + len(traced) < MIN_PASSES
           or time.perf_counter() - start < seconds
           or len(traced) >= len(untraced)):
        if trace and len(untraced) > len(traced):
            tracer = spans.Tracer()
            traced_main = functools.partial(tracer.call, spans.CLI_SPAN, plain_main)
            traced.append(run_pass(traced_main, invs, tag, tracer))
        else:
            untraced.append(run_pass(plain_main, invs, tag, spans.Tracer(record_spans=False)))
    return untraced, traced


def cross_check(passes: list[Pass], reference: Pass | None) -> None:
    """Fail every invocation that wrote other bytes than in the first pass,
    and every fp envelope that differs from the m = eps = 1 reference."""
    first = passes[0]
    for p in passes[1:]:
        for digest, first_digest, verdict in zip(p.digests, first.digests, p.verdicts):
            verdict.require(digest == first_digest, "wrote other bytes than the first pass")
    if reference is None:
        return
    for p in passes:
        for verdict, ref in zip(p.verdicts, reference.verdicts):
            if verdict.envelope is not None and ref.envelope is not None:
                problem = checks.scaling_problem(verdict.envelope, ref.envelope)
                if problem:
                    verdict.problems.append(problem)


def end_to_end(untraced: list[Pass], setup: list[float], peak_rss_mb: float,
               verdicts: list[checks.Verdict]) -> dict[str, tuple[float, str]]:
    failed = sum(v.failed for v in verdicts)
    out = {
        "wall_s": (statistics.median(p.wall_s for p in untraced), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / len(verdicts), "1"),
    }
    for name, (unit, worst) in ACCURACY.items():
        values = [v.figures[name] for v in verdicts if name in v.figures]
        out[name] = (worst(values) if values else NOT_PRODUCED, unit)
    return out


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict[str, tuple[float, str]]:
    """Median over traced passes of each layer metric, and the tracing
    overhead against the untraced passes after the first."""
    per_pass = [p.tracer.layer_metrics() | {"cli.out_bytes": p.out_bytes} for p in traced]
    layer = {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
    layer["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                 - statistics.median(p.wall_s for p in untraced[1:]))

    def unit(name: str) -> str:
        return "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
    return {name: (value, unit(name)) for name, value in layer.items()}


def environment(problem_sizes: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": package_version("scipy"),
        "click": package_version("click"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "problem_sizes": problem_sizes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zenoprop" / "cli.py").is_file():
        print(f"perfbench: no zenoprop sources under {SRC}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("ZENOPROP_")]:
        del os.environ[key]   # the CLI reads option values from these
    OUT.mkdir(parents=True, exist_ok=True)

    setup = measure_setup(SETUP_SAMPLES)
    from zenoprop import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported zenoprop from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    def plain_main(argv):
        return cli.main.main(argv, standalone_mode=False)

    m, eps = workloads.seed_pair(args.seed)
    invs = workloads.invocations(args.workload, m, eps)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    untraced, traced = timed_passes(plain_main, invs, tag, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6   # KiB

    passes = untraced + traced
    checked = [(inv, v) for p in passes for inv, v in zip(invs, p.verdicts)]
    reference = None
    if (m, eps) != workloads.REFERENCE_PAIR and any(i.command == "fp" for i in invs):
        ref_invs = workloads.invocations(args.workload, *workloads.REFERENCE_PAIR)
        reference = run_pass(plain_main, ref_invs, f"{tag}-ref", spans.Tracer(record_spans=False))
        checked += zip(ref_invs, reference.verdicts)
    cross_check(passes, reference)
    verdicts = [v for _, v in checked]
    failed = sum(v.failed for v in verdicts)
    problems = [f"{inv.command}: {v.problems}" for inv, v in checked if v.failed]
    for line in problems[:10]:
        print(f"perfbench: failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setup, peak_rss_mb, verdicts)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    env = environment(untraced[0].tracer.sizes)
    record = {
        "workload": args.workload, "seed": args.seed, "m": m, "eps": eps,
        "seconds": args.seconds, "trace": args.trace,
        "passes": {"untraced": [p.wall_s for p in untraced], "traced": [p.wall_s for p in traced]},
        "environment": env, "metrics": metrics, "problems": problems,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{args.workload}-s{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "fields": ["id", "parent", "name", "start", "end", "raised"],
             "passes": [p.tracer.spans for p in traced]}, separators=(",", ":")))
    if not failed:   # keep the tables only when they are needed to see what failed
        for table in OUT.glob(f"{tag}-*.csv"):
            table.unlink()

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
