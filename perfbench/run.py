"""rexiprop benchmark: set-up and step throughput of desk- and full-scale
tunneling, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of workloads.py, or ``all`` to run every workload in
turn.  Each timed repetition runs in a fresh process (rep.py), so set-up
is paid as a command-line user pays it, on every invocation: an
in-process cache cannot show up as a set-up gain.  Every repetition
steps the same whole trajectory from the same u0.  Repetitions run one
after another until ``--seconds`` have passed and at least MIN_REPS have
run.

Workloads (the seed moves the packet within a small window):

* desk-flagship -- 999 DOF, flagship K=16 REXI, one worker.  Set-up is
  dominated by the approx build; rhs and reduce are about a fifth of a
  step; no subnormals; never reaches the thread pool.  Small enough for
  the dense oracle (outside the timed region): the accuracy workload.
* full-flagship -- 7999 DOF, flagship REXI, two workers: the pool path.
  The shifted solves are almost all of a step, and subnormal Gaussian
  tails raise the step cost several-fold over the trajectory.
* full-chebyshev -- the same system propagated by the Chebyshev
  comparison method (degree 26, R=10): 27 A-multiplies and B-solves per
  step with one factorization, no approximant build and no pool.  The
  no-change control for REXI-only work.

End-to-end metrics, untraced repetitions (``--trace 0``):

  setup_s       median set-up: approx build, assembly, projection,
                spectral radius and prepare; no imports, no oracle
  steps_per_s   median of steps / propagation wall time
  step_ms_p50   median per-step wall time from observer timestamps,
                pooled over the run's repetitions (sample count printed)
  total_s       median of set-up plus propagation: time to solution
  peak_rss_mb   median peak resident memory of a repetition's process

Printed with them, but not in the result line:

  step_ms_p95,  per-step tail, with the number of samples above it.  At
  step_ms_p99   full scale the tail is the subnormal plateau, and with two
                solve threads its run-to-run spread on a shared 2-CPU
                host came close to the largest bound a metric may have
  bnorm_drift   relative B-norm drift over the trajectory; the
                correctness check bounds it
  err_rel       relative max-norm error of the final state against
                ``dense_expm_apply`` (desk-flagship only)
  fail_rate     failed repetitions over attempted ones: the
                ``failed``/``attempted`` pair of the result line

bnorm_drift and err_rel are rounding noise of the packet: they spread by
20-40% across seeds, so they are gated by the correctness checks and
reported per layer, not bounded run to run.

A traced run (``--trace 1``) alternates untraced and traced repetitions
and reports the per-layer metrics as medians over the traced ones, with
the end-to-end metric each should move:

  approx.build_s                    setup_s, total_s on desk-flagship
  approx.K                          steps_per_s on the REXI workloads
  approx.sup_error, .weight_l1,     err_rel on desk-flagship
    .rounding_floor (computed: eps * sum|beta_j| / dist(sigma_j, i[-R1,R1]))
  spatial.assemble_s, .project_s    setup_s (expected flat)
  spatial.sr_s, .sr_iterations,     setup_s on full-*
    .sr_converged
  spatial.sr_gap_rel                |estimate / oracle maximum - 1|, 0 the
                                    target; a correctness signal on
                                    desk-flagship (signed value printed)
  integrate.prepare_s,              setup_s
    .cheb_prepare_s
  integrate.rhs_s, .solves_s,       steps_per_s (solves on full-flagship,
    .reduce_s (stepper.timers)      rhs and reduce on desk-flagship)
  integrate.step_ms.w0 .. w9,       steps_per_s and the step tail on full-*
    .subnormals_mean, _max
  integrate.err_rel                 the desk-flagship accuracy (above)
  solvers.solve_ms_clean,           steps_per_s on full-flagship
    .solve_ms_subnormal
  solvers.bsolve_ms                 steps_per_s on full-chebyshev
  solvers.bytes_per_solve,          computed from array sizes; there is
    .solve_gbps                     no measured roofline
  trace.overhead_rel                1 - traced / untraced steps_per_s

A metric reads 0 where the workload bypasses its stage or has no oracle.

Correctness, checked on every repetition: the trajectory completes, the
state stays finite, every step is admissible without override, and the
B-norm drift stays within 1e-6.  On desk-flagship the final state must
also lie within n_steps * rexi_error_bound(sup_error, cond_inf) of the
dense oracle.  A failed check is printed and counted in ``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every check passed, 1 when one failed, and 2 when the checkout holds no
rexiprop sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    DT,
    ROOT,
    WORKLOADS,
    import_rexiprop,
    initial_state,
    packet_params,
    tunnel_system,
)

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; stop starting repetitions past this point.
RUN_LIMIT_S = 160.0
# Set-up samples per untraced run, at least.
SETUP_SAMPLES = 5
# Repetitions per run, at least, whatever --seconds says: the median of
# three whole trajectories sets aside one that a burst of host load slowed.
MIN_REPS = 3
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) units by metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def provenance(wl, seed: int, seconds: int, trace: int) -> dict:
    import scipy

    r_bar, p_bar = packet_params(seed)
    return {
        "workload": wl.name, "seed": seed, "r_bar": r_bar, "p_bar": p_bar,
        "n_elems": wl.n_elems, "n_steps": wl.n_steps, "dt": DT,
        "method": wl.method, "workers": wl.workers,
        "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_name(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
    }


class Oracle:
    """Dense-oracle reference for a workload small enough to diagonalize.

    Built before any repetition runs, so it is outside every timed region.
    """

    def __init__(self, wl, seed: int):
        rx = import_rexiprop()
        mesh, consts, system = tunnel_system(rx, wl)
        u0 = initial_state(rx, mesh, consts, system, seed)
        self.dec = rx.dense_decomposition(system, max_n=system.n_dof)
        self.u_ref = rx.dense_expm_apply(system, wl.n_steps * DT, u0,
                                         decomposition=self.dec)
        self.sr = float(np.max(np.abs(self.dec.omegas)))
        self.n_steps = wl.n_steps
        self._bound = rx.rexi_error_bound

    def check(self, rep: dict) -> None:
        re, im = rep.pop("final_state")
        u = np.asarray(re) + 1j * np.asarray(im)
        err = float(np.max(np.abs(u - self.u_ref)) / np.max(np.abs(self.u_ref)))
        limit = self.n_steps * self._bound(rep["sup_error"], self.dec.cond_inf)
        rep["err_rel"] = err
        rep["checks"][f"err_rel<={limit:.3g}"] = err <= limit
        if "layers" in rep:
            rep["layers"]["integrate.err_rel"] = err
            gap = rep["sr_estimate"] / self.sr - 1
            rep["sr_gap_signed"] = gap
            rep["layers"]["spatial.sr_gap_rel"] = abs(gap)


def run_rep(wl, seed: int, traced: bool, timeout: float,
            setup_only: bool = False) -> tuple[dict | None, str]:
    """One repetition in a fresh process: (result, error message)."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", wl.name,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"repetition exited with status {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "repetition printed no result"


class Repetitions:
    """The repetitions of one run, started one after another, with a
    deadline that keeps the whole run within its time limit."""

    def __init__(self, wl, seed: int, oracle):
        self.wl, self.seed, self.oracle = wl, seed, oracle
        self.start = time.perf_counter()
        self.longest = 0.0
        self.attempted = 0
        self.failed = 0
        self.done: list[dict] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def time_left(self) -> bool:
        return self.elapsed() + self.longest <= RUN_LIMIT_S

    def run(self, traced: bool = False, setup_only: bool = False) -> None:
        t0 = time.perf_counter()
        timeout = max(1.0, RUN_LIMIT_S + 15 - self.elapsed())
        rep, error = run_rep(self.wl, self.seed, traced, timeout, setup_only)
        self.longest = max(self.longest, time.perf_counter() - t0)
        self.attempted += 1
        if rep is not None and self.oracle is not None and not setup_only:
            self.oracle.check(rep)
        bad = [name for name, ok in (rep or {}).get("checks", {}).items()
               if not ok]
        kind = "set-up" if setup_only else "traced" if traced else "untraced"
        if rep is None or bad:
            self.failed += 1
            print(f"rep {self.attempted} {kind}: FAILED "
                  f"{error or ', '.join(bad)}")
            return
        rep["kind"] = kind
        self.done.append(rep)
        line = f"rep {self.attempted} {kind}: set-up {rep['setup_s']:.4f} s"
        if not setup_only:
            line += (f", {self.wl.n_steps} steps {rep['propagate_s']:.4f} s, "
                     "checks ok")
        print(line)


def run_workload(wl, seed: int, seconds: int, trace: int) -> dict:
    print(f"# workload {wl.name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("# provenance " + json.dumps(provenance(wl, seed, seconds, trace)))
    oracle = Oracle(wl, seed) if wl.oracle else None
    reps = Repetitions(wl, seed, oracle)
    if trace:
        # Untraced and traced repetitions alternate, in pairs, so the
        # tracing overhead is measured under the same conditions.
        while reps.attempted < MIN_REPS or (reps.elapsed() < seconds
                                            and reps.time_left()):
            reps.run(traced=False)
            reps.run(traced=True)
    else:
        while reps.attempted < MIN_REPS or (reps.elapsed() < seconds
                                            and reps.time_left()):
            reps.run()
        # Whole trajectories are long at full scale; set-up-only
        # repetitions bring the set-up samples up to SETUP_SAMPLES.
        while reps.attempted < SETUP_SAMPLES and reps.time_left():
            reps.run(setup_only=True)
    return summarize(wl, reps.done, reps.attempted, reps.failed, trace)


def _stat(values) -> float:
    return float(statistics.median(values))


def summarize(wl, reps, attempted: int, failed: int, trace: int) -> dict:
    e2e_units, layer_units = metric_units()
    plain = [r for r in reps if r["kind"] == "untraced"]
    traced = [r for r in reps if r["kind"] == "traced"]
    correct = failed == 0 and bool(plain) and (bool(traced) or not trace)
    end_to_end, layers = {}, {}
    if plain:
        steps = np.concatenate([r["step_ms"] for r in plain])
        end_to_end = {
            "setup_s": _stat(r["setup_s"] for r in reps
                             if r["kind"] != "traced"),
            "steps_per_s": _stat(wl.n_steps / r["propagate_s"] for r in plain),
            "step_ms_p50": float(np.percentile(steps, 50)),
            "total_s": _stat(r["setup_s"] + r["propagate_s"] for r in plain),
            "peak_rss_mb": _stat(r["peak_rss_mb"] for r in plain),
        }
        print(f"end-to-end ({len(plain)} untraced repetitions, "
              f"{steps.size} step samples, {plain[0]['n_dof']} DOF):")
        for name, value in end_to_end.items():
            print(f"  {name:<14} {value:.6g} {e2e_units[name]}")
        for q in (95, 99):
            print(f"  {f'step_ms_p{q}':<14} {np.percentile(steps, q):.6g} ms "
                  f"({steps.size * (100 - q) // 100} samples above it)")
        print(f"  {'bnorm_drift':<14} "
              f"{_stat(r['bnorm_drift'] for r in plain):.6g} ratio")
        if wl.oracle:
            print(f"  {'err_rel':<14} {_stat(r['err_rel'] for r in plain):.6g} "
                  "ratio")
    print(f"  {'fail_rate':<14} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} repetitions)")
    if trace and traced:
        layers = {name: _stat(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.setdefault("integrate.err_rel", 0.0)
        layers.setdefault("spatial.sr_gap_rel", 0.0)
        if plain:
            sps_traced = _stat(wl.n_steps / r["propagate_s"] for r in traced)
            layers["trace.overhead_rel"] = (
                1.0 - sps_traced / end_to_end["steps_per_s"])
        print(f"per-layer ({len(traced)} traced repetitions):")
        for name, value in layers.items():
            print(f"  {name:<30} {value:.6g} {layer_units[name]}")
        if wl.oracle:
            print(f"  {'spatial.sr_gap (signed)':<30} "
                  f"{_stat(r['sr_gap_signed'] for r in traced):.6g} ratio")
        print_spans(traced)
    values, units = (layers, layer_units) if trace else (end_to_end, e2e_units)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_spans(traced) -> None:
    """Median total and self time of each span over the traced repetitions."""
    totals, selfs = {}, {}
    for rep in traced:
        spans = rep["spans"]
        for i, s in enumerate(spans):
            total = s["end"] - s["start"]
            children = sum(c["end"] - c["start"] for c in spans
                           if c["parent"] == i)
            totals.setdefault(s["name"], []).append(total)
            selfs.setdefault(s["name"], []).append(total - children)
    print("spans (median total s, self s):")
    for name in totals:
        print(f"  {name:<30} {_stat(totals[name]):.6g} {_stat(selfs[name]):.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_rexiprop()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  args.trace)
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
