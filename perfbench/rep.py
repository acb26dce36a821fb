"""One benchmark repetition, in a fresh process: set-up, then one whole
trajectory from u0.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1

The layers are driven from outside through their public functions, in
the order the ``tunnel`` subcommand uses them: ``faber_cf`` ->
``build_mesh``/``assemble_system``/``project_initial`` ->
``spectral_radius_estimate`` -> ``rexi_prepare`` or ``chebyshev_prepare``
-> ``rexi_run`` or ``chebyshev_run``.  Each stage gets its own span.
Imports happen before the first span, so set-up time excludes them.

With ``--trace 1`` the observer also counts the subnormal entries of the
state after every step, and after the trajectory the solver layer is
probed on the workload's own matrices.  Nothing of that runs inside the
set-up or propagation spans of an untraced repetition.

Prints one JSON object on stdout; run.py aggregates repetitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from workloads import (
    BNORM_DRIFT_LIMIT,
    CHEB_DEGREE,
    CHEB_RADIUS,
    DT,
    FLAGSHIP_K,
    FLAGSHIP_R1,
    WORKLOADS,
    import_rexiprop,
    initial_state,
    tunnel_system,
)

rx = import_rexiprop()
from rexiprop.solvers import factorize  # noqa: E402  (needs the src path)

TINY = np.finfo(np.float64).tiny
EPS = np.finfo(np.float64).eps
# Timed calls per solver probe; the median is reported.
FACTOR_REPEATS = 5
SOLVE_REPEATS = 40
N_WINDOWS = 10


class Spans:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self):
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._open.append(len(self.records) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Duration of the span ``name``; 0.0 when the stage did not run."""
        for rec in self.records:
            if rec["name"] == name:
                return rec["end"] - rec["start"]
        return 0.0


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (VmHWM).

    Not ru_maxrss: Linux carries it over fork and exec, so a repetition
    would report the peak of run.py, which holds the dense oracle.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _subnormals(u: np.ndarray) -> int:
    parts = np.abs(u.view(np.float64))
    return int(np.count_nonzero(parts < TINY) - np.count_nonzero(parts == 0))


def _rounding_floor(approx) -> float:
    """eps * sum_j |beta_j| / dist_j, dist_j the distance from shift j to
    the interval i[-R1, R1]: the rounding error one evaluation can carry."""
    s = approx.shifts
    dist = np.hypot(s.real, np.maximum(np.abs(s.imag) - approx.domain_radius, 0))
    return float(EPS * np.sum(np.abs(approx.weights) / dist))


def _solver_probes(system, approx, u0, u_sub) -> dict:
    """Factor and solve on the workload's own matrices.

    The probed factorization is the one a step uses: the shifted system of
    shift 0 for REXI, B for Chebyshev.  The right-hand sides are built from
    u0 and from the recorded state with the most subnormals.  Bytes per
    solve are computed from array sizes (band LU, pivots, rhs in and out),
    not measured.
    """
    if approx is not None:
        mat = (DT * system.A - (1j * approx.shifts[0]) * system.B).tocsr()
        rhs = lambda u: 1j * (system.B @ u)  # noqa: E731
    else:
        mat = system.B
        rhs = lambda u: system.A @ u.astype(complex)  # noqa: E731
    rhs_clean, rhs_sub = rhs(u0), rhs(u_sub)
    fac = factorize(mat)
    b_fac = factorize(system.B)
    b_rhs = system.A @ u0.astype(complex)
    n = system.n_dof
    if fac.bandwidth is None:
        band_rows = n
    else:
        band_rows = 2 * fac.kl + fac.ku + 1
    bytes_per_solve = 16 * band_rows * n + 4 * n + 2 * 16 * n
    solve_ms = _median_ms(lambda: fac.solve(rhs_clean), SOLVE_REPEATS)
    return {
        "solvers.bandwidth": fac.bandwidth or n,
        "solvers.factor_ms": _median_ms(lambda: factorize(mat), FACTOR_REPEATS),
        "solvers.solve_ms_clean": solve_ms,
        "solvers.solve_ms_subnormal": _median_ms(lambda: fac.solve(rhs_sub),
                                                 SOLVE_REPEATS),
        "solvers.bsolve_ms": _median_ms(lambda: b_fac.solve(b_rhs),
                                        SOLVE_REPEATS),
        "solvers.bytes_per_solve": bytes_per_solve,
        "solvers.solve_gbps": bytes_per_solve / (solve_ms * 1e-3) / 1e9,
    }


def run(wl, seed: int, traced: bool, setup_only: bool) -> dict:
    spans = Spans()
    approx = None
    with spans.span("setup"):
        if wl.method == "rexi":
            with spans.span("approx.faber_cf"):
                approx = rx.faber_cf(rx.JoukowskiMap(FLAGSHIP_R1),
                                     degree=FLAGSHIP_K)
        with spans.span("spatial.assemble"):
            mesh, consts, system = tunnel_system(rx, wl)
        with spans.span("spatial.project"):
            u0 = initial_state(rx, mesh, consts, system, seed)
        with spans.span("spatial.spectral_radius"):
            sr = rx.spectral_radius_estimate(system)
        if approx is not None:
            with spans.span("integrate.rexi_prepare"):
                stepper = rx.rexi_prepare(system, approx, DT,
                                          workers=wl.workers, sr_value=sr)
        else:
            with spans.span("integrate.chebyshev_prepare"):
                stepper = rx.chebyshev_prepare(system, DT, degree=CHEB_DEGREE,
                                               radius=CHEB_RADIUS, sr_value=sr)
    if setup_only:
        if approx is not None:
            stepper.close()
        return {"setup_s": spans.seconds("setup"), "checks": {}}

    n = wl.n_steps
    stamps = np.zeros(n)
    subnormals = np.zeros(n, dtype=np.int64)
    most_subnormal = {"count": -1, "state": u0}

    def observe(step, _t, u):
        stamps[step - 1] = time.perf_counter()

    def observe_traced(step, _t, u):
        stamps[step - 1] = time.perf_counter()
        count = _subnormals(u)
        subnormals[step - 1] = count
        if count > most_subnormal["count"]:
            most_subnormal["count"] = count
            most_subnormal["state"] = u.copy()

    observer = observe_traced if traced else observe
    try:
        with spans.span("propagate") as prop:
            if approx is not None:
                with spans.span("integrate.rexi_run"):
                    u = rx.rexi_run(stepper, u0, n, observer)
            else:
                with spans.span("integrate.chebyshev_run"):
                    u = rx.chebyshev_run(stepper, system, u0, n, observer)
    finally:
        if approx is not None:
            stepper.close()
    peak_rss_mb = _peak_rss_mb()
    propagate_s = prop["end"] - prop["start"]
    step_ms = 1e3 * np.diff(np.concatenate(([prop["start"]], stamps)))

    norm0 = rx.b_norm(u0, system.B)
    finite = bool(np.all(np.isfinite(u)))
    drift = abs(rx.b_norm(u, system.B) - norm0) / norm0 if finite else float("inf")
    checks = {
        "all_steps_observed": bool(np.all(stamps > 0)),
        "finite_state": finite,
        "admissible_without_override": bool(stepper.admissible
                                            and not stepper.override_used),
        f"bnorm_drift<={BNORM_DRIFT_LIMIT:g}": drift <= BNORM_DRIFT_LIMIT,
    }
    out = {
        "n_dof": system.n_dof,
        "setup_s": spans.seconds("setup"),
        "propagate_s": propagate_s,
        "step_ms": step_ms.tolist(),
        "peak_rss_mb": peak_rss_mb,
        "bnorm_drift": drift,
        "sr_estimate": float(sr),
        "sup_error": approx.sup_error if approx is not None else stepper.sup_error,
        "checks": checks,
        "spans": [{**r, "start": r["start"] - spans.records[0]["start"],
                   "end": r["end"] - spans.records[0]["start"]}
                  for r in spans.records],
    }
    if wl.oracle:
        out["final_state"] = [u.real.tolist(), u.imag.tolist()]
    if traced:
        out["layers"] = _layer_metrics(spans, approx, system, stepper, sr,
                                       u0, step_ms, subnormals,
                                       most_subnormal["state"], propagate_s,
                                       drift)
    return out


def _layer_metrics(spans, approx, system, stepper, sr, u0, step_ms,
                   subnormals, u_sub, propagate_s, drift) -> dict:
    """Per-layer metrics of one traced repetition; 0 where a workload
    bypasses the stage (no approximant build on Chebyshev, no rhs or
    reduce timer in the Clenshaw step)."""
    timers = stepper.timers
    split = timers["rhs"] + timers["local"] + timers["reduce"]
    layers = {"approx.build_s": spans.seconds("approx.faber_cf")}
    if approx is not None:
        layers.update({
            "approx.K": approx.K,
            "approx.sup_error": approx.sup_error,
            "approx.weight_l1": float(np.sum(np.abs(approx.weights))),
            "approx.rounding_floor": _rounding_floor(approx),
        })
    else:
        layers.update(dict.fromkeys(("approx.K", "approx.sup_error",
                                     "approx.weight_l1",
                                     "approx.rounding_floor"), 0))
    layers.update({
        "spatial.assemble_s": spans.seconds("spatial.assemble"),
        "spatial.project_s": spans.seconds("spatial.project"),
        "spatial.sr_s": spans.seconds("spatial.spectral_radius"),
        "spatial.sr_iterations": sr.iterations,
        "spatial.sr_converged": int(sr.converged),
        "integrate.prepare_s": spans.seconds("integrate.rexi_prepare"),
        "integrate.cheb_prepare_s": spans.seconds("integrate.chebyshev_prepare"),
        "integrate.propagate_s": propagate_s,
        "integrate.rhs_s": timers["rhs"],
        "integrate.solves_s": timers["local"],
        "integrate.reduce_s": timers["reduce"],
        "integrate.split_gap_rel": 1.0 - split / propagate_s,
        "integrate.bnorm_drift": drift,
        "integrate.subnormals_mean": float(np.mean(subnormals)),
        "integrate.subnormals_max": int(np.max(subnormals)),
        "integrate.admissibility_ratio": stepper.admissibility_ratio,
        "integrate.pool_workers": (min(stepper.workers, approx.K)
                                   if approx is not None else 1),
    })
    for i, window in enumerate(np.array_split(step_ms, N_WINDOWS)):
        layers[f"integrate.step_ms.w{i}"] = float(np.mean(window))
    layers.update(_solver_probes(system, approx, u0, u_sub))
    return layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up: one more set-up sample")
    args = parser.parse_args()
    result = run(WORKLOADS[args.workload], args.seed, bool(args.trace),
                 args.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
