"""Command-line harness: approximation generation, stability sampling, the
tunneling experiment, method comparison tables, and spectral-radius reports.

The CLI's own formats live here: flat ``key=value`` config files,
snapshot/stability/comparison CSVs and the run metadata JSON (the
approximation JSON is :mod:`rexiprop.approx`'s).  Exit codes: 0 success,
2 usage or config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from .approx import (
    DEFAULT_TRUNCATION,
    JoukowskiMap,
    PartialFractionApproximation,
    approx_from_json,
    approx_to_json,
    faber_cf,
    rounding_floor,
    stabilize,
    stability_indicator,
)
from . import integrate
from .errors import ConfigError, NumericalError
from .integrate import (
    SAFETY_FACTOR,
    ChebyshevStepper,
    RexiStepper,
    chebyshev_reference,
    max_step_size,
)
from .spatial import (
    PhysicalConstants,
    PotentialSpec,
    WavePacketParams,
    assemble_system,
    b_norm,
    build_mesh,
    evaluate_state,
    project_initial,
    spectral_radius_estimate,
)

# Defaults of the reference approximation when no approx_path is configured.
DEFAULT_R1 = 10.0
DEFAULT_DEGREE = 16
# Degree of the Chebyshev method that compare runs at the configured dt.
COMPARISON_CHEB_DEGREE = 26


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    x0: float = -30.0
    x1: float = 30.0
    n_elems: int = 4000
    potential: str = "step"
    v_max: float = 15.0
    c_barr: float = 0.005
    r_bar: float = -3.0
    p_bar: float = 5.0
    sigma: float = 4.0
    dt: float = 5e-5
    t_end: float = 0.012
    snapshot_every: int = 0  # 0 = resolved to n_steps (initial + final only)
    snapshot_points: int = 1001
    approx_path: str | None = None
    workers: int | None = None  # None = one worker per shift
    stabilize_eps: float | None = None
    override_admissibility: bool = False

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_end / self.dt))


# Value type of each config key, ``X | None`` read as X.
_CONFIG_TYPES = {
    key: next((t for t in get_args(hint) if t is not type(None)), hint)
    for key, hint in get_type_hints(ExperimentConfig).items()
}

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _coerce(key: str, text: str, target_type):
    if target_type is bool:
        try:
            return _BOOL_WORDS[text.lower()]
        except KeyError:
            raise ConfigError(
                f"config key {key!r}: expected true/false, got {text!r}"
            ) from None
    try:
        value = target_type(text)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot parse {text!r} as "
            f"{target_type.__name__}"
        ) from None
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: expected a finite number, "
                          f"got {text!r}")
    return value


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value config file ('#' starts a comment)."""
    with open(path) as fh:
        lines = fh.readlines()

    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {raw.strip()!r}"
            )
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(valid keys: {', '.join(sorted(_CONFIG_TYPES))})"
            )
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, val, _CONFIG_TYPES[key])

    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    def bad(msg):
        raise ConfigError(f"invalid config: {msg}")

    try:
        _spatial(cfg)
    except ValueError as exc:
        bad(exc)
    if not cfg.dt > 0:
        bad(f"dt must be > 0, got {cfg.dt}")
    if cfg.t_end < cfg.dt:
        bad(f"t_end must be >= dt, got t_end={cfg.t_end}, dt={cfg.dt}")
    if cfg.snapshot_every < 0:
        bad(f"snapshot_every must be >= 0 (0 = first and last state only), "
            f"got {cfg.snapshot_every}")
    if cfg.snapshot_every == 0:
        cfg.snapshot_every = cfg.n_steps
    if cfg.snapshot_points < 2:
        bad(f"snapshot_points must be >= 2, got {cfg.snapshot_points}")
    if cfg.workers is not None and cfg.workers < 1:
        bad(f"workers must be >= 1, got {cfg.workers}")
    if cfg.stabilize_eps is not None and not 0 < cfg.stabilize_eps < 1:
        bad(f"stabilize_eps must lie in (0, 1), got {cfg.stabilize_eps}")


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------

def _read_approx(path: str) -> PartialFractionApproximation:
    """Parse an approx JSON file and print its warnings to stderr."""
    with open(path) as fh:
        text = fh.read()
    try:
        approx = approx_from_json(text)
    except ValueError as exc:
        raise ConfigError(f"approx file {path!r} is invalid: {exc}") from exc
    for warning in approx.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return approx


def _load_approx(cfg: ExperimentConfig) -> PartialFractionApproximation:
    if cfg.approx_path is not None:
        approx = _read_approx(cfg.approx_path)
    else:
        approx = faber_cf(JoukowskiMap(DEFAULT_R1), degree=DEFAULT_DEGREE)
    if cfg.stabilize_eps is not None:
        approx = stabilize(approx, cfg.stabilize_eps)
    return approx


def _spatial(cfg: ExperimentConfig):
    """The config's mesh, potential and packet: each type refuses its own
    keys' bad values with a ValueError, which config validation reports."""
    return (build_mesh(cfg.x0, cfg.x1, cfg.n_elems),
            PotentialSpec(cfg.potential, cfg.v_max, cfg.c_barr),
            WavePacketParams(cfg.r_bar, cfg.p_bar, cfg.sigma))


def _build(cfg: ExperimentConfig):
    """The config's mesh, assembled system and projected initial state."""
    mesh, potential, packet = _spatial(cfg)
    consts = PhysicalConstants()
    system = assemble_system(mesh, potential, consts)
    return mesh, system, project_initial(mesh, packet, consts, system.B)


_METHODS = ("rexi", "chebyshev")


def _run(method: str, cfg: ExperimentConfig, system, approx, sr, u0,
         observer=None):
    """Prepare ``method`` at cfg.dt, run cfg.n_steps and close it; return
    (stepper, final state, wall seconds, relative B-norm drift)."""
    admission = dict(sr_value=sr,
                     override_admissibility=cfg.override_admissibility)
    if method == "rexi":
        stepper = RexiStepper(system, approx, cfg.dt, workers=cfg.workers,
                              **admission)
    else:
        stepper = ChebyshevStepper(system, cfg.dt,
                                   degree=COMPARISON_CHEB_DEGREE,
                                   radius=approx.domain_radius, **admission)
    with stepper:
        t0 = time.perf_counter()
        u = stepper.run(u0, cfg.n_steps, observer)
        wall = time.perf_counter() - t0
    norm0 = b_norm(u0, system.B)
    return stepper, u, wall, abs(b_norm(u, system.B) - norm0) / norm0


def _write_csv(path: str, header: str, rows) -> None:
    """Write the header line(s), then one line per row: strings verbatim,
    numbers as ``format(float(v), ".12g")``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str)
                              else format(float(v), ".12g")
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_approx(args) -> int:
    """Build, optionally stabilize, and serialize an approximation."""
    if not 0 < args.r1 < math.inf:
        raise ConfigError(f"--r1 must be positive and finite, got {args.r1}")
    # The window a_0 .. a_DEFAULT_TRUNCATION must hold 2*degree + 1
    # coefficients.
    if not 1 <= args.degree <= DEFAULT_TRUNCATION // 2:
        raise ConfigError(
            f"--degree must lie in [1, {DEFAULT_TRUNCATION // 2}], "
            f"got {args.degree}")
    if args.stabilize is not None and not 0 < args.stabilize < 1:
        raise ConfigError(
            f"--stabilize must lie in (0, 1), got {args.stabilize}")
    approx = faber_cf(JoukowskiMap(args.r1), args.degree)
    if args.stabilize is not None:
        approx = stabilize(approx, args.stabilize)
    with open(args.out, "w") as fh:
        fh.write(approx_to_json(approx) + "\n")
    for warning in approx.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"K={approx.K} R1={approx.domain_radius:g} "
          f"sup_error={approx.sup_error:.6e}")
    return 0


def _parse_grid(spec: str):
    tokens = [t.strip() for t in spec.split(",")]
    if len(tokens) != 6:
        raise ConfigError(
            f"--grid expects 'reLo,reHi,imLo,imHi,nRe,nIm' (6 values), "
            f"got {len(tokens)}: {spec!r}"
        )
    values = []
    for tok, conv, name in zip(tokens, [float] * 4 + [int] * 2,
                               ["reLo", "reHi", "imLo", "imHi", "nRe", "nIm"]):
        try:
            values.append(conv(tok))
        except ValueError:
            raise ConfigError(f"--grid: bad {name} token {tok!r}") from None
        if not math.isfinite(values[-1]):
            raise ConfigError(f"--grid: {name} token {tok!r} is not finite")
    re_lo, re_hi, im_lo, im_hi, n_re, n_im = values
    if n_re < 1 or n_im < 1:
        raise ConfigError(f"--grid: counts must be >= 1, got {n_re},{n_im}")
    if re_lo > re_hi or im_lo > im_hi:
        raise ConfigError(f"--grid: empty rectangle in {spec!r}")
    return re_lo, re_hi, im_lo, im_hi, n_re, n_im


def cmd_stability(args) -> int:
    """Sample |r(z)|-1 on a rectangle and along the imaginary axis."""
    if args.axis_samples < 1:
        raise ConfigError(
            f"--axis-samples must be >= 1, got {args.axis_samples}")
    approx = _read_approx(args.approx)
    re_lo, re_hi, im_lo, im_hi, n_re, n_im = _parse_grid(args.grid)
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)

    def grid_rows():
        # One row of the rectangle at a time bounds the (n_im, K)
        # temporaries, and the rows stream to the file as they come.
        for re in res:
            z_row = re + 1j * ims
            on_pole = np.isin(z_row, approx.shifts)
            for im in ims[on_pole]:
                print(f"note: skipped grid point {re}+{im}j "
                      "(coincides with a shift)", file=sys.stderr)
            yield from ((re, im, v) for im, v in zip(
                ims[~on_pole], stability_indicator(approx, z_row[~on_pole])))

    grid_path = args.out_prefix + "_grid.csv"
    _write_csv(grid_path, "re,im,indicator", grid_rows())

    xs = np.linspace(-1.5 * approx.domain_radius, 1.5 * approx.domain_radius,
                     args.axis_samples)
    axis_path = args.out_prefix + "_axis.csv"
    _write_csv(axis_path, "im,deviation",
               zip(xs, stability_indicator(approx, 1j * xs)))
    print(f"wrote {grid_path} and {axis_path}")
    return 0


def _blas() -> str:
    """"<name> <version>" of the BLAS numpy was built with, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):  # older numpy, or no record
        return "unknown"


def cmd_tunnel(args) -> int:
    """Run the tunneling experiment and write snapshots plus metadata."""
    cfg = parse_config(args.config)
    approx = _load_approx(cfg)
    mesh, system, u0 = _build(cfg)
    sr = spectral_radius_estimate(system)

    n_steps = cfg.n_steps
    xs = np.linspace(cfg.x0, cfg.x1, cfg.snapshot_points)
    snapshots = 0

    def write_snapshot(step, state):
        nonlocal snapshots
        psi = evaluate_state(state, mesh, xs)
        _write_csv(os.path.join(args.out_dir, f"snapshot_{step:06d}.csv"),
                   "x,re_psi,im_psi,density",
                   zip(xs, psi.real, psi.imag, psi.real**2 + psi.imag**2))
        snapshots += 1

    def observer(step, _t, state):
        # Step 1 is the first sign the run was admitted: only then is the
        # output directory touched, so a refused run leaves it as it was.
        if step == 1:
            os.makedirs(args.out_dir, exist_ok=True)
            write_snapshot(0, u0)
        if step % cfg.snapshot_every == 0 or step == n_steps:
            write_snapshot(step, state)

    stepper, _u, wall, drift = _run("rexi", cfg, system, approx, sr, u0,
                                    observer)
    metadata = {
        "n_dof": system.n_dof,
        "sr_estimate": float(sr),
        "dt": cfg.dt,
        "r1": approx.domain_radius,
        "admissibility_ratio": stepper.admissibility_ratio,
        "wall_time_s": wall,
        "bnorm_drift_rel": drift,
        "n_nodes": mesh.nodes.size,
        "n_steps": n_steps,
        "t_end": n_steps * cfg.dt,
        "K": approx.K,
        "workers": stepper.workers,
        "solving_threads": len(stepper.factorizations),
        "usable_cpus": integrate._usable_cpus(),
        "blas": _blas(),
        "sr_method": sr.method,
        "override_admissibility": cfg.override_admissibility,
        "override_used": stepper.override_used,
        "factor_s": stepper.timers["factor"],
        "solver": stepper.solver,
        "approx_warnings": list(approx.warnings),
        "stabilize_factor": approx.stabilize_factor,
        "sup_error": approx.sup_error,
        "rounding_floor": rounding_floor(approx),
    }
    with open(os.path.join(args.out_dir, "metadata.json"), "w") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
    print(f"wrote {snapshots} snapshots and metadata.json to {args.out_dir}")
    return 0


def cmd_compare(args) -> int:
    """Run the selected methods and tabulate their errors against
    exp(T*M) u0, applied as one certified Chebyshev step."""
    cfg = parse_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must name at least one method")
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r} (available: "
                              f"{', '.join(sorted(_METHODS))})")

    approx = _load_approx(cfg)
    _mesh, system, u0 = _build(cfg)
    sr = spectral_radius_estimate(system)
    n_steps = cfg.n_steps

    t0 = time.perf_counter()
    ref = chebyshev_reference(system, n_steps * cfg.dt, sr_value=sr)
    build_s = time.perf_counter() - t0
    u_ref = ref.run(u0, 1)
    ref_s = time.perf_counter() - t0

    ref_inf = float(np.max(np.abs(u_ref)))
    ref_b = b_norm(u_ref, system.B)
    rows = []
    for name in methods:
        stepper, u, total, drift = _run(name, cfg, system, approx, sr, u0)
        rows.append((name, cfg.dt,
                     float(np.max(np.abs(u - u_ref))) / ref_inf,
                     b_norm(u - u_ref, system.B) / ref_b, total,
                     stepper.timers["rhs"], stepper.timers["local"],
                     stepper.timers["reduce"], stepper.timers["factor"],
                     stepper.admissibility_ratio, drift))

    _write_csv(args.out,
               "# errors are relative to exp(T*M) u0 as one Chebyshev "
               f"step: degree={ref.degree} R={ref.interval_radius:.12g} "
               f"sup_error={ref.sup_error:.6e} ref_solver={ref.solver} "
               f"build_seconds={build_s:.12g} "
               f"seconds={ref_s:.12g} "
               f"sr_estimate={float(sr):.12g} sr_method={sr.method}; "
               f"approximant: R1={approx.domain_radius:.12g} K={approx.K} "
               f"approx_sup_error={approx.sup_error:.6e} "
               f"rounding_floor={rounding_floor(approx):.6e} "
               f"approx_warnings={len(approx.warnings)}; "
               f"host: usable_cpus={integrate._usable_cpus()} "
               f"blas={_blas()}; "
               "time_reduce_s is an in-process plain weighted sum, not a "
               "cross-node reduction\n"
               "method,dt,error_inf,error_b,time_total_s,time_rhs_s,"
               "time_local_s,time_reduce_s,time_factor_s,admissibility_ratio,"
               "bnorm_drift_rel", rows)
    print(f"wrote {args.out}")
    return 0


def cmd_eig(args) -> int:
    """Print the upper bound on sr(M) and the step bound max_dt = R1/sr.

    max_dt carries no safety factor, so the admission gate refuses it; the
    largest admissible step is max_dt / SAFETY_FACTOR.
    """
    cfg = parse_config(args.config)
    # No packet is projected: sr(M) is reported even for an unsupported one.
    mesh, potential, _packet = _spatial(cfg)
    est = spectral_radius_estimate(
        assemble_system(mesh, potential, PhysicalConstants()))
    r1 = (DEFAULT_R1 if cfg.approx_path is None
          else _read_approx(cfg.approx_path).domain_radius)
    print(f"sr_estimate={float(est):.12g}")
    print(f"max_dt={max_step_size(r1, float(est)):.12g}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexiprop",
        description="Rational-exponential propagation of 1D Schrodinger "
                    "systems: approximation generation, stability maps, "
                    "tunneling runs, and method comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="build and serialize an approximation")
    p.add_argument("--r1", type=float, required=True,
                   help="half-length of the imaginary interval")
    p.add_argument("--degree", type=int, required=True,
                   help="number of poles requested, 1 to "
                        f"{DEFAULT_TRUNCATION // 2}")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--stabilize", type=float, default=None, metavar="EPS",
                   help="damp the weights by (1-EPS)")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("stability", help="sample the stability indicator")
    p.add_argument("--approx", required=True, help="approximation JSON path")
    p.add_argument("--grid", required=True,
                   help="'reLo,reHi,imLo,imHi,nRe,nIm' rectangle spec")
    p.add_argument("--axis-samples", type=int, default=2001,
                   help="sample count on the imaginary axis")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for <prefix>_grid.csv and <prefix>_axis.csv")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("tunnel", help="run the tunneling experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--out-dir", required=True, help="snapshot output directory")
    p.set_defaults(func=cmd_tunnel)

    p = sub.add_parser("compare", help="compare propagators against one "
                                       "long Chebyshev step")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--methods", default="rexi,chebyshev",
                   help="comma-separated method names")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eig", help="report an upper bound on sr(M) and the "
                                   "step bound max_dt = R1/sr (the largest "
                                   "admissible dt is max_dt / "
                                   f"{SAFETY_FACTOR})")
    p.add_argument("--config", required=True, help="key=value config file")
    p.set_defaults(func=cmd_eig)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
