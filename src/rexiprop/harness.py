"""Command-line harness: approximation generation, stability sampling, the
tunneling experiment, method comparison tables, and spectral-radius reports.

All file formats live here: flat ``key=value`` config files, the
approximation JSON, snapshot/stability/comparison CSVs, and the run
metadata JSON.  Exit codes: 0 success, 2 usage or config error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .approx import (
    DEFAULT_TRUNCATION,
    JoukowskiMap,
    PartialFractionApproximation,
    approx_from_json,
    approx_to_json,
    evaluate_pfd,
    faber_cf,
    rounding_floor,
    stabilize,
    stability_indicator,
)
from .errors import ConfigError, NumericalError
from .integrate import (
    DENSE_ORACLE_MAX_DOF,
    SAFETY_FACTOR,
    Stepper,
    chebyshev_prepare,
    dense_decomposition,
    dense_expm_apply,
    max_step_size,
    rexi_prepare,
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
# Comparison propagator degree; the fine reference doubles it and divides
# the step by 16.
COMPARISON_CHEB_DEGREE = 26
FINE_REFERENCE_REFINEMENT = 16


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
        return target_type(text)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot parse {text!r} as "
            f"{target_type.__name__}"
        ) from None


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat key=value config file ('#' starts a comment)."""
    with open(path) as fh:
        lines = fh.readlines()

    types = {
        "x0": float, "x1": float, "n_elems": int, "potential": str,
        "v_max": float, "c_barr": float, "r_bar": float, "p_bar": float,
        "sigma": float, "dt": float, "t_end": float, "snapshot_every": int,
        "snapshot_points": int, "approx_path": str, "workers": int,
        "stabilize_eps": float, "override_admissibility": bool,
    }
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
        if key not in types:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r} "
                f"(valid keys: {', '.join(sorted(types))})"
            )
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, val, types[key])

    cfg = ExperimentConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    def bad(msg):
        raise ConfigError(f"invalid config: {msg}")

    if not cfg.x0 < cfg.x1:
        bad(f"x0 must be < x1, got ({cfg.x0}, {cfg.x1})")
    if cfg.n_elems < 1:
        bad(f"n_elems must be >= 1, got {cfg.n_elems}")
    if cfg.potential not in ("zero", "step"):
        bad(f"potential must be 'zero' or 'step', got {cfg.potential!r}")
    if cfg.v_max < 0:
        bad(f"v_max must be >= 0, got {cfg.v_max}")
    if cfg.c_barr <= 0:
        bad(f"c_barr must be > 0, got {cfg.c_barr}")
    if cfg.sigma <= 0:
        bad(f"sigma must be > 0, got {cfg.sigma}")
    if not cfg.dt > 0:
        bad(f"dt must be > 0, got {cfg.dt}")
    if cfg.t_end < cfg.dt:
        bad(f"t_end must be >= dt, got t_end={cfg.t_end}, dt={cfg.dt}")
    if cfg.snapshot_every < 0:
        bad(f"snapshot_every must be >= 1 (or omitted), got {cfg.snapshot_every}")
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


def _build_experiment(cfg: ExperimentConfig):
    mesh = build_mesh(cfg.x0, cfg.x1, cfg.n_elems)
    potential = (PotentialSpec.zero() if cfg.potential == "zero"
                 else PotentialSpec.step_barrier(cfg.v_max, cfg.c_barr))
    consts = PhysicalConstants()
    system = assemble_system(mesh, potential, consts)
    packet = WavePacketParams(r_bar=cfg.r_bar, p_bar=cfg.p_bar, sigma=cfg.sigma)
    u0 = project_initial(mesh, packet, consts, system.B)
    return mesh, consts, system, u0


def _prepare_rexi(cfg: ExperimentConfig, system, approx, sr) -> Stepper:
    return rexi_prepare(
        system, approx, cfg.dt,
        workers=cfg.workers,
        sr_value=sr,
        override_admissibility=cfg.override_admissibility,
    )


def _prepare_chebyshev(cfg: ExperimentConfig, system, approx, sr) -> Stepper:
    return chebyshev_prepare(
        system, cfg.dt,
        degree=COMPARISON_CHEB_DEGREE,
        radius=approx.domain_radius,
        sr_value=sr,
        override_admissibility=cfg.override_admissibility,
    )


_METHODS = {"rexi": _prepare_rexi, "chebyshev": _prepare_chebyshev}


def _timed_run(stepper: Stepper, u0, n_steps: int, observer=None):
    """Run ``stepper`` and close it; return (final state, wall seconds)."""
    with stepper:
        t0 = time.perf_counter()
        u = stepper.run(u0, n_steps, observer)
        return u, time.perf_counter() - t0


def _g12(x: float) -> str:
    return format(float(x), ".12g")


def _write_snapshot(path: str, xs: np.ndarray, psi: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("x,re_psi,im_psi,density\n")
        for x, p in zip(xs, psi):
            fh.write(f"{_g12(x)},{_g12(p.real)},{_g12(p.imag)},"
                     f"{_g12(p.real**2 + p.imag**2)}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_approx(args) -> int:
    """Build, optionally stabilize, and serialize an approximation."""
    approx = faber_cf(JoukowskiMap(args.r1), args.truncation, args.degree)
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
    def num(tok, conv, name):
        try:
            return conv(tok)
        except ValueError:
            raise ConfigError(f"--grid: bad {name} token {tok!r}") from None
    re_lo = num(tokens[0], float, "reLo")
    re_hi = num(tokens[1], float, "reHi")
    im_lo = num(tokens[2], float, "imLo")
    im_hi = num(tokens[3], float, "imHi")
    n_re = num(tokens[4], int, "nRe")
    n_im = num(tokens[5], int, "nIm")
    if n_re < 1 or n_im < 1:
        raise ConfigError(f"--grid: counts must be >= 1, got {n_re},{n_im}")
    if re_lo > re_hi or im_lo > im_hi:
        raise ConfigError(f"--grid: empty rectangle in {spec!r}")
    return re_lo, re_hi, im_lo, im_hi, n_re, n_im


def cmd_stability(args) -> int:
    """Sample |r(z)|-1 on a rectangle and along the imaginary axis."""
    approx = _read_approx(args.approx)
    re_lo, re_hi, im_lo, im_hi, n_re, n_im = _parse_grid(args.grid)
    res = np.linspace(re_lo, re_hi, n_re)
    ims = np.linspace(im_lo, im_hi, n_im)
    grid_path = args.out_prefix + "_grid.csv"
    with open(grid_path, "w") as fh:
        fh.write("re,im,indicator\n")
        for re in res:
            z_row = re + 1j * ims
            on_pole = np.min(np.abs(z_row[:, None] - approx.shifts), axis=1) == 0
            vals = np.full(len(ims), np.nan)
            if np.any(~on_pole):
                vals[~on_pole] = stability_indicator(approx, z_row[~on_pole])
            for im, val, hit in zip(ims, vals, on_pole):
                if hit:
                    print(f"note: skipped grid point {re}+{im}j "
                          "(coincides with a shift)", file=sys.stderr)
                    continue
                fh.write(f"{_g12(re)},{_g12(im)},{_g12(val)}\n")

    xs = np.linspace(-1.5 * approx.domain_radius, 1.5 * approx.domain_radius,
                     args.axis_samples)
    deviation = np.abs(evaluate_pfd(approx, 1j * xs)) - 1.0
    axis_path = args.out_prefix + "_axis.csv"
    with open(axis_path, "w") as fh:
        fh.write("im,deviation\n")
        for x, d in zip(xs, deviation):
            fh.write(f"{_g12(x)},{_g12(d)}\n")
    print(f"wrote {grid_path} and {axis_path}")
    return 0


def cmd_tunnel(args) -> int:
    """Run the tunneling experiment and write snapshots plus metadata."""
    cfg = parse_config(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    approx = _load_approx(cfg)
    mesh, consts, system, u0 = _build_experiment(cfg)
    sr = spectral_radius_estimate(system)

    n_steps = cfg.n_steps
    xs = np.linspace(cfg.x0, cfg.x1, cfg.snapshot_points)
    _write_snapshot(os.path.join(args.out_dir, "snapshot_000000.csv"),
                    xs, evaluate_state(u0, mesh, xs))
    snapshots = 1

    def observer(step, _t, state):
        nonlocal snapshots
        if step % cfg.snapshot_every == 0 or step == n_steps:
            _write_snapshot(
                os.path.join(args.out_dir, f"snapshot_{step:06d}.csv"),
                xs, evaluate_state(state, mesh, xs))
            snapshots += 1

    stepper = _prepare_rexi(cfg, system, approx, sr)
    u_final, wall = _timed_run(stepper, u0, n_steps, observer)

    norm0 = b_norm(u0, system.B)
    drift = abs(b_norm(u_final, system.B) - norm0) / norm0
    metadata = {
        "n_dof": system.n_dof,
        "sr_estimate": float(sr),
        "dt": cfg.dt,
        "r1": approx.domain_radius,
        "admissibility_ratio": stepper.admissibility_ratio,
        "wall_time_s": wall,
        "bnorm_drift_rel": drift,
        "n_nodes": 2 * cfg.n_elems + 1,
        "n_steps": n_steps,
        "t_end": n_steps * cfg.dt,
        "K": approx.K,
        "workers": stepper.workers,
        "sr_method": sr.method,
        "override_admissibility": cfg.override_admissibility,
        "override_used": stepper.override_used,
        "factor_s": stepper.timers["factor"],
        "solver": stepper.solver,
        "sup_error": approx.sup_error,
        "rounding_floor": rounding_floor(approx),
    }
    with open(os.path.join(args.out_dir, "metadata.json"), "w") as fh:
        json.dump(metadata, fh, indent=2)
        fh.write("\n")
    print(f"wrote {snapshots} snapshots and metadata.json to {args.out_dir}")
    return 0


def cmd_compare(args) -> int:
    """Run the selected methods against a reference and tabulate errors."""
    cfg = parse_config(args.config)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("--methods must name at least one method")
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(
                f"unknown method {m!r} (available: {', '.join(sorted(_METHODS))})"
            )

    approx = _load_approx(cfg)
    mesh, consts, system, u0 = _build_experiment(cfg)
    sr = spectral_radius_estimate(system)
    n_steps = cfg.n_steps

    if args.reference == "dense":
        if system.n_dof > DENSE_ORACLE_MAX_DOF:
            raise ConfigError(
                f"reference=dense requires n_dof <= {DENSE_ORACLE_MAX_DOF}, "
                f"got {system.n_dof}; use reference=fine"
            )
        dec = dense_decomposition(system)
        u_ref = dense_expm_apply(system, n_steps * cfg.dt, u0,
                                 decomposition=dec)
    else:
        fine = chebyshev_prepare(
            system, cfg.dt / FINE_REFERENCE_REFINEMENT,
            degree=2 * COMPARISON_CHEB_DEGREE,
            radius=approx.domain_radius,
            sr_value=sr,
            override_admissibility=cfg.override_admissibility,
        )
        u_ref, _ = _timed_run(fine, u0, FINE_REFERENCE_REFINEMENT * n_steps)

    ref_inf = float(np.max(np.abs(u_ref)))
    ref_b = b_norm(u_ref, system.B)
    rows = []
    for name in methods:
        stepper = _METHODS[name](cfg, system, approx, sr)
        u, total = _timed_run(stepper, u0, n_steps)
        rows.append({
            "method": name,
            "dt": cfg.dt,
            "error_inf": float(np.max(np.abs(u - u_ref))) / ref_inf,
            "error_b": b_norm(u - u_ref, system.B) / ref_b,
            "time_total_s": total,
            "time_rhs_s": stepper.timers["rhs"],
            "time_local_s": stepper.timers["local"],
            "time_reduce_s": stepper.timers["reduce"],
        })

    with open(args.out, "w") as fh:
        fh.write("# errors are relative to the reference "
                 f"({args.reference}); time_reduce_s is an in-process "
                 "plain weighted sum, not a cross-node reduction\n")
        fh.write("method,dt,error_inf,error_b,time_total_s,time_rhs_s,"
                 "time_local_s,time_reduce_s\n")
        for row in rows:
            fh.write(",".join([
                row["method"],
                _g12(row["dt"]),
                _g12(row["error_inf"]),
                _g12(row["error_b"]),
                _g12(row["time_total_s"]),
                _g12(row["time_rhs_s"]),
                _g12(row["time_local_s"]),
                _g12(row["time_reduce_s"]),
            ]) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_eig(args) -> int:
    """Print the upper bound on sr(M) and the step bound max_dt = R1/sr.

    max_dt carries no safety factor, so the admission gate refuses it; the
    largest admissible step is max_dt / SAFETY_FACTOR.
    """
    cfg = parse_config(args.config)
    _mesh, _consts, system, _u0 = _build_experiment(cfg)
    est = spectral_radius_estimate(system)
    if cfg.approx_path is not None:
        approx = _load_approx(cfg)
        r1 = approx.domain_radius
    else:
        r1 = DEFAULT_R1
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
                   help="number of poles requested")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--stabilize", type=float, default=None, metavar="EPS",
                   help="damp the weights by (1-EPS)")
    p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                   help="series truncation length")
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

    p = sub.add_parser("compare", help="compare propagators against a reference")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--methods", default="rexi,chebyshev",
                   help="comma-separated method names")
    p.add_argument("--reference", choices=("dense", "fine"), default="fine",
                   help="dense oracle (small systems) or fine Chebyshev run")
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
