"""End-to-end tests of the CLI: config parsing, subcommands, file formats,
and exit codes (0 ok, 2 config, 3 numerical, 4 i/o)."""

import json
import math
import os
import re

import numpy as np
import pytest

from rexiprop import harness, integrate
from rexiprop.approx import (
    JoukowskiMap,
    PartialFractionApproximation,
    approx_from_json,
    approx_to_json,
    faber_cf,
    rounding_floor,
)
from rexiprop.errors import ConfigError
from rexiprop.harness import ExperimentConfig, main, parse_config


@pytest.fixture(scope="module")
def approx_file(flagship, tmp_path_factory):
    path = tmp_path_factory.mktemp("approx") / "flagship.json"
    path.write_text(approx_to_json(flagship) + "\n")
    return str(path)


def write_config(directory, **overrides):
    """Small, fast, admissible tunneling setup (64 elements, 127 DOFs)."""
    base = {
        "x0": -12.0, "x1": 12.0, "n_elems": 64,
        "potential": "step", "v_max": 1.0, "c_barr": 2.0,
        "r_bar": -4.0, "p_bar": 2.0, "sigma": 1.0,
        "dt": 2e-3, "t_end": 2e-2,
        "snapshot_points": 201, "workers": 1,
    }
    base.update(overrides)
    lines = ["# generated by the test suite", ""]
    for key, val in base.items():
        if val is None:
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key} = {val}")
    path = os.path.join(str(directory), "run.cfg")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh]


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_parse_config_roundtrip(tmp_path):
    path = write_config(tmp_path, override_admissibility=True, workers=4,
                        stabilize_eps=1e-8, snapshot_every=5)
    cfg = parse_config(path)
    assert cfg.x0 == -12.0 and cfg.x1 == 12.0
    assert cfg.n_elems == 64
    assert cfg.potential == "step"
    assert cfg.workers == 4
    assert cfg.override_admissibility is True
    assert cfg.stabilize_eps == 1e-8
    assert cfg.snapshot_every == 5
    assert cfg.n_steps == 10


def test_parse_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# full-line comment\n\n dt = 0.5  # trailing comment\n"
                    "t_end = 1.0\n")
    cfg = parse_config(str(path))
    assert cfg.dt == 0.5
    assert cfg.t_end == 1.0


def test_parse_config_snapshot_every_defaults_to_final(tmp_path):
    cfg = parse_config(write_config(tmp_path))
    assert cfg.snapshot_every == cfg.n_steps


def test_parse_config_unknown_key_reports_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dt = 0.5\nt_end = 1.0\nvmax = 3\n")
    with pytest.raises(ConfigError, match=r":3: unknown config key 'vmax'"):
        parse_config(str(path))


def test_parse_config_duplicate_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dt = 0.5\ndt = 0.25\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "c.cfg"
    for text, match in (("dt = fast", "cannot parse 'fast' as float"),
                        ("workers = 2.5", "cannot parse '2.5' as int"),
                        ("override_admissibility = maybe",
                         "expected true/false, got 'maybe'")):
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=match):
            parse_config(str(path))


@pytest.mark.parametrize("key, text", [
    ("t_end", "nan"), ("t_end", "inf"), ("c_barr", "inf"), ("r_bar", "nan"),
    ("p_bar", "nan"), ("sigma", "nan"), ("x0", "-inf"), ("dt", "NaN"),
])
def test_non_finite_config_float_is_config_error(tmp_path, capsys, key, text):
    cfg = write_config(tmp_path, **{key: text})
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and "finite" in err


@pytest.mark.parametrize("x0, x1", [("0.0", "5e-324"),
                                    ("-1e308", "1e308")])
def test_config_element_width_not_positive_and_finite_is_config_error(
        tmp_path, capsys, x0, x1):
    cfg = write_config(tmp_path, x0=x0, x1=x1, n_elems=2)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "element width (x1 - x0) / n_elems" in err
    assert f"x1 = {float(x1)}, n_elems = 2" in err
    assert not out_dir.exists()


def test_parse_config_not_key_value(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(str(path))


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"dt": 0.0}, "dt must be > 0"),
        ({"t_end": 1e-4}, "t_end must be >="),
        ({"n_elems": 0}, "n_elems"),
        ({"workers": 0}, "workers"),
        ({"stabilize_eps": 2.0}, "stabilize_eps"),
        ({"potential": "harmonic"}, "potential"),
        ({"x0": 12.0}, "x0 must be"),
        ({"snapshot_points": 1}, "snapshot_points"),
        ({"snapshot_every": -1}, r"snapshot_every must be >= 0 \(0 = first"),
        ({"v_max": -1.0}, "v_max must be >= 0"),
        ({"c_barr": 0.0}, "c_barr must be > 0"),
        ({"sigma": 0.0}, "sigma must be > 0"),
    ],
)
def test_parse_config_invariants(tmp_path, overrides, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(write_config(tmp_path, **overrides))


def test_config_n_steps_rounds():
    cfg = ExperimentConfig(dt=2e-4, t_end=0.02)
    assert cfg.n_steps == 100


# ---------------------------------------------------------------------------
# approx subcommand
# ---------------------------------------------------------------------------

def test_cmd_approx_writes_certificate(tmp_path, capsys):
    out = tmp_path / "a.json"
    rc = main(["approx", "--r1", "10", "--degree", "16", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("K=16 R1=10 sup_error=")
    sup = float(stdout.split("sup_error=")[1])
    assert 5e-10 <= sup <= 1e-8
    approx = approx_from_json(out.read_text())
    assert approx.K == 16
    assert approx.domain_radius == 10.0
    assert approx.sup_error == pytest.approx(sup, rel=1e-5)


def test_cmd_approx_reports_lost_poles(tmp_path, capsys):
    # On i[-2, 2] one of the 16 denominator roots falls inside the unit
    # circle, so the approximant has 15 poles; that must not pass silently.
    out = tmp_path / "a.json"
    rc = main(["approx", "--r1", "2", "--degree", "16", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("K=15 R1=2 ")
    assert "warning: only 15 of the 16 denominator roots" in captured.err
    assert approx_from_json(out.read_text()).K == 15


def test_cmd_approx_stabilize_damps_weights(tmp_path, approx_file):
    out = tmp_path / "s.json"
    rc = main(["approx", "--r1", "10", "--degree", "16",
               "--stabilize", "1e-8", "--out", str(out)])
    assert rc == 0
    damped = approx_from_json(out.read_text())
    plain = approx_from_json(open(approx_file).read())
    assert damped.stabilized
    assert damped.stabilize_factor == pytest.approx(1 - 1e-8, rel=1e-15)
    np.testing.assert_allclose(damped.weights, (1 - 1e-8) * plain.weights,
                               rtol=1e-13)


def test_cmd_approx_missing_out_is_usage_error(capsys):
    rc = main(["approx", "--r1", "10", "--degree", "16"])
    capsys.readouterr()
    assert rc == 2


def test_cmd_approx_contour_rho_is_gone(tmp_path, capsys):
    rc = main(["approx", "--r1", "10", "--degree", "16",
               "--contour-rho", "1.5", "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert "--contour-rho" in capsys.readouterr().err


def test_cmd_approx_truncation_is_gone(tmp_path, capsys):
    rc = main(["approx", "--r1", "10", "--degree", "16",
               "--truncation", "300", "--out", str(tmp_path / "a.json")])
    assert rc == 2
    assert "--truncation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["approx", "--r1", "-1", "--degree", "16"], "--r1"),
        (["approx", "--r1", "nan", "--degree", "16"], "--r1"),
        (["approx", "--r1", "10", "--degree", "0"], "--degree"),
        (["approx", "--r1", "10", "--degree", "16", "--stabilize", "2"],
         "--stabilize"),
        (["approx", "--r1", "10", "--degree", "151"], "--degree"),
        (["approx", "--r1", "10", "--degree", "2048"], "--degree"),
        (["stability", "--axis-samples", "-1"], "--axis-samples"),
        (["stability", "--axis-samples", "0"], "--axis-samples"),
    ],
)
def test_cli_arguments_out_of_range_are_config_errors(tmp_path, capsys,
                                                      approx_file, argv, flag):
    # Refused before anything is built or written, naming the flag.
    if argv[0] == "approx":
        argv = argv + ["--out", str(tmp_path / "a.json")]
    else:
        argv = argv + ["--approx", approx_file, "--grid=0,0,0,1,1,2",
                       "--out-prefix", str(tmp_path / "stab")]
    assert main(argv) == 2
    assert f"config error: {flag} must" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_main_requires_subcommand(capsys):
    rc = main([])
    capsys.readouterr()
    assert rc == 2


def test_cmd_approx_unwritable_path_is_io_error(tmp_path, capsys):
    rc = main(["approx", "--r1", "10", "--degree", "16",
               "--out", str(tmp_path / "no" / "dir" / "a.json")])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eig subcommand
# ---------------------------------------------------------------------------

def test_cmd_eig_reports_sr_and_max_dt(tmp_path, capsys, approx_file):
    rc = main(["eig", "--config", write_config(tmp_path,
                                               approx_path=approx_file)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("sr_estimate=")
    assert lines[1].startswith("max_dt=")
    sr = float(lines[0].partition("=")[2])
    max_dt = float(lines[1].partition("=")[2])
    assert max_dt == pytest.approx(10.0 / sr, rel=1e-12)


def test_cmd_eig_default_r1(tmp_path, capsys):
    # Without approx_path, max_dt is for the default R1 = 10.
    assert main(["eig", "--config", write_config(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    sr = float(lines[0].partition("=")[2])
    max_dt = float(lines[1].partition("=")[2])
    assert max_dt == pytest.approx(10.0 / sr, rel=1e-12)


def test_cmd_eig_needs_no_wave_packet(tmp_path, capsys, approx_file):
    # The packet at r_bar = -4 is clipped by the wall at x0 = -5: eig reports
    # sr(M) of the system regardless, while tunnel still refuses the run.
    cfg = write_config(tmp_path, x0=-5.0, approx_path=approx_file)
    assert main(["eig", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("sr_estimate=")
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "wave packet is not supported" in capsys.readouterr().err


def test_cmd_tunnel_refuses_packet_centred_outside_domain(tmp_path, capsys,
                                                         approx_file):
    # Far outside (-12, 12) the packet's tails pass the support check.
    cfg = write_config(tmp_path, r_bar=30.0, approx_path=approx_file)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "r_bar = 30.0" in err and "(-12.0, 12.0)" in err
    assert not out_dir.exists()


def test_cmd_eig_sr_scales_like_h_squared(tmp_path, capsys, approx_file):
    def sr_for(n_elems):
        sub = tmp_path / f"n{n_elems}"
        sub.mkdir()
        rc = main(["eig", "--config", write_config(
            sub, n_elems=n_elems, approx_path=approx_file)])
        assert rc == 0
        out = capsys.readouterr().out
        return float(out.splitlines()[0].partition("=")[2])

    ratio = sr_for(64) / sr_for(32)
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# stability subcommand
# ---------------------------------------------------------------------------

def test_cmd_stability_writes_grid_and_axis(tmp_path, capsys, approx_file):
    prefix = str(tmp_path / "stab")
    rc = main(["stability", "--approx", approx_file,
               "--grid=-3,3,-12,12,4,7", "--axis-samples", "501",
               "--out-prefix", prefix])
    assert rc == 0
    grid = read_csv_rows(prefix + "_grid.csv")
    assert grid[0] == "re,im,indicator"
    assert len(grid) == 1 + 4 * 7
    first = grid[1].split(",")
    assert float(first[0]) == -3.0 and float(first[1]) == -12.0
    assert math.isfinite(float(first[2]))

    axis = read_csv_rows(prefix + "_axis.csv")
    assert axis[0] == "im,deviation"
    assert len(axis) == 1 + 501
    xs = np.array([float(r.split(",")[0]) for r in axis[1:]])
    assert xs[0] == -15.0 and xs[-1] == 15.0  # 1.5 * R1


def test_cmd_stability_axis_deviation_window(tmp_path, approx_file, capsys):
    prefix = str(tmp_path / "stab")
    rc = main(["stability", "--approx", approx_file,
               "--grid=0,0,0,1,1,2", "--out-prefix", prefix])
    assert rc == 0
    capsys.readouterr()
    rows = [r.split(",") for r in read_csv_rows(prefix + "_axis.csv")[1:]]
    xs = np.array([float(r[0]) for r in rows])
    dev = np.array([float(r[1]) for r in rows])
    inside = np.abs(xs) <= 10.0
    assert 5e-10 <= np.max(dev[inside]) <= 1e-8
    # past the certified interval the deviation climbs above the ceiling,
    # but at 1.5*R1 (still inside the pole belt) it remains mild
    assert dev[0] > 1e-8 and dev[-1] > 1e-8
    assert np.max(np.abs(dev)) < 1e-4


def test_cmd_stability_skips_grid_point_on_a_shift(tmp_path, capsys):
    lone = PartialFractionApproximation(
        shifts=np.array([2.0 + 0.0j]), weights=np.array([1.0 + 0.0j]),
        domain_radius=10.0, sup_error=1.0,
    )
    approx_path = tmp_path / "lone.json"
    approx_path.write_text(approx_to_json(lone) + "\n")
    prefix = str(tmp_path / "stab")
    rc = main(["stability", "--approx", str(approx_path),
               "--grid", "2,2,0,0,1,1", "--out-prefix", prefix])
    assert rc == 0
    assert "skipped grid point" in capsys.readouterr().err
    assert read_csv_rows(prefix + "_grid.csv") == ["re,im,indicator"]


@pytest.mark.parametrize("grid", ["1,2,3", "3,1,0,1,2,2", "0,1,0,1,0,2",
                                  "0,1,0,1,two,2"])
def test_cmd_stability_rejects_bad_grid(tmp_path, capsys, approx_file, grid):
    rc = main(["stability", "--approx", approx_file, f"--grid={grid}",
               "--out-prefix", str(tmp_path / "s")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("grid, token", [("nan,5,-30,30,3,4", "nan"),
                                         ("-inf,5,-30,inf,3,4", "-inf"),
                                         ("0,1,0,inf,2,2", "inf")])
def test_cmd_stability_rejects_non_finite_grid(tmp_path, capsys, approx_file,
                                               grid, token):
    # Refused before any file is written, naming the token.
    out = tmp_path / "out"
    out.mkdir()
    rc = main(["stability", "--approx", approx_file, f"--grid={grid}",
               "--out-prefix", str(out / "s")])
    assert rc == 2
    assert f"token {token!r} is not finite" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_cmd_stability_prints_loaded_approx_warnings(tmp_path, capsys):
    lossy = faber_cf(JoukowskiMap(2.0), degree=16)
    path = tmp_path / "lossy.json"
    path.write_text(approx_to_json(lossy) + "\n")
    rc = main(["stability", "--approx", str(path), "--grid=-1,1,-3,3,2,3",
               "--axis-samples", "11", "--out-prefix", str(tmp_path / "s")])
    assert rc == 0
    assert f"warning: {lossy.warnings[0]}" in capsys.readouterr().err


def test_cmd_stability_missing_approx_is_io_error(tmp_path, capsys):
    rc = main(["stability", "--approx", str(tmp_path / "nope.json"),
               "--grid", "0,1,0,1,2,2", "--out-prefix", str(tmp_path / "s")])
    assert rc == 4
    capsys.readouterr()


def test_cmd_stability_malformed_approx_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}\n")
    rc = main(["stability", "--approx", str(bad),
               "--grid", "0,1,0,1,2,2", "--out-prefix", str(tmp_path / "s")])
    assert rc == 2
    assert "invalid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tunnel subcommand
# ---------------------------------------------------------------------------

def test_cmd_tunnel_snapshots_and_metadata(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, snapshot_every=5, approx_path=approx_file)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    assert "wrote 3 snapshots" in capsys.readouterr().out
    assert sorted(os.listdir(out_dir)) == [
        "metadata.json", "snapshot_000000.csv", "snapshot_000005.csv",
        "snapshot_000010.csv",
    ]

    rows = read_csv_rows(out_dir / "snapshot_000010.csv")
    assert rows[0] == "x,re_psi,im_psi,density"
    assert len(rows) == 1 + 201
    re0, im0, d0 = (float(t) for t in rows[1].split(",")[1:])
    assert d0 == pytest.approx(re0**2 + im0**2, abs=1e-15)

    md = json.loads((out_dir / "metadata.json").read_text())
    assert list(md)[:7] == [
        "n_dof", "sr_estimate", "dt", "r1", "admissibility_ratio",
        "wall_time_s", "bnorm_drift_rel",
    ]
    assert md["n_dof"] == 2 * 64 - 1
    assert md["r1"] == 10.0
    assert md["n_steps"] == 10
    assert md["K"] == 16
    assert md["admissibility_ratio"] < 1.0
    assert md["bnorm_drift_rel"] <= 10 * (1e-9 + 1e-11)
    assert md["override_used"] is False
    assert md["approx_warnings"] == []


def test_cmd_tunnel_prints_loaded_approx_warnings(tmp_path, capsys):
    # The 15-pole approximant on i[-2, 2] keeps its warning through the
    # approx file, and a run that loads the file prints it.
    lossy = faber_cf(JoukowskiMap(2.0), degree=16)
    assert lossy.K == 15 and len(lossy.warnings) == 1
    assert approx_from_json(approx_to_json(lossy)).warnings == lossy.warnings
    path = tmp_path / "lossy.json"
    path.write_text(approx_to_json(lossy) + "\n")
    cfg = write_config(tmp_path, approx_path=str(path))
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    assert f"warning: {lossy.warnings[0]}" in capsys.readouterr().err
    # metadata.json keeps the warnings too.
    md = json.loads((out_dir / "metadata.json").read_text())
    assert md["approx_warnings"] == list(lossy.warnings)


def test_cmd_tunnel_refuses_an_approx_file_with_a_negative_certificate(
        tmp_path, capsys, flagship):
    # It ran and wrote the negative sup_error into metadata.json.
    doc = json.loads(approx_to_json(flagship))
    doc["sup_error"] = -flagship.sup_error
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc) + "\n")
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", write_config(tmp_path,
                                                  approx_path=str(path)),
               "--out-dir", str(out_dir)])
    assert rc == 2
    assert (f"sup_error must be finite and >= 0, got {-flagship.sup_error}"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_cmd_tunnel_default_approximant(tmp_path, capsys, flagship):
    # Without approx_path the run builds the degree-16, R1 = 10 flagship.
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", write_config(tmp_path),
               "--out-dir", str(out_dir)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    md = json.loads((out_dir / "metadata.json").read_text())
    assert md["K"] == 16 and md["r1"] == 10.0
    assert md["approx_warnings"] == []
    assert md["sup_error"] == flagship.sup_error


def test_cmd_tunnel_shift_on_the_interval_is_numerical_failure(
        tmp_path, capsys, approx_file):
    # Shift 0 moved to 3j, on i[-10, 10]: refused before any step, where the
    # run used to exit 0 with a B-norm drift of 1.5e23.
    doc = json.loads(open(approx_file).read())
    doc["shifts"][0] = [0.0, 3.0]
    path = tmp_path / "on_interval.json"
    path.write_text(json.dumps(doc))
    cfg = write_config(tmp_path, approx_path=str(path))
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 3
    assert "j = 0 (sigma = 3j)" in capsys.readouterr().err
    assert not (out_dir / "metadata.json").exists()


@pytest.mark.parametrize("refusal", ["inadmissible_dt", "shift_on_interval"])
def test_cmd_tunnel_refused_run_leaves_out_dir_untouched(tmp_path, capsys,
                                                         approx_file, refusal):
    if refusal == "inadmissible_dt":  # ratio 4.5
        cfg = write_config(tmp_path, dt=0.2, t_end=0.4, approx_path=approx_file)
    else:
        doc = json.loads(open(approx_file).read())
        doc["shifts"][0] = [0.0, 3.0]
        path = tmp_path / "on_interval.json"
        path.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, approx_path=str(path))
    missing = tmp_path / "missing"
    assert main(["tunnel", "--config", cfg, "--out-dir", str(missing)]) == 3
    assert not missing.exists()

    # A directory an admitted run wrote: the refused run changes nothing.
    earlier = tmp_path / "earlier"
    good = tmp_path / "good"
    good.mkdir()
    good = write_config(good, approx_path=approx_file)
    assert main(["tunnel", "--config", good, "--out-dir", str(earlier)]) == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    assert main(["tunnel", "--config", cfg, "--out-dir", str(earlier)]) == 3
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
    capsys.readouterr()


def test_cmd_tunnel_impossible_approx_is_config_error(tmp_path, capsys,
                                                      approx_file):
    doc = json.loads(open(approx_file).read())
    for name, bad in (("k0", {**doc, "K": 0, "shifts": [], "weights": []}),
                      ("nan_r1", {**doc, "R1": float("nan")}),
                      ("null_r1", {**doc, "R1": None}),
                      ("false_half", {**doc, "stabilize_factor": 0.5}),
                      ("true_null", {**doc, "stabilized": True}),
                      ("seven", {**doc, "stabilized": True,
                                 "stabilize_factor": 7.0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        cfg = write_config(tmp_path, approx_path=str(path))
        rc = main(["tunnel", "--config", cfg,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "is invalid" in capsys.readouterr().err


def test_cmd_tunnel_unparsable_approx_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    cfg = write_config(tmp_path, approx_path=str(bad))
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_tunnel_composes_stabilization(tmp_path, capsys):
    # A damped file plus stabilize_eps records the product of both factors,
    # the factor the weights were actually scaled by.
    path = tmp_path / "damped.json"
    assert main(["approx", "--r1", "10", "--degree", "16",
                 "--stabilize", "1e-3", "--out", str(path)]) == 0
    cfg = write_config(tmp_path, approx_path=str(path), stabilize_eps=1e-3)
    out_dir = tmp_path / "out"
    assert main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    md = json.loads((out_dir / "metadata.json").read_text())
    assert list(md)[-3:] == ["stabilize_factor", "sup_error", "rounding_floor"]
    assert md["stabilize_factor"] == 0.999 * 0.999


def test_cmd_tunnel_default_snapshots_initial_and_final(tmp_path, capsys,
                                                        approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    snaps = sorted(f for f in os.listdir(out_dir) if f.startswith("snapshot"))
    assert snaps == ["snapshot_000000.csv", "snapshot_000010.csv"]


def test_cmd_tunnel_barrier_splits_the_packet(tmp_path, capsys, approx_file):
    # p_bar^2/2m = 2 against a v=1 barrier: mostly transmits, partly
    # reflects; total probability stays 1 under the B-norm normalization.
    cfg = write_config(tmp_path, dt=0.04, t_end=4.0, snapshot_points=401,
                       approx_path=approx_file)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    rows = np.loadtxt(out_dir / "snapshot_000100.csv", delimiter=",",
                      skiprows=1)
    x, dens = rows[:, 0], rows[:, 3]
    assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-2)
    assert np.trapezoid(dens[x > 1.0], x[x > 1.0]) > 0.4
    assert np.trapezoid(dens[x < -1.0], x[x < -1.0]) > 0.05


def test_cmd_tunnel_inadmissible_step_is_numerical_failure(tmp_path, capsys,
                                                           approx_file):
    cfg = write_config(tmp_path, dt=0.1, t_end=1.0, approx_path=approx_file)
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "max_step_size" in err


def test_cmd_tunnel_admissibility_override(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, dt=0.1, t_end=1.0, approx_path=approx_file,
                       override_admissibility=True)
    out_dir = tmp_path / "out"
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    md = json.loads((out_dir / "metadata.json").read_text())
    assert md["override_admissibility"] is True
    assert md["override_used"] is True


def test_cmd_tunnel_missing_config_is_io_error(tmp_path, capsys):
    rc = main(["tunnel", "--config", str(tmp_path / "nope.cfg"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 4
    capsys.readouterr()


def test_cmd_tunnel_clipped_packet_is_numerical_failure(tmp_path, capsys,
                                                        approx_file):
    cfg = write_config(tmp_path, r_bar=-11.5, approx_path=approx_file)
    rc = main(["tunnel", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cmd_tunnel_workers_reproduce_bitwise(tmp_path, capsys, approx_file):
    outs = []
    for workers in (1, 16):
        sub = tmp_path / f"w{workers}"
        sub.mkdir()
        cfg = write_config(sub, workers=workers, approx_path=approx_file)
        rc = main(["tunnel", "--config", cfg, "--out-dir", str(sub / "out")])
        assert rc == 0
        outs.append((sub / "out" / "snapshot_000010.csv").read_text())
    capsys.readouterr()
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# compare subcommand
# ---------------------------------------------------------------------------

def test_cmd_compare_fine_reference(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    out = tmp_path / "table.csv"
    rc = main(["compare", "--config", cfg, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv_rows(out)
    assert rows[0].startswith("#")
    # The comment records the reference: one Chebyshev step over t = 0.02.
    fields = dict(tok.rstrip(";").split("=", 1)
                  for tok in rows[0].split() if "=" in tok)
    sr = float(fields["sr_estimate"])
    assert fields["sr_method"] == "p2-bound"
    assert float(fields["R"]) == pytest.approx(1.05 * 0.02 * sr, rel=1e-10)
    assert int(fields["degree"]) >= math.ceil(float(fields["R"]))
    assert 0 <= float(fields["sup_error"]) < 1e-13
    # build_seconds is the reference's construction alone; seconds adds
    # its one step.
    assert 0 < float(fields["build_seconds"]) <= float(fields["seconds"])
    assert rows[0].index("build_seconds=") < rows[0].index(" seconds=")
    # ref_solver is the reference's solve path, right after its sup_error.
    assert fields["ref_solver"] == "condensed"
    assert (rows[0].index("sup_error=") < rows[0].index("ref_solver=")
            < rows[0].index("build_seconds="))
    # ... and the approximant that ran.
    approx = approx_from_json(open(approx_file).read())
    assert float(fields["R1"]) == 10.0 and int(fields["K"]) == 16
    assert float(fields["approx_sup_error"]) == pytest.approx(
        approx.sup_error, rel=1e-6)
    assert float(fields["rounding_floor"]) == pytest.approx(
        rounding_floor(approx), rel=1e-6)
    assert fields["approx_warnings"] == "0"
    # ... and the host: the CPUs the pool may use and the BLAS, which
    # ends its section (its value may hold spaces).
    assert int(fields["usable_cpus"]) == integrate._usable_cpus()
    assert re.search(r" blas=([^;]*);", rows[0]).group(1) == harness._blas()
    assert rows[1] == ("method,dt,error_inf,error_b,time_total_s,"
                       "time_rhs_s,time_local_s,time_reduce_s,time_factor_s,"
                       "admissibility_ratio,bnorm_drift_rel")
    assert len(rows) == 4
    rexi_row = rows[2].split(",")
    cheb_row = rows[3].split(",")
    assert rexi_row[0] == "rexi" and cheb_row[0] == "chebyshev"
    for row in (rexi_row, cheb_row):
        assert len(row) == 11
        assert float(row[1]) == 2e-3
        assert 0 <= float(row[2]) < 1e-5   # 10 near-exact steps
        assert 0 <= float(row[3]) < 1e-5
        assert float(row[4]) >= 0
        assert float(row[8]) > 0
        # Both methods are certified on i[-10, 10].
        assert float(row[9]) == pytest.approx(1.05 * 2e-3 * sr / 10.0,
                                              rel=1e-10)
        assert 0 <= float(row[10]) < 1e-8


def test_cmd_compare_single_method(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    out = tmp_path / "table.csv"
    rc = main(["compare", "--config", cfg, "--methods", "rexi",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv_rows(out)
    assert len(rows) == 3
    assert rows[2].split(",")[0] == "rexi"


def test_cmd_compare_unknown_method(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    rc = main(["compare", "--config", cfg, "--methods", "leapfrog",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "unknown method" in capsys.readouterr().err


def test_cmd_compare_needs_a_method(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    rc = main(["compare", "--config", cfg, "--methods", ",",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "--methods must name at least one method" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_cmd_compare_dense_reference(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, n_elems=32, approx_path=approx_file)
    out = tmp_path / "table.csv"
    rc = main(["compare", "--config", cfg, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    rexi_row = read_csv_rows(out)[2].split(",")
    assert rexi_row[0] == "rexi"
    assert float(rexi_row[2]) < 1e-6


def test_cmd_compare_reference_option_is_gone(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    rc = main(["compare", "--config", cfg, "--reference", "dense",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "--reference" in capsys.readouterr().err


def test_cmd_tunnel_metadata_records_the_solving_threads(tmp_path, capsys,
                                                        approx_file,
                                                        monkeypatch):
    # workers records the request; at most one thread per usable CPU solved.
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, workers=16, approx_path=approx_file)
    out_dir = tmp_path / "out"
    assert main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    md = json.loads((out_dir / "metadata.json").read_text())
    assert md["workers"] == 16 and md["solving_threads"] == 2
    assert list(md).index("solving_threads") == list(md).index("workers") + 1
    assert list(md)[-2:] == ["sup_error", "rounding_floor"]


def test_cmd_tunnel_metadata_records_the_host(tmp_path, capsys, approx_file):
    cfg = write_config(tmp_path, workers=16, approx_path=approx_file)
    out_dir = tmp_path / "out"
    assert main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    md = json.loads((out_dir / "metadata.json").read_text())
    keys = list(md)
    assert keys.index("usable_cpus") == keys.index("solving_threads") + 1
    assert keys.index("blas") == keys.index("usable_cpus") + 1
    assert md["usable_cpus"] == integrate._usable_cpus()
    assert md["usable_cpus"] >= md["solving_threads"]
    assert isinstance(md["blas"], str) and md["blas"]
    assert keys[-2:] == ["sup_error", "rounding_floor"]


def test_cmd_tunnel_metadata_records_the_factorization(tmp_path, capsys,
                                                       approx_file):
    cfg = write_config(tmp_path, approx_path=approx_file)
    out_dir = tmp_path / "out"
    assert main(["tunnel", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    md = json.loads((out_dir / "metadata.json").read_text())
    assert md["solver"] == "condensed"
    assert md["sr_method"] == "p2-bound"
    assert md["factor_s"] > 0
    assert list(md).index("factor_s") >= 7
    approx = approx_from_json(open(approx_file).read())
    assert list(md)[-2:] == ["sup_error", "rounding_floor"]
    assert md["sup_error"] == approx.sup_error
    s, r1 = approx.shifts, approx.domain_radius
    dist = np.hypot(s.real, np.maximum(np.abs(s.imag) - r1, 0))
    floor = np.finfo(float).eps * np.sum(np.abs(approx.weights) / dist)
    assert md["rounding_floor"] == pytest.approx(floor, rel=1e-12)
