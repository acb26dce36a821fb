"""Acceptance suite: one test per headline claim of the shipped configuration.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  The full-scale fixture steps a 7999-DOF tunneling system for
1000 steps twice (once serially, once with a 16-worker pool), so this module
takes about a minute of wall time; everything else finishes in seconds.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse import csr_matrix, identity

from rexiprop import (
    ComplexSeries,
    PhysicalConstants,
    PotentialSpec,
    SystemMatrices,
    WavePacketParams,
    approx_from_json,
    assemble_system,
    b_norm,
    build_mesh,
    cf_circle_error,
    chebyshev_prepare,
    chebyshev_reference,
    chebyshev_run,
    chebyshev_step,
    dense_decomposition,
    dense_expm_apply,
    project_initial,
    rexi_error_bound,
    rexi_prepare,
    rexi_run,
    rexi_step,
    rounding_floor,
    spectral_radius_estimate,
    stability_indicator,
    stabilize,
)
from rexiprop.harness import main
from rexiprop.spatial import _reference_blocks

DT = 2e-4
DESK_STEPS = 100        # t_end = 0.02 on the 500-element desk system
FULL_STEPS = 1000       # t_end = 0.2 on the 4000-element full system

# Final-state errors of the full-scale serial comparison table that the
# desk-scale run must reproduce to within one order of magnitude.
REXI_TABLE_ERROR = 6.66e-7
CHEB_TABLE_ERROR = 3.17e-6

TUNNEL_BARRIER = PotentialSpec.step_barrier(15.0, 0.005)
TUNNEL_PACKET = WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0)


def _tunnel_system(x0, x1, n_elems):
    consts = PhysicalConstants()
    mesh = build_mesh(x0, x1, n_elems)
    sysm = assemble_system(mesh, TUNNEL_BARRIER, consts)
    u0 = project_initial(mesh, TUNNEL_PACKET, consts, sysm.B)
    return sysm, u0


@pytest.fixture(scope="module")
def desk_scale(flagship):
    """Desk-scale comparison table: REXI and Chebyshev at equal dt against
    exp(T*M) u0 on the 500-element tunneling system, applied as one
    certified Chebyshev step."""
    sysm, u0 = _tunnel_system(-30.0, 30.0, 500)
    sr = spectral_radius_estimate(sysm)

    rx = rexi_prepare(sysm, flagship, DT, sr_value=sr)
    u_rexi = rexi_run(rx, u0, DESK_STEPS)
    ch = chebyshev_prepare(sysm, DT, sr_value=sr)
    u_cheb = chebyshev_run(ch, sysm, u0, DESK_STEPS)

    u_ref = chebyshev_reference(sysm, DESK_STEPS * DT, sr_value=sr).run(u0, 1)

    def errors(u):
        diff = u - u_ref
        return (
            float(np.max(np.abs(diff)) / np.max(np.abs(u_ref))),
            b_norm(diff, sysm.B) / b_norm(u_ref, sysm.B),
        )

    return {"rexi": errors(u_rexi), "chebyshev": errors(u_cheb)}


@pytest.fixture(scope="module")
def full_scale(flagship):
    """Full-scale run, serial and pooled.  Criteria 6b-10 need only
    timings, the B-norm drift and the two final states; the accuracy test
    builds its own long-step reference."""
    t0 = time.perf_counter()
    sysm, u0 = _tunnel_system(-120.0, 120.0, 4000)
    sr = spectral_radius_estimate(sysm)
    serial = rexi_prepare(sysm, flagship, DT, workers=1, sr_value=sr)
    t1 = time.perf_counter()
    u_serial = rexi_run(serial, u0, FULL_STEPS)
    t2 = time.perf_counter()

    pooled = rexi_prepare(sysm, flagship, DT, workers=16, sr_value=sr)
    t3 = time.perf_counter()
    u_pooled = rexi_run(pooled, u0, FULL_STEPS)
    t4 = time.perf_counter()

    return {
        "b_mat": sysm.B,
        "u0": u0,
        "u_serial": u_serial,
        "u_pooled": u_pooled,
        "serial_total_s": t2 - t0,
        "serial_step_s": t2 - t1,
        "pooled_step_s": t4 - t3,
    }


def test_criterion_01_faber_cf_certificate(tmp_path, capsys):
    out = tmp_path / "flagship.json"
    started = time.perf_counter()
    rc = main(["approx", "--r1", "10", "--degree", "16", "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert capsys.readouterr().out.startswith("K=16 ")
    approx = approx_from_json(out.read_text())
    assert len(approx.shifts) == 16
    assert 5e-10 <= approx.sup_error <= 1e-8, (
        f"sup_error {approx.sup_error:.3e} outside [5e-10, 1e-8]"
    )
    assert elapsed < 10.0, f"construction took {elapsed:.1f} s (limit 10 s)"


def test_criterion_02_hankel_error_equals_sigma():
    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    sigma, profile = cf_circle_error(
        ComplexSeries(coeffs=a), 16, n_samples=4096
    )
    assert sigma > 0
    measured = float(profile.max())
    assert abs(measured - sigma) <= 1e-3 * sigma, (
        f"sup |h - r*| = {measured:.6e} vs sigma_17 = {sigma:.6e}"
    )


def test_criterion_03_stability_deviation_and_stabilize(flagship, interval_grid):
    deviation = stability_indicator(flagship, 1j * interval_grid)
    peak = float(np.max(deviation))
    assert 5e-10 <= peak <= 1e-8, f"max(|r(ix)|-1) = {peak:.3e}"
    damped = stabilize(flagship, 1e-8)
    assert float(np.max(stability_indicator(damped, 1j * interval_grid))) <= 0.0


def test_criterion_04_apriori_error_bound_random_systems(flagship):
    rng = np.random.default_rng(20260814)
    started = time.perf_counter()
    violations = 0
    checks = 0
    for _ in range(20):
        n = 32
        m0 = rng.standard_normal((n, n))
        a = 0.5 * (m0 + m0.T)
        r = rng.standard_normal((n, n))
        b = r @ r.T + n * np.eye(n)
        sysm = SystemMatrices(A=csr_matrix(a), B=csr_matrix(b), n_dof=n)
        lam = sla.eigh(a, b, eigvals_only=True)
        sr = float(np.max(np.abs(lam)))
        tau = 0.9 * 10.0 / (1.05 * sr)   # tau * sr(M) <= 10, admissible
        stepper = rexi_prepare(sysm, flagship, tau, sr_value=sr)
        dec = dense_decomposition(sysm)
        for _ in range(5):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            exact = dense_expm_apply(sysm, tau, u, decomposition=dec)
            err = float(np.max(np.abs(rexi_step(stepper, u) - exact)))
            bound = rexi_error_bound(flagship.sup_error, dec.cond_inf)
            checks += 1
            if err > bound * float(np.max(np.abs(u))):
                violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0, f"{violations} of {checks} bound violations"
    assert elapsed < 30.0, f"took {elapsed:.1f} s (limit 30 s)"


def test_criterion_05_scalar_phase_accuracy(flagship):
    sysm = SystemMatrices(
        A=csr_matrix(np.array([[1.0]])), B=identity(1, format="csr"), n_dof=1
    )
    target = np.exp(-1j)
    rx = rexi_prepare(sysm, flagship, 1.0, sr_value=1.0)
    u_rexi = rexi_step(rx, np.array([1.0 + 0.0j]))
    assert abs(u_rexi[0] - target) <= 5e-9
    ch = chebyshev_prepare(sysm, 1.0, sr_value=1.0)
    u_cheb = chebyshev_step(ch, sysm, np.array([1.0 + 0.0j]))
    assert abs(u_cheb[0] - target) <= ch.sup_error


def test_criterion_06a_desk_scale_error_table(desk_scale):
    rexi_inf, rexi_b = desk_scale["rexi"]
    cheb_inf, cheb_b = desk_scale["chebyshev"]
    table = (
        f"measured rexi inf={rexi_inf:.3e} B={rexi_b:.3e}, "
        f"chebyshev inf={cheb_inf:.3e} B={cheb_b:.3e}; "
        f"table values rexi={REXI_TABLE_ERROR:.2e} cheb={CHEB_TABLE_ERROR:.2e}"
    )
    problems = []
    if not rexi_inf < cheb_inf:
        problems.append("REXI error is not below the Chebyshev error")
    for name, err, target in (
        ("rexi", rexi_inf, REXI_TABLE_ERROR),
        ("chebyshev", cheb_inf, CHEB_TABLE_ERROR),
    ):
        if not target / 10.0 <= err <= target * 10.0:
            problems.append(
                f"{name} error {err:.3e} outside "
                f"[{target / 10.0:.2e}, {target * 10.0:.2e}]"
            )
    assert not problems, "; ".join(problems) + " -- " + table


def test_criterion_06b_full_scale_serial_runtime(full_scale):
    total = full_scale["serial_total_s"]
    assert total < 60.0, f"serial 4000-element/1000-step run took {total:.1f} s"


def test_criterion_07_bnorm_conservation_1000_steps(full_scale):
    before = b_norm(full_scale["u0"], full_scale["b_mat"])
    after = b_norm(full_scale["u_serial"], full_scale["b_mat"])
    drift = abs(after - before) / before
    assert drift <= 1e-6, f"relative B-norm drift {drift:.3e} over 1000 steps"


def test_criterion_08_worker_determinism(full_scale):
    diff = np.max(np.abs(full_scale["u_serial"] - full_scale["u_pooled"]))
    rel = float(diff / np.max(np.abs(full_scale["u_serial"])))
    assert rel <= 1e-13, f"workers 1 vs 16 differ by {rel:.3e} relative"


def test_full_scale_error_within_certificate(flagship, full_scale):
    """The serial full-scale state against exp(t*M) u0 at t = 0.2, applied
    as one certified Chebyshev step.  M is skew-adjoint in the B inner
    product, so each REXI step errs in the B-norm by at most the
    approximant's sup error plus its rounding floor, and the reference by
    its own sup error."""
    sysm, u0 = _tunnel_system(-120.0, 120.0, 4000)
    np.testing.assert_array_equal(u0, full_scale["u0"])
    ref = chebyshev_reference(sysm, FULL_STEPS * DT)
    u_ref = ref.run(u0, 1)
    diff = full_scale["u_serial"] - u_ref
    err_b = b_norm(diff, sysm.B) / b_norm(u_ref, sysm.B)
    err_inf = float(np.max(np.abs(diff)) / np.max(np.abs(u_ref)))
    bound = (FULL_STEPS * (flagship.sup_error + rounding_floor(flagship))
             + ref.sup_error)
    assert err_b <= bound, (
        f"full-scale B-norm error {err_b:.3e} (max norm {err_inf:.3e}) "
        f"exceeds the certificate {bound:.3e}"
    )


def test_criterion_09_element_block_oracles():
    # P2 shapes on the unit element, lowest-degree-first coefficients.
    shapes = ((Fraction(1), Fraction(-3), Fraction(2)),
              (Fraction(0), Fraction(4), Fraction(-4)),
              (Fraction(0), Fraction(-1), Fraction(2)))
    grads = tuple(tuple((k + 1) * c for k, c in enumerate(p[1:]))
                  for p in shapes)

    def integral(p, q):
        prod = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                prod[i + j] += pi * qj
        return sum(c / (k + 1) for k, c in enumerate(prod))

    h = Fraction(3, 8)   # exactly representable, so no conversion slack
    mass, stiff = _reference_blocks(float(h))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            m_exact = float(h * integral(shapes[i], shapes[j]))
            s_exact = float(integral(grads[i], grads[j]) / h)
            worst = max(
                worst,
                abs(mass[i, j] - m_exact) / abs(m_exact),
                abs(stiff[i, j] - s_exact) / abs(s_exact),
            )
    assert worst <= 1e-13, f"worst element-block deviation {worst:.3e}"

    # The same numbers must survive assembly: a one-element mesh with zero
    # potential keeps a single interior node, the middle-shape diagonal.
    mesh = build_mesh(0.0, float(h), 1)
    sysm = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    a_exact = 0.5 * float(integral(grads[1], grads[1]) / h)
    b_exact = float(h * integral(shapes[1], shapes[1]))
    assert abs(sysm.A[0, 0] - a_exact) <= 1e-13 * a_exact
    assert abs(sysm.B[0, 0] - b_exact) <= 1e-13 * b_exact


def test_criterion_10_parallel_speedup(full_scale):
    speedup = full_scale["serial_step_s"] / full_scale["pooled_step_s"]
    assert speedup > 1.5, (
        f"16-worker stepping speedup {speedup:.2f} (need > 1.5) with "
        f"{os.cpu_count()} CPU(s) visible to this process"
    )
