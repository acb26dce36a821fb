"""Tests for time stepping: REXI, Chebyshev/Clenshaw, and the dense oracle."""

import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import chebval
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.linalg import splu

from rexiprop import integrate, solvers
from rexiprop.approx import PartialFractionApproximation, evaluate_pfd
from rexiprop.errors import AdmissibilityError, ApproximationError, SolverError
from rexiprop.integrate import (
    SAFETY_FACTOR,
    chebyshev_coeffs,
    chebyshev_prepare,
    chebyshev_reference,
    chebyshev_run,
    dense_decomposition,
    dense_expm_apply,
    max_step_size,
    rexi_error_bound,
    rexi_prepare,
    rexi_run,
)
from rexiprop.solvers import (
    DENSE_ORACLE_MAX_DOF,
    CondensedFactorization,
    DenseFactorization,
    factorize,
)
from rexiprop.spatial import (
    PhysicalConstants,
    PotentialSpec,
    SystemMatrices,
    WavePacketParams,
    assemble_system,
    b_norm,
    build_mesh,
    project_initial,
    spectral_radius_estimate,
)

EPS = np.finfo(float).eps


def scalar_system(omega: float) -> SystemMatrices:
    return SystemMatrices(
        A=csr_matrix(np.array([[omega]], dtype=float)),
        B=identity(1, format="csr"),
    )


def pole_sum_scale(approx, z) -> float:
    """Machine-rounding scale of the weighted pole sum at z."""
    return float(np.sum(np.abs(approx.weights / (z - approx.shifts))))


@pytest.fixture(scope="module")
def fem():
    """Small tunneling-style system: barrier, packet, admissible tau."""
    consts = PhysicalConstants()
    mesh = build_mesh(-12.0, 12.0, 64)
    sysm = assemble_system(
        mesh, PotentialSpec(kind="step", v_max=1.0, c_barr=2.0), consts
    )
    sr = float(spectral_radius_estimate(sysm))
    u0 = project_initial(
        mesh, WavePacketParams(r_bar=-4.0, p_bar=2.0, sigma=1.0), consts, sysm.B
    )
    return sysm, mesh, u0, sr


def random_pencil(rng, n):
    m0 = rng.standard_normal((n, n))
    a_d = 0.5 * (m0 + m0.T)
    r0 = rng.standard_normal((n, n))
    b_d = r0 @ r0.T + n * np.eye(n)
    sys_n = SystemMatrices(A=csr_matrix(a_d), B=csr_matrix(b_d))
    sr = float(np.max(np.abs(sla.eigh(a_d, b_d, eigvals_only=True))))
    return sys_n, sr


# ---------------------------------------------------------------------------
# Step-size bound
# ---------------------------------------------------------------------------

def test_max_step_size_examples():
    assert max_step_size(10.0, 1e5) == pytest.approx(1e-4)
    assert max_step_size(10.0, 10.0) == pytest.approx(1.0)


@pytest.mark.parametrize("r1, sr", [(0.0, 1.0), (10.0, 0.0), (10.0, -3.0), (-1.0, 5.0)])
def test_max_step_size_rejects_nonpositive(r1, sr):
    with pytest.raises(ValueError):
        max_step_size(r1, sr)


@given(
    r1=st.floats(min_value=1e-3, max_value=1e3),
    sr=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_max_step_size_homogeneous(r1, sr):
    # Doubling the interval doubles the step; doubling sr halves it.  Both
    # scalings are by a power of two, so equality is exact.
    assert max_step_size(2 * r1, sr) == 2 * max_step_size(r1, sr)
    assert max_step_size(r1, 2 * sr) == max_step_size(r1, sr) / 2


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------

def _pentadiagonal(n, rng):
    bands = [rng.standard_normal(n - abs(k)) + 1j * rng.standard_normal(n - abs(k))
             for k in (-2, -1, 0, 1, 2)]
    bands[2] += 10.0  # diagonally dominant, comfortably nonsingular
    return diags(bands, offsets=[-2, -1, 0, 1, 2], format="csr")


def test_dense_factorization_for_full_matrices():
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    fac = factorize(csr_matrix(dense))
    assert isinstance(fac, DenseFactorization)
    assert fac.bandwidth is None
    b = rng.standard_normal(40)
    x = fac.solve(b)[0]
    assert np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-10
    # Solving into a given block writes and returns it, with the same bytes.
    block = np.full((1, 40), np.nan, dtype=complex)
    assert fac.solve(b, out=block) is block
    assert block.tobytes() == fac.solve(b).tobytes()


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize(
    "mat",
    [
        csr_matrix((4, 4)),
        csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]])),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    ],
)
def test_factorize_singular_raises(mat):
    with pytest.raises(SolverError, match="singular"):
        factorize(mat)


def test_factorize_refuses_large_non_p2_sparse():
    def tridiagonal(n):
        return diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
                     offsets=[-1, 0, 1], format="csr")

    n = DENSE_ORACLE_MAX_DOF + 1
    with pytest.raises(SolverError, match=rf"order {n}\b.*= {DENSE_ORACLE_MAX_DOF}"):
        factorize(tridiagonal(n))
    mat = tridiagonal(DENSE_ORACLE_MAX_DOF)
    fac = factorize(mat)
    assert fac.kind == "dense"
    b = np.random.default_rng(10).standard_normal(DENSE_ORACLE_MAX_DOF)
    assert np.linalg.norm(mat @ fac.solve(b)[0] - b) / np.linalg.norm(b) < 1e-10


# ---------------------------------------------------------------------------
# REXI preparation
# ---------------------------------------------------------------------------

def test_prepare_scalar_shifted_matrices(flagship):
    omega, tau = 3.0, 0.5
    sysm = scalar_system(omega)
    stp = rexi_prepare(sysm, flagship, tau, sr_value=omega, workers=1)
    assert [fac.K for fac in stp.factorizations] == [flagship.K]
    assert stp.solver == "dense"
    x = stp.factorizations[0].solve(np.ones(1))[:, 0]
    for sigma, x_j in zip(flagship.shifts, x):
        # Row j solves the 1x1 system rebuilt from the scalar pencil.
        mat = (tau * sysm.A - 1j * sigma * sysm.B).toarray()[0, 0]
        assert x_j * mat == pytest.approx(1.0, rel=1e-14)


def test_prepare_factorization_residuals(flagship, fem, monkeypatch):
    sysm, _, _, sr = fem
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)
    for workers in (1, 2):
        with rexi_prepare(sysm, flagship, 0.02, sr_value=sr,
                          workers=workers) as stp:
            assert [fac.K for fac in stp.factorizations] == \
                [flagship.K // workers] * workers
            rows = np.concatenate([fac.solve(rhs)
                                   for fac in stp.factorizations])
            assert stp.solver == "condensed"
        assert rows.shape == (flagship.K, sysm.n_dof)
        # Each row against its shifted matrix, rebuilt from the system.
        for sigma, x in zip(flagship.shifts, rows):
            mat = 0.02 * sysm.A - 1j * sigma * sysm.B
            assert (np.linalg.norm(mat @ x - rhs)
                    / np.linalg.norm(rhs)) < 1e-10


def test_prepare_retains_little_per_shift(flagship, fem):
    # The stepper keeps the factors a solve reads, no shifted matrices:
    # about 80 bytes per shift per DOF (B as iB included).
    sysm, _, _, sr = fem
    rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert stp.solver == "condensed"
    assert retained / (flagship.K * sysm.n_dof) <= 100


def test_prepare_peak_stays_near_what_it_retains(flagship):
    # Desk scale, one stack of 16: each half-diagonal is turned in place
    # into an array the factorization keeps, so building it holds little
    # beyond what it keeps.
    sysm, _ = _barrier_pencil(-30.0, 30.0, 500)
    sr = float(spectral_radius_estimate(sysm))
    rexi_prepare(sysm, flagship, 2e-4, sr_value=sr, workers=1)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stp = rexi_prepare(sysm, flagship, 2e-4, sr_value=sr, workers=1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stp.factorizations) == 1 and stp.solver == "condensed"
    assert peak - before <= 1.3 * (retained - before)


def test_prepare_records_admissibility(flagship):
    stp = rexi_prepare(scalar_system(5.0), flagship, 0.1, sr_value=5.0, workers=1)
    assert stp.admissibility_ratio == pytest.approx(SAFETY_FACTOR * 0.1 * 5.0 / 10.0)
    assert stp.admissible


def test_prepare_rejects_duplicate_shifts():
    # The approximant itself refuses them, so no stepper can be built.
    with pytest.raises(ValueError, match="distinct"):
        approx = PartialFractionApproximation(
            shifts=np.array([2.0 + 1.0j, 2.0 + 1.0j]),
            weights=np.array([1.0 + 0j, 1.0 + 0j]),
            domain_radius=10.0,
            sup_error=1.0,
        )
        rexi_prepare(scalar_system(1.0), approx, 1.0, sr_value=1.0)


def test_prepare_singular_shift_names_index(flagship):
    # tau*A - sigma_0*iB == 0 exactly when A = i*sigma_0 * B at tau = 1.
    sigma0 = complex(flagship.shifts[0])
    sys1 = SystemMatrices(
        A=csr_matrix(np.array([[1j * sigma0]])),
        B=identity(1, format="csr"),
    )
    with pytest.raises(SolverError, match=r"j = 0"):
        rexi_prepare(sys1, flagship, 1.0, sr_value=1.0, workers=1)


def test_prepare_refuses_shift_on_the_interval(flagship, monkeypatch):
    # 3j lies on i[-10, 10]: its shifted system is singular wherever
    # tau*M has the eigenvalue 3j, and near-singular close to it.
    shifts = flagship.shifts.copy()
    shifts[0] = 3j
    bad = replace(flagship, shifts=shifts)

    def factor(*args):
        raise AssertionError("factored a shift on the interval")

    monkeypatch.setattr(integrate, "factorize_shifted", factor)
    with pytest.raises(ApproximationError,
                       match=r"j = 0 \(sigma = 3j\) lies within 0\.000e\+00"):
        rexi_prepare(scalar_system(1.0), bad, 1.0, sr_value=1.0)


def test_prepare_validates_inputs(flagship):
    with pytest.raises(ValueError):
        rexi_prepare(scalar_system(1.0), flagship, 0.0, sr_value=1.0)
    with pytest.raises(ValueError):
        rexi_prepare(scalar_system(1.0), flagship, 1.0, sr_value=1.0, workers=0)


# ---------------------------------------------------------------------------
# REXI stepping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega", [-9.5, -1.0, 0.3, 7.25])
def test_scalar_step_is_pole_sum(flagship, omega):
    stp = rexi_prepare(scalar_system(omega), flagship, 1.0,
                       sr_value=abs(omega), workers=1)
    got = stp.step(np.array([1.0 + 0.0j]))[0]
    z = -1j * omega
    assert abs(got - evaluate_pfd(flagship, z)) < 8 * EPS * pole_sum_scale(flagship, z)


def test_scalar_step_matches_exp(flagship):
    stp = rexi_prepare(scalar_system(1.0), flagship, 1.0, sr_value=1.0, workers=1)
    got = stp.step(np.array([1.0 + 0.0j]))[0]
    assert abs(got - np.exp(-1j)) <= 5e-9


def test_step_zero_state_is_zero(flagship, fem):
    sysm, _, _, sr = fem
    stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    out = stp.step(np.zeros(sysm.n_dof, dtype=complex))
    assert np.all(out == 0)


def test_step_linear(flagship, fem):
    sysm, _, u0, sr = fem
    stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)
    a = 0.7 - 0.2j
    b = -1.3 + 0.4j
    lhs = stp.step(a * u0 + b * v)
    rhs = a * stp.step(u0) + b * stp.step(v)
    # Floor set by per-term rounding of the weighted pole sum (see the
    # weights' magnitude), not by the reduction order.
    tol = 16 * EPS * float(np.sum(np.abs(flagship.weights)
                                  / np.abs(flagship.shifts)))
    assert np.max(np.abs(lhs - rhs)) <= tol * np.max(np.abs(lhs))


def test_workers_do_not_change_the_answer(flagship, fem):
    sysm, _, u0, sr = fem
    serial = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    with rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=16) as pooled:
        u_serial = rexi_run(serial, u0, 3)
        u_pooled = rexi_run(pooled, u0, 3)
    assert np.max(np.abs(u_serial - u_pooled)) <= 1e-13


@pytest.mark.parametrize("workers", [1, 2, 3, 16])
def test_step_is_the_plain_ascending_sum(flagship, workers, monkeypatch):
    # Desk scale: the step is w_0*X_0 + w_1*X_1 + ... over the rows of the
    # stacked solve, added in ascending j, byte for byte, whatever stack
    # holds each row (three workers split the shifts 6/5/5).
    sysm, mesh = _barrier_pencil(-30.0, 30.0, 500)
    u0 = project_initial(mesh, WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0),
                         PhysicalConstants(), sysm.B)
    shifted = [(2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
               for sigma in flagship.shifts]
    rows = factorize(*shifted).solve((1j * sysm.B).tocsr() @ u0)
    expected = flagship.weights[0] * rows[0]
    for weight, row in zip(flagship.weights[1:], rows[1:]):
        expected = expected + weight * row
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 16)
    with rexi_prepare(sysm, flagship, 2e-4, workers=workers) as stp:
        assert len(stp.factorizations) == workers
        assert stp.step(u0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_failed_shift_solve_is_reported(flagship, fem, workers, monkeypatch):
    sysm, _, u0, sr = fem
    # Shift 5 is in the calling thread's stack at one or two workers (a
    # pool thread solves the other stack at two); at four it is in the
    # second stack of four, solved by a pool thread.
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 4)
    zgttrs = solvers._ZGTTRS
    with rexi_prepare(sysm, flagship, 0.02, sr_value=sr,
                      workers=workers) as stp:
        # The stack holding shift 5, found by its pivot array's address:
        # the stacks hold the shifts in order, one zgttrs call apiece.
        sizes = [fac.K for fac in stp.factorizations]
        c = int(np.searchsorted(np.cumsum(sizes), 5, side="right"))
        ipiv = stp.factorizations[c]._ipiv.ctypes.data
        first = sum(sizes[:c])

        def stack_fails(*args):
            zgttrs(*args)
            if args[7] == ipiv:
                args[-1]._obj.value = -3  # info, passed by reference

        monkeypatch.setattr(solvers, "_ZGTTRS", stack_fails)
        with pytest.raises(SolverError, match=r"info=-3") as raised:
            stp.step(u0)
    # An argument error belongs to the whole call, so the message names
    # the stack's shift range, which holds shift 5.
    lo, hi = map(int, re.search(r"shifts j = (\d+)\.\.(\d+)\b",
                                str(raised.value)).groups())
    assert (lo, hi) == (first, first + sizes[c] - 1)
    assert lo <= 5 <= hi


def test_dahlquist_iteration(flagship):
    n = 50
    stp = rexi_prepare(scalar_system(1.0), flagship, 1.0, sr_value=1.0, workers=1)
    u_n = rexi_run(stp, np.array([1.0 + 0.0j]), n)[0]
    r = evaluate_pfd(flagship, -1j)
    scale = pole_sum_scale(flagship, -1j)
    assert abs(u_n - r**n) <= 2 * n * EPS * scale
    # modulus creeps away from 1 at most linearly in the sup error
    assert abs(u_n) - 1.0 <= n * (flagship.sup_error + 1e-11)


def test_run_zero_steps_copies(flagship):
    sys1 = scalar_system(1.0)
    stp = rexi_prepare(sys1, flagship, 1.0, sr_value=1.0, workers=1)
    cheb = chebyshev_prepare(sys1, 1.0, sr_value=1.0)
    u0 = np.array([0.25 - 0.5j])
    for run in (lambda n: rexi_run(stp, u0, n),
                lambda n: chebyshev_run(cheb, sys1, u0, n)):
        out = run(0)
        assert out is not u0
        np.testing.assert_array_equal(out, u0)
        with pytest.raises(ValueError):
            run(-1)


def test_run_observer_contract(flagship, fem):
    sysm, _, u0, sr = fem
    stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    with chebyshev_prepare(sysm, 0.02, sr_value=sr) as cheb:
        for run in (lambda obs: rexi_run(stp, u0, 4, observer=obs),
                    lambda obs: chebyshev_run(cheb, sysm, u0, 4, obs)):
            seen = []
            final = run(lambda k, t, u: seen.append((k, t, u)))
            assert [k for k, _, _ in seen] == [1, 2, 3, 4]
            assert [t for _, t, _ in seen] == pytest.approx(
                [0.02, 0.04, 0.06, 0.08])
            np.testing.assert_array_equal(seen[-1][2], final)


def test_run_flushes_subnormals(flagship, fem):
    # Scaled by 1e-300, the packet's tails are subnormal in u0, and every
    # step of either propagator makes new ones from normal parts.
    sysm, _, u0, sr = fem
    u0 = 1e-300 * u0
    tiny = np.finfo(float).tiny

    def subnormals(u):
        parts = np.abs(np.asarray(u, dtype=complex).view(float))
        return int(np.count_nonzero((parts > 0) & (parts < tiny)))

    assert subnormals(u0.real) > 0 and subnormals(1j * u0.imag) > 0
    stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    cheb = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    for run in (lambda obs: rexi_run(stp, u0, 3, observer=obs),
                lambda obs: chebyshev_run(cheb, sysm, u0, 3, obs)):
        seen = []
        final = run(lambda k, t, u: seen.append(subnormals(u)))
        assert seen == [0, 0, 0]
        assert subnormals(final) == 0
        assert np.count_nonzero(final) > 0


def test_b_norm_quasi_conserved(flagship, fem):
    sysm, _, u0, sr = fem
    stp = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    norms = [b_norm(u0, sysm.B)]
    rexi_run(stp, u0, 100,
             observer=lambda k, t, u: norms.append(b_norm(u, sysm.B)))
    per_step = np.abs(np.diff(norms)) / np.array(norms[:-1])
    assert np.max(per_step) <= flagship.sup_error + 1e-11


def test_inadmissible_step_refused(flagship):
    sys5 = scalar_system(5.0)
    stp = rexi_prepare(sys5, flagship, 10.0, sr_value=5.0, workers=1)
    cheb = chebyshev_prepare(sys5, 10.0, radius=10.0, sr_value=5.0)
    # The message names the largest admissible step, max_step_size / 1.05,
    # and a step of exactly that size is admitted.
    largest = max_step_size(10.0, 5.0) / SAFETY_FACTOR
    for run, prepared in ((rexi_run, stp),
                          (lambda c, u, n: chebyshev_run(c, sys5, u, n), cheb)):
        assert not prepared.admissible
        with pytest.raises(AdmissibilityError, match="max_step_size") as info:
            run(prepared, np.array([1.0 + 0.0j]), 1)
        assert (f"max_step_size / {SAFETY_FACTOR} = {largest:.6e}"
                in str(info.value))
    assert rexi_prepare(sys5, flagship, largest, sr_value=5.0,
                        workers=1).admissible
    assert chebyshev_prepare(sys5, largest, radius=10.0,
                             sr_value=5.0).admissible


def test_admissibility_override(flagship):
    sys5 = scalar_system(5.0)
    stp = rexi_prepare(sys5, flagship, 10.0, sr_value=5.0,
                       workers=1, override_admissibility=True)
    cheb = chebyshev_prepare(sys5, 10.0, radius=10.0, sr_value=5.0,
                             override_admissibility=True)
    for run, prepared in ((rexi_run, stp),
                          (lambda c, u, n: chebyshev_run(c, sys5, u, n), cheb)):
        # A zero-step run passes no gate, so it uses no override.
        run(prepared, np.array([1.0 + 0.0j]), 0)
        assert not prepared.override_used
        run(prepared, np.array([1.0 + 0.0j]), 1)
        assert prepared.override_used


# ---------------------------------------------------------------------------
# Chebyshev / Clenshaw
# ---------------------------------------------------------------------------

def test_chebyshev_certificate_flagship_degree():
    cc = chebyshev_coeffs(10.0, 26)
    assert len(cc.coeffs) == 27
    assert 1e-10 <= cc.sup_error <= 1e-7


def _chebval_sup_error(r, coeffs):
    x = np.linspace(-1.0, 1.0, 100_001)
    return float(np.max(np.abs(chebval(x, coeffs) - np.exp(1j * r * x))))


def test_chebyshev_certificate_is_chebvals_bits():
    # n = 1, 2: chebval's short branches; 26: the comparison method; then
    # seeded random (r, n) and the degree the reference picks on the desk
    # system.
    rng = np.random.default_rng(21)
    cases = [(10.0, 1), (10.0, 2), (10.0, 26)]
    cases += [(float(rng.uniform(0.1, 60.0)), int(rng.integers(1, 120)))
              for _ in range(8)]
    for r, n in cases:
        cc = chebyshev_coeffs(r, n)
        assert cc.sup_error == _chebval_sup_error(r, cc.coeffs), (r, n)
    sysm, _ = _barrier_pencil(-30.0, 30.0, 500)
    ref = chebyshev_reference(sysm, 0.02)
    assert ref.degree == 83
    assert ref.sup_error == _chebval_sup_error(ref.interval_radius,
                                               ref.coeffs)


def test_chebyshev_certificate_peak_memory():
    # Evaluated in cache-sized blocks: about 2.6 MB traced, where full-grid
    # complex arrays took 7.8 MB.
    chebyshev_coeffs(10.0, 26)  # warm-up
    tracemalloc.start()
    try:
        chebyshev_coeffs(10.0, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_chebyshev_low_degree_is_poor():
    assert chebyshev_coeffs(10.0, 5).sup_error > 0.01


def test_chebyshev_coeffs_validation():
    with pytest.raises(ValueError):
        chebyshev_coeffs(10.0, 0)
    with pytest.raises(ValueError):
        chebyshev_coeffs(0.0, 26)


def test_chebyshev_zero_operator_is_near_identity():
    sys0 = SystemMatrices(A=csr_matrix((3, 3)), B=identity(3, format="csr"))
    stp = chebyshev_prepare(sys0, 0.1, sr_value=0.0)
    u = np.array([1.0, -2.0j, 0.5 + 0.5j])
    out = stp.step(u)
    assert np.max(np.abs(out - u)) <= stp.sup_error + 1e-13


def test_chebyshev_scalar_within_certificate():
    sys1 = scalar_system(1.0)
    stp = chebyshev_prepare(sys1, 1.0, degree=26, radius=10.0, sr_value=1.0)
    got = chebyshev_run(stp, sys1, np.array([1.0 + 0.0j]), 1)[0]
    assert abs(got - np.exp(-1j)) <= stp.sup_error + 1e-12


def test_clenshaw_matches_direct_summation():
    diag_a = np.array([-4.9, -1.0, 0.0, 2.2, 4.4])
    sys5 = SystemMatrices(A=diags(diag_a, format="csr"),
                          B=identity(5, format="csr"))
    tau = 0.7
    stp = chebyshev_prepare(sys5, tau, degree=26, radius=10.0,
                            sr_value=float(np.max(np.abs(diag_a))))
    rng = np.random.default_rng(9)
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    got = stp.step(u)
    want = chebval(-tau * diag_a / stp.interval_radius, stp.coeffs) * u
    assert np.max(np.abs(got - want)) < 1e-12


def test_clenshaw_step_is_textbook_recurrence_in_degree_solves(fem):
    # One pencil application (one vertex solve) per degree, and the bits of
    # b_k = a_k u + 2 S b_{k+1} - b_{k+2} from b_{N+1} = b_{N+2} = 0, with
    # S = scale * B^-1 A applied by the stepper's own operator.
    sysm, _, u0, sr = fem
    stp = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    apply = stp.operator.apply
    calls = []

    def counting_apply(b, out=None):
        calls.append(1)
        return apply(b, out=out)

    stp.operator.apply = counting_apply
    got = stp.step(u0)
    assert len(calls) == stp.degree == 26

    a = stp.coeffs
    scale = -(stp.tau / stp.interval_radius)
    b1 = np.zeros_like(u0)
    b2 = np.zeros_like(u0)
    for k in range(stp.degree, 0, -1):
        b1, b2 = a[k] * u0 + 2.0 * scale * apply(b1) - b2, b1
    want = a[0] * u0 + scale * apply(b1) - b2
    assert np.array_equal(got, want)


def test_chebyshev_zero_state_and_gate(fem):
    sysm, _, u0, sr = fem
    stp = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    out = stp.step(np.zeros(sysm.n_dof, dtype=complex))
    assert np.all(out == 0)
    np.testing.assert_array_equal(chebyshev_run(stp, sysm, u0, 0), u0)

    bad = chebyshev_prepare(sysm, 1.0, sr_value=sr)
    with pytest.raises(AdmissibilityError, match="max_step_size"):
        chebyshev_run(bad, sysm, u0, 1)
    forced = chebyshev_prepare(sysm, 1.0, sr_value=sr,
                               override_admissibility=True)
    chebyshev_run(forced, sysm, u0, 1)
    assert forced.override_used


def test_chebyshev_rejects_unprepared_system(fem):
    sysm, _, u0, sr = fem
    stp = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    other = SystemMatrices(A=sysm.A.copy(), B=sysm.B)
    with pytest.raises(ValueError, match="prepared"):
        chebyshev_run(stp, other, u0, 1)


def test_chebyshev_prepare_validates_tau(fem):
    sysm, _, _, sr = fem
    with pytest.raises(ValueError):
        chebyshev_prepare(sysm, -0.1, sr_value=sr)
    with pytest.raises(ValueError, match=r"tau must be positive, got 0\.0"):
        chebyshev_prepare(sysm, 0.0, sr_value=sr)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        chebyshev_prepare(sysm, 0.1, degree=0, sr_value=sr)
    # The radius divides the admissibility ratio: refused before it does.
    for radius in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="interval radius must be "
                           f"positive, got {re.escape(str(radius))}"):
            chebyshev_prepare(sysm, 0.1, radius=radius, sr_value=sr)


@pytest.mark.parametrize("n_elems", [64, 500])
def test_chebyshev_reference_matches_dense_oracle(fem, n_elems):
    from scipy.special import jv

    if n_elems == 64:  # the CLI tests' configuration, 127 DOF
        sysm, _, u0, _ = fem
    else:  # the desk-scale tunneling system, 999 DOF
        sysm, mesh = _barrier_pencil(-30.0, 30.0, n_elems)
        u0 = project_initial(mesh, WavePacketParams(r_bar=-3.0, p_bar=5.0,
                                                    sigma=4.0),
                             PhysicalConstants(), sysm.B)
    t = 0.02
    ref = chebyshev_reference(sysm, t)
    assert ref.tau == t and ref.admissibility_ratio == 1.0
    # The degree is the first past ceil(R) whose dropped coefficient
    # 2|J_{d+1}(R)| is below machine epsilon.
    r = ref.interval_radius
    assert ref.degree >= np.ceil(r)
    assert 2 * abs(jv(ref.degree + 1, r)) < EPS
    assert ref.degree == np.ceil(r) or 2 * abs(jv(ref.degree, r)) >= EPS
    assert ref.sup_error < 1e-13

    got = ref.run(u0, 1)
    want = dense_expm_apply(sysm, t, u0, max_n=sysm.n_dof)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert b_norm(got - want, sysm.B) <= 1e-12 * b_norm(want, sysm.B)


def test_import_does_not_load_scipy_special():
    # chebyshev_reference imports scipy.special when called: loading it at
    # import time would add about 3 MB to every process using the package.
    src = os.path.dirname(os.path.dirname(integrate.__file__))
    code = "import sys, rexiprop; sys.exit('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_chebyshev_reference_validates_t(fem):
    sysm, _, _, sr = fem
    for t in (0.0, -0.1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            chebyshev_reference(sysm, t, sr_value=sr)


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

def test_dense_decomposition_properties(fem):
    sysm, _, _, _ = fem
    dec = dense_decomposition(sysm)
    assert np.max(np.abs(dec.omegas.real)) <= 1e-12 * np.max(np.abs(dec.omegas))
    eye_err = dec.xinv @ dec.X - np.eye(sysm.n_dof)
    assert np.max(np.abs(eye_err)) < 1e-10
    assert dec.cond_inf >= 1.0
    assert dec.residual < 1e-8


def test_dense_decomposition_size_gate(fem):
    sysm, _, _, _ = fem
    with pytest.raises(ValueError, match="exceeds"):
        dense_decomposition(sysm, max_n=32)


def test_dense_expm_tau_zero(fem):
    sysm, _, u0, _ = fem
    dec = dense_decomposition(sysm)
    out = dense_expm_apply(sysm, 0.0, u0, decomposition=dec)
    assert np.max(np.abs(out - u0)) <= 1e-12 * dec.cond_inf * np.max(np.abs(u0))


def test_dense_expm_diagonal_phases():
    diag_a = np.array([0.3, -1.2, 2.0, 4.4])
    sys4 = SystemMatrices(A=diags(diag_a, format="csr"),
                          B=identity(4, format="csr"))
    u = np.array([1.0, 1.0j, -0.5, 2.0 - 1.0j])
    tau = 0.8
    got = dense_expm_apply(sys4, tau, u)
    np.testing.assert_allclose(got, np.exp(-1j * tau * diag_a) * u, atol=1e-12)


def test_dense_expm_group_property(fem):
    sysm, _, u0, _ = fem
    dec = dense_decomposition(sysm)
    half = dense_expm_apply(sysm, 0.01, u0, decomposition=dec)
    twice = dense_expm_apply(sysm, 0.01, half, decomposition=dec)
    full = dense_expm_apply(sysm, 0.02, u0, decomposition=dec)
    assert np.max(np.abs(twice - full)) <= 1e-10 * dec.cond_inf


def test_rexi_error_bound_examples():
    assert rexi_error_bound(2.38e-9, 1.0) == pytest.approx(2.38e-9)
    assert rexi_error_bound(0.0, 7.5) == 0.0
    with pytest.raises(ValueError):
        rexi_error_bound(-1.0, 1.0)
    with pytest.raises(ValueError):
        rexi_error_bound(1.0, -1.0)


# ---------------------------------------------------------------------------
# Cross-checks against the oracle
# ---------------------------------------------------------------------------

def test_rexi_within_apriori_bound(flagship):
    # Small version of the acceptance sweep: the measured one-step error
    # never exceeds sup_error * cond_inf * ||u||_inf.
    rng = np.random.default_rng(11)
    for _ in range(5):
        sys_n, sr = random_pencil(rng, 32)
        tau = 0.9 * 10.0 / (SAFETY_FACTOR * sr)
        stp = rexi_prepare(sys_n, flagship, tau, sr_value=sr, workers=1)
        dec = dense_decomposition(sys_n)
        u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        err = np.max(np.abs(stp.step(u)
                            - dense_expm_apply(sys_n, tau, u, decomposition=dec)))
        assert err <= rexi_error_bound(flagship.sup_error, dec.cond_inf) \
            * np.max(np.abs(u))


def test_rexi_and_chebyshev_agree(flagship, fem):
    sysm, _, u0, sr = fem
    tau = 0.02
    rstp = rexi_prepare(sysm, flagship, tau, sr_value=sr, workers=1)
    cstp = chebyshev_prepare(sysm, tau, sr_value=sr)
    dec = dense_decomposition(sysm)
    diff = np.max(np.abs(rstp.step(u0) - cstp.step(u0)))
    assert diff <= (flagship.sup_error + cstp.sup_error) * dec.cond_inf \
        * np.max(np.abs(u0))


# ---------------------------------------------------------------------------
# Condensed P2 factorization
# ---------------------------------------------------------------------------

def _barrier_pencil(x0, x1, n_elems):
    """The benchmark's barrier pencil (height 15, width 0.005) and mesh."""
    mesh = build_mesh(x0, x1, n_elems)
    sysm = assemble_system(
        mesh, PotentialSpec(kind="step", v_max=15.0, c_barr=0.005),
        PhysicalConstants(),
    )
    return sysm, mesh


def test_factorize_picks_solver_by_structure(flagship, fem):
    sysm = fem[0]
    shifted = (0.02 * sysm.A - (1j * flagship.shifts[0]) * sysm.B).tocsr()
    for mat in (shifted, sysm.B):
        fac = factorize(mat)
        assert isinstance(fac, CondensedFactorization)
        assert (fac.kind, fac.bandwidth, fac.kl, fac.ku) == ("condensed", 5, 2, 2)
    # Not the P2 pattern: odd order but midpoints coupled two apart, a
    # diagonal, a 1x1 and a dense array all take dense LU.
    for mat in (_pentadiagonal(201, np.random.default_rng(6)),
                diags(np.arange(1.0, 8.0), format="csr"),
                csr_matrix(np.array([[2.0]])), np.eye(3)):
        fac = factorize(mat)
        assert isinstance(fac, DenseFactorization)
        assert (fac.kind, fac.bandwidth) == ("dense", None)


@pytest.mark.parametrize("x0, x1, n_elems", [(-30.0, 30.0, 500),
                                             (-120.0, 120.0, 4000)])
def test_condensed_solve_every_flagship_shift(flagship, x0, x1, n_elems):
    sysm, mesh = _barrier_pencil(x0, x1, n_elems)
    u0 = project_initial(mesh, WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0),
                         PhysicalConstants(), sysm.B)
    rng = np.random.default_rng(7)
    rhs = [1j * (sysm.B @ u0),
           rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)]
    shifted = [(2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
               for sigma in flagship.shifts]
    stacked = factorize(*shifted)
    assert isinstance(stacked, CondensedFactorization)
    stacked_x = [stacked.solve(b) for b in rhs]
    for j, mat in enumerate(shifted):
        fac = factorize(mat)
        assert isinstance(fac, CondensedFactorization)
        lu = splu(mat.tocsc())
        for b, xs in zip(rhs, stacked_x):
            x = fac.solve(b)[0]
            ref = lu.solve(b)
            assert np.linalg.norm(mat @ x - b) <= 1e-12 * np.linalg.norm(b)
            assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
            # Row j of the stacked solve is the single-matrix solve.
            assert xs[j].tobytes() == x.tobytes()


@pytest.mark.parametrize("size", [16, 8, 1])
def test_shifted_factorization_is_factorize_bitwise(flagship, size):
    # Desk scale: the stacks built from the pencil's diagonals solve, byte
    # for byte, as those factored from the built shifted matrices, and keep
    # no matrices; solving into rows of a larger block gives the same bytes.
    sysm, mesh = _barrier_pencil(-30.0, 30.0, 500)
    u0 = project_initial(mesh, WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0),
                         PhysicalConstants(), sysm.B)
    rng = np.random.default_rng(11)
    rhs = [1j * (sysm.B @ u0),
           rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)]
    for lo in range(0, flagship.K, size):
        shifts = flagship.shifts[lo:lo + size]
        fac = solvers.factorize_shifted(sysm.A, sysm.B, 2e-4, shifts)
        ref = factorize(*((2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
                          for sigma in shifts))
        assert isinstance(fac, CondensedFactorization)
        assert fac.K == size and not hasattr(fac, "matrices")
        for b in rhs:
            x = fac.solve(b)
            assert x.tobytes() == ref.solve(b).tobytes()
            block = np.full((size + 2, sysm.n_dof), np.nan, dtype=complex)
            rows = block[1:-1]
            assert fac.solve(b, out=rows) is rows
            assert rows.tobytes() == x.tobytes()
            assert np.isnan(block[[0, -1]]).all()


def test_shifted_factorization_of_other_pencils(flagship):
    # A pencil without the P2 pattern builds its shifted matrices: dense
    # LU up to DENSE_ORACLE_MAX_DOF, refused above, naming the stack's
    # first shift.
    def tridiagonal(n, centre):
        return diags([np.full(n - 1, -1.0), np.full(n, centre),
                      np.full(n - 1, -1.0)], offsets=[-1, 0, 1], format="csr")

    shifts = flagship.shifts[:3]
    n = DENSE_ORACLE_MAX_DOF
    a_mat, b_mat = tridiagonal(n, 4.0), tridiagonal(n, 6.0)
    fac = solvers.factorize_shifted(a_mat, b_mat, 0.5, shifts)
    assert isinstance(fac, DenseFactorization)
    assert fac.K == 3 and not hasattr(fac, "matrices")
    b = np.random.default_rng(12).standard_normal(n)
    for sigma, x in zip(shifts, fac.solve(b)):
        mat = 0.5 * a_mat - 1j * sigma * b_mat
        assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) < 1e-10
    with pytest.raises(SolverError, match=rf"order {n + 1}\b") as raised:
        solvers.factorize_shifted(tridiagonal(n + 1, 4.0),
                                  tridiagonal(n + 1, 6.0), 0.5, shifts)
    assert raised.value.index == 0


def test_condensed_solve_shapes_keep_the_input(flagship, fem):
    sysm = fem[0]
    mat = (0.02 * sysm.A - (1j * flagship.shifts[3]) * sysm.B).tocsr()
    fac = factorize(mat)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)
    kept = b.copy()
    assert fac.solve(b).shape == (1, sysm.n_dof)
    assert np.array_equal(b, kept)
    real = b.real.copy()
    assert np.max(np.abs(mat @ fac.solve(real)[0] - real)) < 1e-12 * np.max(np.abs(real))
    for wrong in (np.ones(sysm.n_dof + 1), np.ones((sysm.n_dof, 2))):
        with pytest.raises(ValueError, match="does not match"):
            fac.solve(wrong)


def test_factorizations_refuse_a_right_hand_side_of_another_shape(fem):
    # Too long, a column block, an (n, 1) column and a 0-d array.
    rng = np.random.default_rng(26)
    dense = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b_mat = fem[0].B
    for fac, n in ((factorize(np.array([[2.0]])), 1), (factorize(dense), 6),
                   (factorize(b_mat), b_mat.shape[0])):
        for wrong in (np.ones(n + 1), np.ones((n, 2)), np.ones((n, 1)),
                      np.array(1.0)):
            with pytest.raises(ValueError, match=re.escape(
                    f"right-hand side of shape {wrong.shape} does not match "
                    f"a system of order {n}")):
                fac.solve(wrong)


def test_condensed_solve_shared_across_threads(flagship):
    # More threads than cores share one factorization; every call keeps
    # its own buffers and info, so each result equals the serial one bitwise.
    sysm, _ = _barrier_pencil(-30.0, 30.0, 150)
    fac = factorize((2e-4 * sysm.A - (1j * flagship.shifts[1]) * sysm.B).tocsr())
    assert isinstance(fac, CondensedFactorization)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal((16, sysm.n_dof)) + 1j * rng.standard_normal(
        (16, sysm.n_dof))
    expected = [fac.solve(b).tobytes() for b in rhs]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [fac.solve(b).tobytes() for b in rhs])
                       for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old_interval)
    assert all(r == expected for r in results)


def test_zero_midpoint_pivot_names_index(flagship):
    # Three elements give 5 DOFs; DOF 2 is the middle element's midpoint.
    sysm, _ = _barrier_pencil(-3.0, 3.0, 3)
    sigma0 = complex(flagship.shifts[0])
    a_mat = sysm.A.astype(complex).tolil()
    a_mat[2, 2] = 1j * sigma0 * sysm.B[2, 2]
    shifted = (a_mat.tocsr() - (1j * sigma0) * sysm.B).tocsr()
    assert shifted[2, 2] == 0
    with pytest.raises(SolverError, match="midpoint pivot at index 2"):
        factorize(shifted)
    sys_zero = SystemMatrices(A=a_mat.tocsr(), B=sysm.B)
    with pytest.raises(SolverError, match=r"j = 0 .*midpoint pivot at index 2"):
        rexi_prepare(sys_zero, flagship, 1.0, sr_value=1.0, workers=1)


def test_zero_vertex_row_names_its_matrix(flagship):
    # Eight elements give 15 DOFs and 7 vertices.  In shift 1's matrix the
    # vertex DOF 7 has an all-zero row and column, so its stacked Schur
    # complement has a zero pivot at global row m + 3 of the one zgttrf.
    sysm, _ = _barrier_pencil(-3.0, 3.0, 8)
    sigma1 = 1j * complex(flagship.shifts[1])
    a_mat = sysm.A.astype(complex).tolil()
    a_mat[7, :] = sigma1 * sysm.B[7, :].toarray()
    a_mat[:, 7] = sigma1 * sysm.B[:, 7].toarray()
    sys_zero = SystemMatrices(A=a_mat.tocsr(), B=sysm.B)
    shifted = [(sys_zero.A - (1j * sigma) * sysm.B).tocsr()
               for sigma in flagship.shifts[:3]]
    assert not shifted[1][7].count_nonzero()
    assert not shifted[1][:, 7].count_nonzero()
    with pytest.raises(SolverError, match="Schur complement at index 7") as raised:
        factorize(*shifted)
    assert raised.value.index == 1
    with pytest.raises(SolverError, match=r"j = 1 \(sigma = "):
        rexi_prepare(sys_zero, flagship, 1.0, sr_value=1.0, workers=1)


def _five_dof_p2(mids, verts, coupling):
    """A P2 matrix of order 5 (midpoints 0, 2, 4; vertices 1, 3) with no
    midpoint-vertex coupling, so its vertex Schur complement is the 2x2
    block [[verts[0], coupling], [coupling, verts[1]]]."""
    mat = np.diag([mids[0], verts[0], mids[1], verts[1], mids[2]])
    mat[1, 3] = mat[3, 1] = coupling
    return csr_matrix(mat)


def test_condensed_pivot_screen_names_the_smallest_pivot_of_either_kind():
    # The screen compares, per matrix, the smallest and largest magnitude
    # over its midpoint pivots and the diagonal of its Schur complement's U.
    # Matrix 1 fails at ratio 2**-62 through a midpoint pivot or through a
    # Schur pivot (zgttrf makes 2**-59 - 2**-60 exactly), matrix 2 at a
    # smaller ratio; the first failing matrix is named.
    tiny, top = 2.0 ** -60, 4.0
    good = _five_dof_p2((2.0, 3.0, top), (1.0, 1.5), 2.0 ** -30)
    worse = _five_dof_p2((2.0, 2.0 ** -70, top), (1.0, 1.5), 2.0 ** -30)
    for bad in (_five_dof_p2((2.0, tiny, top), (1.0, 1.5), 2.0 ** -30),
                _five_dof_p2((2.0, 3.0, top), (1.0, 2.0 ** -59), 2.0 ** -30)):
        with pytest.raises(SolverError, match=re.escape(
                f"pivot ratio = {tiny / top:.3e})")) as raised:
            factorize(good, bad, worse)
        assert raised.value.index == 1


def test_factorizations_refuse_an_empty_stack(fem):
    sysm = fem[0]
    with pytest.raises(ValueError, match="K >= 1"):
        factorize()
    scalar = scalar_system(2.0)
    for a_mat, b_mat in ((sysm.A, sysm.B), (scalar.A, scalar.B)):
        for shifts in ([], np.array([], dtype=complex)):
            with pytest.raises(ValueError, match="K >= 1"):
                solvers.factorize_shifted(a_mat, b_mat, 0.02, shifts)


@pytest.mark.parametrize("x0, x1, n_elems, potential", [
    (-30.0, 30.0, 500, "step"), (-120.0, 120.0, 4000, "step"),
    (-12.0, 12.0, 64, "zero"), (-3.0, 3.0, 3, "step")])
def test_pencil_apply_is_product_then_b_solve(x0, x1, n_elems, potential):
    # Desk and full scale with the benchmark's barrier, a zero-potential
    # mesh, and the smallest mesh with the P2 pattern (5 DOFs).
    sysm = assemble_system(build_mesh(x0, x1, n_elems),
                           PotentialSpec(potential, 15.0, 0.005),
                           PhysicalConstants())
    op = solvers.factorize_pencil(sysm.A, sysm.B)
    assert op.kind == "condensed"
    b_fac, a_complex = factorize(sysm.B), sysm.A.astype(complex)
    rng = np.random.default_rng(22)
    for _ in range(3):
        b = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(
            sysm.n_dof)
        kept = b.copy()
        want = b_fac.solve(a_complex @ b)[0]
        got = op.apply(b)
        assert np.array_equal(b, kept)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        out = np.full(sysm.n_dof, np.nan, dtype=complex)
        assert op.apply(b, out=out) is out
        assert out.tobytes() == got.tobytes()
        assert op.apply(kept, out=kept).tobytes() == got.tobytes()


def test_pencil_of_other_systems_is_product_then_solve_bitwise():
    # No P2 pattern: the product with A in complex storage, then
    # factorize(B)'s solve, byte for byte.
    rng = np.random.default_rng(23)
    for sysm in (scalar_system(3.0),
                 SystemMatrices(A=diags(np.arange(-2.0, 3.0), format="csr"),
                                B=identity(5, format="csr")),
                 random_pencil(rng, 6)[0]):
        op = solvers.factorize_pencil(sysm.A, sysm.B)
        assert op.kind == "dense"
        b = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(
            sysm.n_dof)
        want = factorize(sysm.B).solve(sysm.A.astype(complex) @ b)[0]
        assert op.apply(b).tobytes() == want.tobytes()
        out = np.empty_like(b)
        assert op.apply(b, out=out) is out
        assert out.tobytes() == want.tobytes()


def _with_b(sysm, entries):
    b_mat = sysm.B.tolil()
    for (i, j), value in entries.items():
        b_mat[i, j] = value
    return SystemMatrices(A=sysm.A, B=b_mat.tocsr())


def test_pencil_refuses_singular_b_as_factorize_does():
    # Five elements give 9 DOFs: midpoints 0, 2, .., 8, vertices 1, 3, 5, 7.
    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    zero_row = {(3, j): 0.0 for j in range(1, 6)}
    zero_row.update({(j, 3): 0.0 for j in range(1, 6)})
    cases = [(_with_b(sysm, {(2, 2): 0.0}), "zero midpoint pivot at index 2"),
             (_with_b(sysm, zero_row),
              "Schur complement at index 3")]
    for bad, message in cases:
        with pytest.raises(SolverError, match=message) as want:
            factorize(bad.B)
        with pytest.raises(SolverError, match=message) as got:
            solvers.factorize_pencil(bad.A, bad.B)
        assert str(got.value) == str(want.value)
        with pytest.raises(SolverError, match=message):
            chebyshev_prepare(bad, 0.01, sr_value=1.0)


def test_pencil_serves_any_nonsingular_p2_b():
    # B indefinite (a negated midpoint pivot), not symmetric, or complex:
    # still the product with A, then the solve with B.
    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    b_mat = sysm.B
    rng = np.random.default_rng(24)
    for pencil in (_with_b(sysm, {(4, 4): -b_mat[4, 4]}),
                   _with_b(sysm, {(3, 4): 2.0 * b_mat[3, 4]}),
                   SystemMatrices(A=sysm.A, B=(1.0 + 0.5j) * b_mat)):
        op = solvers.factorize_pencil(pencil.A, pencil.B)
        assert op.kind == "condensed"
        b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        want = factorize(pencil.B).solve(pencil.A.astype(complex) @ b)[0]
        assert np.max(np.abs(op.apply(b) - want)) <= 1e-13 * np.max(
            np.abs(want))


def test_pencil_of_float32_matrices_is_that_of_their_doubles():
    sysm, _ = _barrier_pencil(-30.0, 30.0, 500)
    a32, b32 = sysm.A.astype(np.float32), sysm.B.astype(np.float32)
    op32 = solvers.factorize_pencil(a32, b32)
    op64 = solvers.factorize_pencil(a32.astype(float), b32.astype(float))
    b = np.random.default_rng(25).standard_normal(sysm.n_dof) + 0j
    assert op32.apply(b).tobytes() == op64.apply(b).tobytes()


def test_pencil_refuses_a_right_hand_side_of_the_wrong_length(fem):
    for sysm in (fem[0], scalar_system(2.0)):
        op = solvers.factorize_pencil(sysm.A, sysm.B)
        n = sysm.n_dof
        for wrong in (np.ones(n + 1), np.ones((n, 2))):
            with pytest.raises(ValueError, match=re.escape(
                    f"{wrong.shape} does not match a pencil of shape "
                    f"{(n, n)}")):
                op.apply(wrong)


def test_prepares_time_the_factorization(flagship, fem):
    sysm, _, _, sr = fem
    with rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1) as stp:
        assert stp.solver == "condensed"
        assert stp.timers["factor"] > 0
    cheb = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    assert cheb.solver == "condensed"
    assert cheb.timers["factor"] > 0
    assert chebyshev_prepare(scalar_system(1.0), 1.0,
                             sr_value=1.0).solver == "dense"


def test_pooled_step_matches_serial_bitwise(flagship, fem, monkeypatch):
    # More solving threads than cores, with a short switch interval: the
    # sum taken while helpers still solve must equal the serial one.
    sysm, _, u0, sr = fem
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 16)
    serial = rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=1)
    expected = rexi_run(serial, u0, 5).tobytes()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with rexi_prepare(sysm, flagship, 0.02, sr_value=sr,
                          workers=16) as pooled:
            assert pooled._helpers == 15
            assert rexi_run(pooled, u0, 5).tobytes() == expected
    finally:
        sys.setswitchinterval(old_interval)


def test_solving_threads_never_exceed_cpus(flagship, fem, monkeypatch):
    sysm, _, _, sr = fem
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 2)
    with rexi_prepare(sysm, flagship, 0.02, sr_value=sr, workers=16) as stp:
        assert stp.workers == 16
        assert stp._helpers == 1
