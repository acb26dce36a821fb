"""Tests for time stepping: REXI, Chebyshev/Clenshaw, and the dense oracle."""

import math
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


def test_prepare_refuses_workers_that_are_not_integers(flagship):
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match=re.escape(
                f"workers must be an integer, got {bad!r}")):
            rexi_prepare(scalar_system(1.0), flagship, 1.0, sr_value=1.0,
                         workers=bad)
    with rexi_prepare(scalar_system(1.0), flagship, 1.0, sr_value=1.0,
                      workers=np.int64(2)) as stp:
        assert stp.workers == 2 and type(stp.workers) is int


def test_steppers_refuse_a_spectral_radius_or_step_not_finite(flagship,
                                                              monkeypatch):
    # A negative or non-finite sr_value, or an infinite tau, is refused by
    # both steppers before anything is factored.  With sr_value = -1 the
    # admissibility ratio was negative, so any tau ran ungated; tau = inf
    # ran a Chebyshev step to a NaN state with override.
    def no_work(*args, **kwargs):
        raise AssertionError("factored")

    monkeypatch.setattr(integrate, "factorize_shifted", no_work)
    monkeypatch.setattr(integrate, "factorize_pencil", no_work)
    sysm = scalar_system(1.0)
    build = (lambda tau, sr: rexi_prepare(sysm, flagship, tau, sr_value=sr,
                                          workers=1),
             lambda tau, sr: chebyshev_prepare(sysm, tau, sr_value=sr,
                                               override_admissibility=True))
    for prepare in build:
        for sr in (-1.0, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"sr_value must be finite and >= 0, got {sr}")):
                prepare(1.0, sr)
        with pytest.raises(ValueError, match="tau must be finite, got inf"):
            prepare(math.inf, 1.0)


def test_integer_arguments_are_refused_unless_integers(flagship):
    # Degrees and step counts: a float or a bool is refused naming the
    # value; a numpy integer is taken as the int it holds.
    sysm = scalar_system(1.0)
    u0 = np.array([1.0 + 0.0j])
    for bad in (26.0, 2.5, True):
        message = re.escape(f"degree must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=message):
            chebyshev_coeffs(10.0, bad)
        with pytest.raises(ValueError, match=message):
            chebyshev_prepare(sysm, 0.1, degree=bad, sr_value=1.0)
    with pytest.raises(ValueError, match="interval radius must be finite, "
                       "got inf"):
        chebyshev_coeffs(math.inf, 26)
    cheb = chebyshev_prepare(sysm, 0.1, degree=np.int64(26), sr_value=1.0)
    assert cheb.degree == 26 and type(cheb.degree) is int
    assert cheb.coeffs.tobytes() == chebyshev_coeffs(10.0, 26).coeffs.tobytes()
    rexi = rexi_prepare(sysm, flagship, 0.1, sr_value=1.0, workers=1)
    for stp in (rexi, cheb):
        for bad in (2.0, 2.5, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"n_steps must be an integer, got {bad!r}")):
                stp.run(u0, bad)
        assert (stp.run(u0, np.int64(2)).tobytes()
                == stp.run(u0, 2).tobytes())


def test_steppers_refuse_a_state_of_another_length(flagship):
    # 9 DOFs: a state of 7 entries or a (9, 2) block is refused by run,
    # for any number of steps, and by step, naming the system's order;
    # REXI refuses before its product with iB, and Chebyshev's step
    # through its pencil.
    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    rexi = rexi_prepare(sysm, flagship, 1e-4, sr_value=1.0, workers=1)
    rexi._iB = None  # a product would raise TypeError, not ValueError
    cheb = chebyshev_prepare(sysm, 1e-4, sr_value=1.0)
    for wrong in (np.ones(7), np.ones((9, 2))):
        for stp in (rexi, cheb):
            message = re.escape(f"{stp.kind} state of shape {wrong.shape} "
                                f"does not match a system of order 9")
            for n_steps in (0, 1, 3):
                with pytest.raises(ValueError, match=message):
                    stp.run(wrong, n_steps)
            if stp is rexi:
                with pytest.raises(ValueError, match=message):
                    stp.step(wrong)
        with pytest.raises(ValueError, match=re.escape(
                f"{wrong.shape} does not match a pencil of shape (9, 9)")):
            cheb.step(wrong)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_full_scale_step_is_the_plain_ascending_sum(flagship, workers,
                                                    monkeypatch):
    # Full scale (7999 DOF, the pooled path at two workers): the step is
    # w_0*X_0 + w_1*X_1 + ... over the rows of the stacked natural-order
    # solve, added in ascending j, byte for byte, though each stack solves
    # into contiguous midpoint and vertex blocks and weights its own rows.
    sysm, mesh = _barrier_pencil(-120.0, 120.0, 4000)
    u0 = project_initial(mesh, WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0),
                         PhysicalConstants(), sysm.B)
    shifted = [(2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
               for sigma in flagship.shifts]
    rows = factorize(*shifted).solve((1j * sysm.B).tocsr() @ u0)
    expected = flagship.weights[0] * rows[0]
    for weight, row in zip(flagship.weights[1:], rows[1:]):
        expected = expected + weight * row
    monkeypatch.setattr(integrate, "_usable_cpus", lambda: 2)
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
    zgttrs = solvers.zgttrs
    with rexi_prepare(sysm, flagship, 0.02, sr_value=sr,
                      workers=workers) as stp:
        # The stack holding shift 5, found by its pivot array: the stacks
        # hold the shifts in order, one zgttrs call apiece.
        sizes = [fac.K for fac in stp.factorizations]
        c = int(np.searchsorted(np.cumsum(sizes), 5, side="right"))
        ipiv = stp.factorizations[c]._factors[4]
        first = sum(sizes[:c])

        def stack_fails(*args, **kwargs):
            x, info = zgttrs(*args, **kwargs)
            return x, (-3 if args[4] is ipiv else info)

        monkeypatch.setattr(solvers, "zgttrs", stack_fails)
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


def _chebval_sup_error(r, coeffs, points=100_001, dtype=float):
    """Largest |chebval(x, coeffs) - exp(i r x)| on ``points`` equispaced
    x in [-1, 1], evaluated in ``dtype`` (float or np.longdouble) from the
    float64 coefficients, 2**14 points at a time."""
    x = np.linspace(-1.0, 1.0, points).astype(dtype)
    c = coeffs.astype(np.result_type(dtype, 1j))
    r = dtype(r)
    return max(float(np.max(np.abs(chebval(xb, c) - np.exp(1j * r * xb))))
               for xb in np.split(x, range(2 ** 14, points, 2 ** 14)))


def _certificate_cases():
    """(r, coefficients, sup_error) of chebyshev_coeffs at n = 1, 2
    (chebval's short branches), 26 (the comparison method), 40 at r = 20,
    seeded random (r, n), and of the reference on the desk system."""
    rng = np.random.default_rng(21)
    cases = [(10.0, 1), (10.0, 2), (10.0, 26), (20.0, 40)]
    cases += [(float(rng.uniform(0.1, 60.0)), int(rng.integers(1, 120)))
              for _ in range(8)]
    out = []
    for r, n in cases:
        cc = chebyshev_coeffs(r, n)
        out.append((r, cc.coeffs, cc.sup_error))
    sysm, _ = _barrier_pencil(-30.0, 30.0, 500)
    ref = chebyshev_reference(sysm, 0.02)
    assert ref.degree == 83
    out.append((ref.interval_radius, ref.coeffs, ref.sup_error))
    return out


def test_chebyshev_certificate_is_a_bound():
    # Above what float64 evaluation reads on 1,000,001 points, and within
    # 1.3x of a 100,001-point grid where the truncation dominates (1.19x
    # and 1.25x).
    for r, coeffs, sup in _certificate_cases():
        assert sup >= _chebval_sup_error(r, coeffs, 1_000_001), (
            r, coeffs.size)
    for r, n in ((10.0, 26), (20.0, 40)):
        cc = chebyshev_coeffs(r, n)
        assert cc.sup_error <= 1.3 * _chebval_sup_error(r, cc.coeffs)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == EPS,
                    reason="np.longdouble is float64 here, so an evaluation "
                    "in it would not separate the coefficients' error from "
                    "the evaluation's rounding")
def test_chebyshev_certificate_bounds_the_coefficients_own_error():
    # Evaluated in extended precision, the float64 coefficients' error is
    # their own: past the truncation, the rounding of the samples (1.4e-14
    # on the desk reference, whose truncation term is 2.9e-16).
    for r, coeffs, sup in _certificate_cases():
        assert sup >= _chebval_sup_error(r, coeffs, dtype=np.longdouble), (
            r, coeffs.size)


def test_bessel_j_matches_scipy():
    from scipy.special import jv

    rng = np.random.default_rng(26)
    radii = np.concatenate([[0.05, 10.0, 44.06, 1753.15, 6000.0],
                            np.exp(rng.uniform(np.log(0.05), np.log(6000.0),
                                               10))])
    for r in radii:
        count = 2 * math.ceil(r) + 40
        got = integrate._bessel_j(float(r), count)
        k = np.arange(count + 1)
        want = jv(k, r)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13, r
        tail = (np.abs(want) > 1e-290) & (k >= r)
        assert np.all(np.abs(got[tail] - want[tail])
                      <= 1e-11 * np.abs(want[tail])), r


def _list_bessel_j(r, count):
    """Miller's recurrence as a Python list rebuilt on every rescale (the
    form ``_bessel_j`` had before it ran in one array), and the number of
    rescales it made."""
    start = max(count, 2 * math.ceil(r)) + 32
    j = [0.0] * (start + 2)
    j[start] = 1.0
    rescales = 0
    for k in range(start, 0, -1):
        j[k - 1] = 2 * k / r * j[k] - j[k + 1]
        if abs(j[k - 1]) > 2.0 ** 600:
            j = [v * 2.0 ** -600 for v in j]
            rescales += 1
    values = np.array(j[:-1])
    return values[:count + 1] / (values[0] + 2 * values[2::2].sum()), rescales


def test_bessel_j_is_the_list_recurrence_bitwise():
    # The in-place rescale of the one array moves no bit: each live entry
    # is scaled by the same power of two, in the same order, as the list
    # rebuild scaled it, at radii where the rescale fires 0 to 43 times
    # (once at r = 0.05, where the start's 2k/r is about 3000).
    for r, rescales in ((0.05, 1), (10.0, 0), (44.06, 0), (1753.15, 4),
                        (2e4, 43)):
        count = 2 * math.ceil(r) + 40
        want, made = _list_bessel_j(r, count)
        got = integrate._bessel_j(r, count)
        assert made == rescales, r
        assert got.dtype == want.dtype and got.shape == want.shape, r
        assert got.tobytes() == want.tobytes(), r


def test_bessel_j_peak_memory_is_about_its_result():
    # One float64 array of about 2r entries and its normalized slice: the
    # traced peak stays below 3x the result (it was 8x while the
    # recurrence ran in a list, rebuilt on every rescale and then copied).
    integrate._bessel_j(10.0, 40)  # warm-up
    tracemalloc.start()
    try:
        result = integrate._bessel_j(2e4, 40040)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * result.nbytes, (peak, result.nbytes)


def test_chebyshev_certificate_peak_memory():
    # The certificate holds the coefficients and the Bessel values only:
    # about 4 kB traced at degree 26.
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
    # One pencil application (one vertex solve) per degree, each in the
    # operator's condensed order, and the bits of
    # b_k = a_k u + 2 S b_{k+1} - b_{k+2} from b_{N+1} = b_{N+2} = 0, with
    # S = scale * B^-1 A applied by the stepper's own operator.
    sysm, _, u0, sr = fem
    stp = chebyshev_prepare(sysm, 0.02, sr_value=sr)
    apply, apply_parts = stp.operator.apply, stp.operator.apply_parts
    calls = []

    def counting_apply_parts(src, out=None):
        calls.append(1)
        return apply_parts(src, out)

    stp.operator.apply_parts = counting_apply_parts
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
    # Neither importing the package nor building a Chebyshev stepper or a
    # reference loads scipy.special: it costs about 30 ms and 2.4 MB, inside
    # a stepper's timed construction.
    src = os.path.dirname(os.path.dirname(integrate.__file__))
    code = (
        "import sys, rexiprop\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        "from rexiprop import (ChebyshevStepper, PhysicalConstants,\n"
        "                      PotentialSpec, assemble_system, build_mesh,\n"
        "                      chebyshev_reference)\n"
        "sysm = assemble_system(build_mesh(-12.0, 12.0, 64),\n"
        "                       PotentialSpec(kind='step', v_max=1.0,\n"
        "                                     c_barr=2.0),\n"
        "                       PhysicalConstants())\n"
        "ChebyshevStepper(sysm, 1e-3, degree=26)\n"
        "chebyshev_reference(sysm, 0.02)\n"
        "loaded.append('scipy.special' in sys.modules)\n"
        "sys.exit(str(loaded) if any(loaded) else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    for args, name in (((math.nan, 1.0), "sup_error"),
                       ((math.inf, 1.0), "sup_error"),
                       ((1e-9, math.inf), "cond_inf"),
                       ((1e-9, math.nan), "cond_inf")):
        with pytest.raises(ValueError,
                           match=f"{name} must be finite and >= 0"):
            rexi_error_bound(*args)


def test_dense_expm_refuses_a_tau_not_finite_or_a_misshaped_state(
        monkeypatch):
    # The 11-DOF zero-potential system: a length-3 or (11, 1) state and a
    # NaN or infinite tau are refused before the decomposition is built
    # (they raised numpy's matmul error, or returned an all-NaN state).
    mesh = build_mesh(-5.0, 5.0, 6)
    sysm = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    u = np.ones(sysm.n_dof, dtype=complex)

    def no_work(*args, **kwargs):
        raise AssertionError("did work")

    monkeypatch.setattr(integrate, "dense_decomposition", no_work)
    for tau in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"tau must be finite, got {tau}"):
            dense_expm_apply(sysm, tau, u)
    for bad in (np.ones(3), np.ones((sysm.n_dof, 1))):
        with pytest.raises(ValueError, match=re.escape(
                f"oracle state of shape {bad.shape} does not match a "
                f"system of order {sysm.n_dof}")):
            dense_expm_apply(sysm, 0.01, bad)


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


def _stacks_of_one_and_three(flagship):
    """Stacks of 1 and 3 flagship shifts, condensed on the 5-DOF (smallest)
    P2 mesh and at desk scale, and dense on a 6x6 pencil."""
    rng = np.random.default_rng(27)
    dense = rng.standard_normal((6, 6))
    pencils = (_barrier_pencil(-3.0, 3.0, 3)[0],
               _barrier_pencil(-30.0, 30.0, 500)[0],
               SystemMatrices(A=csr_matrix(dense + dense.T),
                              B=csr_matrix(np.eye(6) * 2.0)))
    for sysm in pencils:
        for size in (1, 3):
            yield solvers.factorize_shifted(sysm.A, sysm.B, 2e-4,
                                            flagship.shifts[5:5 + size])


def test_solve_is_the_core_solve_interleaved(flagship):
    # The natural-order solve splits b into the parts the core solve
    # reads (contiguous copies of its midpoints and vertices, or of the
    # whole vector), and interleaves the core solve's blocks, byte for byte.
    kinds = []
    for fac in _stacks_of_one_and_three(flagship):
        kinds.append((fac.kind, fac._n, fac.K))
        b = [1, 1j] @ np.random.default_rng(fac._n).standard_normal((2, fac._n))
        parts = fac.split(b)
        expected = ((b[0::2], b[1::2]) if fac.kind == "condensed" else (b,))
        assert len(parts) == len(expected)
        for part, want in zip(parts, expected):
            assert part.flags.c_contiguous and part.dtype == complex
            assert part.tobytes() == np.ascontiguousarray(want).tobytes()
        blocks = tuple(np.empty((fac.K, part.size), dtype=complex)
                       for part in parts)
        assert fac.solve_parts(parts, blocks) is None
        natural = fac.solve(b)
        assert natural.shape == (fac.K, fac._n)
        assert fac.join(blocks).tobytes() == natural.tobytes()
        if fac.kind == "condensed":
            assert natural[:, 0::2].tobytes() == blocks[0].tobytes()
            assert natural[:, 1::2].tobytes() == blocks[1].tobytes()
        else:
            assert natural.tobytes() == blocks[0].tobytes()
    assert kinds == [("condensed", 5, 1), ("condensed", 5, 3),
                     ("condensed", 999, 1), ("condensed", 999, 3),
                     ("dense", 6, 1), ("dense", 6, 3)]


def test_smallest_p2_solve_is_a_row_of_a_stack_of_two(flagship):
    # One 5-DOF matrix has a vertex complement of order 2, which LAPACK's
    # wrappers refuse; it is padded with a decoupled unit row.  Its solve
    # is byte for byte each row of the same matrix stacked twice (order 4,
    # no pad), for every flagship shift.
    sysm = _barrier_pencil(-3.0, 3.0, 3)[0]
    b = [1, 1j] @ np.random.default_rng(5).standard_normal((2, 5))
    for sigma in flagship.shifts:
        mat = (2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
        one, two = factorize(mat), factorize(mat, mat)
        assert (one.kind, one.K, two.K) == ("condensed", 1, 2)
        row = one.solve(b)[0]
        for twin in two.solve(b):
            assert twin.tobytes() == row.tobytes()


def test_core_solve_refuses_parts_of_another_shape_or_layout(flagship,
                                                             monkeypatch):
    # Wrong parts raise a ValueError naming the system's order before any
    # LAPACK call, and leave the solution blocks unwritten.
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(solvers, "zgttrs", no_lapack)
    monkeypatch.setattr(solvers, "lu_solve", no_lapack)
    for fac in _stacks_of_one_and_three(flagship):
        n, k = fac._n, fac.K
        parts = fac.split(np.ones(n))
        blocks = [np.full((k, part.size), np.nan, dtype=complex)
                  for part in parts]
        long = [np.ones(part.size + 1, dtype=complex) for part in parts]
        strided = [np.full((k, 2 * part.size), np.nan, dtype=complex)[:, ::2]
                   for part in parts]
        wrong = [
            (parts[:-1], blocks[:-1] if len(blocks) > 1 else []),  # a part short
            (long, blocks),
            (parts, [block[:, :-1] for block in blocks]),
            (parts, [np.full((k + 1, part.size), np.nan, dtype=complex)
                     for part in parts]),
            (parts, strided),  # each row strided
            (parts, [block.real.copy() for block in blocks]),
            (parts, [block.tolist() for block in blocks]),
        ]
        if k > 1:  # a one-row block in column order is also C-contiguous
            wrong.append((parts, [np.asfortranarray(block)
                                  for block in blocks]))
        for b_parts, x_parts in wrong:
            with pytest.raises(ValueError, match=rf"\bof order {n}\b"):
                fac.solve_parts(b_parts, x_parts)
        assert all(np.isnan(block).all() for block in blocks + strided)


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


def test_factorize_shifted_refuses_shifts_not_one_dimensional(monkeypatch):
    # A scalar shift and a (1, 2) array, on the 11-DOF zero-potential
    # pencil, are refused before any work, naming the shape (they raised
    # a TypeError on len() and numpy's broadcast error).
    def no_work(*args, **kwargs):
        raise AssertionError("did work")

    sysm = assemble_system(build_mesh(-5.0, 5.0, 6), PotentialSpec.zero(),
                           PhysicalConstants())
    for name in ("_check_square", "_is_p2", "_HalfDiagonals",
                 "CondensedFactorization", "DenseFactorization"):
        monkeypatch.setattr(solvers, name, no_work)
    for shifts, shape in ((np.complex128(1.0 + 2.0j), ()), (3.0, ()),
                          (np.ones((1, 2)), (1, 2)),
                          (np.ones((0, 2)), (0, 2))):
        with pytest.raises(ValueError, match=re.escape(
                f"factorize_shifted needs a 1-D array of shifts, got shape "
                f"{shape}")):
            solvers.factorize_shifted(sysm.A, sysm.B, 0.02, shifts)


def test_factorize_refuses_matrices_not_square_of_one_order(monkeypatch):
    # Sparse P2 matrices of 9 and 11 DOFs, dense arrays of orders 3 and 4,
    # mixed stacks and arrays that are not square: refused before any
    # work, naming the position j and both shapes.
    def no_work(*args, **kwargs):
        raise AssertionError("factorize did work")

    b9, b11 = (_barrier_pencil(-5.0, 5.0, n)[0].B for n in (5, 6))
    for name in ("_is_p2", "CondensedFactorization", "DenseFactorization"):
        monkeypatch.setattr(solvers, name, no_work)
    cases = [((b9, b11), 1, (11, 11), (9, 9)),
             ((np.eye(3), np.eye(4)), 1, (4, 4), (3, 3)),
             ((b9, np.eye(9), np.eye(8)), 2, (8, 8), (9, 9)),
             ((b9, b9.toarray()[:, :-1]), 1, (9, 8), (9, 9)),
             ((np.ones((3, 4)),), 0, (3, 4), (3, 4)),
             ((np.ones(3),), 0, (3,), (3,))]
    for mats, j, shape, first in cases:
        with pytest.raises(ValueError, match=re.escape(
                f"one order: matrix j = {j} has shape {shape}, matrix 0 "
                f"has shape {first}")):
            factorize(*mats)


def test_pencil_factorizations_refuse_matrices_not_square_of_one_order(
        monkeypatch):
    # A 9-DOF P2 A with an 11-DOF P2 B, dense pencils of orders 3 and 4,
    # and a non-square A: refused before any work by factorize_shifted
    # and factorize_pencil, naming the function and both shapes.
    def no_work(*args, **kwargs):
        raise AssertionError("did work")

    (a9, b9), (a11, b11) = ((sysm.A, sysm.B) for sysm, _ in
                            (_barrier_pencil(-5.0, 5.0, n) for n in (5, 6)))
    for name in ("_is_p2", "_HalfDiagonals", "CondensedFactorization",
                 "DenseFactorization", "CondensedPencil", "DensePencil"):
        monkeypatch.setattr(solvers, name, no_work)
    cases = [((a9, b11), "B has shape (11, 11), A has shape (9, 9)"),
             ((a11, b9), "B has shape (9, 9), A has shape (11, 11)"),
             ((np.eye(3), np.eye(4)), "B has shape (4, 4), A has shape (3, 3)"),
             ((np.ones((3, 4)), np.eye(3)),
              "A has shape (3, 4), A has shape (3, 4)")]
    for (a_mat, b_mat), shapes in cases:
        for name, build in (
                ("factorize_shifted", lambda a_mat, b_mat:
                 solvers.factorize_shifted(a_mat, b_mat, 0.02, [1.0, 2.0])),
                ("factorize_pencil", solvers.factorize_pencil)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{name} needs square matrices of one order: {shapes}")):
                build(a_mat, b_mat)


def test_dense_pencil_takes_dense_lu_as_its_built_matrices(flagship):
    # A 6x6 dense pencil: factorize_shifted solves byte for byte as
    # factorize of the built shifted matrices (it used to call .tocoo on
    # an ndarray), and factorize_pencil takes the dense path.
    rng = np.random.default_rng(30)
    a_mat = rng.standard_normal((6, 6))
    a_mat, b_mat = a_mat + a_mat.T, 2.0 * np.eye(6)
    b = [1, 1j] @ rng.standard_normal((2, 6))
    shifts = flagship.shifts[3:7]
    assert not solvers._is_p2(a_mat) and not solvers._is_p2(np.eye(5))
    fac = solvers.factorize_shifted(a_mat, b_mat, 2e-4, shifts)
    built = [2e-4 * a_mat - (1j * sigma) * b_mat for sigma in shifts]
    assert (fac.kind, fac.K) == ("dense", 4)
    assert fac.solve(b).tobytes() == factorize(*built).solve(b).tobytes()
    assert solvers.factorize_pencil(a_mat, b_mat).kind == "dense"


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


def _indefinite_or_unsymmetric_or_complex_b(sysm):
    """The 9-DOF barrier pencil with B made indefinite (a negated midpoint
    pivot, which leaves the vertex complement positive definite, or a
    negated vertex diagonal, which does not), not symmetric, or complex."""
    b_mat = sysm.B
    return (_with_b(sysm, {(4, 4): -b_mat[4, 4]}),
            _with_b(sysm, {(3, 3): -b_mat[3, 3]}),
            _with_b(sysm, {(3, 4): 2.0 * b_mat[3, 4]}),
            SystemMatrices(A=sysm.A, B=(1.0 + 0.5j) * b_mat))


def test_pencil_serves_any_nonsingular_p2_b():
    # B indefinite (a negated midpoint pivot or vertex diagonal), not
    # symmetric, or complex: still the product with A, then the solve with B.
    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    rng = np.random.default_rng(24)
    for pencil in _indefinite_or_unsymmetric_or_complex_b(sysm):
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


class _ReferenceCondensation:
    """The condensation of one P2 matrix M, written from its half-diagonals
    ``M.diagonal(k)[p::2]`` with scipy's f2py ``zgttrf`` and ``zgttrs``:
    every product and subtraction with the operands and in the order that
    ``solvers`` documents, so its results are those of ``solvers`` byte
    for byte."""

    def __init__(self, mat):
        half = _half_diagonals(mat)
        self.inv_mid = 1.0 / half(0, 0)
        self.to_left, self.to_right = half(-1, 0), half(1, 1)
        self.from_left = half(1, 0) * self.inv_mid[:-1]
        self.from_right = half(-1, 1) * self.inv_mid[1:]
        # M_vv - M_vm M_mm^-1 M_mv, as zgttrf's dl, d, du.
        d, du, dl = self.vertex_diagonals(half, self.from_left,
                                          self.from_right)
        self.factor(dl, d, du)

    def factor(self, dl, d, du):
        *self.factors, info = sla.lapack.zgttrf(dl, d, du)
        assert info == 0

    def vertex_diagonals(self, half, from_left, from_right):
        """The diagonal, upper and lower diagonals of X_vv - M_vm M_mm^-1
        X_mv for the operand X of half-diagonals ``half``, whose scaled
        couplings M_mm^-1 X_mv are ``from_left`` and ``from_right``."""
        return (half(0, 1) - self.to_left * from_left
                - self.to_right * from_right,
                half(2, 1) - self.to_right[:-1] * from_left[1:],
                half(-2, 1) - self.to_left[1:] * from_right[:-1])

    def solve_vertices(self, rhs):
        x, info = sla.lapack.zgttrs(*self.factors, rhs)
        assert info == 0
        return x

    def recover(self, x_mid, x_vert):
        x_mid[:-1] -= self.from_left * x_vert
        x_mid[1:] -= self.from_right * x_vert
        return _interleave(x_mid, x_vert)

    def solve(self, b):
        b_mid, b_vert = b[0::2], b[1::2]
        x_mid = self.inv_mid * b_mid
        rhs = b_vert - self.to_left * x_mid[:-1] - self.to_right * x_mid[1:]
        return self.recover(x_mid, self.solve_vertices(rhs))


class _ReferenceLdlt(_ReferenceCondensation):
    """The same condensation of a P2 matrix whose vertex complement is real
    symmetric positive definite, its kernel LDL^T: scipy's f2py ``dpttrf``
    of the complement's real diagonals, then ``zpttrs``."""

    def factor(self, dl, d, du):
        assert np.array_equal(dl, du) and not (d.imag.any() or dl.imag.any())
        pivots, lower, info = sla.lapack.dpttrf(d.real, dl.real)
        assert info == 0
        self.factors = pivots, lower.astype(complex)

    def solve_vertices(self, rhs):
        x, info = sla.lapack.zpttrs(*self.factors, rhs)
        assert info == 0
        return x


def _half_diagonals(mat):
    """The reader ``(k, p) -> mat.diagonal(k)[p::2]`` in complex storage."""
    return lambda k, p: mat.diagonal(k)[p::2].astype(complex)


def _interleave(mid, vert):
    out = np.empty(mid.size + vert.size, dtype=complex)
    out[0::2], out[1::2] = mid, vert
    return out


def _reference_pencil_apply(a_mat, b_mat, b, reference=_ReferenceLdlt):
    """B^-1 A b by the documented pencil condensation: A condensed against
    B's factorization by ``reference`` (LDL^T by default, the kernel of an
    SPD B), then one vertex solve and the midpoint recovery."""
    fac = reference(b_mat)
    half = _half_diagonals(a_mat)
    a_mid = half(0, 0) * fac.inv_mid
    a_from_left = half(1, 0) * fac.inv_mid[:-1]
    a_from_right = half(-1, 1) * fac.inv_mid[1:]
    to_mid = half(-1, 0) - fac.to_left * a_mid[:-1]
    to_next = half(1, 1) - fac.to_right * a_mid[1:]
    vert, vert_up, vert_lo = fac.vertex_diagonals(half, a_from_left,
                                                  a_from_right)
    b_mid, b_vert = b[0::2].astype(complex), b[1::2].astype(complex)
    rhs = vert * b_vert
    rhs[:-1] += vert_up * b_vert[1:]
    rhs[1:] += vert_lo * b_vert[:-1]
    rhs += to_mid * b_mid[:-1]
    rhs += to_next * b_mid[1:]
    y_mid = b_mid * a_mid
    y_mid[:-1] += a_from_left * b_vert
    y_mid[1:] += a_from_right * b_vert
    return fac.recover(y_mid, fac.solve_vertices(rhs))


_REFERENCE_MESHES = [(-12.0, 12.0, 64), (-30.0, 30.0, 500),
                     (-120.0, 120.0, 4000)]


@pytest.mark.parametrize("x0, x1, n_elems", _REFERENCE_MESHES)
def test_condensed_solves_are_the_reference_bitwise(flagship, x0, x1,
                                                     n_elems):
    # 127, 999 and 7999 DOFs: every flagship shift's solve, from the
    # pencil's stack and from the built matrix, is the reference's.
    sysm, _ = _barrier_pencil(x0, x1, n_elems)
    rng = np.random.default_rng(29)
    b = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(sysm.n_dof)
    stacked = solvers.factorize_shifted(sysm.A, sysm.B, 2e-4,
                                        flagship.shifts).solve(b)
    for j, sigma in enumerate(flagship.shifts):
        mat = (2e-4 * sysm.A - (1j * sigma) * sysm.B).tocsr()
        want = _ReferenceCondensation(mat).solve(b).tobytes()
        assert stacked[j].tobytes() == want
        assert factorize(mat).solve(b)[0].tobytes() == want


@pytest.mark.parametrize("x0, x1, n_elems",
                         [(-5.0, 5.0, 5)] + _REFERENCE_MESHES)
def test_pencil_apply_is_the_reference_bitwise(x0, x1, n_elems):
    # 9, 127, 999 and 7999 DOFs; f2py's zgttrf, which the LU reference
    # calls, refuses the order-2 complement of the smallest (5-DOF) P2 mesh.
    # B's vertex complement is real SPD, so its kernel is LDL^T; across
    # kernels, the LU reference agrees to within 1e-14 (max norm, relative).
    sysm, _ = _barrier_pencil(x0, x1, n_elems)
    op = solvers.factorize_pencil(sysm.A, sysm.B)
    rng = np.random.default_rng(30)
    for b in (rng.standard_normal(sysm.n_dof),
              rng.standard_normal(sysm.n_dof)
              + 1j * rng.standard_normal(sysm.n_dof)):
        want = _reference_pencil_apply(sysm.A, sysm.B, b)
        got = op.apply(b)
        assert got.tobytes() == want.tobytes()
        lu = _reference_pencil_apply(sysm.A, sysm.B, b,
                                     _ReferenceCondensation)
        assert np.max(np.abs(got - lu)) <= 1e-14 * np.max(np.abs(lu))


def _record_kernels(monkeypatch):
    """Wrap the two tridiagonal solves of ``solvers``, ``zpttrs`` (LDL^T)
    and ``zgttrs`` (LU), to record each call as (name, right-hand side,
    solution) in the list returned."""
    calls = []
    for name in ("zpttrs", "zgttrs"):
        def record(*args, _name=name, _kernel=getattr(solvers, name),
                   **kwargs):
            x, info = _kernel(*args, **kwargs)
            calls.append((_name, args[-1], x))
            return x, info

        monkeypatch.setattr(solvers, name, record)
    return calls


def test_vertex_kernel_is_ldlt_for_a_real_spd_complement_only(flagship,
                                                               monkeypatch):
    # The kernel follows the complement's structure: barrier B on every
    # mesh (the 5-DOF one, complement of order 2, included) and a stack of
    # two of it take LDL^T, each row of the stack byte for byte the single
    # solve; the flagship's REXI stacks take LU.
    calls = _record_kernels(monkeypatch)

    def kernels(solve):
        del calls[:]
        solve()
        return [name for name, _, _ in calls]

    rng = np.random.default_rng(31)
    meshes = [(-3.0, 3.0, 3), (-5.0, 5.0, 5)] + _REFERENCE_MESHES
    for x0, x1, n_elems in meshes:
        sysm, _ = _barrier_pencil(x0, x1, n_elems)
        b = rng.standard_normal(sysm.n_dof) + 1j * rng.standard_normal(
            sysm.n_dof)
        op = solvers.factorize_pencil(sysm.A, sysm.B)
        assert kernels(lambda: op.apply(b)) == ["zpttrs"]
        one, two = factorize(sysm.B), factorize(sysm.B, sysm.B)
        assert kernels(lambda: one.solve(b)) == ["zpttrs"]
        assert kernels(lambda: two.solve(b)) == ["zpttrs"]
        for row in two.solve(b):
            assert row.tobytes() == one.solve(b)[0].tobytes()
        stack = solvers.factorize_shifted(sysm.A, sysm.B, 2e-4,
                                          flagship.shifts)
        assert kernels(lambda: stack.solve(b)) == ["zgttrs"]
    # The LDL^T solve is in place, in the vertex part of apply_parts' out.
    src = op.split(b)
    out = np.empty_like(src)
    assert kernels(lambda: op.apply_parts(src, out)) == ["zpttrs"]
    (_, rhs, x), = calls
    vertices = out[sysm.n_dof // 2 + 1:]
    assert np.shares_memory(rhs, vertices) and np.shares_memory(x, vertices)
    # A B whose complement is not real SPD takes LU.  The negated midpoint
    # pivot leaves it SPD; the negated vertex diagonal makes dpttrf stop
    # (info > 0), and LU then solves it.
    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    got = [kernels(lambda: solvers.factorize_pencil(pencil.A, pencil.B)
                   .apply(b))
           for pencil in _indefinite_or_unsymmetric_or_complex_b(sysm)]
    assert got == [["zpttrs"], ["zgttrs"], ["zgttrs"], ["zgttrs"]]
    # An argument error of dpttrf is raised, as zgttrf's is.
    monkeypatch.setattr(solvers, "dpttrf", lambda d, e: (d, e, -2))
    with pytest.raises(SolverError, match=re.escape(
            "tridiagonal factorization failed (argument 2)")):
        factorize(sysm.B)


def test_pencil_parts_are_in_condensed_order():
    # split gives one contiguous complex copy (midpoints, then vertices, on
    # the condensed path; the natural order on the dense one), apply_parts
    # maps it into that order without touching it, and join returns to
    # natural order: the bits of apply.
    rng = np.random.default_rng(32)
    for sysm in (_barrier_pencil(-3.0, 3.0, 3)[0],
                 _barrier_pencil(-30.0, 30.0, 500)[0],
                 scalar_system(3.0), random_pencil(rng, 6)[0]):
        op = solvers.factorize_pencil(sysm.A, sysm.B)
        n = sysm.n_dof
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kept = b.copy()
        p = op.split(b)
        order = (np.concatenate([b[0::2], b[1::2]]) if op.kind == "condensed"
                 else b)
        assert p.dtype == complex and p.flags.c_contiguous
        assert p.tobytes() == order.tobytes() and not np.shares_memory(p, b)
        y = op.apply_parts(p)
        assert p.tobytes() == order.tobytes()
        assert op.join(y).tobytes() == op.apply(b).tobytes()
        assert (op.join(y) is y) == (op.kind == "dense")
        out = np.full(n, np.nan, dtype=complex)
        assert op.apply_parts(p, out) is out
        assert out.tobytes() == y.tobytes()
        assert np.array_equal(b, kept)
    assert op.split(b.real).tobytes() == (b.real + 0j).tobytes()


def test_an_out_that_does_not_fit_is_refused_before_any_work(monkeypatch):
    # A real or complex64 out used to receive the result with only a
    # ComplexWarning, dropping its imaginary parts; an out of another
    # shape failed in numpy's broadcast.  Refused for both factorizations,
    # both pencils and apply_parts, naming the shape expected, before any
    # solve and with out left unwritten.
    def no_work(*args, **kwargs):
        raise AssertionError("did work")

    sysm, _ = _barrier_pencil(-5.0, 5.0, 5)
    dense = random_pencil(np.random.default_rng(33), 6)[0]
    solves = [factorize(sysm.B).solve, factorize(dense.B, dense.B).solve]
    pencils = [solvers.factorize_pencil(s.A, s.B) for s in (sysm, dense)]
    for name in ("zpttrs", "zgttrs", "lu_solve"):
        monkeypatch.setattr(solvers, name, no_work)
    for solve, shape in zip(solves, ((1, 9), (2, 6))):
        rows, n = shape
        for wrong in (np.full(shape, np.nan), np.full((rows, n + 1), np.nan,
                                                      dtype=complex),
                      np.full(n, np.nan, dtype=complex),
                      np.full(shape, np.nan, dtype=np.complex64)):
            with pytest.raises(ValueError, match=re.escape(
                    f"out must be a complex array of shape {shape}, got "
                    f"{wrong.dtype} array of shape {wrong.shape}")):
                solve(np.ones(n), out=wrong)
            assert np.isnan(wrong).all()
        with pytest.raises(ValueError, match=re.escape(
                f"out must be a complex array of shape {shape}, got list")):
            solve(np.ones(n), out=[[0j] * n] * rows)
    for op in pencils:
        n = op._n
        src = op.split(np.ones(n))
        strided = np.full(2 * n, np.nan, dtype=complex)[::2]
        for wrong in (np.full(n, np.nan),
                      np.full(n + 1, np.nan, dtype=complex),
                      np.full((1, n), np.nan, dtype=complex)):
            for apply, layout in ((op.apply, ""),
                                  (op.apply_parts, "C-contiguous ")):
                with pytest.raises(ValueError, match=re.escape(
                        f"out must be a {layout}complex array of shape "
                        f"{(n,)}, got {wrong.dtype} array of shape "
                        f"{wrong.shape}")):
                    apply(src, wrong)
                assert np.isnan(wrong).all()
        with pytest.raises(ValueError, match=re.escape(
                f"out must be a C-contiguous complex array of shape {(n,)}, "
                f"got complex128 array of shape {(n,)}")):
            op.apply_parts(src, strided)
        assert np.isnan(strided).all()
        kept = src.copy()
        with pytest.raises(ValueError,
                           match="out must not share memory with src"):
            op.apply_parts(src, src)
        assert src.tobytes() == kept.tobytes()


def test_pencil_refuses_a_right_hand_side_of_the_wrong_length(fem):
    for sysm in (fem[0], scalar_system(2.0)):
        op = solvers.factorize_pencil(sysm.A, sysm.B)
        n = sysm.n_dof
        for wrong in (np.ones(n + 1), np.ones((n, 2))):
            for apply in (op.apply, op.split, op.apply_parts):
                with pytest.raises(ValueError, match=re.escape(
                        f"{wrong.shape} does not match a pencil of shape "
                        f"{(n, n)}")):
                    apply(wrong)


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
