"""Time integration of B u' = -i A u.

Exact step: u(t + tau) = exp(tau*M) u(t) with M = (iB)^-1 A, whose
spectrum is purely imaginary for symmetric A and SPD B.  Three ways to
apply the propagator live here:

* REXI stepping: exp(tau*M) u ~ sum_j beta_j (tau*A - sigma_j*iB)^-1 (iB) u.
  The K shifted systems are factored once per (system, approx, tau), as one
  stack of consecutive shifts per solving thread.  Each step is one product
  iB u and one (K, n) solution block, each stack solving into its rows on a
  thread pool, then weighted in place and summed over axis 0.
  ``solvers.factorize_shifted`` picks the solve path from the pencil's
  structure: the P2 pencils of ``spatial.assemble_system`` take the
  condensed path, built straight from the pencil's diagonals (midpoints
  eliminated without pivoting, which the definite imaginary part
  -Re(sigma_j)*B of every shifted matrix makes safe, then one pivoted
  ``zgttrs`` call on the vertices); everything else builds the shifted
  matrices and takes dense LU, refused for a sparse matrix larger than
  DENSE_ORACLE_MAX_DOF.  The condensed solves call LAPACK as ctypes foreign
  calls that drop the GIL, and numpy drops it inside its array loops, so the
  stacks are solved concurrently; dense solves go through scipy's
  ``lu_solve``, which holds the GIL.  The pool never starts more solving
  threads than the CPUs the process may run on: extra threads add only GIL
  handoffs.  Zero couplings between a stack's blocks make each row bitwise
  the same whatever stack holds it, so with one block and one reduction the
  results do not depend on the worker count.
* Chebyshev/Clenshaw stepping: p(tau*M) u for a Chebyshev expansion of
  exp on i[-R, R]; each recurrence stage is one application of the pencil
  operator B^-1 A from ``solvers.factorize_pencil``.  On a P2 pencil that
  is one condensed vertex solve, with no sparse product: 180-200 us at
  7999 DOF on a 2-CPU VM.  This is the comparison method and, as one
  step over a whole run (``chebyshev_reference``), the reference at
  every system size.
* Dense oracle: full eigendecomposition of M through the symmetric
  pencil (A, B), for small systems only; supplies the conditioning
  number used in the a-priori error bound.

Both steppers are a :class:`Stepper`, built for one (system, tau) by one
constructor call, ``RexiStepper(sys, approx, tau)`` or
``ChebyshevStepper(sys, tau)`` (also named ``rexi_prepare`` and
``chebyshev_prepare``), which validates, factors and records the
``interval_radius`` R of the approximant's interval i[-R, R].  They step
only through their ``step(u)`` method, with one ``run`` loop, one
admissibility record, per-phase ``timers`` (``factor`` at construction;
``rhs``, ``local`` and ``reduce`` per step), and ``close()``/``with``
support.
``run`` flushes subnormal parts of the state to zero, on its copy of u0
and after every step: the Gaussian tails of a wave packet otherwise decay
into subnormal numbers, whose arithmetic made each step several times
slower.

A step tau is admissible when SAFETY_FACTOR * tau * sr(M) <= R1, i.e.
the scaled spectrum stays inside the interval where the rational or
polynomial approximant is certified; the largest admissible step is
therefore max_step_size(R1, sr) / SAFETY_FACTOR.  Runs refuse
inadmissible steps unless explicitly overridden.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.chebyshev import chebval

from .approx import PartialFractionApproximation, check_shift_distance
from .errors import AdmissibilityError, SolverError
from .solvers import DENSE_ORACLE_MAX_DOF, factorize_pencil, factorize_shifted
from .spatial import SystemMatrices, spectral_radius_estimate

# Headroom multiplier applied to the spectral-radius bound wherever a
# step size is checked against the approximation interval.
SAFETY_FACTOR = 1.05

Observer = Callable[[int, float, np.ndarray], None]


def max_step_size(r1: float, sr_m: float) -> float:
    """Largest step keeping tau * sr(M) <= R1 (no safety factor)."""
    if not sr_m > 0:
        raise ValueError(f"spectral radius must be positive, got {sr_m}")
    if not r1 > 0:
        raise ValueError(f"interval radius must be positive, got {r1}")
    return r1 / sr_m


def _usable_cpus() -> int:
    """CPUs this process may run on (at least 1)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _flush_subnormals(u: np.ndarray) -> None:
    """Zero, in place, every subnormal real or imaginary part of the
    complex array ``u``."""
    parts = u.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0


class Stepper:
    """A propagator prepared for one (system, tau).

    Each subclass's constructor builds its approximant on i[-R, R], calls
    this one with R as ``interval_radius``, and factors what its steps
    solve; the subclass supplies ``step(u)``, the one way to apply the
    propagator once, and the ``kind`` named in errors.  When ``sr_value``
    is None it is taken from ``spectral_radius_estimate``: the system's P2
    bound, or dense ``eigh`` for a hand-built pencil.
    """

    kind: str

    def __init__(self, system: SystemMatrices, tau: float,
                 interval_radius: float, sr_value: float | None,
                 override_admissibility: bool):
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if sr_value is None:
            sr_value = spectral_radius_estimate(system)
        self.system = system
        self.tau = tau
        self.interval_radius = interval_radius
        self.sr_value = float(sr_value)
        self.override_admissibility = override_admissibility
        self.override_used = False
        self.admissibility_ratio = (SAFETY_FACTOR * tau * self.sr_value
                                    / interval_radius)
        self.admissible = self.admissibility_ratio <= 1.0
        self.timers = {"factor": 0.0, "rhs": 0.0, "local": 0.0, "reduce": 0.0}

    def run(self, u0: np.ndarray, n_steps: int,
            observer: Observer | None = None) -> np.ndarray:
        """Apply ``step`` ``n_steps`` times; observer sees (step, time, state).

        Subnormal real and imaginary parts are set to zero in the copy of
        ``u0`` and in every step's result, before the observer sees it.
        The admissibility gate applies only when at least one step runs.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        if n_steps > 0 and not self.admissible:
            if not self.override_admissibility:
                largest = (max_step_size(self.interval_radius, self.sr_value)
                           / SAFETY_FACTOR)
                raise AdmissibilityError(
                    f"{self.kind} step tau = {self.tau:g} is inadmissible: "
                    f"{SAFETY_FACTOR} * tau * sr(M) / R1 = "
                    f"{self.admissibility_ratio:.4g} > 1; the largest "
                    f"admissible step for this system is max_step_size / "
                    f"{SAFETY_FACTOR} = {largest:.6e}"
                )
            self.override_used = True
        u = np.array(u0, dtype=complex, copy=True)
        _flush_subnormals(u)
        for k in range(1, n_steps + 1):
            u = self.step(u)
            _flush_subnormals(u)
            if observer is not None:
                observer(k, k * self.tau, u)
        return u

    def close(self):
        """Release held resources; a no-op unless a subclass holds any."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# REXI stepping
# ---------------------------------------------------------------------------

class RexiStepper(Stepper):
    """REXI propagator: the K shifted systems (tau*A - sigma_j*iB) are
    factored once, as ``factorizations``, stacks of consecutive shifts in
    shift order, one stack per solving thread.

    ``sr_value`` may be supplied when the caller already has sr(M) or a
    bound on it.  ``workers`` is the number of threads that solve, the
    calling thread included; it defaults to K.  No more than K threads, and
    no more than the CPUs this process may run on, are started, and the
    shifts are split into that many stacks.  ``timers["factor"]`` records
    the seconds spent building and factoring the shifted systems.  A shift
    too near the interval i[-R1, R1] (``approx.check_shift_distance``, the
    rule ``faber_cf`` holds its own shifts to) is refused with an
    ApproximationError before anything is factored.
    """

    kind = "REXI"

    def __init__(self, system: SystemMatrices,
                 approx: PartialFractionApproximation, tau: float, *,
                 workers: int | None = None, sr_value: float | None = None,
                 override_admissibility: bool = False):
        check_shift_distance(approx.shifts, approx.domain_radius)
        if workers is None:
            workers = approx.K
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(system, tau, approx.domain_radius, sr_value,
                         override_admissibility)
        self.approx = approx
        self.workers = workers

        t0 = time.perf_counter()
        threads = min(workers, approx.K, _usable_cpus())
        self.factorizations = []
        for stack in np.array_split(np.arange(approx.K), threads):
            try:
                self.factorizations.append(factorize_shifted(
                    system.A, system.B, tau, approx.shifts[stack]))
            except SolverError as exc:
                if exc.index is None:  # not attributable to one shift
                    raise
                j = stack[exc.index]
                raise SolverError(
                    f"shifted system j = {j} (sigma = {approx.shifts[j]}) "
                    f"cannot be factored; if it is singular, the shift "
                    f"coincides with an eigenvalue of tau*M ({exc})"
                ) from exc
        self.timers["factor"] = time.perf_counter() - t0

        # iB in complex storage, so the per-step product needs no upcast.
        self._iB = (1j * system.B).tocsr()
        # Shift index of each stack's first row, and one past the last.
        self._starts = np.cumsum([0] + [fac.K for fac in self.factorizations])
        # The calling thread solves the first stack, the pool the others.
        self._helpers = len(self.factorizations) - 1
        self._pool = (ThreadPoolExecutor(max_workers=self._helpers)
                      if self._helpers else None)

    @property
    def solver(self) -> str:
        """Solve path of the shifted systems: "condensed" or "dense"."""
        return self.factorizations[0].kind

    def step(self, u: np.ndarray) -> np.ndarray:
        """One REXI step: rhs = iBu, then one (K, n) block X whose row j
        solves shifted system j, each stack solving into its rows (the first
        on the calling thread, the others on the pool).  The calling thread
        then weights X in place and sums it over axis 0, adding whole rows
        in ascending j, so any worker count gives identical results.
        """
        timers, starts, facs = self.timers, self._starts, self.factorizations

        t0 = time.perf_counter()
        rhs = self._iB @ u
        t1 = time.perf_counter()
        # Per step: kept on the stepper, the block would only add to memory.
        X = np.empty((starts[-1], rhs.size), dtype=complex)

        def solve(c):
            try:
                facs[c].solve(rhs, out=X[starts[c]:starts[c + 1]])
            except SolverError as exc:
                raise SolverError(f"solve failed for shifts j = {starts[c]}.."
                                  f"{starts[c + 1] - 1}: {exc}") from exc

        helpers = [self._pool.submit(solve, c) for c in range(1, len(facs))]
        try:
            solve(0)
        finally:
            # Retrieve every outcome; the lowest failing stack is raised.
            for future in helpers:
                future.exception()
        for future in helpers:
            future.result()
        t2 = time.perf_counter()
        # Weight times solution, in this operand order: numpy's complex
        # product can round differently with the operands swapped.  No BLAS
        # call (such as weights @ X): OpenBLAS's own threads would compete
        # with the pool.
        np.multiply(self.approx.weights[:, None], X, out=X)
        total = X.sum(axis=0)
        timers["rhs"] += t1 - t0
        timers["local"] += t2 - t1
        timers["reduce"] += time.perf_counter() - t2
        return total

    def close(self):
        # A closed pool refuses new work, so a later pooled step raises.
        if self._pool is not None:
            self._pool.shutdown(wait=True)


# perfbench and the tests build steppers by these names.
rexi_prepare = RexiStepper


def rexi_run(stepper: RexiStepper, u0: np.ndarray, n_steps: int,
             observer: Observer | None = None) -> np.ndarray:
    """``stepper.run``, kept as a function because perfbench calls it."""
    return stepper.run(u0, n_steps, observer)


# ---------------------------------------------------------------------------
# Chebyshev / Clenshaw stepping
# ---------------------------------------------------------------------------

class ChebyshevCoeffs(NamedTuple):
    coeffs: np.ndarray
    sup_error: float


# Grid points per block of the certificate: chebval's recurrence arrays
# stay cache-sized whatever the degree.
_CERTIFICATE_BLOCK = 16384


def chebyshev_coeffs(r: float, n: int) -> ChebyshevCoeffs:
    """Coefficients a_0..a_N with sum a_k T_k(x) matching exp(i r x) on
    [-1, 1], equivalently p(z) = sum a_k T_k(-iz/r) matching exp on
    i[-r, r]; built from samples at the N+1 Chebyshev points by a type-I
    discrete cosine transform, computed as the FFT of their even extension
    (numpy's FFT: importing scipy.fft would cost about 5 MB of memory).
    The certificate ``sup_error`` is measured, not estimated: the largest
    |chebval(x, a) - exp(i r x)| on 100,001 equispaced points of [-1, 1],
    taken one block of the grid at a time so that only a block's arrays
    are held.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not r > 0:
        raise ValueError(f"interval radius must be positive, got {r}")
    f = np.exp(1j * r * np.cos(np.pi * np.arange(n + 1) / n))
    a = np.fft.fft(np.concatenate([f, f[-2:0:-1]]))[: n + 1] / n
    a[0] *= 0.5
    a[-1] *= 0.5
    x = np.linspace(-1.0, 1.0, 100_001)
    sup = max(float(np.max(np.abs(chebval(xb, a) - np.exp(1j * r * xb))))
              for xb in np.split(x, range(_CERTIFICATE_BLOCK, x.size,
                                          _CERTIFICATE_BLOCK)))
    return ChebyshevCoeffs(coeffs=a, sup_error=sup)


class ChebyshevStepper(Stepper):
    """Clenshaw propagator for p(tau*M): the coefficients of p are built
    for i[-radius, radius], and the pencil operator B^-1 A
    (``solvers.factorize_pencil``) is factored once, as ``operator``."""

    kind = "Chebyshev"

    def __init__(self, system: SystemMatrices, tau: float, *,
                 degree: int = 26, radius: float = 10.0,
                 sr_value: float | None = None,
                 override_admissibility: bool = False):
        # Built first: chebyshev_coeffs refuses a radius the admissibility
        # ratio would divide by.
        cc = chebyshev_coeffs(radius, degree)
        super().__init__(system, tau, float(radius), sr_value,
                         override_admissibility)
        self.coeffs = cc.coeffs
        self.sup_error = cc.sup_error
        self.degree = degree
        t0 = time.perf_counter()
        self.operator = factorize_pencil(system.A, system.B)
        self.timers["factor"] = time.perf_counter() - t0

    @property
    def solver(self) -> str:
        """Path of the pencil operator: "condensed" or "dense"."""
        return self.operator.kind

    def step(self, u: np.ndarray) -> np.ndarray:
        """p(tau*M) u by the Clenshaw backward recurrence.

        The scaled argument -i*tau*M/R reduces to the real operator
        scale * B^-1 A, scale = -tau/R, so each stage is one application
        of ``operator``: on a P2 pencil, one condensed vertex solve in
        place of an A-multiply and a B-solve.  The recurrence starts from
        b_N = a_N u, b_{N+1} = 0, so a step makes ``degree`` stages:
        k = N-1 .. 1 compute
        b_k = (2 * scale) * B^-1 A b_{k+1} + a_k u - b_{k+2}, in that order,
        and the last gives b_0 = scale * B^-1 A b_1 + a_0 u - b_2, the
        result; all in place, rotating three buffers.
        """
        a = self.coeffs
        scale = -(self.tau / self.interval_radius)
        apply = self.operator.apply

        t0 = time.perf_counter()
        u = np.asarray(u, dtype=complex)
        au = np.empty_like(u)
        b1 = a[-1] * u
        b2 = np.zeros_like(u)
        free = np.empty_like(u)
        for k in range(self.degree - 1, -1, -1):
            apply(b1, out=free)
            np.multiply(2.0 * scale if k else scale, free, out=free)
            free += np.multiply(a[k], u, out=au)
            free -= b2
            b1, b2, free = free, b1, b2
        self.timers["local"] += time.perf_counter() - t0
        return b1


chebyshev_prepare = ChebyshevStepper


def chebyshev_reference(
    sys: SystemMatrices,
    t: float,
    *,
    sr_value: float | None = None,
) -> ChebyshevStepper:
    """A Chebyshev stepper whose single step is exp(t*M) to rounding level.

    The whole interval t is one step (Tal-Ezer & Kosloff, J. Chem. Phys.
    81, 3967, 1984): R = SAFETY_FACTOR * t * sr(M), computed in the order
    the admissibility gate computes it, so the ratio is exactly 1.  The
    degree is the smallest d >= ceil(R) whose first dropped coefficient
    2|J_{d+1}(R)| is below machine epsilon; the stepper's measured
    ``sup_error`` is the certificate.
    """
    # Imported here: scipy.special adds about 3 MB to every process that
    # imports rexiprop, and only this function needs it.
    from scipy.special import jv

    if sr_value is None:
        sr_value = spectral_radius_estimate(sys)
    radius = SAFETY_FACTOR * t * float(sr_value)
    if not 0 < radius < math.inf:
        raise ValueError(f"t * sr(M) must be positive and finite, got "
                         f"t = {t}, sr = {float(sr_value)}")
    eps = np.finfo(float).eps
    degree = math.ceil(radius)
    while not 2.0 * abs(jv(degree + 1, radius)) < eps:
        degree += 1
    return ChebyshevStepper(sys, t, degree=degree, radius=radius,
                            sr_value=sr_value)


def chebyshev_run(stepper: ChebyshevStepper, sys: SystemMatrices,
                  u0: np.ndarray, n_steps: int,
                  observer: Observer | None = None) -> np.ndarray:
    """``stepper.run``, kept as a function because perfbench calls it;
    ``sys`` must be the system the stepper was prepared for."""
    if sys is not stepper.system:
        raise ValueError("sys is not the system this Chebyshev stepper was "
                         "prepared for")
    return stepper.run(u0, n_steps, observer)


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleDecomposition:
    """Eigendecomposition M = X diag(omegas) X^-1 with its conditioning."""

    X: np.ndarray
    omegas: np.ndarray
    cond_inf: float
    xinv: np.ndarray
    residual: float


def dense_decomposition(
    sys: SystemMatrices, max_n: int = DENSE_ORACLE_MAX_DOF
) -> OracleDecomposition:
    """Diagonalize M = (iB)^-1 A through the symmetric pencil (A, B).

    The pencil eigenvectors V are B-orthonormal, so X = V, X^-1 = V^T B,
    and omegas = -i * lambda are purely imaginary.  The reconstruction
    residual of M X = X diag(omega) is verified (relative, Frobenius).
    """
    if sys.n_dof > max_n:
        raise ValueError(
            f"system too large for the dense oracle: n_dof = {sys.n_dof} "
            f"exceeds max_n = {max_n}"
        )
    a_d = sys.A.toarray()
    b_d = sys.B.toarray()
    lam, vec = sla.eigh(a_d, b_d)
    x_mat = vec.astype(complex)
    omegas = -1j * lam
    xinv = (vec.T @ b_d).astype(complex)
    cond_inf = float(np.linalg.norm(x_mat, np.inf)
                     * np.linalg.norm(xinv, np.inf))

    m_mat = -1j * sla.solve(b_d, a_d)
    num = np.linalg.norm(m_mat @ x_mat - x_mat * omegas, "fro")
    den = max(np.linalg.norm(m_mat, "fro"), np.finfo(float).tiny)
    residual = float(num / den)
    if residual > 1e-8:
        raise SolverError(
            f"dense eigendecomposition residual {residual:.3e} exceeds 1e-8; "
            "the pencil is too ill-conditioned to serve as an oracle"
        )
    return OracleDecomposition(
        X=x_mat, omegas=omegas, cond_inf=cond_inf, xinv=xinv, residual=residual
    )


def dense_expm_apply(
    sys: SystemMatrices,
    tau: float,
    u: np.ndarray,
    max_n: int = DENSE_ORACLE_MAX_DOF,
    *,
    decomposition: OracleDecomposition | None = None,
) -> np.ndarray:
    """exp(tau*M) u by dense diagonalization (small systems only)."""
    dec = decomposition
    if dec is None:
        dec = dense_decomposition(sys, max_n=max_n)
    return dec.X @ (np.exp(tau * dec.omegas) * (dec.xinv @ np.asarray(u, complex)))


def rexi_error_bound(sup_error: float, cond_inf: float) -> float:
    """A-priori bound sup_error * cond_inf on ||exp(tau M) - r(tau M)||_inf."""
    if sup_error < 0 or cond_inf < 0:
        raise ValueError("sup_error and cond_inf must be nonnegative")
    return sup_error * cond_inf
