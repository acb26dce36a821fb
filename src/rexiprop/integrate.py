"""Time integration of B u' = -i A u.

Exact step: u(t + tau) = exp(tau*M) u(t) with M = (iB)^-1 A, whose
spectrum is purely imaginary for symmetric A and SPD B.  Three ways to
apply the propagator live here:

* REXI stepping: exp(tau*M) u ~ sum_j beta_j (tau*A - sigma_j*iB)^-1 (iB) u.
  The K shifted systems are factored once per (system, approx, tau), as one
  stack of consecutive shifts per solving thread.  Each step is one product
  iB u, split into its contiguous parts (midpoints and vertices on the
  condensed path), and one solution block per part; each stack solves into
  its rows and weights them on its own thread, the calling thread sums the
  rows in ascending j, and one interleave writes the result.
  ``solvers.factorize_shifted`` picks the solve path from the pencil's
  structure: the P2 pencils of ``spatial.assemble_system`` take the
  condensed path, built straight from the pencil's diagonals (midpoints
  eliminated without pivoting, which the definite imaginary part
  -Re(sigma_j)*B of every shifted matrix makes safe, then one pivoted
  ``zgttrs`` call on the vertices); everything else builds the shifted
  matrices and takes dense LU, refused for a sparse matrix larger than
  DENSE_ORACLE_MAX_DOF.  The condensed solves call LAPACK through scipy's
  ``zgttrs`` wrapper, which releases the GIL, and numpy drops it inside its
  array loops, so the stacks are solved concurrently; dense solves go
  through scipy's ``lu_solve``, which holds the GIL.  The pool never starts
  more solving threads than the CPUs the process may run on: extra threads
  add only GIL handoffs.  Zero couplings between a stack's blocks make each row bitwise
  the same whatever stack holds it, and every element is weighted and added
  as (weights[:, None] * X).sum(axis=0) would over the natural-order block
  X, so the results do not depend on the worker count.
* Chebyshev/Clenshaw stepping: p(tau*M) u for a Chebyshev expansion of
  exp on i[-R, R]; each recurrence stage is one application of the pencil
  operator B^-1 A from ``solvers.factorize_pencil``, in the operator's own
  order of the entries (``apply_parts``), into which a step splits its
  state once and from which it joins the result once.  On a P2 pencil a
  stage is one condensed vertex solve, by LDL^T since B's vertex
  complement is real SPD, with no sparse product: about 150 us at 7999
  DOF on a 2-CPU VM.  This is the comparison method and, as one step
  over a whole run (``chebyshev_reference``), the reference at every
  system size.
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
``rhs``, ``local`` and ``reduce`` per step, as each stepper's docstring
says), and ``close()``/``with`` support.
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

from .approx import PartialFractionApproximation, check_shift_distance
from .errors import (AdmissibilityError, SolverError, check_integer,
                     check_nonnegative)
from .solvers import DENSE_ORACLE_MAX_DOF, factorize_pencil, factorize_shifted
from .spatial import SystemMatrices, spectral_radius_estimate

# Headroom multiplier applied to the spectral-radius bound wherever a
# step size is checked against the approximation interval.
SAFETY_FACTOR = 1.05

Observer = Callable[[int, float, np.ndarray], None]


def max_step_size(r1: float, sr_m: float) -> float:
    """Largest step keeping tau * sr(M) <= R1 (no safety factor); each
    argument must be finite and positive."""
    for name, value in (("sr_m", sr_m), ("r1", r1)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
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

    ``timers`` holds seconds: ``factor`` at construction, and per step
    ``rhs``, ``local`` and ``reduce``, summed over the steps.  For REXI,
    ``rhs`` is the product iB u and its split into parts; ``local`` the
    solves, the weighting and the first stack's share of the sum; and
    ``reduce`` the rest of the sum and the interleave.  For Chebyshev,
    ``local`` is the whole step.
    """

    kind: str

    def __init__(self, system: SystemMatrices, tau: float,
                 interval_radius: float, sr_value: float | None,
                 override_admissibility: bool):
        if not tau > 0:
            raise ValueError(f"tau must be positive, got {tau}")
        if not math.isfinite(tau):
            raise ValueError(f"tau must be finite, got {tau}")
        if sr_value is None:
            sr_value = spectral_radius_estimate(system)
        self.sr_value = check_nonnegative("sr_value", sr_value)
        self.system = system
        self.tau = tau
        self.interval_radius = interval_radius
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
        The admissibility gate applies only when at least one step runs;
        a ``u0`` whose shape is not (n_dof,) is refused whatever the
        number of steps.
        """
        if check_integer("n_steps", n_steps) < 0:
            raise ValueError(f"n_steps must be >= 0, got {n_steps}")
        self._check_state(u0)
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

    def _check_state(self, u) -> None:
        """Refuse a state ``u`` whose shape is not (n_dof,), naming the
        order of the system it does not match."""
        n = self.system.n_dof
        if np.shape(u) != (n,):
            raise ValueError(f"{self.kind} state of shape {np.shape(u)} does "
                             f"not match a system of order {n}")

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
    calling thread included: an integer >= 1 (not a bool), K by default,
    refused with ValueError otherwise.  No more than K threads, and
    no more than the CPUs this process may run on, are started, and the
    shifts are split into that many stacks.  ``timers["factor"]`` records
    the seconds spent building and factoring the shifted systems; per step,
    ``timers["local"]`` the solves, the weighting and the first stack's
    share of the sum, and ``timers["reduce"]`` the rest of the sum and the
    interleave (:class:`Stepper`).  A shift
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
        workers = check_integer("workers", workers)
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
        """One REXI step: rhs = iBu, split into its contiguous parts
        (midpoints and vertices on the condensed path, the whole vector on
        the dense one), then one block per part whose row j holds shifted
        system j's solution.  Each stack solves into its rows and weights
        them on its own thread (the first stack on the calling thread, the
        others on the pool); the calling thread sums the first stack's rows
        while the pool still solves, then adds the other stacks' rows, all
        in ascending j, and interleaves the parts into the result.  Every
        row is bitwise the same whatever stack holds it, so any worker
        count gives identical results.  A ``u`` whose shape is not
        (n_dof,) is refused before the product.
        """
        timers, starts, facs = self.timers, self._starts, self.factorizations
        weights = self.approx.weights
        self._check_state(u)

        t0 = time.perf_counter()
        parts = facs[0].split(self._iB @ u)
        t1 = time.perf_counter()
        # Per step: kept on the stepper, the blocks would only add to memory.
        blocks = [np.empty((starts[-1], part.size), dtype=complex)
                  for part in parts]

        def solve(c):
            rows = slice(starts[c], starts[c + 1])
            x_parts = [block[rows] for block in blocks]
            try:
                facs[c].solve_parts(parts, x_parts)
            except SolverError as exc:
                raise SolverError(f"solve failed for shifts j = {starts[c]}.."
                                  f"{starts[c + 1] - 1}: {exc}") from exc
            # Weight times solution, in this operand order: numpy's complex
            # product can round differently with the operands swapped.  No
            # BLAS call (such as weights @ X): OpenBLAS's own threads would
            # compete with the pool.
            for x in x_parts:
                np.multiply(weights[rows, None], x, out=x)

        helpers = [self._pool.submit(solve, c) for c in range(1, len(facs))]
        try:
            solve(0)
            # numpy sums a C-contiguous block over axis 0 by adding whole
            # rows in ascending j.
            totals = [block[:starts[1]].sum(axis=0) for block in blocks]
        finally:
            # Retrieve every outcome; the lowest failing stack is raised.
            for future in helpers:
                future.exception()
        for future in helpers:
            future.result()
        t2 = time.perf_counter()
        for j in range(starts[1], starts[-1]):
            for total, block in zip(totals, blocks):
                total += block[j]
        result = facs[0].join(totals)
        timers["rhs"] += t1 - t0
        timers["local"] += t2 - t1
        timers["reduce"] += time.perf_counter() - t2
        return result

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


def _bessel_j(r: float, count: int) -> np.ndarray:
    """J_0(r) .. J_count(r) for r > 0, by Miller's backward recurrence
    J_{k-1} = (2k/r) J_k - J_{k+1}, normalised by J_0 + 2 sum J_2k = 1.

    The recurrence starts from 0 and 1 at 32 past the larger of count and
    2*ceil(r), where J_k(r) <= (e r / 2k)^k is below 1e-29, so the start's
    error has died out before any value returned.  A run nearing overflow
    is scaled by 2**-600 in place, from the current index on (the entries
    below it are still 0); a value that then underflows is below 1e-300 of
    the largest, and reads as 0.  The recurrence runs in one float64
    array, whose first count + 1 entries are returned normalized, so a
    call costs time linear in r (about 1 s at r = 672,019 on a 2-CPU VM)
    and traced memory about twice its result.

    The rescale keeps 2k/r * J_k finite only while 2k/r < 2**423.  Below
    that radius (r < 2 * start * 2**-423, about 1e-125) the values are the
    series' leading terms J_k = (r/2)^k / k!, which the next term changes
    by a factor (r/2)^2 / (k+1) < 1e-250, far below rounding.
    """
    start = max(count, 2 * math.ceil(r)) + 32
    if 2 * start / r >= 2.0 ** 423:
        j = np.empty(count + 1)
        j[0] = 1.0
        j[1:] = 0.5 * r / np.arange(1, count + 1)
        return np.cumprod(j, out=j)
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2 * k / r * j[k] - j[k + 1]
        if abs(j[k - 1]) > 2.0 ** 600:
            j[k - 1:] *= 2.0 ** -600
    return j[:count + 1] / (j[0] + 2 * j[2:-1:2].sum())


def chebyshev_coeffs(r: float, n: int | None) -> ChebyshevCoeffs:
    """Coefficients a_0..a_N with sum a_k T_k(x) matching exp(i r x) on
    [-1, 1], equivalently p(z) = sum a_k T_k(-iz/r) matching exp on
    i[-r, r]: the interpolant in the N+1 Chebyshev points, read from the
    Jacobi-Anger series exp(i r x) = J_0(r) + 2 sum_k i^k J_k(r) T_k(x).
    On those points T_j equals T_k, k = |((j + N) mod 2N) - N|, so a_k is
    the sum of the series' terms s_j that fold onto k (Trefethen,
    Approximation Theory and Approximation Practice, Thm 4.2), added in
    ascending j.  The factors i^j are taken from the exact table
    [1, i, -1, -i].

    The certificate ``sup_error`` bounds max |p(x) - exp(i r x)| on [-1, 1]
    for the float64 coefficients, as the sum of two terms:

    * truncation: the exact interpolant errs by at most
      4 sum_{k>N} |J_k(r)| (the same theorem);
    * rounding: eps ((N + 1) + sum |a_k|).  Each Bessel value carries an
      absolute error of about eps (they are normalized so that
      J_0 + 2 sum J_2k = 1), one per coefficient, and evaluating the sum
      adds about eps per unit of coefficient mass.  This is a first-order
      model of the rounding, not a worst case; the tests hold it above
      the error that float64 and extended-precision evaluations read.

    Once N is well past r the error is the coefficients' own rounding:
    an extended-precision evaluation reads 8.6e-16 at r = 44, N = 83 (the
    desk reference), where the truncation term is 2.9e-16.  The Bessel
    values come from one ``_bessel_j`` call, up to the index
    max(N, 2*ceil(r)) + 32; the J_k(r) past it sum to less than 1e-28.

    ``n = None`` takes the reference's degree: the smallest N >= ceil(r)
    whose first dropped coefficient 2|J_{N+1}(r)| is below machine
    epsilon, read from the Bessel values up to 2*ceil(r) + 32, which the
    fold and the certificate then sum.  For N <= 2*ceil(r) that is the
    array a given degree N reads; for a larger N (r below about 10) the
    values left out lie past 2*ceil(r) + 32 and sum to less than 1e-28.
    """
    if n is not None and check_integer("degree", n) < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if not r > 0:
        raise ValueError(f"interval radius must be positive, got {r}")
    if not math.isfinite(r):
        raise ValueError(f"interval radius must be finite, got {r}")
    eps = np.finfo(float).eps
    bessel = _bessel_j(r, max(n or 0, 2 * math.ceil(r)) + 32)
    if n is None:
        n = math.ceil(r)
        while not 2.0 * abs(bessel[n + 1]) < eps:
            n += 1
    j = np.arange(bessel.size)
    series = 2.0 * bessel * np.array([1, 1j, -1, -1j])[j % 4]
    series[0] = bessel[0]
    a = np.zeros(n + 1, dtype=complex)
    # The fold index overwrites j: at r = 672,019 an array of its own
    # would add 10 MiB to the peak.
    np.remainder(j + n, 2 * n, out=j)
    np.add.at(a, np.abs(j - n, out=j), series)
    truncation = 4.0 * float(np.abs(bessel[n + 1:]).sum())
    rounding = eps * ((n + 1) + float(np.abs(a).sum()))
    return ChebyshevCoeffs(coeffs=a, sup_error=float(truncation + rounding))


class ChebyshevStepper(Stepper):
    """Clenshaw propagator for p(tau*M): the coefficients of p are built
    for i[-radius, radius], and the pencil operator B^-1 A
    (``solvers.factorize_pencil``) is factored once, as ``operator``.
    ``degree=None`` takes the degree ``chebyshev_coeffs`` picks for a
    reference."""

    kind = "Chebyshev"

    def __init__(self, system: SystemMatrices, tau: float, *,
                 degree: int | None = 26, radius: float = 10.0,
                 sr_value: float | None = None,
                 override_admissibility: bool = False):
        # Built first: chebyshev_coeffs refuses a radius the admissibility
        # ratio would divide by.
        cc = chebyshev_coeffs(radius, degree)
        super().__init__(system, tau, float(radius), sr_value,
                         override_admissibility)
        self.coeffs = cc.coeffs
        self.sup_error = cc.sup_error
        self.degree = len(cc.coeffs) - 1
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
        result; all in place, rotating three buffers.  Every stage runs in
        the operator's own order of the entries (``apply_parts``): ``u`` is
        split into it once, and the result joined back once.
        """
        a = self.coeffs
        scale = -(self.tau / self.interval_radius)
        op = self.operator
        apply_parts = op.apply_parts

        t0 = time.perf_counter()
        u = op.split(u)
        au = np.empty_like(u)
        b1 = a[-1] * u
        b2 = np.zeros_like(u)
        free = np.empty_like(u)
        for k in range(self.degree - 1, -1, -1):
            apply_parts(b1, free)
            np.multiply(2.0 * scale if k else scale, free, out=free)
            free += np.multiply(a[k], u, out=au)
            free -= b2
            b1, b2, free = free, b1, b2
        # b2 is free after the last stage: the result is joined into it.
        result = op.join(b1, b2)
        self.timers["local"] += time.perf_counter() - t0
        return result


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
    2|J_{d+1}(R)| is below machine epsilon (``chebyshev_coeffs`` with
    ``n = None``), read from the one Bessel array that its coefficients
    fold and its certificate sums; the stepper's ``sup_error`` is the
    certificate.
    """
    if sr_value is None:
        sr_value = spectral_radius_estimate(sys)
    radius = SAFETY_FACTOR * t * float(sr_value)
    if not 0 < radius < math.inf:
        raise ValueError(f"t * sr(M) must be positive and finite, got "
                         f"t = {t}, sr = {float(sr_value)}")
    return ChebyshevStepper(sys, t, degree=None, radius=radius,
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
    """exp(tau*M) u by dense diagonalization (small systems only).  A tau
    that is not finite, or a state ``u`` whose shape is not (n_dof,), is
    refused before any work."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if np.shape(u) != (sys.n_dof,):
        raise ValueError(f"oracle state of shape {np.shape(u)} does not "
                         f"match a system of order {sys.n_dof}")
    dec = decomposition
    if dec is None:
        dec = dense_decomposition(sys, max_n=max_n)
    return dec.X @ (np.exp(tau * dec.omegas) * (dec.xinv @ np.asarray(u, complex)))


def rexi_error_bound(sup_error: float, cond_inf: float) -> float:
    """A-priori bound sup_error * cond_inf on ||exp(tau M) - r(tau M)||_inf."""
    return (check_nonnegative("sup_error", sup_error)
            * check_nonnegative("cond_inf", cond_inf))
