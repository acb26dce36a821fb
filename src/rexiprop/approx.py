"""Near-best rational approximation of exp on an imaginary interval.

The pipeline works on the unit disc and is transplanted to the target
interval i*[-R1, R1] by a Joukowski-type conformal map:

1. sample the transplanted target on a geometric ladder of circles
   outside the unit circle, read off its expansion coefficients by FFT,
   and keep each order from the circle that resolves it best, until the
   three-circle theorem says the ladder has left the annulus of
   analyticity (_series_from_radius_ladder, the one sampler: the per-pole
   sequences of step 4 come from it too);
2. form the Hankel matrix of those coefficients and take its (n+1)-st
   singular triple -- Caratheodory-Fejer / AAK theory says the triple
   encodes a rational function whose deviation from the target on the
   circle is the constant sigma, to within the truncation level;
3. keep the denominator roots outside the closed unit disc, extract a
   numerator for that stable denominator by FFT, and map the roots
   forward to obtain the shifts (poles) on the target side;
4. fit partial-fraction weights so the disc expansion of the weighted
   pole sum matches the disc expansion of the rational approximant.

The stages hand plain 1-D complex arrays to each other.  Every circle is
sampled at the same DEFAULT_SAMPLES roots of unity, and the coefficient
window is always a_0 .. a_DEFAULT_TRUNCATION.

Everything downstream consumes only the result type
:class:`PartialFractionApproximation`: shifts, weights, the interval
radius, and a measured (not estimated) sup error on the interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import hankel

from .errors import ApproximationError, check_integer

# Default knobs for the flagship construction (degree 16 on i*[-10, 10]).
# The truncation length is deliberately generous: the expansion coefficients
# of the transplanted exponential decay below 1e-16 around order 40, and a
# long window keeps the Hankel spectrum independent of the cutoff.  The
# singular triple that drives the construction sits many orders of magnitude
# below the leading singular value (6e-20 here), so the coefficients must be
# accurate *relative to their own size* deep into that decay.  A single
# sampling circle cannot deliver this in double precision (its absolute FFT
# error is roughly eps * max|g| on the circle, uniform across orders), so
# every coefficient comes from an adaptive ladder of radii with the best
# circle chosen per order (see _series_from_radius_ladder).
DEFAULT_TRUNCATION = 300
DEFAULT_SAMPLES = 4096
# The DEFAULT_SAMPLES roots of unity: every circle the pipeline samples is
# this one, scaled.
_UNIT_CIRCLE = np.exp(2j * np.pi * np.arange(DEFAULT_SAMPLES)
                      / DEFAULT_SAMPLES)
_UNIT_CIRCLE.flags.writeable = False
CIRCLE_TOL = 1e-8
CONDITION_LIMIT = 1e12
MIN_SHIFT_DISTANCE_REL = 1e-3
_OVERFLOW_GUARD = 1e280
# Grid points of the interval certificate, and points per evaluate_pfd
# call there: the blocks bound the (points, K) temporaries without
# changing any point's pole sum.
_SUP_CHECK_SAMPLES = 100_000
_SUP_CHECK_BLOCK = 4096


# ---------------------------------------------------------------------------
# Series on circles
# ---------------------------------------------------------------------------

def _ladder_radii(max_radius: float) -> np.ndarray:
    """Geometric ladder of sampling radii in (1, max_radius]."""
    if max_radius <= 1.0002:
        raise ApproximationError(
            f"no sampling radius fits between the unit circle and "
            f"{max_radius}; the nearest singularity hugs the circle"
        )
    base = 1.0 + 1e-4
    if max_radius <= 1.3:
        return np.geomspace(base, max_radius, 12)
    count = int(np.ceil(np.log(max_radius / 1.3) / np.log(1.3))) + 1
    return np.concatenate([
        np.geomspace(base, 1.3, 6, endpoint=False),
        np.geomspace(1.3, max_radius, count),
    ])


def _circle_coefficients(vals: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` coefficients c_0 .. c_{count-1} of a series
    sampled at the DEFAULT_SAMPLES roots of unity, read off by FFT."""
    return np.fft.fft(vals)[:count] / DEFAULT_SAMPLES


def _series_from_radius_ladder(
    f: Callable[[np.ndarray], np.ndarray],
    length: int,
    max_radius: float = 1e4,
) -> np.ndarray:
    """The non-negative Laurent coefficients a_0 .. a_length of ``f`` on
    the annulus r0 < |z| < R (r0 < 1 < R) where it is analytic, read with
    per-order contours.

    A single circle |z| = rho recovers every coefficient with roughly the
    same *absolute* error eps * max|f| on the circle, i.e. with a relative
    error that explodes once a_j decays below that level.  Balancing
    max|f(rho)| / rho**j per order (the saddle-point choice) keeps the
    relative error near eps for as long as the coefficient is representable
    at all.  This walks a geometric ladder of radii in (1, max_radius] and
    keeps for each order the sample from the circle with the smallest
    modelled error log max|f| - j log rho.

    The walk stops by Hadamard's three-circle theorem: on an annulus where
    f is analytic, log max|f| on |z| = rho is convex in log rho, so the
    secant slope between consecutive rungs never falls.  A rung whose slope
    falls below the previous one lies past a singularity, reads the
    coefficients of another annulus, and is not kept.  Once the slope
    reaches ``length``, every order's modelled error grows from there on,
    so the walk stops too.  It also stops at a circle whose samples are not
    finite or whose peak passes the overflow guard; on the innermost circle
    a sample that is not finite is an error.

    ``length`` must lie in [0, DEFAULT_SAMPLES // 2): higher orders alias
    with the negative ones on the sampling circle.
    """
    if not 0 <= length < DEFAULT_SAMPLES // 2:
        raise ValueError(
            f"length must be in [0, {DEFAULT_SAMPLES // 2}), got {length}"
        )
    orders = np.arange(length + 1, dtype=float)
    best = np.zeros(length + 1, dtype=complex)
    best_log = np.full(length + 1, np.inf)
    slope = -math.inf
    for rung, rho in enumerate(_ladder_radii(max_radius)):
        with np.errstate(all="ignore"):
            vals = np.asarray(f(rho * _UNIT_CIRCLE), dtype=complex)
        if not np.all(np.isfinite(vals)):
            if rung:
                break
            bad = np.argmax(~np.isfinite(vals))
            raise ApproximationError(
                f"sample {bad} on the innermost contour (radius {rho}) is "
                "not finite; the function is singular at the unit circle"
            )
        peak = float(np.max(np.abs(vals)))
        if peak > _OVERFLOW_GUARD:
            break
        log_rho = math.log(rho)
        log_peak = math.log(peak) if peak > 0.0 else -math.inf
        if rung:
            new_slope = (log_peak - prev_log_peak) / (log_rho - prev_log_rho)
            if not slope <= new_slope < length:  # NaN: f is 0 on both
                break
            slope = new_slope
        prev_log_rho, prev_log_peak = log_rho, log_peak
        cand_log = log_peak - orders * log_rho
        better = cand_log < best_log
        with np.errstate(under="ignore"):
            cand = (_circle_coefficients(vals, length + 1)
                    * np.exp(-orders * log_rho))
        best[better] = cand[better]
        best_log[better] = cand_log[better]
    return best


def _singular_triple(h_mat: np.ndarray, index: int):
    """The (index+1)-st singular triple (sigma, u, v) of a real Hankel matrix.

    The symmetric eigendecomposition is used: sigma = |lambda|, v = the
    eigenvector, u = sign(lambda) * v.  This resolves the strongly graded
    spectra of smooth-symbol Hankel matrices to *relative* accuracy
    (singular values far below 1e-16 * sigma_1 come out correct), whereas a
    generic SVD bottoms out at the noise floor and returns garbage vectors
    there.  It also makes u = +/- v hold exactly, which the downstream
    root/Blaschke structure relies on.  The coefficients of exp through the
    map are the real Bessel values J_k(r1), so a window whose imaginary part
    exceeds 1e-12 of its largest entry is refused.
    """
    scale = np.max(np.abs(h_mat))
    imag = np.max(np.abs(h_mat.imag))
    if imag > 1e-12 * scale:
        raise ApproximationError(
            f"the coefficient window is complex: max|Im a_j| / max|a_j| = "
            f"{imag / scale:.3e} exceeds 1e-12; only real Hankel matrices "
            "are supported"
        )
    w, q_mat = np.linalg.eigh(h_mat.real)
    order = np.argsort(-np.abs(w))
    lam = w[order[index]]
    v = q_mat[:, order[index]].astype(complex)
    u = math.copysign(1.0, lam) * v
    return abs(lam), u, v


# ---------------------------------------------------------------------------
# Caratheodory-Fejer step on the disc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CFApproximation:
    """Rational approximant on the unit disc in pole/numerator form.

    r(z) = (sum_k numerator_coeffs[k] z^k) / prod_j (z - poles_outside[j])

    ``sigma`` is the singular value driving the construction; it equals the
    deviation of the underlying extended approximant from the target on the
    unit circle.
    """

    numerator_coeffs: np.ndarray
    poles_outside: np.ndarray
    sigma: float
    warnings: tuple[str, ...] = ()

    @property
    def n_poles(self) -> int:
        return len(self.poles_outside)


def _cf_input(a: Sequence[complex], n: int):
    """(a, sigma, u, v): the window as a complex array and the (n+1)-st
    singular triple of its Hankel matrix, with degeneracy guard."""
    if check_integer("degree n", n) < 1:
        raise ValueError(f"degree n must be >= 1, got {n}")
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1:
        raise ValueError(
            f"coefficient window must be 1-D, got shape {a.shape}")
    if len(a) - 1 < 2 * n:
        raise ValueError(
            f"series too short for degree {n}: need at least {2 * n + 1} "
            f"coefficients, got {len(a)}"
        )
    sigma, u, v = _singular_triple(hankel(a), n)
    # Exactly-rational targets of lower degree make the (n+1)-st singular
    # value vanish.  Only a true zero (or subnormal) counts as degenerate:
    # legitimate smooth targets reach sigma values like 1e-41, far below
    # the naive machine-epsilon cutoffs, and those must still work.
    if sigma < np.finfo(float).tiny:
        raise ApproximationError(
            f"singular value at index {n} is zero to machine precision "
            f"({sigma:.3e}); the target is effectively rational of degree "
            f"< {n} and the construction is degenerate"
        )
    return a, sigma, u, v


def _circle_error(sigma: float, u: np.ndarray, v: np.ndarray,
                  length: int) -> np.ndarray:
    """The error term sigma * z^L * p(z)/q(z) of the extended approximant
    on the unit circle, with p = u ascending and q(z) = z^L v(1/z)."""
    zc = _UNIT_CIRCLE
    p_vals = npoly.polyval(zc, u)
    q_vals = npoly.polyval(zc, v[::-1])
    return sigma * zc**length * p_vals / q_vals


def cf_approximate(a: Sequence[complex], n: int) -> CFApproximation:
    """Degree-(n-1, n) rational approximant of a power series on the disc.

    The (n+1)-st singular triple (sigma, u, v) of the coefficient Hankel
    matrix defines polynomials p (coefficients u, ascending) and
    q(z) = z^L v(1/z); the extended approximant is h - sigma z^L p/q, and
    its error on the unit circle has modulus exactly sigma.  The factor of
    q with roots outside the closed unit disc becomes the denominator of
    the returned rational; its numerator is read off by FFT from samples of
    q_out * (h - sigma z^L p/q) -- the error term is always evaluated in
    this product form, never as an explicit subtraction of nearly equal
    quantities.

    Roots within ``CIRCLE_TOL`` of the unit circle are not counted as
    poles; each one is recorded as a warning on the result.  A pole count
    below n, whatever its cause, is recorded as a warning too.
    """
    a, sigma, u, v = _cf_input(a, n)
    length = len(a) - 1

    # q's coefficients in descending powers of z are exactly v.
    roots = np.roots(v)
    mods = np.abs(roots)
    outside = roots[mods > 1.0 + CIRCLE_TOL]
    warnings = tuple(
        f"denominator root at z = {z} lies within {CIRCLE_TOL} of the unit "
        "circle; it was not counted as a pole and the pole count may be "
        "unreliable"
        for z in roots[np.abs(mods - 1.0) <= CIRCLE_TOL]
    )
    if len(outside) < n:
        warnings += (
            f"only {len(outside)} of the {n} denominator roots lie outside "
            f"the unit circle; the approximant has {len(outside)} poles, "
            f"not {n}",
        )
    if len(outside) == 0:
        raise ApproximationError(
            "no denominator roots outside the unit circle; the target admits "
            "no stable pole set at this degree"
        )
    if len(outside) > n:
        raise ApproximationError(
            f"found {len(outside)} denominator roots outside the unit circle "
            f"for degree n = {n}; the singular vector is dominated by noise "
            "(try a longer coefficient window)"
        )

    h_vals = npoly.polyval(_UNIT_CIRCLE, a)
    err_vals = _circle_error(sigma, u, v, length)
    if not np.all(np.isfinite(err_vals)):
        raise ApproximationError(
            "denominator vanished on a unit-circle sample point; the "
            "singular vector has a root on the sampling grid"
        )

    numer_samples = (npoly.polyvalfromroots(_UNIT_CIRCLE, outside)
                     * (h_vals - err_vals))
    return CFApproximation(
        numerator_coeffs=_circle_coefficients(numer_samples, n),
        poles_outside=outside.copy(),
        sigma=sigma,
        warnings=warnings,
    )


def cf_circle_error(a: Sequence[complex], n: int) -> tuple[float, np.ndarray]:
    """(sigma, |target - extended approximant| on unit-circle samples).

    The pointwise error is evaluated through the stable product form
    sigma * z^L * p(z)/q(z); in exact arithmetic its modulus is the
    constant sigma, so the spread of the returned profile around sigma
    measures the numerical health of the singular triple.
    """
    a, sigma, u, v = _cf_input(a, n)
    return sigma, np.abs(_circle_error(sigma, u, v, len(a) - 1))


# ---------------------------------------------------------------------------
# Conformal transplant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoukowskiMap:
    """z -> (r1/2) (z - 1/z): exterior of the unit disc onto the complement
    of the segment i*[-r1, r1], unit circle onto the segment itself."""

    r1: float

    def __post_init__(self):
        if not (math.isfinite(self.r1) and self.r1 > 0.0):
            raise ValueError(
                f"interval radius r1 must be finite and positive, got {self.r1}")


def joukowski_eval(mp: JoukowskiMap, z) -> np.ndarray | complex:
    """Evaluate the map; z = 0 is outside its domain."""
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr == 0):
        raise ValueError("the conformal map is not defined at z = 0")
    out = 0.5 * mp.r1 * (z_arr - 1.0 / z_arr)
    return out if z_arr.ndim else complex(out)


# ---------------------------------------------------------------------------
# Partial-fraction result type and its evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFractionApproximation:
    """r(z) = sum_j weights[j] / (z - shifts[j]) approximating exp on
    i*[-domain_radius, domain_radius].

    ``sup_error`` is measured by dense sampling on the interval, not
    estimated.  ``stabilize_factor`` records the total uniform damping of
    the weights (see :func:`stabilize`), None for undamped weights.  Values
    no construction produces are refused: no poles, an R1 that is not
    finite and positive, shifts, weights or a sup error that are not
    finite, a damping factor outside (0, 1), and repeated shifts (a
    repeated shift is one pole, not two).
    """

    shifts: np.ndarray
    weights: np.ndarray
    domain_radius: float
    sup_error: float
    stabilize_factor: float | None = None
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "shifts", np.asarray(self.shifts, dtype=complex))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))
        if len(self.shifts) != len(self.weights):
            raise ValueError("shifts and weights must have equal length")
        if not self.K:
            raise ValueError("K must be >= 1, got 0")
        r1 = self.domain_radius
        if not (math.isfinite(r1) and r1 > 0):
            raise ValueError(f"R1 must be finite and positive, got {r1}")
        for key in ("shifts", "weights", "sup_error"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must be finite")
        factor = self.stabilize_factor
        if factor is not None and not 0.0 < factor < 1.0:
            raise ValueError(
                f"stabilize_factor must lie in (0, 1), got {factor}")
        if len(np.unique(self.shifts)) != len(self.shifts):
            raise ValueError("shifts must be distinct")

    @property
    def K(self) -> int:
        return len(self.shifts)

    @property
    def stabilized(self) -> bool:
        return self.stabilize_factor is not None


def evaluate_pfd(approx: PartialFractionApproximation, z) -> np.ndarray | complex:
    """Evaluate the weighted pole sum at z (scalar or array).

    Each point's sum adds the quotients weights[j] / (z - shifts[j]) in
    ascending j.  Evaluation exactly on a shift is a pole of the rational
    function and raises, naming the shift of the first such point in C
    order, rather than returning inf.  Only a point whose sum is not
    finite can be on a shift (w/0 is inf or nan), so the points are
    compared with the shifts only then; a non-finite sum off every shift
    is returned.
    """
    z_arr = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotients = z_arr[..., None] - approx.shifts
        np.divide(approx.weights, quotients, out=quotients)
        out = np.sum(quotients, axis=-1)
    bad = ~np.isfinite(out)
    if bad.any():
        hits = np.argwhere(z_arr[bad][:, None] - approx.shifts == 0)
        if hits.size:
            raise ApproximationError(f"evaluation point coincides with the "
                                     f"shift {approx.shifts[hits[0, 1]]}")
    return out if z_arr.ndim else complex(out)


def sup_error_on_interval(approx: PartialFractionApproximation) -> float:
    """max |exp(ix) - r(ix)| over a dense grid on [-R1, R1].

    ``evaluate_pfd`` measures r, one block of the ascending grid at a
    time, so a grid point on a shift raises its error, naming the lowest
    such point's shift.
    """
    x = np.linspace(-approx.domain_radius, approx.domain_radius,
                    _SUP_CHECK_SAMPLES)
    blocks = np.split(1j * x, range(_SUP_CHECK_BLOCK, _SUP_CHECK_SAMPLES,
                                    _SUP_CHECK_BLOCK))
    return max(float(np.max(np.abs(np.exp(z) - evaluate_pfd(approx, z))))
               for z in blocks)


def stability_indicator(approx: PartialFractionApproximation, z) -> np.ndarray | float:
    """|r(z)| - 1: negative means the propagator contracts at that point."""
    vals = np.abs(evaluate_pfd(approx, z)) - 1.0
    return vals if np.asarray(z).ndim else float(vals)


def stabilize(
    approx: PartialFractionApproximation, eps: float
) -> PartialFractionApproximation:
    """Uniformly damp the weights by (1 - eps), 0 < eps < 1.

    This pushes |r| on the imaginary axis strictly below 1 (at the cost of
    adding eps * |r| to the approximation error) and re-measures the sup
    error of the damped rational.  Damping an already damped approximant
    multiplies (1 - eps) onto its recorded ``stabilize_factor``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"stabilization eps must lie in (0, 1), got {eps}")
    factor = 1.0 - eps
    prior = approx.stabilize_factor
    damped = replace(
        approx,
        weights=approx.weights * factor,
        stabilize_factor=factor if prior is None else prior * factor,
    )
    return replace(damped, sup_error=sup_error_on_interval(damped))


# ---------------------------------------------------------------------------
# The combined construction: map + CF + weight fit
# ---------------------------------------------------------------------------

def _distance_to_interval(s: np.ndarray, r1: float) -> np.ndarray:
    """Distance from each point of s to the segment i*[-r1, r1]."""
    return np.hypot(s.real, np.maximum(np.abs(s.imag) - r1, 0.0))


def check_shift_distance(shifts: np.ndarray, r1: float) -> None:
    """Refuse any shift within MIN_SHIFT_DISTANCE_REL * r1 of i[-r1, r1],
    where its shifted system would be near-singular, naming the nearest."""
    dist = _distance_to_interval(shifts, r1)
    j = int(np.argmin(dist))
    if dist[j] < MIN_SHIFT_DISTANCE_REL * r1:
        raise ApproximationError(
            f"shift j = {j} (sigma = {shifts[j]}) lies within "
            f"{dist[j]:.3e} of the approximation interval i[-R1, R1]; its "
            "shifted system would be near-singular")


def rounding_floor(approx: PartialFractionApproximation) -> float:
    """eps * sum_j |beta_j| / dist(sigma_j, i*[-R1, R1]).

    The sum bounds sum_j |beta_j / (ix - sigma_j)| on the whole interval,
    so this is the scale of the rounding error of the pole sum there."""
    dist = _distance_to_interval(approx.shifts, approx.domain_radius)
    return float(np.finfo(float).eps * np.sum(np.abs(approx.weights) / dist))


def faber_cf(mp: JoukowskiMap, degree: int = 16) -> PartialFractionApproximation:
    """Partial-fraction approximation of exp on i*[-r1, r1].

    Runs the full pipeline: expansion coefficients of exp through the map
    (window a_0 .. a_DEFAULT_TRUNCATION), the disc-side rational
    construction at ``degree``, forward mapping of the poles to shifts, and
    a linear fit of the weights so the first K expansion coefficients of
    the weighted pole sum match those of the disc rational.  The series of
    exp through the map and the per-pole sequences all come from one
    adaptive ladder of circles (see :func:`_series_from_radius_ladder`).

    The K x K weight system is max-abs row/column equilibrated before the
    dense solve (the raw columns differ in scale by many orders because the
    per-pole coefficient sequences decay like |z_k|**-j); the condition
    threshold applies to the equilibrated matrix.  The returned sup error
    is measured on a dense grid of the interval.
    """
    cf = cf_approximate(_series_from_radius_ladder(
        lambda z: np.exp(joukowski_eval(mp, z)), DEFAULT_TRUNCATION), degree)
    n_poles = cf.n_poles
    warnings = cf.warnings

    shifts = np.asarray(joukowski_eval(mp, cf.poles_outside))
    check_shift_distance(shifts, mp.r1)

    # Disc expansion of the rational approximant (unit circle suffices: the
    # poles are well outside).
    r_vals = (npoly.polyval(_UNIT_CIRCLE, cf.numerator_coeffs)
              / npoly.polyvalfromroots(_UNIT_CIRCLE, cf.poles_outside))
    c_vec = _circle_coefficients(r_vals, n_poles)

    # Per-pole expansion sequences through the map.  The expansions only
    # converge inside the smallest disc-side pole modulus, so the adaptive
    # ladder is capped at two thirds of the way there (log scale).
    b_mat = np.empty((n_poles, n_poles), dtype=complex)
    b_cap = float(np.min(np.abs(cf.poles_outside))) ** (2.0 / 3.0)
    for k, s_k in enumerate(shifts):
        b_mat[:, k] = _series_from_radius_ladder(
            lambda z, s=s_k: 1.0 / (joukowski_eval(mp, z) - s),
            n_poles - 1, max_radius=b_cap,
        )

    # Max-abs equilibration: D_r B D_c has unit-scale rows and columns.
    d_row = 1.0 / np.max(np.abs(b_mat), axis=1)
    b_eq = b_mat * d_row[:, None]
    d_col = 1.0 / np.max(np.abs(b_eq), axis=0)
    b_eq = b_eq * d_col[None, :]
    cond = float(np.linalg.cond(b_eq))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ApproximationError(
            f"weight system condition {cond:.3e} exceeds the limit "
            f"{CONDITION_LIMIT:.1e}; the pole configuration cannot support a "
            "reliable weight fit"
        )
    weights = np.linalg.solve(b_eq, c_vec * d_row) * d_col

    approx = PartialFractionApproximation(
        shifts=shifts,
        weights=weights,
        domain_radius=mp.r1,
        sup_error=0.0,
        warnings=warnings,
    )
    return replace(approx, sup_error=sup_error_on_interval(approx))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_JSON_KEYS = ("K", "R1", "shifts", "weights", "sup_error", "stabilized",
              "stabilize_factor")


def approx_to_json(approx: PartialFractionApproximation) -> str:
    """Serialize with a fixed key order.

    Floats are written as the shortest decimal that reads back to the same
    double.  Complex shifts/weights are written as [re, im] pairs.  A
    ``warnings`` list follows the other keys only when the approximant has
    warnings.
    """
    def pairs(arr):
        return np.column_stack([arr.real, arr.imag]).tolist()

    factor = approx.stabilize_factor
    doc = {
        "K": approx.K,
        "R1": float(approx.domain_radius),
        "shifts": pairs(approx.shifts),
        "weights": pairs(approx.weights),
        "sup_error": float(approx.sup_error),
        "stabilized": approx.stabilized,
        "stabilize_factor": None if factor is None else float(factor),
    }
    if approx.warnings:
        doc["warnings"] = list(approx.warnings)
    return json.dumps(doc)


def _json_number(value, key: str) -> float:
    """``value`` as a float; a ValueError naming ``key`` unless it is a
    JSON number (NaN and Infinity included) in the float range."""
    try:
        if type(value) in (int, float):  # not bool
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _json_complex(pairs, key: str) -> np.ndarray:
    """A JSON list of [re, im] number pairs as a complex array."""
    if type(pairs) is not list or any(type(p) is not list or len(p) != 2
                                      for p in pairs):
        raise ValueError(f"{key} must be a list of [re, im] pairs")
    return np.array([complex(*(_json_number(x, key) for x in p))
                     for p in pairs], dtype=complex)


def approx_from_json(text: str) -> PartialFractionApproximation:
    """Inverse of :func:`approx_to_json` (bit-exact for the float fields).

    A document without a ``warnings`` key loads with no warnings.  A
    value of the wrong JSON type, a K that disagrees with the lengths of
    shifts and weights, and a damping factor that disagrees with
    ``stabilized`` are refused here, with a message that names the key;
    :class:`PartialFractionApproximation` refuses the values no
    construction produces."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("approximation JSON must be an object")
    missing = [k for k in _JSON_KEYS if k not in raw]
    if missing:
        raise ValueError(f"approximation JSON is missing keys: {missing}")
    k = raw["K"]
    if type(k) is not int:  # not bool
        raise ValueError(f"K must be an integer, got {k!r}")
    shifts = _json_complex(raw["shifts"], "shifts")
    weights = _json_complex(raw["weights"], "weights")
    if len(shifts) != k or len(weights) != k:
        raise ValueError("K does not match the length of shifts/weights")
    r1 = _json_number(raw["R1"], "R1")
    sup_error = _json_number(raw["sup_error"], "sup_error")
    stabilized = raw["stabilized"]
    if not isinstance(stabilized, bool):
        raise ValueError(
            f"stabilized must be true or false, got {stabilized!r}")
    factor = raw["stabilize_factor"]
    if factor is not None:
        factor = _json_number(factor, "stabilize_factor")
    if stabilized != (factor is not None):
        raise ValueError(f"stabilized is {json.dumps(stabilized)} but "
                         f"stabilize_factor is {json.dumps(factor)}")
    warnings = raw.get("warnings", [])
    if not (isinstance(warnings, list)
            and all(isinstance(w, str) for w in warnings)):
        raise ValueError("warnings must be a list of strings")
    return PartialFractionApproximation(
        shifts=shifts,
        weights=weights,
        domain_radius=r1,
        sup_error=sup_error,
        stabilize_factor=factor,
        warnings=tuple(warnings),
    )
