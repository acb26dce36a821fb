"""Tests for the rational-approximation pipeline (series, Hankel, CF, map)."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.linalg import hankel
from scipy.special import gammaln, jv

from rexiprop import approx as approx_module
from rexiprop.approx import (
    CFApproximation,
    JoukowskiMap,
    PartialFractionApproximation,
    approx_from_json,
    approx_to_json,
    cf_approximate,
    _distance_to_interval,
    _ladder_radii,
    _series_from_radius_ladder,
    cf_circle_error,
    evaluate_pfd,
    faber_cf,
    joukowski_eval,
    stability_indicator,
    stabilize,
    sup_error_on_interval,
)
from rexiprop.errors import ApproximationError


# ---------------------------------------------------------------------------
# Hankel windows
# ---------------------------------------------------------------------------

def test_hankel_rejects_other_shapes():
    # The window must be a non-empty 1-D sequence.
    for build in (cf_approximate, cf_circle_error):
        with pytest.raises(ValueError, match="too short"):
            build([], 1)
        with pytest.raises(ValueError, match=r"1-D, got shape \(2, 2\)"):
            build([[1.0, 2.0], [3.0, 4.0]], 1)


def test_hankel_exp_singular_values_decay_geometrically():
    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    s = np.linalg.svd(hankel(a), compute_uv=False)
    # Smooth symbol: monotone decay with consecutive ratios well below one,
    # steepening rapidly after the first step.
    ratios = s[1:7] / s[:6]
    assert np.all(ratios < 0.25)
    assert np.all(ratios[1:] < 0.05)


# ---------------------------------------------------------------------------
# Joukowski-type map
# ---------------------------------------------------------------------------

def test_map_fixed_values():
    mp = JoukowskiMap(10.0)
    assert joukowski_eval(mp, 1.0) == pytest.approx(0.0)
    assert joukowski_eval(mp, 1j) == pytest.approx(10j)


def test_map_unit_circle_lands_on_interval():
    mp = JoukowskiMap(10.0)
    theta = np.linspace(0.0, 2 * np.pi, 1000, endpoint=False)
    w = joukowski_eval(mp, np.exp(1j * theta))
    assert np.max(np.abs(w.real)) < 1e-13
    assert np.max(np.abs(w.imag)) <= 10.0 + 1e-12


def test_map_rejects_origin():
    with pytest.raises(ValueError):
        joukowski_eval(JoukowskiMap(10.0), 0.0)


def test_map_rejects_bad_radius():
    with pytest.raises(ValueError):
        JoukowskiMap(0.0)
    with pytest.raises(ValueError):
        JoukowskiMap(-2.0)
    with pytest.raises(ValueError, match="finite and positive, got inf"):
        JoukowskiMap(float("inf"))


@settings(max_examples=200)
@given(
    st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
    )
)
def test_map_algebraic_identity(z):
    # 2*eta(z)*z/R1 == z**2 - 1 exactly characterizes the map.
    w = joukowski_eval(JoukowskiMap(10.0), z)
    lhs = 2.0 * w * z / 10.0
    assert abs(lhs - (z * z - 1.0)) <= 1e-13 * (1.0 + abs(z) ** 2)


# ---------------------------------------------------------------------------
# Expansion coefficients through the map
# ---------------------------------------------------------------------------

def _ladder_through_map(mp, g, length):
    """The ladder's coefficients a_0 .. a_length of g pulled back through
    the map, the way faber_cf samples exp."""
    return _series_from_radius_ladder(lambda z: g(joukowski_eval(mp, z)),
                                      length)


def test_coefficients_constant_target():
    a = _ladder_through_map(JoukowskiMap(10.0), lambda w: np.ones_like(w), 20)
    assert abs(a[0] - 1.0) < 1e-13
    assert np.max(np.abs(a[1:])) < 1e-13


def test_coefficients_identity_target():
    # g(w) = w pulls back to 5z - 5/z, whose nonnegative orders keep only a_1.
    a = _ladder_through_map(JoukowskiMap(10.0), lambda w: w, 20)
    assert abs(a[1] - 5.0) < 1e-12
    assert np.max(np.abs(np.delete(a, 1))) < 1e-12


def test_coefficients_exp_match_bessel():
    a = _ladder_through_map(JoukowskiMap(10.0), np.exp, 60)
    ref = jv(np.arange(61), 10.0)
    np.testing.assert_allclose(a, ref, rtol=1e-11, atol=0.0)


def test_coefficients_exp_decay_below_1e16():
    a = _ladder_through_map(JoukowskiMap(10.0), np.exp, 200)
    mags = np.abs(a)
    assert np.any(mags < 1e-16)
    assert int(np.argmax(mags < 1e-16)) < 200


def test_coefficients_input_validation():
    mp = JoukowskiMap(10.0)
    with pytest.raises(ValueError, match=r"\[0, 2048\)"):
        _ladder_through_map(mp, np.exp, 3000)
    with pytest.raises(ValueError):
        _ladder_through_map(mp, np.exp, 2048)


def test_coefficients_non_finite_inner_contour_is_an_error():
    mp = JoukowskiMap(10.0)
    with pytest.raises(ApproximationError,
                       match="innermost contour .* not finite"):
        _ladder_through_map(mp, lambda w: np.full_like(w, np.nan), 20)


def _recording(f):
    """f, and the list of radii of the circles it is sampled on: each
    circle's first sample is its radius times 1."""
    radii = []

    def sampled(z):
        radii.append(float(z[0].real))
        return f(z)

    return sampled, radii


def test_ladder_refuses_a_radius_at_the_unit_circle():
    with pytest.raises(ApproximationError, match="no sampling radius fits"):
        _ladder_radii(1.0001)
    # Up to 1.3, twelve geometric rungs end at the radius itself.
    rungs = _ladder_radii(1.2)
    assert len(rungs) == 12 and rungs[0] == 1.0001 and rungs[-1] == 1.2
    assert np.all(np.diff(rungs) > 0)


def test_ladder_stops_at_the_first_circle_past_the_overflow_guard():
    # exp(600 z) peaks at 4e260 on the first rung and 3e284 on the third.
    f, radii = _recording(lambda z: np.exp(600.0 * z))
    a = _series_from_radius_ladder(f, 700)
    rungs = _ladder_radii(1e4)
    assert radii == list(rungs[:3])
    peaks = [np.max(np.abs(np.exp(600.0 * r * approx_module._UNIT_CIRCLE)))
             for r in radii]
    assert peaks[1] < approx_module._OVERFLOW_GUARD < peaks[2] < np.inf
    # The orders the kept circles resolve are 600^j / j!.
    j = np.arange(550, 701)
    exact = np.exp(j * np.log(600.0) - gammaln(j + 1))
    np.testing.assert_allclose(a[550:], exact, rtol=1e-9, atol=0.0)


def test_ladder_stops_once_the_peak_shrinks_past_a_pole():
    # The pole at 1.4 lies between the rungs 1.3 and 1.68: the peak grows
    # to 1/0.1 at 1.3, then shrinks to 1/0.28, and that circle is the last.
    f, radii = _recording(lambda z: 1.0 / (z - 1.4))
    a = _series_from_radius_ladder(f, 20)
    rungs = _ladder_radii(1e4)
    assert rungs[6] == 1.3 and rungs[6] < 1.4 < rungs[7]
    assert radii == list(rungs[:8])
    np.testing.assert_allclose(a, -1.4 ** -np.arange(1.0, 22.0),
                               rtol=1e-13, atol=0.0)


def test_ladder_stops_at_non_finite_samples_after_the_first_circle():
    # A pole exactly on the second circle's first sample.
    pole = _ladder_radii(1e4)[1]
    f, radii = _recording(lambda z: 1.0 / (z - pole))
    a = _series_from_radius_ladder(f, 20)
    assert radii == list(_ladder_radii(1e4)[:2])
    np.testing.assert_allclose(a, -pole ** -np.arange(1.0, 22.0),
                               rtol=1e-13, atol=0.0)


def test_ladder_keeps_no_circle_past_a_pole_whose_peak_still_grows():
    # Past the pole at 1.5 the peak still grows, 5.0 at 1.3 to 5.3 at 1.69,
    # but the slope of log peak in log rho falls, so 1.69 is not kept.
    f, radii = _recording(lambda z: 1.0 / (z - 1.5))
    a = _series_from_radius_ladder(f, 20)
    rungs = _ladder_radii(1e4)
    assert rungs[6] < 1.5 < rungs[7]
    assert radii == list(rungs[:8])
    np.testing.assert_allclose(a, -1.5 ** -np.arange(1.0, 22.0),
                               rtol=1e-13, atol=0.0)


def test_ladder_reads_zeros_outside_a_pole_inside_the_unit_circle():
    # 1/(z - 0.999) is analytic for |z| > 0.999 and has no non-negative
    # orders there; its peak falls on every circle, with a rising slope.
    f, radii = _recording(lambda z: 1.0 / (z - 0.999))
    a = _series_from_radius_ladder(f, 20)
    assert radii == list(_ladder_radii(1e4))
    assert np.max(np.abs(a)) <= 1e-15
    # A function that is 0 on two circles has no slope; the walk stops.
    f, radii = _recording(lambda z: 0.0 * z)
    assert not np.any(_series_from_radius_ladder(f, 20))
    assert radii == list(_ladder_radii(1e4)[:2])


def test_ladder_refuses_lengths_that_alias_on_the_circle():
    # Orders from DEFAULT_SAMPLES // 2 up alias with negative ones.
    f, radii = _recording(lambda z: 1.0 / (z - 1.01) + 1.0 / (z - 0.99))
    for length in (2048, 3000):
        with pytest.raises(ValueError,
                           match=rf"\[0, 2048\), got {length}"):
            _series_from_radius_ladder(f, length, max_radius=1.005)
    assert radii == []


# ---------------------------------------------------------------------------
# Disc-side rational construction
# ---------------------------------------------------------------------------

def _geometric_series(pole=2.0, length=30):
    # 1/(z - pole) = -sum_j z**j / pole**(j+1) inside |z| < pole.
    return np.array([-(pole ** -(j + 1)) for j in range(length + 1)])


def test_cf_recovers_rational_target():
    cf = cf_approximate(_geometric_series(), 1)
    assert cf.n_poles == 1
    assert abs(cf.poles_outside[0] - 2.0) < 1e-6
    assert cf.sigma < 1e-9


def test_cf_theorem_equality_and_near_circularity():
    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    sigma, profile = cf_circle_error(a, 16)
    dev = np.abs(profile)
    assert abs(dev.max() - sigma) <= 1e-3 * sigma
    # The deviation is circular: constant modulus on the whole circle.
    assert (dev.max() - dev.min()) <= 1e-3 * dev.max()


@pytest.mark.parametrize("n", [3, 7, 12])
def test_cf_pole_count_never_exceeds_degree(n):
    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    cf = cf_approximate(a, n)
    assert 0 < cf.n_poles <= n


def test_cf_window_too_short():
    a = np.ones(10)
    with pytest.raises(ValueError, match="too short"):
        cf_approximate(a, 16)


def test_cf_degree_below_one_is_refused():
    with pytest.raises(ValueError, match="degree n must be >= 1, got 0"):
        cf_approximate([1.0, 0.5, 0.25], 0)


def test_cf_degree_that_is_not_an_integer_is_refused():
    # faber_cf used to raise numpy's IndexError at 16.0.
    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    for bad in (2.5, 16.0, True):
        for build in (cf_approximate, cf_circle_error):
            with pytest.raises(ValueError, match=re.escape(
                    f"degree n must be an integer, got {bad!r}")):
                build(a, bad)
    with pytest.raises(ValueError, match="degree n must be an integer, "
                       "got 16.0"):
        faber_cf(JoukowskiMap(10.0), 16.0)
    at_int64, at_int = cf_approximate(a, np.int64(4)), cf_approximate(a, 4)
    assert at_int64.poles_outside.tobytes() == at_int.poles_outside.tobytes()
    assert (at_int64.numerator_coeffs.tobytes()
            == at_int.numerator_coeffs.tobytes())


def test_cf_complex_window_is_refused():
    # Only real Hankel matrices are supported; exp through the map has the
    # real Bessel coefficients J_k(r1).
    a = np.array([1.0 / math.factorial(j) for j in range(41)], dtype=complex)
    a[3] += 1e-9j
    for build in (cf_approximate, cf_circle_error):
        with pytest.raises(ApproximationError,
                           match=r"complex: max\|Im a_j\| / max\|a_j\| = "
                                 r"1\.000e-09 exceeds 1e-12"):
            build(a, 4)
    # Rounding-level imaginary parts below the threshold are ignored.
    a[3] = a[3].real + 1e-13j
    assert cf_approximate(a, 4).n_poles > 0


def test_cf_degenerate_tail_is_an_error():
    # A polynomial symbol of lower degree has an exactly zero singular value
    # at this index; the construction cannot proceed.
    with pytest.raises(ApproximationError, match="singular value"):
        cf_approximate([1.0] + [0.0] * 10, 2)


# ---------------------------------------------------------------------------
# Full construction on the interval
# ---------------------------------------------------------------------------

def test_flagship_pole_count_and_certificate(flagship):
    assert flagship.K == 16
    assert 5e-10 <= flagship.sup_error <= 1e-8
    assert flagship.domain_radius == 10.0
    assert not flagship.stabilized
    assert flagship.stabilize_factor is None


def test_flagship_value_at_origin(flagship):
    assert abs(evaluate_pfd(flagship, 0.0) - 1.0) <= flagship.sup_error


def test_flagship_value_on_interval(flagship):
    assert abs(evaluate_pfd(flagship, 5j) - np.exp(5j)) <= 2.38e-9


def test_flagship_far_field_decay(flagship):
    val = abs(evaluate_pfd(flagship, 1e6))
    assert val < 1e-4
    tail_bound = np.abs(flagship.weights).sum() / (
        1e6 - np.abs(flagship.shifts).max()
    )
    assert val <= tail_bound


def test_flagship_shifts_clear_the_interval(flagship):
    s = flagship.shifts
    assert len(np.unique(np.round(s, 12))) == len(s)
    on_axis = (np.abs(s.real) < 1e-8) & (np.abs(s.imag) <= 10.0)
    assert not np.any(on_axis)


def test_flagship_is_clean(flagship):
    assert flagship.warnings == ()


def test_distance_to_interval_matches_geometry():
    # Inside the band |Im s| <= r1 the nearest point of i[-r1, r1] is
    # i*Im(s); above and below it is the nearer endpoint +-i*r1.
    r1 = 2.0
    s = np.array([3.0 + 1.5j, -0.5 - 2.0j, 4.0 + 5.0j, -1.0 - 6.0j,
                  7j, -2.5 + 0j, 1.0j])
    expected = [3.0, 0.5, 5.0, math.sqrt(17.0), 5.0, 2.5, 0.0]
    np.testing.assert_allclose(_distance_to_interval(s, r1), expected,
                               rtol=1e-15, atol=0.0)


def test_faber_cf_refuses_more_poles_than_the_degree():
    with pytest.raises(ApproximationError, match=(
            "found 26 denominator roots outside the unit circle for "
            "degree n = 24")):
        faber_cf(JoukowskiMap(20.0), 24)


def test_faber_cf_refuses_an_ill_conditioned_weight_system():
    with pytest.raises(ApproximationError, match=re.escape(
            "weight system condition 4.192e+13 exceeds the limit 1.0e+12")):
        faber_cf(JoukowskiMap(30.0), 40)


def test_faber_cf_refuses_shift_near_the_interval(monkeypatch):
    # A disc pole just outside i maps to a shift next to the endpoint 10i:
    # refused by the rule the REXI stepper applies, naming the shift.
    def near_pole(a, n):
        return CFApproximation(numerator_coeffs=np.ones(1, dtype=complex),
                               poles_outside=np.array([1j * (1 + 1e-6)]),
                               sigma=0.0)

    monkeypatch.setattr(approx_module, "cf_approximate", near_pole)
    with pytest.raises(ApproximationError, match=r"j = 0 \(sigma = "):
        faber_cf(JoukowskiMap(10.0), degree=1)


def test_pfd_single_pole_value():
    ap = PartialFractionApproximation(
        shifts=np.array([-1.0 + 0j]),
        weights=np.array([1.0 + 0j]),
        domain_radius=1.0,
        sup_error=0.0,
    )
    assert evaluate_pfd(ap, 0.0) == pytest.approx(1.0)


def test_pfd_pole_hit_is_an_error(flagship):
    # A scalar on a shift, whose quotient is w/0, or 0/0 with a zero weight.
    weights = flagship.weights.copy()
    weights[3] = 0.0
    for ap in (flagship, replace(flagship, weights=weights)):
        with pytest.raises(ApproximationError, match=re.escape(
                f"coincides with the shift {flagship.shifts[3]}")):
            evaluate_pfd(ap, complex(flagship.shifts[3]))


def test_pfd_names_the_first_coinciding_point_in_c_order(flagship):
    s = flagship.shifts
    z = np.array([[0.5j, s[5]], [s[2], 1.0]])
    with pytest.raises(ApproximationError) as raised:
        evaluate_pfd(flagship, z)
    assert str(raised.value) == f"evaluation point coincides with the shift {s[5]}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pfd_coincidence_raises_no_runtime_warning(flagship):
    # A zero weight makes the point's quotient 0/0, a nonzero one w/0.
    weights = flagship.weights.copy()
    weights[4] = 0.0
    zero_weight = replace(flagship, weights=weights)
    for ap, j in ((flagship, 7), (zero_weight, 4)):
        z = 1j * np.linspace(-10.0, 10.0, 11)
        z[3] = ap.shifts[j]
        with pytest.raises(ApproximationError, match=re.escape(
                str(ap.shifts[j]))):
            evaluate_pfd(ap, z)


def test_pfd_returns_a_non_finite_sum_off_every_shift():
    ap = PartialFractionApproximation(
        shifts=np.array([-1.0 + 0j, 2.0 + 3j]),
        weights=np.array([1e308 + 0j, 1.0 + 0j]),
        domain_radius=1.0,
        sup_error=0.0,
    )
    z = np.array([0.0, np.nextafter(-1.0, 0.0)])
    with np.errstate(over="ignore"):
        out = evaluate_pfd(ap, z)
    assert np.isfinite(out[0]) and not np.isfinite(out[1])


def test_pfd_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        PartialFractionApproximation(
            shifts=np.array([1.0 + 0j]),
            weights=np.array([1.0, 2.0]),
            domain_radius=1.0,
            sup_error=0.0,
        )


def test_pfd_refuses_values_no_construction_produces():
    # The loader's messages, checked in the loader's order.
    good = dict(shifts=np.array([-1.0 + 2j, -2.0 - 1j]),
                weights=np.array([1.0 + 0j, 2.0 - 1j]),
                domain_radius=10.0, sup_error=1e-9)
    bad_shift = good["shifts"].copy()
    bad_shift[1] = complex(np.nan, 1.0)
    bad_weight = good["weights"].copy()
    bad_weight[0] = np.inf
    cases = [
        (dict(shifts=[], weights=[]), "K must be >= 1, got 0"),
        (dict(domain_radius=0.0), "R1 must be finite and positive, got 0.0"),
        (dict(domain_radius=-10.0), "R1 must be finite and positive"),
        (dict(domain_radius=np.inf), "R1 must be finite and positive, got inf"),
        (dict(domain_radius=np.nan), "R1 must be finite and positive, got nan"),
        (dict(shifts=bad_shift), "shifts must be finite"),
        (dict(weights=bad_weight), "weights must be finite"),
        (dict(sup_error=np.nan), "sup_error must be finite"),
        (dict(sup_error=np.inf), "sup_error must be finite"),
        (dict(stabilize_factor=1.0),
         r"stabilize_factor must lie in \(0, 1\), got 1.0"),
        (dict(stabilize_factor=0.0), r"stabilize_factor must lie in \(0, 1\)"),
        (dict(stabilize_factor=np.nan),
         r"stabilize_factor must lie in \(0, 1\), got nan"),
        # Two faults: the earlier check in the loader's order names it.
        (dict(domain_radius=np.nan, sup_error=np.nan), "R1"),
        (dict(weights=bad_weight, stabilize_factor=2.0), "weights"),
    ]
    for bad, match in cases:
        with pytest.raises(ValueError, match=match):
            PartialFractionApproximation(**{**good, **bad})
    PartialFractionApproximation(**good, stabilize_factor=0.5)


# ---------------------------------------------------------------------------
# Interval error measurement
# ---------------------------------------------------------------------------

def test_sup_error_equals_unblocked_max(flagship):
    # The blocked evaluation changes no point's pole sum.
    z = 1j * np.linspace(-10.0, 10.0, 100_000)
    full = float(np.max(np.abs(np.exp(z) - evaluate_pfd(flagship, z))))
    assert sup_error_on_interval(flagship) == full
    assert flagship.sup_error == full


def test_sup_error_names_a_shift_on_the_grid(flagship):
    # Two shifts moved exactly onto grid points: the lower one is named,
    # as evaluating the whole grid at once names it.
    x = np.linspace(-10.0, 10.0, 100_000)
    shifts = flagship.shifts.copy()
    shifts[3], shifts[9] = 1j * x[70_000], 1j * x[123]
    on_grid = replace(flagship, shifts=shifts)
    with pytest.raises(ApproximationError) as whole_grid:
        evaluate_pfd(on_grid, 1j * x)
    with pytest.raises(ApproximationError, match=re.escape(str(shifts[9]))
                       ) as certificate:
        sup_error_on_interval(on_grid)
    assert str(certificate.value) == str(whole_grid.value)


def test_sup_error_matches_stored_certificate(flagship):
    assert sup_error_on_interval(flagship) == pytest.approx(flagship.sup_error)


def test_sup_error_monotone_in_interval_width(flagship, interval_grid):
    err = np.abs(
        evaluate_pfd(flagship, 1j * interval_grid) - np.exp(1j * interval_grid)
    )
    half = len(interval_grid) // 2
    widths = [100, 1000, 10_000, half]
    sups = [err[half - w : half + w + 1].max() for w in widths]
    assert all(a <= b for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# Stability indicator and stabilization
# ---------------------------------------------------------------------------

def test_indicator_on_interval_small_positive(flagship, interval_grid):
    ind = stability_indicator(flagship, 1j * interval_grid)
    assert ind.max() < 1e-8
    assert ind.max() > -1e-8


def test_indicator_deep_left_half_plane(flagship):
    assert stability_indicator(flagship, -1e6) == pytest.approx(-1.0, abs=1e-4)


def test_stabilize_scales_and_contracts(flagship, interval_grid):
    st_ap = stabilize(flagship, 1e-8)
    assert st_ap.stabilized
    assert st_ap.stabilize_factor == pytest.approx(1.0 - 1e-8)
    np.testing.assert_array_equal(st_ap.shifts, flagship.shifts)
    ind = stability_indicator(st_ap, 1j * interval_grid)
    assert ind.max() <= 0.0


def test_stabilize_scales_values_linearly(flagship):
    # Linearity in the weights holds up to the rounding of the pole sum,
    # whose terms are ~1e7 and cancel down to O(1).
    st_ap = stabilize(flagship, 1e-3)
    for z in (0.3 + 0.1j, 5j, -2.0):
        expected = (1.0 - 1e-3) * evaluate_pfd(flagship, z)
        term_scale = np.sum(np.abs(flagship.weights / (z - flagship.shifts)))
        tol = 8 * np.finfo(float).eps * term_scale
        assert abs(evaluate_pfd(st_ap, z) - expected) <= tol


def test_stabilize_twice_records_the_product(flagship):
    once = stabilize(flagship, 1e-3)
    twice = stabilize(once, 1e-3)
    assert twice.stabilized
    assert twice.stabilize_factor == 0.999 * 0.999
    np.testing.assert_array_equal(twice.weights, once.weights * 0.999)
    back = approx_from_json(approx_to_json(twice))
    assert back.stabilize_factor == twice.stabilize_factor


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
def test_stabilize_rejects_out_of_range(flagship, eps):
    with pytest.raises(ValueError):
        stabilize(flagship, eps)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_is_exact(flagship):
    text = approx_to_json(flagship)
    back = approx_from_json(text)
    np.testing.assert_array_equal(back.shifts, flagship.shifts)
    np.testing.assert_array_equal(back.weights, flagship.weights)
    assert back.sup_error == flagship.sup_error
    assert back.stabilized == flagship.stabilized
    assert back.stabilize_factor == flagship.stabilize_factor
    # Round-tripping the text itself is a fixed point.
    assert approx_to_json(back) == text


def test_json_17_digit_documents_load_to_the_same_bits(flagship):
    # Files written with 17 significant digits per float still load exactly.
    def g17(x):
        return format(float(x), ".17g")

    def pairs(arr):
        return "[" + ", ".join(f"[{g17(v.real)}, {g17(v.imag)}]"
                               for v in arr) + "]"

    text = (f'{{"K": 16, "R1": {g17(10.0)}, '
            f'"shifts": {pairs(flagship.shifts)}, '
            f'"weights": {pairs(flagship.weights)}, '
            f'"sup_error": {g17(flagship.sup_error)}, '
            '"stabilized": false, "stabilize_factor": null}')
    back = approx_from_json(text)
    np.testing.assert_array_equal(back.shifts, flagship.shifts)
    np.testing.assert_array_equal(back.weights, flagship.weights)
    assert back.sup_error == flagship.sup_error
    assert approx_to_json(back) == approx_to_json(flagship)


def test_json_key_order_and_shapes(flagship):
    doc = json.loads(approx_to_json(flagship))
    assert list(doc.keys()) == [
        "K", "R1", "shifts", "weights", "sup_error", "stabilized",
        "stabilize_factor",
    ]
    assert doc["K"] == 16
    assert '"R1": 10.0, ' in approx_to_json(flagship)
    assert len(doc["shifts"]) == 16
    assert all(len(pair) == 2 for pair in doc["shifts"])


def test_json_round_trip_keeps_warnings(flagship):
    noted = replace(flagship, warnings=("first", 'a "quoted" \\ note'))
    text = approx_to_json(noted)
    assert list(json.loads(text))[-1] == "warnings"
    back = approx_from_json(text)
    assert back.warnings == noted.warnings
    assert approx_to_json(back) == text
    with pytest.raises(ValueError, match="warnings"):
        approx_from_json(text.replace('"first"', "1"))


def test_json_rejects_malformed_documents(flagship):
    doc = json.loads(approx_to_json(flagship))
    truncated = dict(doc)
    del truncated["weights"]
    with pytest.raises(ValueError, match="weights"):
        approx_from_json(json.dumps(truncated))
    mismatched = dict(doc)
    mismatched["K"] = 3
    with pytest.raises(ValueError):
        approx_from_json(json.dumps(mismatched))
    with pytest.raises(ValueError):
        approx_from_json("[1, 2, 3]")
    # Documents no construction can produce; json parses NaN and Infinity.
    repeated = json.loads(json.dumps(doc))
    repeated["shifts"][1] = repeated["shifts"][0]
    nan_shift = json.loads(json.dumps(doc))
    nan_shift["shifts"][3][1] = float("nan")
    inf_weight = json.loads(json.dumps(doc))
    inf_weight["weights"][0][0] = float("inf")
    impossible = [
        ({**doc, "K": 0, "shifts": [], "weights": []}, "K must be >= 1"),
        ({**doc, "R1": float("nan")}, "R1"),
        ({**doc, "R1": float("inf")}, "R1"),
        ({**doc, "R1": 0.0}, "R1"),
        ({**doc, "R1": -10.0}, "R1"),
        (nan_shift, "shifts must be finite"),
        (inf_weight, "weights must be finite"),
        ({**doc, "sup_error": float("nan")}, "sup_error"),
        (repeated, "shifts must be distinct"),
    ]
    # Wrongly typed values, each named by its key.
    pair = json.loads(json.dumps(doc))
    pair["shifts"][2] = ["a", 1]
    impossible += [
        ({**doc, "R1": None}, "R1 must be a number"),
        ({**doc, "R1": 10**400}, "R1 must be a number"),
        ({**doc, "sup_error": None}, "sup_error must be a number"),
        (pair, "shifts must be a number"),
        ({**doc, "weights": [[1.0, 2.0, 3.0]] * 16}, "weights must be a list of"),
        ({**doc, "K": 16.0}, "K must be an integer"),
        ({**doc, "K": True}, "K must be an integer"),
        ({**doc, "stabilized": "no"}, "stabilized must be true or false"),
        ({**doc, "stabilize_factor": "1e-3"}, "stabilize_factor must be a number"),
        ({**doc, "stabilized": True, "stabilize_factor": "1e-3"},
         "stabilize_factor must be a number"),
        (3, "must be an object"),
        (None, "must be an object"),
    ]
    # Damping records that no construction produces.
    impossible += [
        ({**doc, "stabilized": False, "stabilize_factor": 0.5},
         "stabilized is false but stabilize_factor is 0.5"),
        ({**doc, "stabilized": True, "stabilize_factor": None},
         "stabilized is true but stabilize_factor is null"),
        ({**doc, "stabilized": True, "stabilize_factor": 7.0},
         r"stabilize_factor must lie in \(0, 1\), got 7.0"),
        ({**doc, "stabilized": True, "stabilize_factor": 1.0},
         r"stabilize_factor must lie in \(0, 1\)"),
        ({**doc, "stabilized": True, "stabilize_factor": 0},
         r"stabilize_factor must lie in \(0, 1\)"),
        ({**doc, "stabilized": True, "stabilize_factor": float("nan")},
         r"stabilize_factor must lie in \(0, 1\)"),
    ]
    for bad, match in impossible:
        with pytest.raises(ValueError, match=match):
            approx_from_json(json.dumps(bad))


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda t: complex(t[0], t[1]),  # shifts must be distinct
    )
)
def test_json_round_trip_arbitrary_doubles(entries):
    shifts = np.array([complex(a, b) for a, b, _, _ in entries])
    weights = np.array([complex(c, d) for _, _, c, d in entries])
    ap = PartialFractionApproximation(
        shifts=shifts, weights=weights, domain_radius=10.0, sup_error=1e-9
    )
    back = approx_from_json(approx_to_json(ap))
    np.testing.assert_array_equal(back.shifts, shifts)
    np.testing.assert_array_equal(back.weights, weights)


# ---------------------------------------------------------------------------
# Reconstruction consistency: the weighted pole sum reproduces the
# disc-side rational through the map.
# ---------------------------------------------------------------------------

def test_weighted_sum_matches_disc_expansion(flagship):
    series = _ladder_through_map(JoukowskiMap(10.0), np.exp, 300)
    cf = cf_approximate(series, 16)
    zc = np.exp(2j * np.pi * np.arange(4096) / 4096)
    q = np.ones_like(zc)
    for zk in cf.poles_outside:
        q *= zc - zk
    r_disc = npoly.polyval(zc, cf.numerator_coeffs) / q
    c_disc = (np.fft.fft(r_disc) / 4096)[:16]

    w = joukowski_eval(JoukowskiMap(10.0), 1.02 * zc)
    r_sum = evaluate_pfd(flagship, w)
    c_sum = (np.fft.fft(r_sum) / 4096)[:16] / 1.02 ** np.arange(16)
    np.testing.assert_allclose(c_sum, c_disc, rtol=0, atol=1e-10)
