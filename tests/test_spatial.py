"""Tests for meshing, assembly, wave packets, and spectral estimates."""

import re

import numpy as np
import pytest
import scipy.linalg as sla
import sympy

from rexiprop.errors import SpatialError
from rexiprop.spatial import (
    Mesh1D,
    PhysicalConstants,
    PotentialSpec,
    SystemMatrices,
    WavePacketParams,
    assemble_system,
    b_norm,
    build_mesh,
    evaluate_state,
    probability_density,
    project_initial,
    spectral_radius_estimate,
    wave_packet_eval,
    _reference_blocks,
)


# ---------------------------------------------------------------------------
# Symbolic element oracles
# ---------------------------------------------------------------------------

def _symbolic_blocks(h_val=1.0):
    """Mass/stiffness/load blocks for one quadratic element, by exact
    integration of the shape functions (left vertex, midpoint, right vertex).
    """
    x, h = sympy.symbols("x h", positive=True)
    xi = x / h
    shapes = [
        (2 * xi - 1) * (xi - 1),
        4 * xi * (1 - xi),
        xi * (2 * xi - 1),
    ]
    mass = sympy.Matrix(
        3, 3, lambda i, j: sympy.integrate(shapes[i] * shapes[j], (x, 0, h))
    )
    stiff = sympy.Matrix(
        3, 3,
        lambda i, j: sympy.integrate(
            sympy.diff(shapes[i], x) * sympy.diff(shapes[j], x), (x, 0, h)
        ),
    )
    load = sympy.Matrix(3, 1, lambda i, _: sympy.integrate(shapes[i], (x, 0, h)))
    subs = {h: h_val}
    to_np = lambda m: np.array(m.subs(subs)).astype(float)
    return to_np(mass), to_np(stiff), to_np(load)


def test_element_mass_block_matches_symbolic_integration():
    mass_sym, _, _ = _symbolic_blocks(h_val=1.0)
    mass, _ = _reference_blocks(1.0)
    np.testing.assert_allclose(mass, mass_sym, rtol=1e-13)
    # and the closed form: (h/30) * [[4,2,-1],[2,16,2],[-1,2,4]]
    np.testing.assert_allclose(
        mass_sym,
        np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]]) / 30.0,
        rtol=1e-13,
    )


def test_element_stiffness_block_matches_symbolic_integration():
    _, stiff_sym, _ = _symbolic_blocks(h_val=1.0)
    _, stiff = _reference_blocks(1.0)
    np.testing.assert_allclose(stiff, stiff_sym, rtol=1e-13)
    np.testing.assert_allclose(
        stiff_sym,
        np.array([[7, -8, 1], [-8, 16, -8], [1, -8, 7]]) / 3.0,
        rtol=1e-13,
    )


def test_assembled_single_element_blocks():
    # One element of length h: only the midpoint survives the boundary
    # elimination, so the assembled matrices are the (1,1) entries.
    h = 0.37
    mesh = build_mesh(0.0, h, 1)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    mass_sym, stiff_sym, _ = _symbolic_blocks(h_val=h)
    assert sys_m.n_dof == 1
    np.testing.assert_allclose(sys_m.B.toarray(), [[mass_sym[1, 1]]], rtol=1e-13)
    np.testing.assert_allclose(
        sys_m.A.toarray(), [[0.5 * stiff_sym[1, 1]]], rtol=1e-13
    )


def test_assembled_two_element_patch():
    h = 0.5
    mesh = build_mesh(0.0, 2 * h, 2)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    mass_sym, stiff_sym, _ = _symbolic_blocks(h_val=h)

    def patch(block):
        # interior DOFs: (mid_0, vertex_1, mid_1)
        out = np.zeros((3, 3))
        out[:2, :2] += block[1:, 1:]
        out[1:, 1:] += block[:2, :2]
        return out

    np.testing.assert_allclose(sys_m.B.toarray(), patch(mass_sym), atol=1e-15)
    np.testing.assert_allclose(
        sys_m.A.toarray(), 0.5 * patch(stiff_sym), atol=1e-15
    )


def test_mass_row_sums_follow_basis_integrals():
    # Partition of unity: row sums equal the integral of each basis function,
    # h/3 at vertices and 2h/3 at midpoints (rows untouched by the boundary).
    mesh = build_mesh(0.0, 8.0, 8)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    sums = np.asarray(sys_m.B.sum(axis=1)).ravel()
    h = mesh.h
    # DOF order is (mid_0, v_1, mid_1, v_2, ...): even indices midpoints.
    for i in range(2, sys_m.n_dof - 2):
        expected = 2 * h / 3 if i % 2 == 0 else h / 3
        assert sums[i] == pytest.approx(expected, rel=1e-13)


def test_barrier_entries_match_symbolic_piecewise_integration():
    # c_barr chosen so the barrier edges fall strictly inside elements.
    h = 0.5
    v_max, c_barr = 15.0, 0.37
    mesh = build_mesh(-1.0, 1.0, 4)
    sys0 = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    sysv = assemble_system(
        mesh, PotentialSpec.step_barrier(v_max, c_barr), PhysicalConstants()
    )
    diff = (sysv.A - sys0.A).toarray()

    x = sympy.Symbol("x")
    nodes = sympy.Rational(1, 4) * sympy.Matrix(range(-4, 5))  # node coords
    half = sympy.Rational(37, 200)  # c_barr / 2

    def basis(i):
        # Global P2 basis on [-1, 1] with 4 elements, node index 0..8.
        e = i // 2  # element of the left edge for midpoints; vertex patch else
        pieces = []
        for k in range(4):
            x0, x1 = nodes[2 * k], nodes[2 * k + 2]
            xi = (x - x0) / (x1 - x0)
            local = {2 * k: (2 * xi - 1) * (xi - 1),
                     2 * k + 1: 4 * xi * (1 - xi),
                     2 * k + 2: xi * (2 * xi - 1)}
            if i in local:
                pieces.append((local[i], x0, x1))
        return pieces

    v_sym = sympy.Integer(15)
    interior = list(range(1, 8))
    for a_i, i in enumerate(interior):
        for a_j, j in enumerate(interior):
            total = sympy.Integer(0)
            for (bi, x0, x1) in basis(i):
                for (bj, y0, y1) in basis(j):
                    if x0 == y0:
                        lo, hi = sympy.Max(x0, -half), sympy.Min(x1, half)
                        if hi > lo:
                            total += sympy.integrate(v_sym * bi * bj, (x, lo, hi))
            assert diff[a_i, a_j] == pytest.approx(float(total), abs=1e-13)


# ---------------------------------------------------------------------------
# Meshing
# ---------------------------------------------------------------------------

def test_mesh_single_element():
    mesh = build_mesh(0.0, 1.0, 1)
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0])
    assert mesh.h == pytest.approx(1.0)


def test_mesh_node_and_dof_counts():
    mesh = build_mesh(-8.0, 8.0, 4000)
    assert len(mesh.nodes) == 8001
    sys_m = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    assert sys_m.n_dof == 7999


def test_mesh_spacing_uniform():
    # Gaps can differ from h only by rounding at the coordinate scale.
    mesh = build_mesh(-3.0, 7.0, 137)
    gaps = np.diff(mesh.nodes)
    coord_ulp = np.finfo(float).eps * max(abs(mesh.x0), abs(mesh.x1))
    assert np.max(np.abs(gaps - 0.5 * mesh.h)) <= 8 * coord_ulp


def test_mesh_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_mesh(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make, args, match", [
    (build_mesh, (1.0, 1.0, 4), r"x0 must be < x1, got \(1.0, 1.0\)"),
    (build_mesh, (0.0, INF, 3), "x0 and x1 must be finite"),
    (build_mesh, (0.0, 1.0, 0), "n_elems must be >= 1, got 0"),
    (PotentialSpec, ("harmonic",),
     "potential must be 'zero' or 'step', got 'harmonic'"),
    (PotentialSpec, ("step", -1.0, 0.005), "v_max must be >= 0, got -1.0"),
    (PotentialSpec, ("step", NAN, 0.005), "v_max must be >= 0, got nan"),
    (PotentialSpec, ("step", INF, 0.005), "v_max must be >= 0, got inf"),
    (PotentialSpec, ("step", 15.0, 0.0), "c_barr must be > 0, got 0.0"),
    (PotentialSpec, ("step", 15.0, NAN), "c_barr must be > 0, got nan"),
    (PhysicalConstants, (0.0,), "hbar and mass must both be positive"),
    (PhysicalConstants, (NAN,), r"finite, got \(nan, 1.0\)"),
    (WavePacketParams, (-3.0, 5.0, 0.0), "sigma must be > 0, got 0.0"),
    (WavePacketParams, (-3.0, 5.0, NAN), "sigma must be > 0, got nan"),
    (WavePacketParams, (NAN, 5.0, 4.0), "r_bar and p_bar must be finite"),
    (WavePacketParams, (-3.0, INF, 4.0), r"finite, got \(-3.0, inf\)"),
])
def test_spatial_types_refuse_bad_values(make, args, match):
    with pytest.raises(ValueError, match=match):
        make(*args)


def test_build_mesh_refuses_an_element_count_that_is_not_an_integer():
    for bad in (4.0, 2.5, True):
        with pytest.raises(ValueError, match=re.escape(
                f"n_elems must be an integer, got {bad!r}")):
            build_mesh(-1.0, 1.0, bad)
    mesh = build_mesh(-1.0, 1.0, np.int64(4))
    assert mesh.n_elems == 4 and type(mesh.n_elems) is int
    assert mesh.nodes.tobytes() == build_mesh(-1.0, 1.0, 4).nodes.tobytes()


def test_system_matrices_n_dof_is_the_pencil_order():
    import scipy.sparse as sp

    from rexiprop.integrate import dense_decomposition

    big = SystemMatrices(A=sp.identity(600, format="csr"),
                         B=sp.identity(600, format="csr"))
    assert big.n_dof == 600
    # Both dense gates read the order from A, so neither runs eigh here.
    with pytest.raises(SpatialError, match="order 600"):
        spectral_radius_estimate(big)
    with pytest.raises(ValueError, match="n_dof = 600"):
        dense_decomposition(big)
    with pytest.raises(ValueError, match=r"\(3, 3\) and \(4, 4\)"):
        SystemMatrices(A=sp.identity(3, format="csr"),
                       B=sp.identity(4, format="csr"))
    with pytest.raises(ValueError, match=r"\(3, 4\) and \(3, 4\)"):
        SystemMatrices(A=sp.csr_matrix((3, 4)), B=sp.csr_matrix((3, 4)))


# ---------------------------------------------------------------------------
# Structure of the assembled pencil
# ---------------------------------------------------------------------------

def test_mass_matrix_is_spd():
    mesh = build_mesh(-5.0, 5.0, 20)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), PhysicalConstants())
    b_d = sys_m.B.toarray()
    np.testing.assert_allclose(b_d, b_d.T, atol=1e-15)
    sla.cholesky(b_d)  # raises if not positive definite


def test_stiffness_symmetric_and_positive():
    mesh = build_mesh(-5.0, 5.0, 20)
    sys_m = assemble_system(
        mesh, PotentialSpec.step_barrier(15.0, 0.5), PhysicalConstants()
    )
    a_d = sys_m.A.toarray()
    np.testing.assert_allclose(a_d, a_d.T, atol=1e-13)
    assert np.all(sla.eigh(a_d, sys_m.B.toarray(), eigvals_only=True) > 0)


def test_evolution_spectrum_purely_imaginary():
    mesh = build_mesh(-5.0, 5.0, 15)
    sys_m = assemble_system(
        mesh, PotentialSpec.step_barrier(15.0, 0.5), PhysicalConstants()
    )
    m_dense = -1j * sla.solve(sys_m.B.toarray(), sys_m.A.toarray())
    lam = np.linalg.eigvals(m_dense)
    assert np.max(np.abs(lam.real)) <= 1e-10 * np.max(np.abs(lam))


def test_potential_enters_linearly():
    mesh = build_mesh(-2.0, 2.0, 10)
    consts = PhysicalConstants()
    a0 = assemble_system(mesh, PotentialSpec.zero(), consts).A
    a1 = assemble_system(mesh, PotentialSpec.step_barrier(3.0, 0.5), consts).A
    a2 = assemble_system(mesh, PotentialSpec.step_barrier(6.0, 0.5), consts).A
    np.testing.assert_allclose(
        (a2 - a0).toarray(), 2.0 * (a1 - a0).toarray(), rtol=1e-13
    )


# ---------------------------------------------------------------------------
# Wave packet and projection
# ---------------------------------------------------------------------------

PACKET = WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0)
CONSTS = PhysicalConstants()


def test_packet_peak_value():
    peak = wave_packet_eval(PACKET, CONSTS, np.array([-3.0]))[0]
    assert peak == pytest.approx((np.pi * 4.0) ** -0.25)
    assert peak.imag == 0.0


def test_packet_modulus_even_about_center():
    x = np.linspace(0.0, 6.0, 50)
    left = np.abs(wave_packet_eval(PACKET, CONSTS, PACKET.r_bar - x))
    right = np.abs(wave_packet_eval(PACKET, CONSTS, PACKET.r_bar + x))
    np.testing.assert_allclose(left, right, rtol=1e-13)


def test_packet_local_wavelength():
    # The plane-wave factor advances its phase by 2*pi over 2*pi/p_bar.
    lam = 2 * np.pi / PACKET.p_bar
    vals = wave_packet_eval(
        PACKET, CONSTS, np.array([PACKET.r_bar, PACKET.r_bar + lam])
    )
    ratio = vals[1] / vals[0]
    assert abs(np.angle(ratio)) < 1e-12


def test_projection_normalizes_in_b_norm():
    mesh = build_mesh(-30.0, 30.0, 300)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), CONSTS)
    u = project_initial(mesh, PACKET, CONSTS, sys_m.B)
    assert b_norm(u, sys_m.B) == pytest.approx(np.sqrt(CONSTS.hbar), rel=1e-13)


def test_projection_rejects_clipped_support():
    # On (-8, 8) the packet still carries ~4% of its peak at the boundary.
    mesh = build_mesh(-8.0, 8.0, 100)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), CONSTS)
    with pytest.raises(SpatialError, match="support"):
        project_initial(mesh, PACKET, CONSTS, sys_m.B)
    # Centred between two nodes and far narrower than h: every node value
    # underflows, so there is nothing to normalize.
    narrow = WavePacketParams(r_bar=0.04, p_bar=0.0, sigma=1e-6)
    with pytest.raises(SpatialError, match="identically zero"):
        project_initial(mesh, narrow, CONSTS, sys_m.B)


def test_projection_rejects_centre_outside_domain():
    # At r_bar = 30 the endpoint ratio is 4.4e-71, so only the centre check
    # stops a state peaked at the last interior node.
    mesh = build_mesh(-12.0, 12.0, 64)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), CONSTS)
    for r_bar in (30.0, -12.0, 12.0):
        packet = WavePacketParams(r_bar=r_bar, p_bar=2.0, sigma=1.0)
        with pytest.raises(SpatialError, match=rf"r_bar = {r_bar} lies "
                           r"outside the domain \(-12\.0, 12\.0\)"):
            project_initial(mesh, packet, CONSTS, sys_m.B)


def test_projection_density_converges_cubically():
    xs = np.linspace(-14.0, 8.0, 400)
    dens = []
    for n in (250, 500, 1000):
        mesh = build_mesh(-30.0, 30.0, n)
        sys_m = assemble_system(mesh, PotentialSpec.zero(), CONSTS)
        u = project_initial(mesh, PACKET, CONSTS, sys_m.B)
        dens.append(probability_density(u, mesh, xs))
    d1 = np.max(np.abs(dens[0] - dens[1]))
    d2 = np.max(np.abs(dens[1] - dens[2]))
    assert 5.0 <= d1 / d2 <= 12.0  # O(h^3) interpolation: ratio ~ 8


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

def _small_system():
    mesh = build_mesh(0.0, 3.0, 3)
    return mesh, assemble_system(mesh, PotentialSpec.zero(), CONSTS)


def test_b_norm_zero_vector():
    _, sys_m = _small_system()
    assert b_norm(np.zeros(sys_m.n_dof, dtype=complex), sys_m.B) == 0.0


def test_b_norm_unit_coordinate():
    _, sys_m = _small_system()
    e2 = np.zeros(sys_m.n_dof, dtype=complex)
    e2[2] = 1.0
    expected = np.sqrt(sys_m.B.toarray()[2, 2].real)
    assert b_norm(e2, sys_m.B) == pytest.approx(expected, rel=1e-14)


def test_b_norm_absolute_homogeneity():
    _, sys_m = _small_system()
    rng = np.random.default_rng(7)
    u = rng.standard_normal(sys_m.n_dof) + 1j * rng.standard_normal(sys_m.n_dof)
    c = 0.3 - 1.7j
    assert b_norm(c * u, sys_m.B) == pytest.approx(
        abs(c) * b_norm(u, sys_m.B), rel=1e-13
    )


def test_b_norm_rejects_wrong_length():
    _, sys_m = _small_system()
    with pytest.raises(ValueError):
        b_norm(np.ones(3), sys_m.B)


def test_b_norm_refuses_a_state_of_another_shape():
    # 15 DOFs: a (15, 2) block used to be flattened by vdot into 6.16.
    sys_m = assemble_system(build_mesh(-1.0, 1.0, 8), PotentialSpec.zero(),
                            CONSTS)
    assert sys_m.n_dof == 15
    for wrong in (np.ones((15, 2)), np.ones(14), np.ones((1, 15)),
                  np.array(1.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"B is (15, 15), u has shape {wrong.shape}")):
            b_norm(wrong, sys_m.B)


def test_b_norm_rejects_indefinite_form():
    import scipy.sparse as sp

    bad = sp.csr_matrix(np.array([[-1.0]]))
    with pytest.raises(SpatialError, match="negative"):
        b_norm(np.array([1.0 + 0j]), bad)
    skew = sp.csr_matrix(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(SpatialError, match="imaginary part"):
        b_norm(np.array([1.0, 1j]), skew)


# ---------------------------------------------------------------------------
# Spectral radius estimation
# ---------------------------------------------------------------------------

def _diag_system(a_diag, b_diag):
    import scipy.sparse as sp

    return SystemMatrices(
        A=sp.csr_matrix(np.diag(a_diag)),
        B=sp.csr_matrix(np.diag(b_diag)),
    )


def test_spectral_radius_diagonal():
    est = spectral_radius_estimate(_diag_system([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
    assert float(est) == pytest.approx(3.0, rel=1e-6)
    assert est.converged
    assert est.method == "dense-eigh"


def test_spectral_radius_diagonal_mass():
    est = spectral_radius_estimate(
        _diag_system([1.0, 2.0, 3.0], [1.0, 1.0, 0.5])
    )
    assert float(est) == pytest.approx(6.0, rel=1e-6)


def test_spectral_radius_against_coarse_dense_oracle():
    consts = PhysicalConstants()
    pot = PotentialSpec.step_barrier(15.0, 0.005)
    coarse = assemble_system(build_mesh(-30.0, 30.0, 100), pot, consts)
    lam = sla.eigh(
        coarse.A.toarray(), coarse.B.toarray(), eigvals_only=True
    )
    predicted = np.max(np.abs(lam)) * 40.0**2
    full = assemble_system(build_mesh(-30.0, 30.0, 4000), pot, consts)
    est = float(spectral_radius_estimate(full))
    assert predicted / 2.0 <= est <= predicted * 2.0


def test_spectral_radius_h_squared_scaling():
    consts = PhysicalConstants()
    pot = PotentialSpec.zero()
    e1 = float(spectral_radius_estimate(
        assemble_system(build_mesh(-10.0, 10.0, 200), pot, consts)
    ))
    e2 = float(spectral_radius_estimate(
        assemble_system(build_mesh(-10.0, 10.0, 400), pot, consts)
    ))
    assert 3.5 <= e2 / e1 <= 4.5


def test_p2_reference_pencil_lambda_max_is_60():
    mass, stiff = _reference_blocks(1.0)
    lam = sla.eigh(stiff, mass, eigvals_only=True)
    assert lam[-1] == pytest.approx(60.0, abs=1e-12)


@pytest.mark.parametrize("mesh, potential, consts, slack", [
    # barrier (-0.1, 0.1) inside the element [-0.125, 0.125]
    (build_mesh(-1.125, 0.875, 8), PotentialSpec.step_barrier(15.0, 0.2),
     PhysicalConstants(), 1.2),
    # barrier (-0.45, 0.45) spanning four elements, edges inside elements
    (build_mesh(-1.0, 1.0, 8), PotentialSpec.step_barrier(15.0, 0.9),
     PhysicalConstants(), 1.2),
    (build_mesh(-30.0, 30.0, 100), PotentialSpec.step_barrier(15.0, 0.005),
     PhysicalConstants(), 1.2),
    (build_mesh(-10.0, 10.0, 200), PotentialSpec.zero(),
     PhysicalConstants(hbar=0.7, mass=1.3), 1.2),
    (build_mesh(-30.0, 30.0, 250), PotentialSpec.step_barrier(400.0, 2.0),
     PhysicalConstants(), 1.2),
    # desk scale: the bound is within 1% of the spectrum
    (build_mesh(-30.0, 30.0, 500), PotentialSpec.step_barrier(15.0, 0.005),
     PhysicalConstants(), 1.01),
])
def test_p2_bound_is_an_upper_bound(mesh, potential, consts, slack):
    sys_m = assemble_system(mesh, potential, consts)
    lam = sla.eigh(sys_m.A.toarray(), sys_m.B.toarray(), eigvals_only=True)
    oracle = float(np.max(np.abs(lam)))
    est = spectral_radius_estimate(sys_m)
    assert est.method == "p2-bound"
    assert oracle <= est <= slack * oracle


def test_spectral_radius_dense_limit():
    big = _diag_system(np.arange(1.0, 514.0), np.ones(513))
    with pytest.raises(SpatialError, match=r"order 513.* 512"):
        spectral_radius_estimate(big)
    at_limit = _diag_system(np.arange(1.0, 513.0), np.ones(512))
    assert float(spectral_radius_estimate(at_limit)) == 512.0


# ---------------------------------------------------------------------------
# State evaluation and densities
# ---------------------------------------------------------------------------

def test_evaluate_state_reproduces_quadratics():
    # P2 interpolation is exact for quadratic polynomials.
    mesh = build_mesh(-1.0, 2.0, 6)
    g = lambda x: 0.3 * x**2 - 1.2 * x + 0.7
    u_full = g(mesh.nodes).astype(complex)
    xs = np.linspace(-1.0, 2.0, 113)
    vals = evaluate_state(u_full[1:-1], mesh, xs)
    # interior expansion: boundary values are clamped to zero, so compare
    # away from the first/last element only
    inner = (xs > mesh.nodes[2]) & (xs < mesh.nodes[-3])
    np.testing.assert_allclose(vals[inner], g(xs[inner]), rtol=1e-12)


def test_evaluate_state_rejects_out_of_domain():
    mesh = build_mesh(0.0, 1.0, 4)
    with pytest.raises(SpatialError, match="outside the domain"):
        evaluate_state(np.zeros(7, dtype=complex), mesh, np.array([1.5]))
    # -1 - 1e-14 is within the tolerance, so the point named is 1.5.
    mesh = build_mesh(-1.0, 1.0, 3)
    with pytest.raises(SpatialError, match=r"x = 1\.5 lies outside"):
        evaluate_state(np.zeros(5, dtype=complex), mesh,
                       np.array([-1.0 - 1e-14, 0.0, 1.5]))


def test_evaluate_state_refuses_a_state_of_another_shape():
    # 4 elements: 7 interior coefficients.  A scalar, 2 or 1 entries, or a
    # (7, 2) block used to be broadcast over every node.
    mesh = build_mesh(0.0, 1.0, 4)
    for wrong in (5.0, [0.0, 1.0], np.ones(1), np.ones((7, 2))):
        message = re.escape(f"state of shape {np.shape(wrong)} does not "
                            "match the mesh's interior coefficients, "
                            "shape (7,)")
        for evaluate in (evaluate_state, probability_density):
            with pytest.raises(ValueError, match=message):
                evaluate(wrong, mesh, [0.0, 1.0])


def test_density_nonnegative_normalized_and_zero_at_walls():
    mesh = build_mesh(-30.0, 30.0, 500)
    sys_m = assemble_system(mesh, PotentialSpec.zero(), CONSTS)
    u = project_initial(mesh, PACKET, CONSTS, sys_m.B)
    xs = np.linspace(-30.0, 30.0, 20_001)
    rho = probability_density(u, mesh, xs)
    assert np.all(rho >= 0.0)
    assert np.trapezoid(rho, xs) == pytest.approx(1.0, abs=1e-6)
    assert rho[0] == 0.0 and rho[-1] == 0.0
