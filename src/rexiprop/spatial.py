"""1D quadratic-Lagrange finite elements for the Schrodinger Hamiltonian.

Builds the pencil (A, B) of the first-order system B u' = -i A u on a
uniform mesh with zero Dirichlet boundaries:

    A[j,k] = integral( hbar^2/(2m) chi_j' chi_k' + V chi_j chi_k )
    B[j,k] = hbar * integral( chi_j chi_k )

Each element carries three nodes (left, mid, right); all element
integrals use a fixed 3-point Gauss rule, which is exact for every
polynomial integrand appearing here.  Discontinuous step potentials are
integrated piecewise: any element straddling a jump is split at the jump
location so the rule never averages across the discontinuity (the
barrier width is far below the element size in the experiments, so
midpoint sampling would alias it away entirely).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.polynomial.legendre import leggauss
from scipy.sparse import coo_matrix, csr_matrix

from .errors import SpatialError, check_integer
from .solvers import DENSE_ORACLE_MAX_DOF

# Quadrature on the reference element [0, 1].
_GX, _GW = leggauss(3)
_GX = 0.5 * (_GX + 1.0)
_GW = 0.5 * _GW

# Threshold of the initial-state support check: endpoint amplitude
# relative to the packet peak.
SUPPORT_TOL = 1e-8


def _shape(xi):
    """P2 shape functions (left, mid, right) at reference coordinate xi."""
    xi = np.asarray(xi)
    return np.stack([
        (2.0 * xi - 1.0) * (xi - 1.0),
        4.0 * xi * (1.0 - xi),
        xi * (2.0 * xi - 1.0),
    ])


def _shape_grad(xi):
    """Reference-coordinate derivatives of the P2 shape functions."""
    xi = np.asarray(xi)
    return np.stack([
        4.0 * xi - 3.0,
        4.0 - 8.0 * xi,
        4.0 * xi - 1.0,
    ])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh1D:
    """Uniform 1D mesh with midpoint nodes: 2 * n_elems + 1 nodes total."""

    x0: float
    x1: float
    n_elems: int
    nodes: np.ndarray

    @property
    def h(self) -> float:
        return (self.x1 - self.x0) / self.n_elems


@dataclass(frozen=True)
class PotentialSpec:
    """Zero potential or a centered step barrier of height v_max on
    (-c_barr/2, c_barr/2)."""

    kind: str
    v_max: float = 0.0
    c_barr: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "step"):
            raise ValueError(
                f"potential must be 'zero' or 'step', got {self.kind!r}")
        if not 0 <= self.v_max < math.inf:
            raise ValueError(f"v_max must be >= 0, got {self.v_max}")
        if not 0 < self.c_barr < math.inf:
            raise ValueError(f"c_barr must be > 0, got {self.c_barr}")

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(kind="zero")

    @classmethod
    def step_barrier(cls, v_max: float, c_barr: float) -> "PotentialSpec":
        return cls(kind="step", v_max=v_max, c_barr=c_barr)


@dataclass(frozen=True)
class PhysicalConstants:
    """Hartree atomic units by default."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.mass < math.inf):
            raise ValueError(f"hbar and mass must both be positive and "
                             f"finite, got ({self.hbar}, {self.mass})")


@dataclass(frozen=True)
class WavePacketParams:
    """Gaussian packet: center r_bar (bohr), mean momentum p_bar,
    squared-width parameter sigma (bohr^2)."""

    r_bar: float
    p_bar: float
    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (math.isfinite(self.r_bar) and math.isfinite(self.p_bar)):
            raise ValueError(f"r_bar and p_bar must be finite, "
                             f"got ({self.r_bar}, {self.p_bar})")


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled pencil on interior nodes (Dirichlet rows eliminated);
    ``sr_bound`` bounds sr(M) from above, None for hand-built pencils."""

    A: csr_matrix
    B: csr_matrix
    sr_bound: float | None = None

    def __post_init__(self):
        if not self.A.shape == self.B.shape == (self.n_dof, self.n_dof):
            raise ValueError(f"A and B must be square of one order, got "
                             f"{self.A.shape} and {self.B.shape}")

    @property
    def n_dof(self) -> int:
        return self.A.shape[0]


# ---------------------------------------------------------------------------
# Mesh and assembly
# ---------------------------------------------------------------------------

def build_mesh(x0: float, x1: float, n_elems: int) -> Mesh1D:
    """Uniform mesh of ``n_elems`` quadratic elements on (x0, x1)."""
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"x0 and x1 must be finite, got ({x0}, {x1})")
    if not x0 < x1:
        raise ValueError(f"x0 must be < x1, got ({x0}, {x1})")
    if check_integer("n_elems", n_elems) < 1:
        raise ValueError(f"n_elems must be >= 1, got {n_elems}")
    nodes = np.linspace(x0, x1, 2 * n_elems + 1)
    return Mesh1D(x0=float(x0), x1=float(x1), n_elems=int(n_elems), nodes=nodes)


def _reference_blocks(h: float):
    """Element mass and stiffness blocks by Gauss quadrature (exact here)."""
    shp = _shape(_GX)          # (3, q)
    grd = _shape_grad(_GX)     # (3, q)
    mass = h * np.einsum("q,iq,jq->ij", _GW, shp, shp)
    stiff = (1.0 / h) * np.einsum("q,iq,jq->ij", _GW, grd, grd)
    return mass, stiff


def _potential_entries(mesh: Mesh1D, potential: PotentialSpec):
    """COO entries of the step-potential term, integrated piecewise."""
    rows, cols, vals = [], [], []
    if potential.kind != "step" or potential.v_max == 0.0:
        return rows, cols, vals
    half = 0.5 * potential.c_barr
    h = mesh.h
    first = max(0, int(math.floor((-half - mesh.x0) / h)) - 1)
    last = min(mesh.n_elems - 1, int(math.ceil((half - mesh.x0) / h)) + 1)
    for e in range(first, last + 1):
        xl = mesh.x0 + e * h
        xr = xl + h
        if xr <= -half or xl >= half:
            continue
        cuts = [xl] + [c for c in (-half, half) if xl < c < xr] + [xr]
        block = np.zeros((3, 3))
        for a, b in zip(cuts[:-1], cuts[1:]):
            if abs(0.5 * (a + b)) >= half:
                continue  # this piece lies outside the barrier
            xg = a + (b - a) * _GX
            shp = _shape((xg - xl) / h)
            block += potential.v_max * (b - a) * np.einsum(
                "q,iq,jq->ij", _GW, shp, shp
            )
        idx = 2 * e + np.arange(3)
        rows.extend(np.repeat(idx, 3))
        cols.extend(np.tile(idx, 3))
        vals.extend(block.ravel())
    return rows, cols, vals


def assemble_system(
    mesh: Mesh1D, potential: PotentialSpec, consts: PhysicalConstants
) -> SystemMatrices:
    """Assemble A (stiffness + potential) and B (scaled mass) on interior
    nodes.  Both come out real symmetric; B is positive definite.

    ``sr_bound`` rests on the element eigenvalue theorem (Irons & Treharne
    1971; Fried 1972): lambda_max(A, B) is at most the largest element
    lambda_max.  The P2 reference pencil has lambda_max 60 (eigenvector
    (-2, 1, -2)), 0 <= V <= v_max adds at most v_max, and dropping the
    Dirichlet rows only lowers it (interlacing).
    """
    ne = mesh.n_elems
    n_nodes = 2 * ne + 1
    mass_e, stiff_e = _reference_blocks(mesh.h)

    idx = 2 * np.arange(ne)[:, None] + np.arange(3)
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    shape = (n_nodes, n_nodes)

    kinetic = consts.hbar**2 / (2.0 * consts.mass)
    a_full = coo_matrix(
        (np.tile(kinetic * stiff_e.ravel(), ne), (rows, cols)), shape=shape
    ).tocsr()
    pr, pc, pv = _potential_entries(mesh, potential)
    if pv:
        a_full = a_full + coo_matrix((pv, (pr, pc)), shape=shape).tocsr()
    b_full = coo_matrix(
        (np.tile(consts.hbar * mass_e.ravel(), ne), (rows, cols)), shape=shape
    ).tocsr()

    interior = slice(1, n_nodes - 1)
    a_mat = a_full[interior, interior].tocsr()
    b_mat = b_full[interior, interior].tocsr()
    a_mat.sum_duplicates()
    b_mat.sum_duplicates()
    v_max = potential.v_max if potential.kind == "step" else 0.0
    bound = (consts.hbar / (2.0 * consts.mass) * 60.0 / mesh.h**2
             + v_max / consts.hbar)
    return SystemMatrices(A=a_mat, B=b_mat,
                          sr_bound=float(np.nextafter(bound, np.inf)))


# ---------------------------------------------------------------------------
# Initial state
# ---------------------------------------------------------------------------

def wave_packet_eval(params: WavePacketParams, consts: PhysicalConstants, r):
    """Gaussian packet value(s) at r.

    The prefactor (pi*sigma)^(-1/4) normalizes the continuum packet to
    unit probability; the discrete state is re-normalized exactly in
    :func:`project_initial`.
    """
    r = np.asarray(r, dtype=float)
    c0 = (math.pi * params.sigma) ** -0.25
    d = r - params.r_bar
    out = c0 * np.exp(-d * d / (2.0 * params.sigma)
                      + 1j * params.p_bar * d / consts.hbar)
    return out if r.ndim else complex(out)


def project_initial(
    mesh: Mesh1D,
    params: WavePacketParams,
    consts: PhysicalConstants,
    b_mat,
) -> np.ndarray:
    """Interior nodal interpolant of the packet, scaled so uᴴBu = hbar.

    With B = hbar * (mass matrix) this normalization makes the discrete
    probability integral of |psi_h|^2 exactly 1.  The packet's centre must
    lie inside the domain and its magnitude at both ends below
    SUPPORT_TOL of its peak.
    """
    if not mesh.x0 < params.r_bar < mesh.x1:
        raise SpatialError(
            f"wave packet centre r_bar = {params.r_bar} lies outside the "
            f"domain ({mesh.x0}, {mesh.x1})"
        )
    peak = abs(wave_packet_eval(params, consts, params.r_bar))
    for endpoint in (mesh.x0, mesh.x1):
        ratio = abs(wave_packet_eval(params, consts, endpoint)) / peak
        if ratio >= SUPPORT_TOL:
            raise SpatialError(
                f"wave packet is not supported inside the domain: magnitude "
                f"at endpoint x = {endpoint} is {ratio:.3e} of the peak "
                f"(limit {SUPPORT_TOL:.0e}); enlarge the domain"
            )
    u = np.asarray(wave_packet_eval(params, consts, mesh.nodes[1:-1]),
                   dtype=complex)
    norm = b_norm(u, b_mat)
    if norm == 0.0:
        raise SpatialError("initial state is identically zero on the mesh")
    return u * (math.sqrt(consts.hbar) / norm)


def b_norm(u: np.ndarray, b_mat) -> float:
    """sqrt(Re(uᴴBu)), guarding against a non-real quadratic form; a ``u``
    whose shape is not (n,) for B of order n is refused."""
    u = np.asarray(u)
    if u.shape != b_mat.shape[1:]:
        raise ValueError(
            f"dimension mismatch: B is {b_mat.shape}, u has shape {u.shape}"
        )
    quad = complex(np.vdot(u, b_mat @ u))
    if quad == 0:
        return 0.0
    if abs(quad.imag) > 1e-12 * abs(quad):
        raise SpatialError(
            f"uᴴBu = {quad} has a non-negligible imaginary part; "
            "B is not Hermitian or the state is corrupted"
        )
    if quad.real < 0:
        raise SpatialError(f"uᴴBu = {quad.real} is negative; B is not SPD")
    return math.sqrt(quad.real)


# ---------------------------------------------------------------------------
# Spectral radius of M = (iB)^-1 A
# ---------------------------------------------------------------------------

class SpectralRadiusEstimate(float):
    """sr(M) as a float, carrying how it was obtained: ``"p2-bound"`` or
    ``"dense-eigh"``.  Neither method iterates; ``iterations`` and
    ``converged`` stay as constants for callers that still read them."""

    iterations = 0
    converged = True

    def __new__(cls, value: float, method: str):
        obj = super().__new__(cls, value)
        obj.method = method
        return obj

    def __repr__(self):
        return f"SpectralRadiusEstimate({float(self)!r}, method={self.method!r})"


def spectral_radius_estimate(sys: SystemMatrices) -> SpectralRadiusEstimate:
    """sr(M) for M = (iB)^-1 A: the system's ``sr_bound`` when it has one,
    else max |lambda| of the dense pencil (A, B) by ``eigh``.

    |lambda_max(B^-1 A)| equals sr(M), since the two operators differ by
    the unimodular factor -i.  A pencil without a bound and with more than
    DENSE_ORACLE_MAX_DOF rows is refused with :class:`SpatialError`.
    """
    if sys.sr_bound is not None:
        return SpectralRadiusEstimate(sys.sr_bound, "p2-bound")
    if sys.n_dof > DENSE_ORACLE_MAX_DOF:
        raise SpatialError(
            f"pencil of order {sys.n_dof} carries no spectral bound, and "
            f"dense eigh is limited to DENSE_ORACLE_MAX_DOF = "
            f"{DENSE_ORACLE_MAX_DOF}"
        )
    lam = sla.eigh(sys.A.toarray(), sys.B.toarray(), eigvals_only=True)
    return SpectralRadiusEstimate(float(np.max(np.abs(lam))), "dense-eigh")


# ---------------------------------------------------------------------------
# State evaluation
# ---------------------------------------------------------------------------

def evaluate_state(u: np.ndarray, mesh: Mesh1D, xs) -> np.ndarray:
    """P2 interpolant of the interior coefficient vector u, of shape
    (2*n_elems - 1,), at points xs."""
    n = 2 * mesh.n_elems - 1
    if np.shape(u) != (n,):
        raise ValueError(f"state of shape {np.shape(u)} does not match the "
                         f"mesh's interior coefficients, shape {(n,)}")
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    tol = 1e-12 * (mesh.x1 - mesh.x0)
    outside = (xs_arr < mesh.x0 - tol) | (xs_arr > mesh.x1 + tol)
    if np.any(outside):
        raise SpatialError(
            f"sample point x = {xs_arr[outside][0]} lies outside the domain "
            f"({mesh.x0}, {mesh.x1})"
        )
    full = np.zeros(2 * mesh.n_elems + 1, dtype=complex)
    full[1:-1] = u
    h = mesh.h
    e = np.clip(((xs_arr - mesh.x0) // h).astype(int), 0, mesh.n_elems - 1)
    xi = np.clip((xs_arr - mesh.x0 - e * h) / h, 0.0, 1.0)
    shp = _shape(xi)
    return (full[2 * e] * shp[0] + full[2 * e + 1] * shp[1]
            + full[2 * e + 2] * shp[2])


def probability_density(u: np.ndarray, mesh: Mesh1D, sample_xs) -> np.ndarray:
    """|psi_h(x)|^2 at the sample points (unit total probability under the
    uᴴBu = hbar normalization)."""
    vals = evaluate_state(u, mesh, sample_xs)
    return np.abs(vals) ** 2
