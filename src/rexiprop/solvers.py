"""Direct factorizations for factor-once / solve-many use.

Three backends behind one interface, picked by :func:`factorize` from the
matrix structure:

* :class:`CondensedFactorization` -- the P2 pentadiagonal systems of
  ``spatial.assemble_system``.  Every midpoint DOF (the even indices)
  couples only to its own element's two vertices, so eliminating the
  midpoints element by element leaves a tridiagonal Schur complement of
  order n_elems - 1 on the vertices, factored with ``zgttrf`` (partial
  pivoting).  A solve reduces the right-hand side onto the vertices, runs
  ``zgttrs`` and recovers the midpoints with vectorised numpy.  The
  midpoint elimination does not pivot, which is safe for the matrices it
  is used on: a REXI shifted matrix ``tau*A - sigma_j*iB`` with real
  symmetric A, SPD B and Re(sigma_j) != 0 has the definite imaginary part
  ``-Re(sigma_j)*B``.  Its diagonal (the midpoint pivots) then has nonzero
  imaginary parts, and its Schur complement again has a definite
  imaginary part, so it is nonsingular (Higham, Math. Comp. 1998, on
  factoring complex symmetric matrices).  For B itself the pivots are
  positive and the Schur complement is SPD.  A zero midpoint pivot raises
  :class:`SolverError`; the pivot-ratio screen covers the rest.
* :class:`BandedFactorization` -- LAPACK band-storage LU with partial
  pivoting (``zgbtrf`` / ``zgbtrs``) for other matrices of small
  bandwidth.
* :class:`DenseFactorization` -- plain dense LU for matrices without
  useful band structure (small oracle systems, random test matrices).
  Its solve goes through scipy's ``lu_solve`` and holds the GIL.

The condensed and banded paths call LAPACK through the function pointers
exported by :mod:`scipy.linalg.cython_lapack`, as ctypes foreign calls,
which drop the GIL while the routine runs; that, and numpy dropping the
GIL inside its array loops, is what lets a thread pool drive the
per-shift solves concurrently.  (scipy's f2py wrappers, such as
``scipy.linalg.lapack.zgbtrs``, hold the GIL; the one for ``zgttrf`` also
rejects order 1.)

All expose ``solve(b)`` for vector or multi-column right-hand sides,
``kind`` (``"condensed"``, ``"banded"`` or ``"dense"``) and a reference to
the original matrix for residual checks.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack, lapack, lu_factor, lu_solve
from scipy.sparse import issparse

from .errors import SolverError

# Matrices at least this densely banded are factored in band storage.
BAND_LIMIT = 32
# Reciprocal condition estimates below this are treated as singular.
RCOND_FLOOR = 1e-14


def _lapack_function(name: str, n_args: int):
    """ctypes handle on the LAPACK routine ``name`` exported by
    scipy.linalg.cython_lapack, taking ``n_args`` pointer arguments.

    A CFUNCTYPE foreign call releases the GIL while the routine runs.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", api))
    address = get_pointer(capsule, get_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


# zgbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info)
_ZGBTRS = _lapack_function("zgbtrs", 11)
# zgttrf(n, dl, d, du, du2, ipiv, info)
_ZGTTRF = _lapack_function("zgttrf", 7)
# zgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info)
_ZGTTRS = _lapack_function("zgttrs", 11)


def _band_extents(mat) -> tuple[int, int]:
    """(kl, ku): lowest sub- and highest super-diagonal holding nonzeros."""
    coo = mat.tocoo()
    if coo.nnz == 0:
        return 0, 0
    d = coo.col - coo.row
    return int(max(0, -d.min())), int(max(0, d.max()))


def _is_p2(mat, kl: int, ku: int) -> bool:
    """True for the P2 pattern: odd order, pentadiagonal, and no coupling
    between the midpoints (even indices) two apart."""
    return (mat.shape[0] % 2 == 1 and kl == ku == 2
            and not mat.diagonal(2)[0::2].any()
            and not mat.diagonal(-2)[0::2].any())


def _screen_pivots(pivots: np.ndarray) -> None:
    """Raise unless every pivot magnitude is within RCOND_FLOOR of the
    largest one."""
    mags = np.abs(pivots)
    if mags.size and (not np.all(mags > 0)
                      or mags.min() < RCOND_FLOOR * mags.max()):
        ratio = 0.0 if mags.max() == 0 else mags.min() / mags.max()
        raise SolverError(
            f"matrix is numerically singular (pivot ratio = {ratio:.3e})"
        )


class CondensedFactorization:
    """P2 pentadiagonal matrix solved through the tridiagonal Schur
    complement on its vertices.

    With m = (n - 1) / 2, vertex k is DOF 2k + 1 and lies between the
    midpoints k and k + 1 (DOFs 2k and 2k + 2).  ``bandwidth``, ``kl`` and
    ``ku`` describe the matrix, as for :class:`BandedFactorization`.
    """

    kind = "condensed"
    kl = ku = 2
    bandwidth = 5

    def __init__(self, mat):
        self.matrix = mat
        n = mat.shape[0]
        m = (n - 1) // 2
        diag = mat.diagonal().astype(complex)
        upper = mat.diagonal(1).astype(complex)
        lower = mat.diagonal(-1).astype(complex)
        mid = diag[0::2]
        zero = np.flatnonzero(mid == 0)
        if zero.size:
            raise SolverError(
                f"matrix has a zero midpoint pivot at index {2 * zero[0]}; "
                "the condensed factorization does not pivot there"
            )
        inv_mid = 1.0 / mid
        # Vertex k's couplings to midpoints k and k+1 (to_*), and theirs to
        # it (from_*), the latter stored divided by the midpoint pivot.
        to_left, to_right = lower[0::2], upper[1::2]
        from_left, from_right = upper[0::2], lower[1::2]
        self._inv_mid = inv_mid
        self._to_left, self._to_right = to_left, to_right
        self._from_left = from_left * inv_mid[:-1]
        self._from_right = from_right * inv_mid[1:]

        # Schur complement as LAPACK's dl, d, du (+ du2, ipiv), factored in
        # place by zgttrf, which takes 1-based pivots as it writes them.
        # Every array has at least one element, so each address is valid.
        d = diag[1::2] - to_left * self._from_left - to_right * self._from_right
        du = mat.diagonal(2)[1::2] - to_right[:-1] * self._from_left[1:]
        dl = mat.diagonal(-2)[1::2] - to_left[1:] * self._from_right[:-1]
        self._tri = [np.concatenate([x, [0j]]) for x in (dl, d, du)]
        self._tri.append(np.zeros(max(m - 2, 1), dtype=complex))  # du2
        self._ipiv = np.zeros(m, dtype=np.intc)
        self._m = ctypes.c_int(m)
        info = ctypes.c_int(0)
        _ZGTTRF(ctypes.byref(self._m),
                *(x.ctypes.data for x in self._tri), self._ipiv.ctypes.data,
                ctypes.byref(info))
        if info.value > 0:
            raise SolverError(
                "matrix is singular: zero pivot in the vertex Schur "
                f"complement at index {2 * info.value - 1}"
            )
        if info.value < 0:
            raise SolverError(
                f"tridiagonal factorization failed (argument {-info.value})"
            )
        _screen_pivots(np.concatenate([mid, self._tri[1][:m]]))

        self._n = n
        self._trans = ctypes.c_char(b"N")
        self._args = tuple(x.ctypes.data for x in self._tri) + (
            self._ipiv.ctypes.data,)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector or an (n, nrhs) block; ``b`` is left
        unmodified.  Runs ``zgttrs`` without holding the GIL and allocates
        only the output and two vertex-sized buffers, so threads may share
        one factorization."""
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != self._n:
            raise ValueError(
                f"right-hand side of shape {b.shape} does not match a "
                f"system of order {self._n}"
            )
        x = np.empty(b.shape, dtype=complex)
        if x.size == 0:
            return x
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        # Per-vertex coefficients broadcast over the columns of a block.
        col = slice(None) if b.ndim == 1 else (slice(None), None)
        # Midpoints first hold inv(D) b_mid, then the solution.
        x_mid, x_vert = x[0::2], x[1::2]
        np.multiply(self._inv_mid[col], b[0::2], out=x_mid)
        # Vertex rhs b_v - C inv(D) b_mid; rows of ``buf`` are its columns,
        # the Fortran order zgttrs solves in place.
        buf = np.empty((nrhs, self._m.value), dtype=complex)
        rhs = buf[0] if b.ndim == 1 else buf.T
        tmp = np.empty_like(rhs)
        np.multiply(self._to_left[col], x_mid[:-1], out=rhs)
        np.subtract(b[1::2], rhs, out=rhs)
        np.multiply(self._to_right[col], x_mid[1:], out=tmp)
        rhs -= tmp
        info = ctypes.c_int(0)
        _ZGTTRS(ctypes.byref(self._trans), ctypes.byref(self._m),
                ctypes.byref(ctypes.c_int(nrhs)), *self._args,
                ctypes.byref(ctypes.c_char.from_buffer(buf)),
                ctypes.byref(self._m), ctypes.byref(info))
        if info.value != 0:
            raise SolverError(
                f"tridiagonal back-substitution failed (info={info.value})"
            )
        x_vert[...] = rhs
        np.multiply(self._from_left[col], rhs, out=tmp)
        x_mid[:-1] -= tmp
        np.multiply(self._from_right[col], rhs, out=tmp)
        x_mid[1:] -= tmp
        return x


class BandedFactorization:
    """LU factorization of a banded matrix in LAPACK band storage."""

    kind = "banded"

    def __init__(self, mat, kl: int, ku: int):
        self.matrix = mat
        self.kl = kl
        self.ku = ku
        n = mat.shape[0]
        ab = np.zeros((2 * kl + ku + 1, n), dtype=complex, order="F")
        for d in range(-kl, ku + 1):
            diag = mat.diagonal(d)
            ab[kl + ku - d, max(d, 0): n + min(d, 0)] = diag

        lu, piv, info = lapack.zgbtrf(ab, kl, ku)
        if info > 0:
            raise SolverError(
                f"matrix is singular: zero pivot at index {info - 1}"
            )
        if info < 0:
            raise SolverError(f"banded factorization failed (argument {-info})")
        self._lu = lu

        # Singularity screen on the U diagonal (row kl+ku of the band LU).
        _screen_pivots(lu[kl + ku, :])

        # scipy's zgbtrf wrapper returns 0-based pivots; the zgbtrs routine
        # itself reads the band LU in place and wants them 1-based.
        if not (lu.flags.f_contiguous and lu.dtype == np.complex128):
            raise SolverError("unexpected layout of the banded LU factors")
        self._ipiv = np.ascontiguousarray(piv + 1, dtype=np.intc)
        self._n = n
        # Arguments passed by address.  The scalars live in self._scalars,
        # the LU and pivots in self._lu and self._ipiv.
        self._scalars = (
            ctypes.c_char(b"N"), ctypes.c_int(n), ctypes.c_int(kl),
            ctypes.c_int(ku), ctypes.c_int(lu.shape[0]),
            ctypes.c_int(max(1, n)),
        )
        trans, n_c, kl_c, ku_c, ldab, ldb = map(ctypes.addressof,
                                                self._scalars)
        self._head = (trans, n_c, kl_c, ku_c)
        self._band = (lu.ctypes.data, ldab, self._ipiv.ctypes.data)
        self._ldb = ldb

    @property
    def bandwidth(self) -> int:
        """Total bandwidth kl + ku + 1 (pentadiagonal = 5)."""
        return self.kl + self.ku + 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector or an (n, nrhs) block; ``b`` is left
        unmodified.  Runs ``zgbtrs`` without holding the GIL.  The scalar
        arguments are built once in ``__init__``; ``info`` and the output
        array are per call, so threads may share one factorization."""
        x = np.array(b, dtype=complex, order="F")
        if x.ndim not in (1, 2) or x.shape[0] != self._n:
            raise ValueError(
                f"right-hand side of shape {np.shape(b)} does not match a "
                f"system of order {self._n}"
            )
        if x.size == 0:
            return x
        nrhs = ctypes.c_int(1 if x.ndim == 1 else x.shape[1])
        # x.T is C-contiguous, so it exports a buffer; this is cheaper than
        # x.ctypes.data, which matters for the ~50 us desk-scale solves.
        data = ctypes.byref(ctypes.c_char.from_buffer(x.T))
        info = ctypes.c_int(0)
        _ZGBTRS(*self._head, ctypes.byref(nrhs), *self._band, data,
                self._ldb, ctypes.byref(info))
        if info.value != 0:
            raise SolverError(
                f"banded back-substitution failed (info={info.value})"
            )
        return x


class DenseFactorization:
    """Dense LU with partial pivoting."""

    kind = "dense"
    bandwidth = None

    def __init__(self, mat):
        self.matrix = mat
        dense = mat.toarray() if issparse(mat) else np.asarray(mat)
        dense = dense.astype(complex, copy=True)
        self._lu, self._piv = lu_factor(dense, check_finite=False)
        diag = np.abs(np.diagonal(self._lu))
        if not np.all(diag > 0):
            raise SolverError("matrix is singular: zero pivot in dense LU")
        # Cheap singularity screen: ratio of extreme U-diagonal magnitudes.
        if diag.min() < RCOND_FLOOR * diag.max():
            raise SolverError(
                "matrix is numerically singular "
                f"(pivot ratio = {diag.min() / diag.max():.3e})"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lu_solve((self._lu, self._piv), np.asarray(b, dtype=complex),
                        check_finite=False)


def factorize(mat, band_limit: int = BAND_LIMIT):
    """Factorize a sparse/dense matrix: condensed for the P2 pattern, band
    storage when the bandwidth is at most ``band_limit``, dense LU
    otherwise."""
    if issparse(mat):
        kl, ku = _band_extents(mat)
        if _is_p2(mat, kl, ku):
            return CondensedFactorization(mat)
        if kl + ku + 1 <= band_limit:
            return BandedFactorization(mat, kl, ku)
    return DenseFactorization(mat)
