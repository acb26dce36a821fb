"""Direct factorizations for factor-once / solve-many use.

Two solve paths behind one interface, picked by :func:`factorize` from the
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
* :class:`DenseFactorization` -- plain dense LU for everything else (the
  small oracle systems, scalar systems, random test matrices).  Its solve
  goes through scipy's ``lu_solve`` and holds the GIL.

A sparse matrix without the P2 pattern is refused with :class:`SolverError`
when its order exceeds ``DENSE_ORACLE_MAX_DOF``, rather than factored by
O(n^3) dense LU unnoticed.  Dense ndarray inputs are always factored.

The condensed path calls LAPACK through the function pointers exported by
:mod:`scipy.linalg.cython_lapack`, as ctypes foreign calls, which drop the
GIL while the routine runs; that, and numpy dropping the GIL inside its
array loops, is what lets a thread pool drive the per-shift solves
concurrently.  (scipy's f2py wrapper for ``zgttrf`` holds the GIL and
rejects order 1.)

Both expose ``solve(b)`` for vector or multi-column right-hand sides,
``kind`` (``"condensed"`` or ``"dense"``) and a reference to the original
matrix for residual checks.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, cython_lapack, lu_factor, lu_solve
from scipy.sparse import issparse

from .errors import SolverError

# Largest order factored by dense LU when a sparse matrix lacks the P2
# pattern; also the largest system the dense oracle will diagonalize.
DENSE_ORACLE_MAX_DOF = 512
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


# zgttrf(n, dl, d, du, du2, ipiv, info)
_ZGTTRF = _lapack_function("zgttrf", 7)
# zgttrs(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info)
_ZGTTRS = _lapack_function("zgttrs", 11)


def _is_p2(mat) -> bool:
    """True for the P2 pattern: odd order, pentadiagonal with both outer
    diagonals in use, and no coupling between the midpoints (even indices)
    two apart."""
    coo = mat.tocoo()
    offsets = coo.col - coo.row
    return (mat.shape[0] % 2 == 1 and coo.nnz > 0
            and offsets.min() == -2 and offsets.max() == 2
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
    ``ku`` describe the pentadiagonal matrix; perfbench reads them.
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


class DenseFactorization:
    """Dense LU with partial pivoting."""

    kind = "dense"
    bandwidth = None

    def __init__(self, mat):
        self.matrix = mat
        dense = mat.toarray() if issparse(mat) else np.asarray(mat)
        dense = dense.astype(complex, copy=True)
        # lu_factor warns on an exactly zero pivot; the screen raises.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            self._lu, self._piv = lu_factor(dense, check_finite=False)
        _screen_pivots(np.diagonal(self._lu))

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lu_solve((self._lu, self._piv), np.asarray(b, dtype=complex),
                        check_finite=False)


def factorize(mat):
    """Factorize a sparse/dense matrix: condensed for the P2 pattern, dense
    LU otherwise.  A sparse matrix without the P2 pattern is refused above
    ``DENSE_ORACLE_MAX_DOF``."""
    if issparse(mat):
        if _is_p2(mat):
            return CondensedFactorization(mat)
        n = mat.shape[0]
        if n > DENSE_ORACLE_MAX_DOF:
            raise SolverError(
                f"sparse matrix of order {n} lacks the P2 pattern, and dense "
                f"LU is limited to DENSE_ORACLE_MAX_DOF = {DENSE_ORACLE_MAX_DOF}"
            )
    return DenseFactorization(mat)
