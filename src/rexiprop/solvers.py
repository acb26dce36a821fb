"""Direct factorizations for factor-once / solve-many use.

Two solve paths behind one interface, picked from the matrix structure by
:func:`factorize` (a stack of given matrices) or :func:`factorize_shifted`
(the REXI stack ``tau*A - 1j*sigma_j*B`` of one pencil).  Each factors a
stack of K >= 1 matrices of one order, and ``solve(b, out=None)`` solves
every one of them for the vector ``b`` into a new (K, n) array, or into
``out``: a REXI step passes each stack its rows of one solution block.  A
single matrix is the K = 1 case.

* :class:`CondensedFactorization` -- the P2 pentadiagonal systems of
  ``spatial.assemble_system``.  Every midpoint DOF (the even indices)
  couples only to its own element's two vertices, so eliminating the
  midpoints element by element leaves a tridiagonal Schur complement of
  order n_elems - 1 on the vertices; the stack's K complements are
  factored as one tridiagonal system by one ``zgttrf`` call (partial
  pivoting).  A solve reduces the right-hand side onto the vertices, runs
  one ``zgttrs`` call and recovers the midpoints, each numpy step over the
  whole stack at once.  It is built from the eight half-diagonals the
  condensation reads (the even or odd entries of the diagonals at offsets
  0, +-1 and +-2).  :func:`factorize_shifted` computes those of a P2
  pencil's stack directly, ``tau*A.diagonal(k)[p::2] -
  1j*sigma_j*B.diagonal(k)[p::2]``, with no sparse matrix per shift.
  Each half-diagonal is turned in place into an array a solve reads, so
  a stack keeps about 74 bytes per shift per DOF, and its build holds at
  most one (K_s, m) temporary beyond that (K_s shifts, m vertices).  The
  midpoint elimination does not pivot, which is safe for the matrices it
  is used on: a REXI shifted matrix ``tau*A - sigma_j*iB`` with real
  symmetric A, SPD B and Re(sigma_j) != 0 has the definite imaginary part
  ``-Re(sigma_j)*B``.  Its diagonal (the midpoint pivots) then has nonzero
  imaginary parts, and its Schur complement again has a definite
  imaginary part, so it is nonsingular
  (Higham, Math. Comp. 1998, on factoring complex symmetric matrices).
  For B itself the pivots are positive and the Schur complement is SPD.
  A zero midpoint pivot raises :class:`SolverError`; the pivot-ratio
  screen covers the rest.
* :class:`DenseFactorization` -- plain dense LU for everything else (the
  small oracle systems, scalar systems, random test matrices).  Its solve
  goes through scipy's ``lu_solve`` and holds the GIL.

A Chebyshev stage applies ``B^-1 A`` rather than solving a given system.
:func:`factorize_pencil` returns an operator for it, whose
``apply(b, out=None)`` computes ``B^-1 A b`` into a new vector or ``out``:

* :class:`CondensedPencil` -- a P2 pencil.  A's and B's midpoint blocks
  are both diagonal, so the product with A and the solve with B condense
  together onto the vertices: an application builds the vertex
  right-hand side in five products, makes one ``zgttrs`` call on B's
  vertex Schur complement (``factorize(B)``'s), and recovers the
  midpoints in five more.  There is no sparse product and no complex
  copy of A.  At 7999 DOF on a 2-CPU VM an application takes about
  180-200 us, of which ``zgttrs`` is about 100 us.
* :class:`DensePencil` -- every other pencil (scalar and hand-built
  systems): the product with A in complex storage, then ``factorize(B)``'s
  solve.

A sparse matrix without the P2 pattern is refused with :class:`SolverError`
when its order exceeds ``DENSE_ORACLE_MAX_DOF``, rather than factored by
O(n^3) dense LU unnoticed.  Dense ndarray inputs are always factored.  A
factor-time :class:`SolverError` names the failing matrix of the stack in
``index``; a failed solve names none (``index`` None).

The condensed paths call LAPACK through the function pointers exported by
:mod:`scipy.linalg.cython_lapack`, as ctypes foreign calls, which drop the
GIL while the routine runs; that, and numpy dropping the GIL inside its
array loops, is what lets a thread pool solve stacks concurrently.
(scipy's f2py wrapper for ``zgttrf`` holds the GIL and rejects order 1.)

Every factorization and pencil operator exposes ``kind``
(``"condensed"`` or ``"dense"``); the factorizations also expose the stack
size ``K``, and neither keeps the matrices it factored.
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


def _pivot_range(pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest and the largest pivot magnitude of each row of the
    (K, p) array ``pivots``."""
    mags = np.abs(pivots)
    return mags.min(axis=1, initial=np.inf), mags.max(axis=1, initial=0)


def _screen_pivots(low: np.ndarray, top: np.ndarray) -> None:
    """Raise, naming the first matrix j of the stack as the failing one,
    unless its smallest pivot magnitude ``low[j]`` is within RCOND_FLOOR
    of its largest one ``top[j]``."""
    bad = np.flatnonzero(~(low > 0) | (low < RCOND_FLOOR * top))
    if bad.size:
        j = int(bad[0])
        ratio = 0.0 if top[j] == 0 else low[j] / top[j]
        raise SolverError(
            f"matrix is numerically singular (pivot ratio = {ratio:.3e})",
            index=j,
        )


def _check_rhs(b: np.ndarray, n: int, pencil: bool = False) -> None:
    """Refuse a right-hand side ``b`` whose shape is not (n,), naming the
    system of order n, or with ``pencil`` the pencil, it does not match."""
    if b.shape != (n,):
        target = (f"a pencil of shape {(n, n)}" if pencil
                  else f"a system of order {n}")
        raise ValueError(f"right-hand side of shape {b.shape} does not "
                         f"match {target}")


class _HalfDiagonals:
    """Reader of the half-diagonals of a stack of K P2 matrices of order n.

    :meth:`read` gives slice ``[p::2]`` of the diagonal at offset k of
    every matrix of the stack, one row per matrix.  The stack is the
    matrices ``mats`` or, given ``i_shifts``, the shifted matrices
    ``tau*A - i_shifts[j]*B`` of the pencil ``mats = (A, B)``.  Those are
    computed with the elementwise operations of the sparse arithmetic, so
    they are bitwise the diagonals of the built matrices; no matrix is
    built.
    """

    def __init__(self, mats, tau: float | None = None,
                 i_shifts: np.ndarray | None = None):
        self._mats, self._tau, self._i_shifts = mats, tau, i_shifts
        self.n = mats[0].shape[0]
        self.K = len(mats if i_shifts is None else i_shifts)

    def read(self, k: int, p: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """The stack's half-diagonal ``[p::2]`` at offset ``k``, written
        into ``out`` (a new complex (K, L) array when None) and returned."""
        if out is None:
            length = (self.n - abs(k) - p + 1) // 2
            out = np.empty((self.K, length), dtype=complex)
        if self._i_shifts is None:
            for row, mat in zip(out, self._mats):
                row[...] = mat.diagonal(k)[p::2]
            return out
        A, B = self._mats
        np.multiply(self._i_shifts[:, None], B.diagonal(k)[p::2], out=out)
        return np.subtract(self._tau * A.diagonal(k)[p::2], out, out=out)


class CondensedFactorization:
    """A stack of K P2 pentadiagonal matrices of one order, each solved
    through the tridiagonal Schur complement on its vertices.

    Built from the stack's half-diagonals, read by a
    :class:`_HalfDiagonals`.  With m = (n - 1) / 2, vertex k is DOF 2k + 1
    and lies between the midpoints k and k + 1 (DOFs 2k and 2k + 2).  Every
    coefficient array has a leading axis over the stack, and each is a
    half-diagonal turned into it in place.  Matrix j's Schur complement is
    block j of one tridiagonal system of order K*m.  Zero couplings between
    blocks keep LAPACK from pivoting or mixing values across a boundary, so
    every row is bitwise that of a stack of one.  ``bandwidth``, ``kl`` and
    ``ku`` describe each pentadiagonal matrix; perfbench reads them.
    """

    kind = "condensed"
    kl = ku = 2
    bandwidth = 5

    def __init__(self, halves: _HalfDiagonals):
        self.K, n = halves.K, halves.n
        m = (n - 1) // 2
        size = self.K * m
        read = halves.read

        mid = read(0, 0)
        zero = np.argwhere(mid == 0)
        if zero.size:
            j, i = zero[0]
            raise SolverError(
                f"matrix has a zero midpoint pivot at index {2 * i}; "
                "the condensed factorization does not pivot there",
                index=int(j),
            )
        # The midpoint pivots' magnitudes, for the screen after zgttrf.
        mid_low, mid_top = _pivot_range(mid)
        self._inv_mid = inv_mid = np.divide(1.0, mid, out=mid)
        # Vertex k's couplings to midpoints k and k+1 (to_*), and theirs to
        # it (from_*), the latter divided by the midpoint pivot.
        self._to_left = to_left = read(-1, 0)
        self._to_right = to_right = read(1, 1)
        self._from_left = from_left = read(1, 0)
        from_left *= inv_mid[:, :-1]
        self._from_right = from_right = read(-1, 1)
        from_right *= inv_mid[:, 1:]

        # The stacked Schur complement as LAPACK's dl, d, du (+ du2, ipiv),
        # factored in place by zgttrf.  dl and du end each block with the
        # zero coupling to the next one; LAPACK reads K*m - 1 of them.
        # Every product goes to one scratch array, freed before du2 is
        # made, so the build holds no more than one (K, m) temporary.
        dl, d, du = np.zeros((3, self.K, m), dtype=complex)
        tmp = np.empty((self.K, m), dtype=complex)
        read(0, 1, out=d)
        d -= np.multiply(to_left, from_left, out=tmp)
        d -= np.multiply(to_right, from_right, out=tmp)
        read(2, 1, out=du[:, :-1])
        du[:, :-1] -= np.multiply(to_right[:, :-1], from_left[:, 1:],
                                  out=tmp[:, :-1])
        read(-2, 1, out=dl[:, :-1])
        dl[:, :-1] -= np.multiply(to_left[:, 1:], from_right[:, :-1],
                                  out=tmp[:, :-1])
        del tmp
        du2 = np.zeros(max(size - 2, 1), dtype=complex)
        self._tri = (dl, d, du, du2)  # owns the memory behind _factors
        self._ipiv = np.zeros(size, dtype=np.intc)
        self._order = ctypes.c_int(size)
        self._factors = tuple(x.ctypes.data for x in self._tri + (self._ipiv,))
        info = ctypes.c_int(0)
        _ZGTTRF(ctypes.byref(self._order), *self._factors, ctypes.byref(info))
        if info.value < 0:
            raise SolverError(
                f"tridiagonal factorization failed (argument {-info.value})")
        # zgttrf reports the first zero pivot of U, 1-based over the stack;
        # matrices before its block are screened first, so the lowest
        # failing j is named.  Each is screened over its midpoint pivots
        # and the diagonal of its U.
        j, row = divmod(info.value - 1, m) if info.value else (self.K, 0)
        d_low, d_top = _pivot_range(d[:j])
        _screen_pivots(np.minimum(mid_low[:j], d_low),
                       np.maximum(mid_top[:j], d_top))
        if info.value:
            raise SolverError(
                "matrix is singular: zero pivot in the vertex Schur "
                f"complement at index {2 * row + 1}", index=j)

        self._n = n
        self._trans = ctypes.c_char(b"N")
        self._nrhs = ctypes.c_int(1)

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve every matrix of the stack for the vector ``b``, which is
        left unmodified; row j of the (K, n) result (``out`` when given, a
        C-contiguous complex array) solves matrix j.  Runs the one
        ``zgttrs`` call without holding the GIL and allocates its scratch
        per call, so threads may share one factorization."""
        b = np.asarray(b)
        _check_rhs(b, self._n)
        x = np.empty((self.K, self._n), dtype=complex) if out is None else out
        # Midpoints first hold inv(D) b_mid, then the solution.
        x_mid, x_vert = x[:, 0::2], x[:, 1::2]
        np.multiply(self._inv_mid, b[0::2], out=x_mid)
        # Vertex rhs b_v - C inv(D) b_mid, the blocks one after the other,
        # which zgttrs solves in place.
        rhs = np.empty(self._to_left.shape, dtype=complex)
        tmp = np.empty_like(rhs)
        np.multiply(self._to_left, x_mid[:, :-1], out=rhs)
        np.subtract(b[1::2], rhs, out=rhs)
        np.multiply(self._to_right, x_mid[:, 1:], out=tmp)
        rhs -= tmp
        self._solve_vertices(rhs)
        x_vert[...] = rhs
        np.multiply(self._from_left, rhs, out=tmp)
        x_mid[:, :-1] -= tmp
        np.multiply(self._from_right, rhs, out=tmp)
        x_mid[:, 1:] -= tmp
        return x

    def _solve_vertices(self, rhs: np.ndarray) -> None:
        """Overwrite the C-contiguous complex vertex right-hand sides
        ``rhs``, (K, m) or, for a stack of one, (m,), with the solutions of
        the Schur complements, by one ``zgttrs`` call."""
        info = ctypes.c_int(0)
        _ZGTTRS(ctypes.byref(self._trans), ctypes.byref(self._order),
                ctypes.byref(self._nrhs), *self._factors, rhs.ctypes.data,
                ctypes.byref(self._order), ctypes.byref(info))
        if info.value != 0:
            raise SolverError(
                f"tridiagonal back-substitution failed (info={info.value})")


class DenseFactorization:
    """Dense LU with partial pivoting, one per matrix of the stack."""

    kind = "dense"
    bandwidth = None

    def __init__(self, *mats):
        self.K = len(mats)
        self._lus = []
        for mat in mats:
            dense = mat.toarray() if issparse(mat) else np.asarray(mat)
            dense = dense.astype(complex, copy=True)
            # lu_factor warns on an exactly zero pivot; the screen raises.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                self._lus.append(lu_factor(dense, check_finite=False))
        _screen_pivots(*_pivot_range(
            np.array([np.diagonal(lu) for lu, _ in self._lus])))
        self._n = len(self._lus[0][0])

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Row j of the (K, n) result (``out`` when given) solves matrix j
        for the vector ``b``."""
        b = np.asarray(b)
        _check_rhs(b, self._n)
        b = b.astype(complex, copy=False)
        if out is None:
            out = np.empty((self.K, self._n), dtype=complex)
        for row, lu in zip(out, self._lus):
            row[...] = lu_solve(lu, b, check_finite=False)
        return out


def factorize(*mats):
    """Factorize a stack of K >= 1 sparse/dense matrices of one order:
    condensed when every matrix has the P2 pattern, dense LU otherwise.
    A sparse matrix without the P2 pattern is refused above
    ``DENSE_ORACLE_MAX_DOF``.  A :class:`SolverError` names the failing
    matrix's position in ``index``; an empty stack raises ValueError."""
    if not mats:
        raise ValueError("factorize needs a stack of K >= 1 matrices, "
                         "got none")
    if all(issparse(mat) and _is_p2(mat) for mat in mats):
        return CondensedFactorization(_HalfDiagonals(mats))
    n = mats[0].shape[0]
    for j, mat in enumerate(mats):
        if n > DENSE_ORACLE_MAX_DOF and issparse(mat) and not _is_p2(mat):
            raise SolverError(
                f"sparse matrix of order {n} lacks the P2 pattern, and dense "
                f"LU is limited to DENSE_ORACLE_MAX_DOF = {DENSE_ORACLE_MAX_DOF}",
                index=j,
            )
    return DenseFactorization(*mats)


def factorize_shifted(A, B, tau: float, shifts: np.ndarray):
    """Factorize the stack ``tau*A - 1j*shifts[j]*B`` of the sparse pencil
    (A, B), j = 0 .. K-1, as :func:`factorize` would factor those matrices.

    When A and B both have the P2 pattern, the stack's half-diagonals are
    computed straight from the pencil's, with the elementwise operations
    of the sparse arithmetic, so the factors are bitwise those of the
    built matrices; no matrix is built.  Any other pencil builds the K
    shifted matrices and calls :func:`factorize`.  A :class:`SolverError`
    names the failing shift's position in ``index``; no shifts (K = 0)
    raise ValueError.
    """
    i_shifts = 1j * np.asarray(shifts)
    if i_shifts.size == 0:
        raise ValueError("factorize_shifted needs K >= 1 shifts, got none")
    if not (_is_p2(A) and _is_p2(B)):
        return factorize(*((tau * A - i_sigma * B).tocsr()
                           for i_sigma in i_shifts))
    return CondensedFactorization(_HalfDiagonals((A, B), tau, i_shifts))


class CondensedPencil:
    """``B^-1 A`` of a P2 pencil (A, B), applied on the vertices.

    Both matrices have the P2 pattern, and both midpoint blocks are
    diagonal, so ``B y = A b`` condenses as one solve with B does: with
    the midpoints eliminated,

        S_B y_v = (A_vv - B_vm B_mm^-1 A_mv) b_v
                  + (A_vm - B_vm B_mm^-1 A_mm) b_m,
        y_m = B_mm^-1 A_mm b_m + B_mm^-1 A_mv b_v - B_mm^-1 B_mv y_v,

    where S_B = B_vv - B_vm B_mm^-1 B_mv is B's vertex Schur complement,
    factored once by ``factorize(B)`` (a :class:`CondensedFactorization`,
    whose numbering this follows).  The vertex operator is tridiagonal and
    the midpoint-to-vertex coupling has two bands, so building the vertex
    right-hand side takes five products of coefficient arrays and ``b``,
    and recovering the midpoints five more; :meth:`apply` makes one
    ``zgttrs`` call between them.  B is refused as ``factorize(B)``
    refuses it.
    """

    kind = "condensed"

    def __init__(self, A, B):
        self._n = B.shape[0]
        self._B = fac = factorize(B)
        # A's half-diagonals, each turned in place into a coefficient array.
        read = _HalfDiagonals((A,)).read
        inv_mid = fac._inv_mid[0]
        to_left, to_right = fac._to_left[0], fac._to_right[0]
        # B_mm^-1 A_mm, and B_mm^-1 A_mv as midpoint k's coupling to
        # vertex k (a_from_left) and midpoint k + 1's to vertex k
        # (a_from_right); B's own, B_mm^-1 B_mv, are the factorization's.
        self._a_mid = a_mid = read(0, 0)[0]
        a_mid *= inv_mid
        self._a_from_left = a_from_left = read(1, 0)[0]
        a_from_left *= inv_mid[:-1]
        self._a_from_right = a_from_right = read(-1, 1)[0]
        a_from_right *= inv_mid[1:]
        self._from_left, self._from_right = (fac._from_left[0],
                                             fac._from_right[0])
        # The vertex operator A_vv - B_vm B_mm^-1 A_mv (tridiagonal), and
        # the coupling A_vm - B_vm B_mm^-1 A_mm to midpoints k and k + 1.
        self._vert = vert = read(0, 1)[0]
        tmp = np.empty_like(vert)
        vert -= np.multiply(to_left, a_from_left, out=tmp)
        vert -= np.multiply(to_right, a_from_right, out=tmp)
        self._vert_up = vert_up = read(2, 1)[0]
        vert_up -= np.multiply(to_right[:-1], a_from_left[1:], out=tmp[:-1])
        self._vert_lo = vert_lo = read(-2, 1)[0]
        vert_lo -= np.multiply(to_left[1:], a_from_right[:-1], out=tmp[:-1])
        self._to_mid = to_mid = read(-1, 0)[0]
        to_mid -= np.multiply(to_left, a_mid[:-1], out=tmp)
        self._to_next = to_next = read(1, 1)[0]
        to_next -= np.multiply(to_right, a_mid[1:], out=tmp)

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``B^-1 A b`` into a new complex array, or into ``out``.  ``b``
        is read only into copies made first, so ``out`` may be ``b``.
        Runs the one ``zgttrs`` call without holding the GIL and allocates
        its scratch per call, so threads may share one operator."""
        b = np.asarray(b)
        _check_rhs(b, self._n, pencil=True)
        y = np.empty(self._n, dtype=complex) if out is None else out
        # Contiguous copies: products read them faster than strided views.
        b_mid = np.ascontiguousarray(b[0::2], dtype=complex)
        b_vert = np.ascontiguousarray(b[1::2], dtype=complex)
        rhs = self._vert * b_vert
        tmp = np.empty_like(rhs)
        rhs[:-1] += np.multiply(self._vert_up, b_vert[1:], out=tmp[:-1])
        rhs[1:] += np.multiply(self._vert_lo, b_vert[:-1], out=tmp[1:])
        rhs += np.multiply(self._to_mid, b_mid[:-1], out=tmp)
        rhs += np.multiply(self._to_next, b_mid[1:], out=tmp)
        self._B._solve_vertices(rhs)
        y[1::2] = rhs
        b_mid *= self._a_mid
        b_mid[:-1] += np.multiply(self._a_from_left, b_vert, out=tmp)
        b_mid[1:] += np.multiply(self._a_from_right, b_vert, out=tmp)
        b_mid[:-1] -= np.multiply(self._from_left, rhs, out=tmp)
        b_mid[1:] -= np.multiply(self._from_right, rhs, out=tmp)
        y[0::2] = b_mid
        return y


class DensePencil:
    """``B^-1 A`` of any other pencil (scalar and hand-built systems): a
    product with A in complex storage, then a solve with ``factorize(B)``."""

    kind = "dense"

    def __init__(self, A, B):
        self._n = A.shape[0]
        self._B = factorize(B)
        self._A = A.astype(complex)

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``B^-1 A b`` into a new complex array, or into ``out``."""
        b = np.asarray(b)
        _check_rhs(b, self._n, pencil=True)
        y = np.empty(self._n, dtype=complex) if out is None else out
        self._B.solve(self._A @ b, out=y[None])
        return y


def factorize_pencil(A, B):
    """An operator whose ``apply(b, out=None)`` computes ``B^-1 A b``:
    :class:`CondensedPencil` when A and B are sparse with the P2 pattern,
    :class:`DensePencil` otherwise.  Both expose ``kind``, and both
    refuse B as ``factorize(B)`` does."""
    if issparse(A) and issparse(B) and _is_p2(A) and _is_p2(B):
        return CondensedPencil(A, B)
    return DensePencil(A, B)
