"""Direct factorizations for factor-once / solve-many use.

Two solve paths behind one interface, picked from the matrix structure by
:func:`factorize` (a stack of given matrices) or :func:`factorize_shifted`
(the REXI stack ``tau*A - 1j*sigma_j*B`` of one pencil).  Each factors a
stack of K >= 1 matrices of one order, and ``solve(b, out=None)`` solves
every one of them for the vector ``b`` into a new (K, n) array, or into
``out``.  That is a thin wrapper of the core solve ``solve_parts(b_parts,
x_parts)``, which reads the contiguous parts ``split(b)`` gives and writes
each matrix's solution as one row of a C-contiguous complex block per
part; ``join`` interleaves the blocks in natural order.  A REXI step
splits its right-hand side once and passes each stack its rows of the
step's blocks.  A single matrix is the K = 1 case.

* :class:`CondensedFactorization` -- the P2 pentadiagonal systems of
  ``spatial.assemble_system``.  Every midpoint DOF (the even indices)
  couples only to its own element's two vertices, so eliminating the
  midpoints element by element leaves a tridiagonal Schur complement of
  order n_elems - 1 on the vertices; the stack's K complements are
  factored as one tridiagonal system.  Its kernel is picked from the
  structure of that system alone: when it is real, its lower and upper
  diagonals are equal and ``dpttrf`` finds it positive definite (the mass
  matrix B of every mesh), LDL^T by one ``dpttrf`` call, solved by
  ``zpttrs``; otherwise (every REXI stack, whose definite imaginary part
  makes it complex, and any B that is not symmetric positive definite on
  its vertices) LU with partial pivoting by one ``zgttrf`` call, solved
  by ``zgttrs``.  Its parts are the midpoints and the vertices: a
  (K, m + 1) midpoint block and a (K, m) vertex block.  A solve reduces
  the right-hand side onto the vertex block, runs one kernel solve on it
  in place and recovers the midpoints, each numpy step over the whole
  stack at once and on contiguous rows.  It is built from the eight
  half-diagonals the condensation reads (the even or odd entries of the
  diagonals at offsets 0, +-1 and +-2), by one condensation step that
  turns an operand's half-diagonals into its condensed coefficients
  against the stack; applied to the stack itself, it gives the Schur
  complements.  :func:`factorize_shifted`
  computes those of a P2 pencil's stack directly,
  ``tau*A.diagonal(k)[p::2] - 1j*sigma_j*B.diagonal(k)[p::2]``, with no
  sparse matrix per shift.
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
  screen, over the midpoint pivots and the complement's (U's diagonal, or
  LDL^T's D), covers the rest.
* :class:`DenseFactorization` -- plain dense LU for everything else (the
  small oracle systems, scalar systems, random test matrices).  Its one
  part is the whole vector.  Its solve goes through scipy's ``lu_solve``
  and holds the GIL.

A Chebyshev stage applies ``B^-1 A`` rather than solving a given system.
:func:`factorize_pencil` returns an operator for it, whose
``apply(b, out=None)`` computes ``B^-1 A b`` into a new vector or ``out``.
Like the factorizations, it has a core, ``apply_parts(src, out=None)``,
which reads and writes one contiguous vector in the operator's own order
of the entries; ``split`` gives that order and ``join`` undoes it, and
``apply`` is ``join(apply_parts(split(b)), out)``.  A Chebyshev step
splits its state once, runs every stage in that order, and joins once:

* :class:`CondensedPencil` -- a P2 pencil.  A's and B's midpoint blocks
  are both diagonal, so the product with A and the solve with B condense
  together onto the vertices.  The operator is B's
  :class:`CondensedFactorization` plus A's coefficients, condensed
  against it by the same step that gave it B's Schur complement.  Its
  order is the m + 1 midpoints, then the m vertices.  An application
  builds the vertex right-hand side from A's coefficients in the result's
  vertex part, solves it there with B's kernel (LDL^T for the mass matrix
  of ``spatial.assemble_system``), and recovers the midpoints.  There is
  no sparse product and no complex copy of A.  At 7999 DOF on a 2-CPU VM
  ``apply_parts`` takes about 150 us, of which ``zpttrs`` is about 65-70
  us (``zgttrs`` took 83-88 us on the same complement).
* :class:`DensePencil` -- every other pencil (scalar and hand-built
  systems): the product with A in complex storage, then ``factorize(B)``'s
  solve, in natural order.

A sparse matrix without the P2 pattern is refused with :class:`SolverError`
when its order exceeds ``DENSE_ORACLE_MAX_DOF``, rather than factored by
O(n^3) dense LU unnoticed.  Dense ndarray inputs are always factored.  A
stack whose matrices are not square of one order is refused with
ValueError before any work, and so is an ``out`` that is not a complex
array of the result's shape (C-contiguous, and sharing no memory with
``src``, for ``apply_parts``).  A
factor-time :class:`SolverError` names the failing matrix of the stack in
``index``; a failed solve names none (``index`` None).

The condensed paths call LAPACK through scipy's own wrappers:
``scipy.linalg.lapack.zgttrf`` or ``dpttrf`` at build, and ``zgttrs`` or
``zpttrs`` per solve, in place on the right-hand side.  On scipy 1.17.1
the ``zgttrs`` wrapper releases the GIL while the routine runs: on a
2-CPU VM, two threads each making 300 solves of order 63984 took
0.44-0.47 s, and one thread making 300 took 0.42-0.47 s.  That, and numpy
dropping the GIL inside its array loops, is what lets a thread pool solve
the REXI stacks concurrently.  The ``zpttrs`` wrapper holds the GIL: two
threads each making 200 solves of order 64000 took 0.44-0.45 s, and the
400 made serially 0.42-0.45 s.  Threads may still share an LDL^T
factorization, but its solves do not overlap; no pooled path solves one.
The LU wrappers refuse orders 1 and 2, so an LU complement of order 2
(one 5-DOF matrix) is padded with a decoupled unit row; the LDL^T
wrappers refuse order 1 only, which no P2 complement has.

Every factorization and pencil operator exposes ``kind``
(``"condensed"`` or ``"dense"``); the factorizations also expose the stack
size ``K``, and neither keeps the matrices it factored.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dpttrf, zgttrf, zgttrs, zpttrs
from scipy.sparse import issparse

from .errors import SolverError

# Largest order factored by dense LU when a sparse matrix lacks the P2
# pattern; also the largest system the dense oracle will diagonalize.
DENSE_ORACLE_MAX_DOF = 512
# Reciprocal condition estimates below this are treated as singular.
RCOND_FLOOR = 1e-14


def _is_p2(mat) -> bool:
    """True for a sparse matrix with the P2 pattern: odd order,
    pentadiagonal with both outer diagonals in use, and no coupling between
    the midpoints (even indices) two apart."""
    if not issparse(mat):
        return False
    coo = mat.tocoo()
    offsets = coo.col - coo.row
    return (mat.shape[0] % 2 == 1 and coo.nnz > 0
            and offsets.min() == -2 and offsets.max() == 2
            and not mat.diagonal(2)[0::2].any()
            and not mat.diagonal(-2)[0::2].any())


def _check_square(caller: str, mats, names, first: str) -> int:
    """The order of the matrices ``mats``, refused unless they are square
    of one order by a ValueError naming ``caller``, the first misfit (by
    its entry of ``names``) and its shape, and the shape of ``mats[0]``
    (called ``first``)."""
    square = np.shape(mats[0])[:1] * 2
    for name, mat in zip(names, mats):
        if not square or np.shape(mat) != square:
            raise ValueError(
                f"{caller} needs square matrices of one order: {name} has "
                f"shape {np.shape(mat)}, {first} has shape "
                f"{np.shape(mats[0])}")
    return square[0]


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
    if np.shape(b) != (n,):
        target = (f"a pencil of shape {(n, n)}" if pencil
                  else f"a system of order {n}")
        raise ValueError(f"right-hand side of shape {np.shape(b)} does not "
                         f"match {target}")


def _check_out(out, shape: tuple, contiguous: bool = False) -> None:
    """Refuse an ``out`` that is not a complex array of ``shape`` (and,
    with ``contiguous``, C-contiguous), naming the shape expected."""
    if not (isinstance(out, np.ndarray) and out.shape == shape
            and out.dtype == complex
            and (out.flags.c_contiguous or not contiguous)):
        layout = "C-contiguous " if contiguous else ""
        got = (f"{out.dtype} array of shape {out.shape}"
               if isinstance(out, np.ndarray) else type(out).__name__)
        raise ValueError(f"out must be a {layout}complex array of shape "
                         f"{shape}, got {got}")


class _HalfDiagonals:
    """Reader of the half-diagonals of a stack of K P2 matrices of order n.

    :meth:`read` gives slice ``[p::2]`` of the diagonal at offset k of
    every matrix of the stack, one row per matrix.  The stack is the
    matrices ``mats`` or, given ``i_shifts``, the shifted matrices
    ``tau*A - i_shifts[j]*B`` of the pencil ``mats = (A, B)``.  Those are
    computed with the elementwise operations of the sparse arithmetic, so
    they are bitwise the diagonals of the built matrices; no matrix is
    built.  A matrix's diagonal at offset k is extracted once when its
    halves are read in the order p = 0, then p = 1: the first read keeps
    it and the second takes it.
    """

    def __init__(self, mats, tau: float | None = None,
                 i_shifts: np.ndarray | None = None):
        self._mats, self._tau, self._i_shifts = mats, tau, i_shifts
        self.n = mats[0].shape[0]
        self.K = len(mats if i_shifts is None else i_shifts)
        self._kept = {}  # offset -> its matrices' diagonals, kept at p = 0

    def read(self, k: int, p: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """The stack's half-diagonal ``[p::2]`` at offset ``k``, written
        into ``out`` (a new complex (K, L) array when None) and returned."""
        diags = self._kept.pop(k, None) if p else None
        if diags is None:
            diags = [mat.diagonal(k) for mat in self._mats]
            if not p:
                self._kept[k] = diags
        if out is None:
            length = (self.n - abs(k) - p + 1) // 2
            out = np.empty((self.K, length), dtype=complex)
        if self._i_shifts is None:
            for row, diag in zip(out, diags):
                row[...] = diag[p::2]
            return out
        a_diag, b_diag = diags
        np.multiply(self._i_shifts[:, None], b_diag[p::2], out=out)
        return np.subtract(self._tau * a_diag[p::2], out, out=out)


class _Factorization:
    """What both factorizations share: a stack of K matrices of order n
    whose core solve, ``solve_parts``, reads a vector as contiguous parts
    (``split``) and writes the solutions as one block of rows per part
    (``join`` interleaves them); ``_sizes`` holds the parts' lengths."""

    K: int
    _n: int
    _sizes: tuple[int, ...]

    def solve(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve every matrix of the stack for the vector ``b``, which is
        left unmodified; row j of the (K, n) result (``out`` when given, a
        complex (K, n) array) solves matrix j.  Splits ``b``, solves its
        parts into blocks of their own, and interleaves those into the
        result."""
        b = np.asarray(b)
        _check_rhs(b, self._n)
        if out is not None:
            _check_out(out, (self.K, self._n))
        x_parts = tuple(np.empty((self.K, size), dtype=complex)
                        for size in self._sizes)
        self.solve_parts(self.split(b), x_parts)
        if out is None:
            out = np.empty((self.K, self._n), dtype=complex)
        return self.join(x_parts, out)

    def _check_parts(self, b_parts, x_parts) -> None:
        """Refuse, before any solve, parts that are not vectors of the
        lengths ``_sizes`` and solution blocks that are not C-contiguous
        complex (K, size) arrays, naming the system's order."""
        sizes = self._sizes
        try:
            fits = (len(b_parts) == len(x_parts) == len(sizes)
                    and all(b.shape == (size,) and x.shape == (self.K, size)
                            and x.dtype == complex and x.flags.c_contiguous
                            for b, x, size in zip(b_parts, x_parts, sizes)))
        except (AttributeError, TypeError):  # not sequences of arrays
            fits = False
        if not fits:
            raise ValueError(
                f"parts do not match a stack of {self.K} systems of order "
                f"{self._n}: it solves parts of shapes "
                f"{[(size,) for size in sizes]} into C-contiguous complex "
                f"blocks of shapes {[(self.K, size) for size in sizes]}")


class CondensedFactorization(_Factorization):
    """A stack of K P2 pentadiagonal matrices of one order, each solved
    through the tridiagonal Schur complement on its vertices.

    Built from the stack's half-diagonals, read by a
    :class:`_HalfDiagonals`.  With m = (n - 1) / 2, vertex k is DOF 2k + 1
    and lies between the midpoints k and k + 1 (DOFs 2k and 2k + 2).  Every
    coefficient array has a leading axis over the stack, and each is a
    half-diagonal turned into it in place.  Matrix j's Schur complement is
    block j of one tridiagonal system of order K*m.  That system is
    factored by LDL^T (``dpttrf``, solved by ``zpttrs``) when it is real
    with equal lower and upper diagonals and ``dpttrf`` finds it positive
    definite, and by LU (``zgttrf``, solved by ``zgttrs``) otherwise: the
    kernel comes from the matrices alone.  Zero couplings between blocks
    keep either kernel from pivoting or mixing values across a boundary,
    so every row is bitwise that of a stack of one.  ``bandwidth``, ``kl``
    and ``ku`` describe each pentadiagonal matrix; perfbench reads them.
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
        self._inv_mid = np.divide(1.0, mid, out=mid)
        # Vertex k's couplings to midpoints k and k+1 (to_*), and theirs to
        # it (from_*); each offset is read at p = 0 before p = 1.
        self._to_left = read(-1, 0)
        self._from_left = read(1, 0)
        self._to_right = read(1, 1)
        self._from_right = read(-1, 1)
        # The stacked Schur complement as LAPACK's dl, d, du; the last entry
        # of each off-diagonal is a block's zero coupling to the next block,
        # which keeps either kernel from mixing values across a boundary.
        dl, d, du = (x.reshape(-1) for x in
                     self._condense(read, self._from_left, self._from_right))
        self._ldlt = self._factor_ldlt(dl, d, du)
        # zgttrf and zgttrs refuse order 2, which only a stack of one 5-DOF
        # matrix has; for LU its complement gets a third, decoupled unit
        # row, tied to it by those zero couplings.
        self._pad = self._ldlt is None and size == 2
        if self._ldlt is not None:
            pivots, info = self._ldlt[0], 0
        else:
            # zgttrf factors in place and reads K*m - 1 of dl and du.
            if self._pad:
                d = np.append(d, 1)
            else:
                dl, du = dl[:-1], du[:-1]
            *self._factors, info = zgttrf(dl, d, du, overwrite_dl=1,
                                          overwrite_d=1, overwrite_du=1)
            if info < 0:
                raise SolverError(
                    f"tridiagonal factorization failed (argument {-info})")
            pivots = self._factors[1]
        # zgttrf reports the first zero pivot of U, 1-based over the stack;
        # matrices before its block are screened first, so the lowest
        # failing j is named.  Each is screened over its midpoint pivots
        # and the complement's pivots: the diagonal of U, or LDL^T's D.
        j, row = divmod(info - 1, m) if info else (self.K, 0)
        d_low, d_top = _pivot_range(pivots[:size].reshape(self.K, m)[:j])
        _screen_pivots(np.minimum(mid_low[:j], d_low),
                       np.maximum(mid_top[:j], d_top))
        if info:
            raise SolverError(
                "matrix is singular: zero pivot in the vertex Schur "
                f"complement at index {2 * row + 1}", index=j)

        self._n, self._sizes = n, (m + 1, m)

    def _condense(self, read, from_left, from_right, midpoint=()):
        """Condense an operand X against the stack's matrices M.

        ``from_left`` and ``from_right`` hold X's couplings of midpoints k
        and k + 1 to vertex k (X_mv) and become M_mm^-1 X_mv in place.
        Given ``midpoint`` = (mid, to_left, to_right), X's midpoint diagonal
        and its couplings of vertex k to midpoints k and k + 1 (X_vm)
        become M_mm^-1 X_mm and X_vm - M_vm M_mm^-1 X_mm in place.  Returns
        the lower, main and upper diagonals of X_vv - M_vm M_mm^-1 X_mv as
        one complex (3, K, m) array, read from X's half-diagonals by
        ``read`` and condensed in place; each off-diagonal ends in a zero,
        the coupling to the next block.  With X = M (the constructor, no
        ``midpoint``) they are M's Schur complements.  Every product goes
        to one scratch array, so the step holds no more than one (K, m)
        temporary.
        """
        inv_mid, to_left, to_right = (self._inv_mid, self._to_left,
                                      self._to_right)
        vertex = dl, d, du = np.zeros((3,) + to_left.shape, dtype=complex)
        read(0, 1, out=d)
        read(2, 1, out=du[:, :-1])
        read(-2, 1, out=dl[:, :-1])
        tmp = np.empty_like(to_left)
        if midpoint:
            mid, x_to_left, x_to_right = midpoint
            mid *= inv_mid
            x_to_left -= np.multiply(to_left, mid[:, :-1], out=tmp)
            x_to_right -= np.multiply(to_right, mid[:, 1:], out=tmp)
        from_left *= inv_mid[:, :-1]
        from_right *= inv_mid[:, 1:]
        d -= np.multiply(to_left, from_left, out=tmp)
        d -= np.multiply(to_right, from_right, out=tmp)
        du[:, :-1] -= np.multiply(to_right[:, :-1], from_left[:, 1:],
                                  out=tmp[:, :-1])
        dl[:, :-1] -= np.multiply(to_left[:, 1:], from_right[:, :-1],
                                  out=tmp[:, :-1])
        return vertex

    def split(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The midpoints and the vertices of the vector ``v``, as two
        C-contiguous complex copies: the parts :meth:`solve_parts` reads."""
        return (np.ascontiguousarray(v[0::2], dtype=complex),
                np.ascontiguousarray(v[1::2], dtype=complex))

    def join(self, parts, out: np.ndarray | None = None) -> np.ndarray:
        """Interleave the midpoint and vertex ``parts`` (vectors, or blocks
        of rows) along the last axis into ``out``, a new complex array when
        None, and return it: the inverse of :meth:`split`."""
        mid, vert = parts
        if out is None:
            out = np.empty(mid.shape[:-1] + (self._n,), dtype=complex)
        out[..., 0::2] = mid
        out[..., 1::2] = vert
        return out

    def solve_parts(self, b_parts, x_parts) -> None:
        """Solve every matrix of the stack for the vector whose midpoint
        and vertex parts are ``b_parts`` (lengths m + 1 and m), which are
        left unmodified.  Row j of ``x_parts``, a C-contiguous complex
        (K, m + 1) midpoint block and (K, m) vertex block, receives matrix
        j's solution.  Every product reads and writes contiguous rows, and
        the vertex block is the right-hand side the kernel solves in place.
        The scratch is allocated per call, so threads may share one
        factorization.  An LU stack's one ``zgttrs`` call, through scipy's
        wrapper, runs without the GIL, so such solves overlap; an LDL^T
        stack's ``zpttrs`` call holds it."""
        self._check_parts(b_parts, x_parts)
        b_mid, b_vert = b_parts
        x_mid, x_vert = x_parts
        # Midpoints first hold inv(D) b_mid, then the solution.
        np.multiply(self._inv_mid, b_mid, out=x_mid)
        # Vertex rhs b_v - C inv(D) b_mid, the blocks one after the other.
        tmp = np.empty_like(x_vert)
        np.multiply(self._to_left, x_mid[:, :-1], out=x_vert)
        np.subtract(b_vert, x_vert, out=x_vert)
        np.multiply(self._to_right, x_mid[:, 1:], out=tmp)
        x_vert -= tmp
        self._solve_vertices(x_vert)
        self._recover_midpoints(x_mid, x_vert, tmp)

    @staticmethod
    def _factor_ldlt(dl, d, du):
        """LDL^T's ``(D, L's subdiagonal)`` of the stacked complement with
        diagonals ``dl``, ``d``, ``du``, in the real and complex storage
        ``zpttrs`` reads, when it is real with ``dl == du`` and ``dpttrf``
        finds it positive definite; None otherwise, and the arrays are left
        as they were, for LU."""
        if not (np.array_equal(dl, du) and not d.imag.any()
                and not dl.imag.any()):
            return None
        pivots, lower, info = dpttrf(d.real, dl.real[:-1])
        if info < 0:
            raise SolverError(
                f"tridiagonal factorization failed (argument {-info})")
        return (pivots, lower.astype(complex)) if info == 0 else None

    def _solve_vertices(self, rhs: np.ndarray) -> None:
        """Overwrite the C-contiguous complex vertex right-hand sides
        ``rhs``, (K, m) or, for a stack of one, (m,), with the solutions of
        the Schur complements, by one ``zpttrs`` or ``zgttrs`` call: in
        place, but for the padded order-2 complement, solved in a
        three-entry copy."""
        b = rhs.reshape(-1, 1)
        if self._pad:
            b = np.append(b, [[0]], axis=0)
        if self._ldlt is not None:
            x, info = zpttrs(*self._ldlt, b, overwrite_b=1)
        else:
            x, info = zgttrs(*self._factors, b, overwrite_b=1)
        if info != 0:
            raise SolverError(
                f"tridiagonal back-substitution failed (info={info})")
        if self._pad:
            rhs[...] = x[:-1].reshape(rhs.shape)

    def _recover_midpoints(self, x_mid, x_vert, tmp) -> None:
        """Subtract M_mm^-1 M_mv times the solved (K, m) vertex block
        ``x_vert`` from the (K, m + 1) midpoint block ``x_mid``, through
        the scratch ``tmp`` of ``x_vert``'s shape."""
        x_mid[:, :-1] -= np.multiply(self._from_left, x_vert, out=tmp)
        x_mid[:, 1:] -= np.multiply(self._from_right, x_vert, out=tmp)


class DenseFactorization(_Factorization):
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
        self._sizes = (self._n,)

    def split(self, v: np.ndarray) -> tuple[np.ndarray]:
        """The one part :meth:`solve_parts` reads: ``v`` in complex
        storage."""
        return (np.asarray(v, dtype=complex),)

    def join(self, parts, out: np.ndarray | None = None) -> np.ndarray:
        """The one part of ``parts`` copied into ``out`` (a new array when
        None) and returned."""
        if out is None:
            return np.array(parts[0])
        out[...] = parts[0]
        return out

    def solve_parts(self, b_parts, x_parts) -> None:
        """Row j of the one block of ``x_parts``, C-contiguous complex
        (K, n), receives matrix j's solution for the one vector of
        ``b_parts``."""
        self._check_parts(b_parts, x_parts)
        b = np.asarray(b_parts[0], dtype=complex)
        for row, lu in zip(x_parts[0], self._lus):
            row[...] = lu_solve(lu, b, check_finite=False)


def factorize(*mats):
    """Factorize a stack of K >= 1 sparse/dense matrices of one order:
    condensed when every matrix has the P2 pattern, dense LU otherwise.
    A sparse matrix without the P2 pattern is refused above
    ``DENSE_ORACLE_MAX_DOF``.  A :class:`SolverError` names the failing
    matrix's position in ``index``.  An empty stack, or one whose matrices
    are not square of one order, raises ValueError before any work."""
    if not mats:
        raise ValueError("factorize needs a stack of K >= 1 matrices, "
                         "got none")
    n = _check_square("factorize", mats,
                      [f"matrix j = {j}" for j in range(len(mats))],
                      "matrix 0")
    p2 = [_is_p2(mat) for mat in mats]
    if all(p2):
        return CondensedFactorization(_HalfDiagonals(mats))
    for j, mat in enumerate(mats):
        if issparse(mat) and not p2[j] and n > DENSE_ORACLE_MAX_DOF:
            raise SolverError(
                f"sparse matrix of order {n} lacks the P2 pattern, "
                f"and dense LU is limited to DENSE_ORACLE_MAX_DOF = "
                f"{DENSE_ORACLE_MAX_DOF}", index=j)
    return DenseFactorization(*mats)


def factorize_shifted(A, B, tau: float, shifts: np.ndarray):
    """Factorize the stack ``tau*A - 1j*shifts[j]*B`` of the sparse or
    dense pencil (A, B), j = 0 .. K-1, as :func:`factorize` would factor
    those matrices.

    When A and B both have the P2 pattern, the stack's half-diagonals are
    computed straight from the pencil's, with the elementwise operations
    of the sparse arithmetic, so the factors are bitwise those of the
    built matrices; no matrix is built.  Any other pencil builds the K
    shifted matrices and calls :func:`factorize`.  A :class:`SolverError`
    names the failing shift's position in ``index``; no shifts (K = 0),
    or A and B not square of one order, raise ValueError before any work.
    """
    i_shifts = 1j * np.asarray(shifts)
    if i_shifts.size == 0:
        raise ValueError("factorize_shifted needs K >= 1 shifts, got none")
    _check_square("factorize_shifted", (A, B), "AB", "A")
    if not (_is_p2(A) and _is_p2(B)):
        return factorize(*(tau * A - i_sigma * B for i_sigma in i_shifts))
    return CondensedFactorization(_HalfDiagonals((A, B), tau, i_shifts))


class _Pencil:
    """What both pencil operators share: ``apply`` in natural order, as
    ``join(apply_parts(split(b)), out)``, and the checks of the core
    application ``apply_parts``, which reads and writes the operator's own
    order of the entries (``split``'s)."""

    _n: int

    def apply(self, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``B^-1 A b`` into a new complex array, or into ``out``, a complex
        array of shape (n,).  ``b`` is read only into the copy ``split``
        makes first, so ``out`` may be ``b``."""
        if out is not None:
            _check_out(out, (self._n,))
        return self.join(self.apply_parts(self.split(b)), out)

    def _parts_out(self, src: np.ndarray, out) -> np.ndarray:
        """The array ``apply_parts`` writes: ``out``, refused unless it is
        a C-contiguous complex (n,) array that shares no memory with
        ``src``, or a new one when None; ``src`` is refused unless of
        shape (n,)."""
        _check_rhs(src, self._n, pencil=True)
        if out is None:
            return np.empty(self._n, dtype=complex)
        _check_out(out, (self._n,), contiguous=True)
        if np.may_share_memory(src, out):
            raise ValueError("out must not share memory with src")
        return out


class CondensedPencil(_Pencil):
    """``B^-1 A`` of a P2 pencil (A, B): B's condensed factorization plus
    A's coefficients, condensed against it by the same step.

    Both matrices have the P2 pattern, and both midpoint blocks are
    diagonal, so ``B y = A b`` condenses as one solve with B does: with
    the midpoints eliminated,

        S_B y_v = (A_vv - B_vm B_mm^-1 A_mv) b_v
                  + (A_vm - B_vm B_mm^-1 A_mm) b_m,
        y_m = B_mm^-1 A_mm b_m + B_mm^-1 A_mv b_v - B_mm^-1 B_mv y_v,

    where S_B = B_vv - B_vm B_mm^-1 B_mv is B's vertex Schur complement.
    B's :class:`CondensedFactorization` (a stack of one) factors S_B, and
    its condensation step, which gave it S_B from B's half-diagonals, turns
    A's into the coefficients above.  For a real symmetric positive
    definite B, S_B is too, and its kernel is LDL^T (``zpttrs``); any
    other nonsingular B takes LU.  The operator's order of the entries is
    condensed: :meth:`split` gives one contiguous vector of the m + 1
    midpoints, then the m vertices, which :meth:`apply_parts` maps to the
    same order and :meth:`join` interleaves.  B is refused as
    ``factorize(B)`` refuses it.
    """

    kind = "condensed"

    def __init__(self, A, B):
        self._B = CondensedFactorization(_HalfDiagonals((B,)))
        self._n = self._B._n
        self._mids = self._n // 2 + 1
        # A's half-diagonals as rows of one, each condensed in place into a
        # coefficient array (each offset read at p = 0 before p = 1): mids
        # holds B_mm^-1 A_mm and A_vm - B_vm B_mm^-1 A_mm (vertex k's
        # couplings to midpoints k and k + 1), froms B_mm^-1 A_mv (the
        # couplings of midpoints k and k + 1 to vertex k), and vertex the
        # lower, main and upper diagonals of A_vv - B_vm B_mm^-1 A_mv.
        read = _HalfDiagonals((A,)).read
        mid, to_mid, from_left = read(0, 0), read(-1, 0), read(1, 0)
        mids, froms = (mid, to_mid, read(1, 1)), (from_left, read(-1, 1))
        vertex = self._B._condense(read, *froms, mids)
        # Kept as vectors, row 0 of each: numpy sets up products of
        # vectors faster than of blocks of one row.
        self._mid, self._from, self._vertex = (
            [x[0] for x in xs] for xs in (mids, froms, vertex))

    def split(self, v: np.ndarray) -> np.ndarray:
        """The midpoints, then the vertices, of the vector ``v`` of shape
        (n,), as one new contiguous complex vector."""
        _check_rhs(v, self._n, pencil=True)
        p = np.empty(self._n, dtype=complex)
        p[:self._mids] = v[0::2]
        p[self._mids:] = v[1::2]
        return p

    def join(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The vector ``p`` of :meth:`split`'s order in natural order, in
        ``out`` (a new complex array when None): the inverse of
        :meth:`split`."""
        return self._B.join((p[:self._mids], p[self._mids:]), out)

    def apply_parts(self, src: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """``B^-1 A`` of the vector ``src``, both in :meth:`split`'s order,
        into ``out`` (a C-contiguous complex (n,) array that shares no
        memory with ``src``; a new one when None), which is returned.  The
        vertex right-hand side is built in ``out``'s vertex part and solved
        there in place by B's kernel.  The scratch is allocated per call,
        so threads may share one operator; B's LDL^T solve (``zpttrs``)
        holds the GIL, and its LU solve (``zgttrs``) runs without it."""
        out = self._parts_out(src, out)
        a_mid, to_mid, to_next = self._mid
        from_left, from_right = self._from
        lower, diag, upper = self._vertex
        mids = self._mids
        b_mid, b_vert = src[:mids], src[mids:]
        y_mid, rhs = out[:mids], out[mids:]
        np.multiply(diag, b_vert, out=rhs)
        tmp = np.empty_like(rhs)
        rhs[:-1] += np.multiply(upper[:-1], b_vert[1:], out=tmp[:-1])
        rhs[1:] += np.multiply(lower[:-1], b_vert[:-1], out=tmp[1:])
        rhs += np.multiply(to_mid, b_mid[:-1], out=tmp)
        rhs += np.multiply(to_next, b_mid[1:], out=tmp)
        np.multiply(b_mid, a_mid, out=y_mid)
        y_mid[:-1] += np.multiply(from_left, b_vert, out=tmp)
        y_mid[1:] += np.multiply(from_right, b_vert, out=tmp)
        self._B._solve_vertices(rhs)
        # B's stack is of one: the vectors as its blocks of one row.
        self._B._recover_midpoints(y_mid[None], rhs[None], tmp[None])
        return out


class DensePencil(_Pencil):
    """``B^-1 A`` of any other pencil (scalar and hand-built systems): a
    product with A in complex storage, then a solve with ``factorize(B)``.
    Its order of the entries is the natural one."""

    kind = "dense"

    def __init__(self, A, B):
        self._n = A.shape[0]
        self._B = factorize(B)
        self._A = A.astype(complex)

    def split(self, v: np.ndarray) -> np.ndarray:
        """A complex copy of the vector ``v`` of shape (n,)."""
        _check_rhs(v, self._n, pencil=True)
        return np.array(v, dtype=complex)

    def join(self, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``p`` itself, or ``p`` copied into ``out`` when given."""
        if out is None:
            return p
        out[...] = p
        return out

    def apply_parts(self, src: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """``B^-1 A src`` into ``out`` (a C-contiguous complex (n,) array
        that shares no memory with ``src``; a new one when None), which is
        returned."""
        out = self._parts_out(src, out)
        self._B.solve(self._A @ src, out=out[None])
        return out


def factorize_pencil(A, B):
    """An operator whose ``apply(b, out=None)`` computes ``B^-1 A b``, and
    whose ``split``, ``apply_parts`` and ``join`` do so in its own order:
    :class:`CondensedPencil` when A and B are sparse with the P2 pattern,
    :class:`DensePencil` otherwise.  Both expose ``kind``, and both
    refuse B as ``factorize(B)`` does; A and B not square of one order
    raise ValueError before any work."""
    _check_square("factorize_pencil", (A, B), "AB", "A")
    if _is_p2(A) and _is_p2(B):
        return CondensedPencil(A, B)
    return DensePencil(A, B)
