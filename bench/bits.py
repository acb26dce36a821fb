"""Print one ``<name> <sha256>`` line per artifact of the pipeline.

    PYTHONPATH=TREE/src python3 bench/bits.py > TREE.bits

Run it on two trees (for instance a ``git archive`` of the parent commit
and the working tree) and ``diff`` the two outputs: a change that is meant
to move no bit prints the same lines.  The script compares nothing and
stores no hashes, because the bits depend on the host's CPU and BLAS.

The artifacts are the approximants ``faber_cf`` builds (their JSON and the
bytes of their shifts and weights), the messages of the two constructions
it refuses, a damped approximant, the disc-side error profile of the
Hankel construction, the Chebyshev coefficients at radius 10 (the
steppers') and at radius 20000 (whose Bessel recurrence rescales 43
times, where the full-scale reference's rescales 4 times), the assembled
matrices A and B (their CSR ``data``, ``indices`` and ``indptr``, one
line per matrix, so a change to the assembly alone moves lines of its
own) on a 3-element zero-potential mesh and on the acceptance suite's
tunneling system at desk and full scale, and, on that system, the
solutions of the flagship's shifted stack for ``iB u0``, one solve with
the mass matrix B for ``u0`` (so a change to the mass solve alone moves a
line of its own), one application of ``B^-1 A`` to ``u0``, the final states of
REXI and Chebyshev runs, and a reference (its coefficients and its one
step; the degrees are 83 and 1881).  Each Chebyshev certificate
``sup_error`` has a line of its own, so a change to the certificate alone
moves those lines only.  It takes about 7 s on a 2-CPU machine.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from rexiprop import (
    ChebyshevStepper,
    JoukowskiMap,
    PhysicalConstants,
    PotentialSpec,
    RexiStepper,
    WavePacketParams,
    approx_to_json,
    assemble_system,
    build_mesh,
    cf_circle_error,
    chebyshev_coeffs,
    chebyshev_reference,
    faber_cf,
    project_initial,
    spectral_radius_estimate,
    stabilize,
)
from rexiprop.errors import ApproximationError
from rexiprop.solvers import factorize, factorize_pencil, factorize_shifted

# The acceptance suite's tunneling system, packet and step.
BARRIER = PotentialSpec.step_barrier(15.0, 0.005)
PACKET = WavePacketParams(r_bar=-3.0, p_bar=5.0, sigma=4.0)
DT = 2e-4
# (name, domain, elements, steps, REXI workers, reference time)
SCALES = (("desk", (-30.0, 30.0), 500, 100, 1, 0.02),
          ("full", (-120.0, 120.0), 4000, 300, 2, 0.2))
BUILT = ((10, 16), (2, 16), (5, 10), (2, 7), (20, 28), (1, 8), (40, 48),
         (3, 12))
REFUSED = ((20, 24), (30, 40))


def emit(name: str, *parts) -> None:
    """Print ``name`` and the SHA-256 of ``parts``: strings as UTF-8,
    everything else as the bytes of a contiguous float/complex array."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str)
                 else np.ascontiguousarray(part).tobytes())
    print(name, h.hexdigest(), flush=True)


def emit_system(name: str, system) -> None:
    """One line per matrix of ``system``: its CSR arrays."""
    for label, mat in (("A", system.A), ("B", system.B)):
        emit(f"assemble_system[{name}].{label}", mat.data, mat.indices,
             mat.indptr)


def approx_parts(ap):
    return approx_to_json(ap), ap.shifts, ap.weights


def main() -> None:
    for r1, degree in BUILT:
        ap = faber_cf(JoukowskiMap(float(r1)), degree)
        emit(f"faber_cf[{r1},{degree}]", *approx_parts(ap))
        if (r1, degree) == (10, 16):
            emit("stabilize[flagship,1e-3]",
                 *approx_parts(stabilize(ap, 1e-3)))
            flagship = ap
    for r1, degree in REFUSED:
        try:
            faber_cf(JoukowskiMap(float(r1)), degree)
            message = "built"
        except ApproximationError as exc:
            message = str(exc)
        emit(f"faber_cf_refusal[{r1},{degree}]", message)

    a = np.array([1.0 / math.factorial(j) for j in range(41)])
    sigma, profile = cf_circle_error(a, 16)
    emit("cf_circle_error[criterion02]", np.float64(sigma), profile)
    for r, degree in ((10, 26), (20000, 20032)):
        cc = chebyshev_coeffs(float(r), degree)
        emit(f"chebyshev_coeffs[{r},{degree}]", cc.coeffs)
        emit(f"chebyshev_coeffs[{r},{degree}].sup_error",
             np.float64(cc.sup_error))

    consts = PhysicalConstants()
    emit_system("3 elements, zero potential",
                assemble_system(build_mesh(0.0, 1.5, 3), PotentialSpec.zero(),
                                consts))
    for name, (x0, x1), n_elems, steps, workers, t in SCALES:
        mesh = build_mesh(x0, x1, n_elems)
        system = assemble_system(mesh, BARRIER, consts)
        emit_system(name, system)
        u0 = project_initial(mesh, PACKET, consts, system.B)
        emit(f"factorize_shifted[{name}].solve",
             factorize_shifted(system.A, system.B, DT, flagship.shifts)
             .solve((1j * system.B).tocsr() @ u0))
        emit(f"factorize[{name}](B).solve(u0)",
             factorize(system.B).solve(u0))
        emit(f"factorize_pencil[{name}].apply",
             factorize_pencil(system.A, system.B).apply(u0))
        sr = spectral_radius_estimate(system)
        with RexiStepper(system, flagship, DT, workers=workers,
                         sr_value=sr) as rexi:
            emit(f"rexi_state[{name},{steps}]", rexi.run(u0, steps))
        cheb = ChebyshevStepper(system, DT, sr_value=sr)
        emit(f"chebyshev_state[{name},{steps}]", cheb.run(u0, steps))
        emit(f"chebyshev_state[{name},{steps}].sup_error",
             np.float64(cheb.sup_error))
        ref = chebyshev_reference(system, t, sr_value=sr)
        emit(f"chebyshev_reference[{name},{t:g}]", ref.coeffs,
             ref.run(u0, 1))
        emit(f"chebyshev_reference[{name},{t:g}].sup_error",
             np.float64(ref.sup_error))


if __name__ == "__main__":
    main()
