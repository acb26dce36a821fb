"""Workload definitions of the rexiprop benchmark.

All workloads run the README tunneling system: a step barrier of height
15 and width 0.005 at the origin, and a Gaussian packet of width
parameter 4 stepped at dt = 2e-4.  The seed moves the packet centre and
momentum within a small window around r_bar = -3, p_bar = 5; the window
keeps the packet supported on both domains and leaves the spectral
radius, and so admissibility, unchanged.

Each repetition steps one whole trajectory of ``n_steps`` from u0, never
a window of it: at full scale the step cost changes several-fold during
a run as subnormal Gaussian tails spread and decay.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DT = 2e-4
BARRIER_V_MAX = 15.0
BARRIER_WIDTH = 0.005
PACKET_SIGMA = 4.0
PACKET_R_BAR = -3.0
PACKET_P_BAR = 5.0
# Half-width of the seed window on r_bar and p_bar.
SEED_WINDOW = 0.25

# Flagship approximant and Chebyshev comparison settings.
FLAGSHIP_R1 = 10.0
FLAGSHIP_K = 16
CHEB_DEGREE = 26
CHEB_RADIUS = 10.0

# Correctness gates: criterion 07's B-norm drift bound.
BNORM_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    x0: float
    x1: float
    n_elems: int
    method: str          # "rexi" or "chebyshev"
    workers: int         # REXI solve threads; 1 runs the solves inline
    n_steps: int         # steps of the whole trajectory
    oracle: bool         # check the final state against the dense oracle


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-flagship", -30.0, 30.0, 500, "rexi", 1, 100, True),
        Workload("full-flagship", -120.0, 120.0, 4000, "rexi", 2, 300, False),
        Workload("full-chebyshev", -120.0, 120.0, 4000, "chebyshev", 1, 300,
                 False),
    )
}


def packet_params(seed: int) -> tuple[float, float]:
    """(r_bar, p_bar) of the packet for ``seed``: same seed, same packet."""
    rng = np.random.default_rng(seed)
    dr, dp = rng.uniform(-SEED_WINDOW, SEED_WINDOW, size=2)
    return PACKET_R_BAR + float(dr), PACKET_P_BAR + float(dp)


def import_rexiprop():
    """Import rexiprop from this checkout's ``src``, never an installed copy.

    Exits with status 2 when the checkout holds no sources, so the
    benchmark never measures some other build of the package.
    """
    if not (SRC / "rexiprop" / "__init__.py").is_file():
        print(f"perfbench: no rexiprop sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rexiprop

    if Path(rexiprop.__file__).resolve().parent != SRC / "rexiprop":
        print(f"perfbench: imported rexiprop from {rexiprop.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return rexiprop


def tunnel_system(rx, wl: Workload):
    """(mesh, consts, system) of the workload's tunneling pencil."""
    consts = rx.PhysicalConstants()
    mesh = rx.build_mesh(wl.x0, wl.x1, wl.n_elems)
    barrier = rx.PotentialSpec.step_barrier(BARRIER_V_MAX, BARRIER_WIDTH)
    return mesh, consts, rx.assemble_system(mesh, barrier, consts)


def initial_state(rx, mesh, consts, system, seed: int) -> np.ndarray:
    """u0: the seed's packet projected onto the mesh, B-normalized."""
    r_bar, p_bar = packet_params(seed)
    packet = rx.WavePacketParams(r_bar=r_bar, p_bar=p_bar, sigma=PACKET_SIGMA)
    return rx.project_initial(mesh, packet, consts, system.B)
