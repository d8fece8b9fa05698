"""The tests' mpmath oracle: ``bench/reference.py`` at 40 digits, loaded as
``bench/test_checks.py`` loads it, and closed forms written from it.

Nothing here imports plurikernel.  A test states a bound on the program's
float result and checks it against the value computed here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import reference as R  # noqa: E402

mp = R.mp
EPS = float(np.finfo(float).eps)

ball_kernel = R.ball_kernel          # (center, radius, p, z): the kernel of B(c, r)
disc_poisson = R.disc_poisson        # (p, zeta): the disc's negative Poisson kernel
dilation_blaschke = R.dilation_blaschke      # (a): (1 - a)/(1 + a), the Blaschke factor's at 1
dilation_ball_auto = R.dilation_ball_auto    # (a, p): (1 - |a|^2)/|1 - <p, a>|^2, phi_a's at p


def ball_conditions(center, radius, Z) -> np.ndarray:
    """1 / (1 - ||w||^2) at each row of Z, w = (z - c)/r: the kernel's relative
    condition on B(c, r), the unit of the stated kernel bounds."""
    W = (np.asarray(Z) - center) / radius
    return 1.0 / (1.0 - np.sum(np.abs(W) ** 2, axis=-1))


def kernel_errors(center, radius, p, Z, values) -> np.ndarray:
    """|value - Omega(z)| / |Omega(z)| at each row, in units of eps / (1 - ||w||^2),
    Omega the kernel of B(c, r) with pole p."""
    errors = [rel_error(v, ball_kernel(center, radius, p, z)) for z, v in zip(Z, values)]
    return np.array(errors) / (EPS * ball_conditions(center, radius, Z))


def kernel_row_errors(dom, p, Z, rows, points, tangent_balls, every=3) -> tuple:
    """How far kernel rows lie from point calls and from the mpmath kernel.

    ``rows`` and ``points`` are the (lo, hi) ends of an array call and of the
    point calls at the rows Z.  Each end is the kernel of a ball: the domain's
    own, or on an ellipsoid the circumscribed tangent ball for lo and, at the
    rows inside it, the inscribed one for hi (``tangent_balls(dom, p)``).
    Returns the largest relative difference between the two calls' ends, and
    that of every ``every``-th row's end from the mpmath kernel, each in units
    of eps / (1 - ||w||^2), w the row on the unit ball of that end's ball.
    """
    everywhere = np.ones(len(Z), dtype=bool)
    if dom.is_ball_like:
        balls = [(dom.center, dom.radius, everywhere)] * 2
    else:
        (c_in, r_in), (c_out, r_out) = tangent_balls(dom, p)
        balls = [(c_out, r_out, everywhere), (c_in, r_in, np.linalg.norm(Z - c_in, axis=1) < r_in)]
    between = truth = 0.0
    for row, point, (c, r, at) in zip(rows, points, balls):
        row, point, W = np.asarray(row)[at], np.asarray(point)[at], Z[at]
        units = EPS * ball_conditions(c, r, W)
        between = max(between, np.max(np.abs(row - point) / np.abs(point) / units, initial=0.0))
        truth = max(truth, np.max(kernel_errors(c, r, p, W[::every], row[::every]), initial=0.0))
    return between, truth


def rel_error(value, ref) -> float:
    """|value - ref| / |ref|, as a float."""
    return float(abs((mp.mpc(complex(value)) - ref) / ref))


def restriction_sides(g, zetas) -> list:
    """(Omega(phi(zeta)), Re[1/theta] P(zeta)) for each zeta, as the benchmark's geodesic
    check writes them: the ball kernel at the float rows g.phi(zetas), and
    theta = <phi'(1), nu> from the float phi'(1) and nu."""
    theta = R.herm(R.vec(g.phi1_prime), R.vec(g.nu))
    factor = mp.re(1 / theta)
    return [(ball_kernel(g.center, g.radius, g.boundary_point, row), factor * disc_poisson(1.0, zeta))
            for zeta, row in zip(zetas, g.phi(np.asarray(zetas)))]


def ball_mobius(a, w) -> list:
    """phi_a(w) = (a - P w - s (w - P w)) / (1 - <w, a>) of the unit ball's involution,
    P w = <w, a> a / |a|^2 (0 at a = 0), s = sqrt(1 - |a|^2)."""
    a, w = R.vec(a), R.vec(w)
    a2, ip = R.norm2(a), R.herm(w, a)
    proj = [ip / a2 * x for x in a] if a2 else [mp.mpc(0)] * len(a)
    s = mp.sqrt(1 - a2)
    return [(x - q - s * (y - q)) / (1 - ip) for x, y, q in zip(a, w, proj)]


def disc_mobius_derivative(a, w):
    """phi_a'(w) = -(1 - |a|^2) / (1 - w conj(a))^2 of the disc's involution phi_a."""
    a, w = mp.mpc(complex(a)), mp.mpc(complex(w))
    return -(1 - abs(a) ** 2) / (1 - w * mp.conj(a)) ** 2
