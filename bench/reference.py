"""Reference values computed apart from the program, in mpmath at 40 digits.

Nothing here imports plurikernel.  Every formula is written out from its
closed form, with the Hermitian product <v, w> = sum v_j conj(w_j) and the
canonical couple theta_p(v) = <v, nu_p>.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40


def vec(z):
    """Exact mpmath copy of a complex float vector (or scalar)."""
    try:
        return [mp.mpc(complex(x)) for x in z]
    except TypeError:
        return [mp.mpc(complex(z))]


def herm(v, w):
    return mp.fsum(a * mp.conj(b) for a, b in zip(v, w))


def norm2(v):
    return mp.re(herm(v, v))


def ball_kernel(center, radius, p, z):
    """-(1 - |w|^2) / |1 - <w, q>|^2 / r with w = (z - c)/r, q = (p - c)/r."""
    c, p, z = vec(center), vec(p), vec(z)
    r = mp.mpf(radius)
    w = [(a - b) / r for a, b in zip(z, c)]
    q = [(a - b) / r for a, b in zip(p, c)]
    return -(1 - norm2(w)) / abs(1 - herm(w, q)) ** 2 / r


def disc_poisson(p, zeta):
    p, zeta = mp.mpc(complex(p)), mp.mpc(complex(zeta))
    return -(1 - abs(zeta) ** 2) / abs(p - zeta) ** 2


def ellipsoid_normal(coeffs, p):
    """Outward unit normal of sum a_j |z_j|^2 = 1 at p: a * p / |a * p|."""
    g = [mp.mpf(a) * x for a, x in zip(coeffs, vec(p))]
    s = mp.sqrt(norm2(g))
    return [x / s for x in g]


def peak_value(nu, p, z):
    """Peak candidate P(exp(<z - p, nu>)) with the disc kernel at pole 1; 0 off the disc."""
    h = mp.exp(herm([a - b for a, b in zip(vec(z), vec(p))], nu))
    if abs(h) >= 1:
        return mp.mpf(0)
    return -(1 - abs(h) ** 2) / abs(1 - h) ** 2


def dilation_blaschke(a):
    a = mp.mpf(a)
    return (1 - a) / (1 + a)


def dilation_ball_auto(anchor, p):
    a, p = vec(anchor), vec(p)
    return (1 - norm2(a)) / abs(1 - herm(p, a)) ** 2


def transversal_limit(direction, nu):
    """-2 Re [<gamma'(1), nu>]^{-1}: the kernel's limit of Omega(gamma(t)) (1 - t)."""
    return -2 * mp.re(1 / herm(vec(direction), vec(nu)))


def quadratic_jet(H, L, z):
    """Value, Wirtinger gradient and complex Hessian of psi(z) = <H z, z> + Re(z^T L z) - 1.

    ``H`` is Hermitian (the Levi part), ``L`` complex symmetric (a pluriharmonic
    perturbation Re of a holomorphic quadratic).
    """
    z = vec(z)
    n = len(z)
    H = [[mp.mpc(complex(H[i][j])) for j in range(n)] for i in range(n)]
    L = [[mp.mpc(complex(L[i][j])) for j in range(n)] for i in range(n)]
    Hz = [mp.fsum(H[i][j] * z[j] for j in range(n)) for i in range(n)]
    Lz = [mp.fsum(L[i][j] * z[j] for j in range(n)) for i in range(n)]
    value = mp.re(herm(Hz, z)) + mp.re(mp.fsum(a * b for a, b in zip(z, Lz))) - 1
    # d/dz_k of z^* H z is (H^T conj z)_k; of Re(z^T L z) it is (L z)_k
    grad = [mp.fsum(H[j][k] * mp.conj(z[j]) for j in range(n)) + Lz[k] for k in range(n)]
    return value, grad, H


def quadratic_real_hessian(H, L):
    """Real Hessian of psi in (Re z, Im z) coordinates, for the psi of quadratic_jet."""
    n = len(H)
    M = mp.matrix(2 * n, 2 * n)
    for a in range(2 * n):
        for b in range(2 * n):
            ua = [mp.mpc(0)] * n
            ub = [mp.mpc(0)] * n
            ua[a % n] = mp.mpc(1) if a < n else mp.mpc(0, 1)
            ub[b % n] = mp.mpc(1) if b < n else mp.mpc(0, 1)
            # psi(z + s u + t v) is quadratic; its mixed second derivative is
            # 2 Re <H u, v> + 2 Re(u^T L v)
            Hu = [mp.fsum(mp.mpc(complex(H[i][j])) * ua[j] for j in range(n)) for i in range(n)]
            Lv = [mp.fsum(mp.mpc(complex(L[i][j])) * ub[j] for j in range(n)) for i in range(n)]
            M[a, b] = 2 * mp.re(herm(Hu, ub)) + 2 * mp.re(mp.fsum(x * y for x, y in zip(ua, Lv)))
    return M


def osculating_radii(H, L, p):
    """(r_in, r_out) from the principal curvatures of {psi = 0} at p, psi as in quadratic_jet."""
    _, grad, _ = quadratic_jet(H, L, p)
    n = len(grad)
    g = [2 * mp.re(x) for x in grad] + [2 * mp.im(x) for x in grad]   # real gradient of psi
    gn = mp.sqrt(mp.fsum(x * x for x in g))
    u = [x / gn for x in g]
    Hr = quadratic_real_hessian(H, L)
    P = mp.matrix(2 * n, 2 * n)
    for a in range(2 * n):
        for b in range(2 * n):
            P[a, b] = (1 if a == b else 0) - u[a] * u[b]
    S = P * Hr * P / gn
    eig = sorted(mp.eigsy(S, eigvals_only=True), key=lambda x: abs(x))
    curv = eig[1:]   # drop the normal direction's zero eigenvalue
    return 1 / max(curv), 1 / min(curv)
