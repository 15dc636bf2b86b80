"""Independent reference computations the tests compare against.

Everything here recomputes results along a different route than the
package: dense eigendecomposition instead of closed forms, a direct
two-unknown boundary-value solve instead of the assembled Green
function, and windowed resonance scans instead of the analytic m = 1
brackets of figure2_sweep. Agreement between the two routes is the
point of the tests, so nothing in this module may import the formulas
it is checking.
"""

import math

import numpy as np

from polariton_mbc import (
    BogoliubovProblem,
    CavityConfig,
    MediumParams,
    bogoliubov_matrix,
    find_resonances,
    refractive_index,
    tuned_length,
)


def dense_modes(prob: BogoliubovProblem):
    """Positive-frequency eigenpairs of the 4x4 matrix via numpy.linalg.eig.

    Returns (freqs, vectors) with freqs ascending, each vector
    symplectically normalized (|w|^2 + |x|^2 - |y|^2 - |z|^2 = 1) and
    rotated so the photon amplitude w is real positive. That pins the
    same gauge the closed forms use, so components are comparable
    one to one.
    """
    mat = bogoliubov_matrix(prob)
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(vals.real)
    keep = [i for i in order if vals[i].real > 0.0]
    assert len(keep) == 2, f"expected 2 positive eigenvalues, got {len(keep)}"
    freqs = []
    vectors = []
    eta = np.array([1.0, 1.0, -1.0, -1.0])
    for i in keep:
        v = vecs[:, i]
        norm = float(np.sum(eta * np.abs(v) ** 2))
        assert norm > 0.0, "positive-frequency mode must have positive symplectic norm"
        v = v / np.sqrt(norm)
        # rotate the arbitrary eig phase away: w real positive
        w = v[0]
        assert abs(w) > 0.0, "phase fixing needs a nonzero photon amplitude"
        v = v * (abs(w) / w)
        freqs.append(float(vals[i].real))
        vectors.append(v)
    return freqs, vectors


def matched_green(zprime: float, omega: float, cfg: CavityConfig):
    """Green function from a direct 2-unknown matching solve.

    Builds the response to a point source by stitching elementary
    solutions: an outgoing wave on the open side, a mirror-adapted
    standing wave inside, continuity at the membrane, and the membrane
    jump G'(0+) - G'(0-) = -Lambda*q*G(0). The 2x2 linear system is
    solved numerically, so no scattering coefficient from the package
    enters. Returns a callable G(z) accepting scalars or arrays.
    """
    q = complex(omega)
    n = refractive_index(omega, cfg.medium)
    k = n * omega
    lam = cfg.lambda_mirror
    big_l = cfg.length

    if zprime > 0.0:
        # source between membrane and mirror; mirror-adapted particular
        # part and its z-derivative at the membrane
        gm0 = (np.exp(1j * k * zprime) - np.exp(1j * k * (2 * big_l - zprime))) / (-2j * k)
        gm0p = (np.exp(1j * k * zprime) - np.exp(1j * k * (2 * big_l - zprime))) / 2.0
        mat = np.array(
            [
                [1.0, -np.sin(k * big_l)],
                [1j * q + lam * q, -k * np.cos(k * big_l)],
            ],
            dtype=complex,
        )
        rhs = np.array([gm0, -gm0p], dtype=complex)
        a_out, b_in = np.linalg.solve(mat, rhs)

        def green(z):
            z = np.asarray(z, dtype=float)
            left = a_out * np.exp(-1j * q * z)
            gm = (
                np.exp(1j * k * np.abs(z - zprime))
                - np.exp(1j * k * ((big_l - z) + (big_l - zprime)))
            ) / (-2j * k)
            inside = b_in * np.sin(k * (big_l - z)) + gm
            return np.where(z <= 0.0, left, inside)

        return green

    # source on the open side; free particular part plus a reflected
    # left-goer outside and a standing wave inside
    gf0 = np.exp(-1j * q * zprime) / (-2j * q)
    gf0p = -np.exp(-1j * q * zprime) / 2.0
    mat = np.array(
        [
            [1.0, -np.sin(k * big_l)],
            [1j * q, -k * np.cos(k * big_l) + lam * q * np.sin(k * big_l)],
        ],
        dtype=complex,
    )
    rhs = np.array([-gf0, gf0p], dtype=complex)
    c_refl, b_in = np.linalg.solve(mat, rhs)

    def green(z):
        z = np.asarray(z, dtype=float)
        gf = np.exp(1j * q * np.abs(z - zprime)) / (-2j * q)
        left = gf + c_refl * np.exp(-1j * q * z)
        inside = b_in * np.sin(k * (big_l - z))
        return np.where(z <= 0.0, left, inside)

    return green


def scanned_fundamentals(rabi: float, lambda_mirror: float):
    """The two m = 1 resonances of the figure2_sweep cavity, one coupling at a time.

    Scans a window on each side of the stop band with find_resonances
    (2000 cells, per-cell polish) and keeps the root with mode_index 1.
    The windows surround the tuned-root estimates from n(W) W = omega_t,
    x^2 - (2 + 4 pi beta) x + 1 = 0 with x = W^2, wide enough for the
    good-cavity pull. Returns (lower, upper) Resonance objects.
    """
    b4 = 4.0 * rabi * rabi
    med = MediumParams(omega_t=1.0, beta4pi=b4, gamma=0.0)
    cfg = CavityConfig(tuned_length(lambda_mirror, med), lambda_mirror, med)
    est_u = math.sqrt(0.5 * ((2.0 + b4) + math.sqrt((2.0 + b4) ** 2 - 4.0)))
    est_l = 1.0 / est_u
    top = med.omega_longitudinal
    windows = (
        (0.5 * est_l, 1.0 - 0.25 * (1.0 - est_l)),
        (top + min(1e-3, 0.5 * (est_u - top)), max(4.0, 1.3 * est_u)),
    )
    out = []
    for window in windows:
        fundamentals = [r for r in find_resonances(cfg, window) if r.mode_index == 1]
        assert len(fundamentals) == 1, f"rabi {rabi}, window {window}: {fundamentals}"
        out.append(fundamentals[0])
    return tuple(out)
