"""Independent reference computations the tests compare against.

Everything here recomputes results along a different route than the
package: dense eigendecomposition instead of closed forms, 50-digit
mpmath roots of the bulk quartic in W**2 instead of the band-edge
detunings of dielectric._branches, and the eigenvector template at
those roots, one coupling at a time, instead of the whole-sweep array
kernel of hopfield_modes, a direct two-unknown boundary-value solve
instead of the assembled Green function, sign-change scans of a
frequency window instead of the per-mode analytic brackets of
find_resonances and figure2_sweep, the half-maximum width of a sampled
|T|^2 line instead of the rate formula kappa_mbc, a bracket-walking
bisection of n(W) W = q instead of the closed-form roots of
solve_omega_q, the one-pole input-output model (a Lorentzian line of
width kappa) instead of the exact reflection of the membrane boundary
conditions, and cell-by-cell and point-by-point text rendering
instead of the columnar CSV and SVG writers. Agreement between the two
routes is the point of the tests, so nothing in this module may import
the formulas it is checking. (`masked_ode_residual` takes G from the
package: what it rederives is ode_residual's slabs, exclusions and
reduction.)
"""

import math

import numpy as np

from polariton_mbc import (
    BogoliubovProblem,
    BranchError,
    CavityConfig,
    MediumParams,
    ResonanceScanError,
    Resonances,
    StopBandError,
    SweepTable,
    epsilon,
    green_function,
    group_velocity,
    kappa_mbc,
    refractive_index,
    tuned_length,
)


def bogoliubov_matrix(prob: BogoliubovProblem) -> np.ndarray:
    """The 4x4 non-Hermitian matrix of the eigenproblem M v = omega v.

    Basis order (photon, excitation, anti-photon, anti-excitation);
    the spectrum consists of the two polariton frequencies and their
    negatives.
    """
    wc, wt, g = prob.photon_freq, prob.omega_t, prob.rabi
    a2 = 2.0 * prob.diamagnetic
    return np.array(
        [
            [wc + a2, -1j * g, -a2, -1j * g],
            [1j * g, wt, -1j * g, 0.0],
            [a2, -1j * g, -wc - a2, -1j * g],
            [-1j * g, 0.0, 1j * g, -wt],
        ],
        dtype=complex,
    )


def mode_vector(modes, branch: int) -> np.ndarray:
    """Coefficients (w, x, y, z) at [branch, 0] of a HopfieldModes as one complex vector."""
    return np.array([c[branch, 0] for c in (modes.w, modes.x, modes.y, modes.z)], dtype=complex)


def bosonic_norm(modes, branch: int) -> float:
    """Bosonic normalization |w|^2 + |x|^2 - |y|^2 - |z|^2 at [branch, 0] (should be 1)."""
    w, x, y, z = mode_vector(modes, branch)
    return abs(w) ** 2 + abs(x) ** 2 - abs(y) ** 2 - abs(z) ** 2


def medium_rabi(med: MediumParams) -> float:
    """Vacuum Rabi frequency omega_t*sqrt(4*pi*beta)/2 of a bulk medium."""
    return 0.5 * med.omega_t * math.sqrt(med.beta4pi)


def good_cavity_ratio(cfg: CavityConfig, omega: float) -> float:
    """Lambda / |n(omega)|; >> 1 in the good-cavity regime."""
    return cfg.lambda_mirror / abs(refractive_index(omega, cfg.medium))


def lorentzian_prefactor(omega: float, cfg: CavityConfig) -> float:
    """sqrt(2 v_g / (n L)): mode-normalization prefactor of the near-resonance form.

    Near a good-cavity resonance W the intracavity amplitude is
    T(w) ~ prefactor * i*sqrt(kappa) / (w - W + i*kappa/2), so the peak
    of |T|^2 is 4 prefactor^2 / kappa.
    """
    p = MediumParams(cfg.medium.omega_t, cfg.medium.beta4pi, 0.0)
    n = refractive_index(omega, p).real
    vg = group_velocity(omega, p)
    return math.sqrt(2.0 * vg / (n * cfg.length))


def polariton_response(omega, center: float, kappa: float):
    """One-pole intracavity amplitude per unit input, i*sqrt(k)/(w - W + ik/2),
    of the resonance at W = center with rate k = kappa.

    |response|^2 is a Lorentzian of FWHM kappa and peak 4/kappa; its
    integral over omega is 2*pi. Accepts a scalar or array omega.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    w = np.asarray(omega, dtype=float)
    return 1j * math.sqrt(kappa) / (w - center + 0.5j * kappa)


def output_amplitude(omega, centers, kappas):
    """One-pole outgoing field per unit input: sum_j sqrt(k_j) p_j - a_in,
    over the resonances at W_j = centers[j] with rates k_j = kappas[j].

    For a single resonance this is -(w - W - ik/2)/(w - W + ik/2), a pure
    phase: +1 on resonance, -1 far away, winding by 2*pi across the line
    (polaritons inside plus photons outside are conserved). Unit modulus
    needs well-separated resonances. Near a good-cavity root W the exact
    reflection r of `amplitudes` is this times a constant phase, to
    O(1/Lambda), when kappa is the boundary-condition rate.
    """
    w = np.asarray(omega, dtype=float)
    out = np.full(w.shape, -1.0 + 0.0j)
    for center, kappa in zip(np.asarray(centers).tolist(), np.asarray(kappas).tolist()):
        out = out + math.sqrt(kappa) * polariton_response(w, center, kappa)
    return out


def lorentzian_extract(spectrum: SweepTable) -> tuple[float, float]:
    """Peak center and FWHM of a sampled line |T|^2 -> (omega_c, kappa).

    Expects a table whose first column is the frequency axis and whose
    second column is the intensity, covering one isolated peak with
    enough points (>= 50 across >= 6 half-widths) for interpolation.
    The center comes from a parabola through the three samples around
    the maximum; the width from linear interpolation of the half-maximum
    crossings. Raises ValueError if the peak touches the grid boundary
    or a half-maximum crossing is not bracketed.
    """
    names = spectrum.names
    w = spectrum.array(names[0])
    y = spectrum.array(names[1])
    i = int(np.argmax(y))
    if i == 0 or i == len(y) - 1:
        raise ValueError("peak touches the grid boundary")
    # parabolic refinement of the vertex
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        raise ValueError("flat-top peak, cannot interpolate the center")
    shift = 0.5 * (y0 - y2) / denom
    center = w[i] + shift * (w[i + 1] - w[i])
    peak = y1 - 0.25 * (y0 - y2) * shift
    half = 0.5 * peak

    def crossing(direction: int) -> float:
        j = i
        while 0 <= j + direction < len(y):
            j += direction
            if y[j] < half:
                # linear interpolation between j and j-direction
                a, b = j - direction, j
                frac = (y[a] - half) / (y[a] - y[b])
                return float(w[a] + frac * (w[b] - w[a]))
        raise ValueError("half-maximum crossing not bracketed by the grid")

    left = crossing(-1)
    right = crossing(+1)
    return float(center), right - left


def exact_branches(k, omega_t, beta4pi):
    """((W, d, n, v_g) lower, (W, d, n, v_g) upper) at wavenumber k, in
    50-digit mpmath, with d = (W/omega_t)**2 - 1.

    x = W**2 solves x**2 - x (k**2 + omega_t**2 (1 + b)) + k**2 omega_t**2
    = 0, b = 4 pi beta, with the discriminant written as a sum of
    positive terms; the upper root's d has its one cancellation
    rationalized away, the lower one is -b / d_upper (the product of the
    d roots is -b), n = k/W and v_g = n d**2/(d**2 + b). In vacuum the
    branches are min(k, omega_t) and max(k, omega_t), with n = v_g = 1.
    Arguments are taken exactly as given (doubles or mpf).
    """
    import mpmath

    with mpmath.workdps(50):
        k, wt, b = (mpmath.mpf(v) for v in (k, omega_t, beta4pi))
        kk, tt = k * k, wt * wt
        disc = mpmath.sqrt((kk - tt) ** 2 + 2 * b * tt * (kk + tt) + (b * tt) ** 2)
        x_up = (kk + tt * (1 + b) + disc) / 2
        ws = (k * wt / mpmath.sqrt(x_up), mpmath.sqrt(x_up))
        if not b:
            return [(w, w * w / tt - 1, mpmath.mpf(1), mpmath.mpf(1)) for w in ws]
        lift = kk - tt + disc if kk >= tt else 2 * b * tt * (kk + tt) + (b * tt) ** 2
        if kk < tt:
            lift /= disc + tt - kk
        d_up = (lift + b * tt) / (2 * tt)
        out = []
        for w, d in zip(ws, (-b / d_up, d_up)):
            n = k / w
            out.append((w, d, n, n * d * d / (d * d + b)))
        return out


def ulps_from(value, exact) -> float:
    """|value - exact| in units of the spacing of doubles at float(exact),
    formed at 50 digits (exact is an mpf or mpc part from this module)."""
    import mpmath

    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def exact_modes(prob: BogoliubovProblem):
    """((omega, w, x, y, z) lower, (...) upper) of one coupled problem
    (rabi > 0) in 50-digit mpmath, as mpf and mpc.

    The frequencies are `exact_branches` at k = photon_freq and 4 pi beta
    = 4 rabi**2 photon_freq / omega_t**3; each eigenvector is the template
    hopfield_modes documents, written with 1 - (omega/omega_t)**2 and
    omega - photon_freq formed directly, and an overall minus sign on
    the upper branch so that w stays real positive.
    """
    import mpmath

    with mpmath.workdps(50):
        wc, wt, g = (mpmath.mpf(v) for v in (prob.photon_freq, prob.omega_t, prob.rabi))
        g4 = 4 * g * g * wc / wt**3
        sq, scale = mpmath.sqrt(g4) / 2, mpmath.sqrt(wt / wc) / (2 * wt)
        out = []
        for (omega, *_), sign in zip(exact_branches(wc, wt, g4), (1, -1)):
            rw = omega / wt
            d = 1 - rw * rw
            pref = sign / mpmath.sqrt(rw * (d * d + g4))
            out.append((
                omega,
                mpmath.mpc(pref * d * (omega + wc) * scale),
                -1j * pref * sq * (1 + rw),
                mpmath.mpc(pref * d * (omega - wc) * scale),
                -1j * pref * sq * (1 - rw),
            ))
        return out


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


def masked_ode_residual(zprime: float, omega: float, cfg: CavityConfig, h: float) -> float:
    """ode_residual's quotient over the whole grid at once, with its
    exclusions as three full-length masks.

    Every grid point at least 3h from the source, the membrane and the
    mirror is gathered, and the maxima are taken over the gathered
    values; the package instead walks the grid in slabs and zeroes the
    few excluded points, which must give the same bits.
    """
    L = cfg.length
    z = np.arange(-2.0 * L, L - 0.5 * h, h)
    g = green_function(z, zprime, omega, cfg)
    d2 = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / h / h
    zi = z[1:-1]
    eps_z = np.where(zi <= 0.0, 1.0 + 0.0j, epsilon(omega, cfg.medium))
    source = omega * (omega * (eps_z * g[1:-1]))
    keep = (
        (np.abs(zi - zprime) >= 3.0 * h)
        & (np.abs(zi) >= 3.0 * h)
        & (np.abs(zi - L) >= 3.0 * h)
    )
    resid = np.abs(d2 + source)[keep]
    return float(np.max(resid)) / float(np.max(np.abs(source[keep])))


def exact_open_side_green(z, zprime: float, omega: float, cfg: CavityConfig):
    """G(z, z') for source and field on the open side, z, z' <= 0, in
    50-digit mpmath, as a list of mpc.

    The matching solve of `matched_green` for a source in vacuum, by
    Cramer's rule. 1 + r is O(1/Lambda), so the two free-space terms
    cancel to about 1/Lambda of their size; 50 digits leave more than 30
    of them at Lambda = 1e15.
    """
    import mpmath

    with mpmath.workdps(50):
        p = cfg.medium
        q, wt2 = mpmath.mpf(omega), mpmath.mpf(p.omega_t) ** 2
        s = q + 1j * mpmath.mpf(p.gamma)
        n = mpmath.sqrt(1 + mpmath.mpf(p.beta4pi) * wt2 / (wt2 - s * s))
        n = -n if mpmath.im(n) < 0 else n
        k, lam, length = n * q, mpmath.mpf(cfg.lambda_mirror), mpmath.mpf(cfg.length)
        sin, cos = mpmath.sin(k * length), mpmath.cos(k * length)
        gf0 = mpmath.exp(-1j * q * zprime) / (-2j * q)
        gf0p = -mpmath.exp(-1j * q * zprime) / 2
        det = -k * cos + lam * q * sin + 1j * q * sin
        c_refl = (gf0 * (k * cos - lam * q * sin) + sin * gf0p) / det
        return [
            mpmath.exp(1j * q * abs(mpmath.mpf(x) - zprime)) / (-2j * q)
            + c_refl * mpmath.exp(-1j * q * mpmath.mpf(x))
            for x in np.atleast_1d(z).tolist()
        ]


def _bisect_cells(f, a, b):
    """Bisect every cell [a, b] with f(a) f(b) <= 0 down to floating-point resolution."""
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        split = (mid > a) & (mid < b)
        if not split.any():
            break
        fm = f(mid)
        left = fa * fm <= 0.0
        b = np.where(split & left, mid, b)
        a, fa = np.where(split & ~left, mid, a), np.where(split & ~left, fm, fa)
    return np.where(np.abs(fa) <= np.abs(f(b)), a, b)


def scanned_resonances(cfg: CavityConfig, omega_range, subintervals=2000, max_count=None):
    """Roots of tan(n W L) = n/Lambda in omega_range from a sign-change scan.

    Each transparent part of the window (the stop band widened by 1e-9
    omega_t is skipped) gets `subintervals` equal cells; every cell where
    f rises through zero, or that starts on an exact zero, is bisected to
    floating-point resolution. f falls only across a pole of tan, as it
    increases on each tan branch, so a cell where it falls holds no root.
    Mode indices floor(n W L/pi)
    that are not consecutive within a part, or a part's first root more
    than one mode above the index at the part's start, mean crossings
    were missed and raise ResonanceScanError. At most max_count roots are kept,
    and none past them is checked. Returns one Resonances, ascending.
    """
    lo, hi = omega_range
    med = MediumParams(cfg.medium.omega_t, cfg.medium.beta4pi, 0.0)
    legs = [(lo, hi, "bare")]
    if med.beta4pi > 0.0:
        wt, wl = med.stop_band()
        edge = 1e-9 * med.omega_t
        legs = [(lo, min(hi, wt - edge), "lower"), (max(lo, wl + edge), hi, "upper")]
    legs = [leg for leg in legs if leg[1] > leg[0]]
    if not legs:
        raise StopBandError(f"range [{lo:g}, {hi:g}] lies inside the stop band")

    def f(w):
        n = refractive_index(w, med).real
        return np.tan(n * w * cfg.length) - n / cfg.lambda_mirror

    found, kept = [], 0  # found: (omega, kappa, branch, mode_index) per leg
    for leg_lo, leg_hi, branch in legs:
        grid = np.linspace(leg_lo, leg_hi, subintervals + 1)
        sign = np.sign(f(grid))
        hits = sign == 0.0  # the cell it starts claims an exact zero; the last cell its end
        crossing = ((sign[:-1] < 0.0) & (sign[1:] > 0.0)) | hits[:-1]
        crossing[-1] |= hits[-1]
        cells = np.flatnonzero(crossing)
        roots = _bisect_cells(f, grid[cells], grid[cells + 1])
        if max_count is not None:
            roots = roots[: max(max_count - kept, 0)]
        kept += roots.size
        modes = np.floor(refractive_index(roots, med).real * roots * cfg.length / math.pi)
        first = math.floor(refractive_index(leg_lo, med).real * leg_lo * cfg.length / math.pi)
        if modes.size and modes[0] > first + 1:
            raise ResonanceScanError(f"roots skipped between mode {first} and mode {modes[0]:g}")
        gaps = np.flatnonzero(np.diff(modes) != 1)
        if gaps.size:
            raise ResonanceScanError(
                f"roots skipped between mode {modes[gaps[0]]:g} and mode {modes[gaps[0] + 1]:g}"
            )
        found.append((roots, kappa_mbc(roots, cfg), np.repeat(branch, roots.size),
                      modes.astype(np.int64)))
    return Resonances(*map(np.concatenate, zip(*found)))


def scanned_fundamentals(rabi: float, lambda_mirror: float):
    """The two m = 1 resonances of the figure2_sweep cavity, one coupling at a time.

    Scans a window on each side of the stop band with scanned_resonances
    (2000 cells) and keeps the root with mode_index 1.
    The windows surround the tuned-root estimates from n(W) W = omega_t,
    x^2 - (2 + 4 pi beta) x + 1 = 0 with x = W^2, wide enough for the
    good-cavity pull. Returns one Resonances: the lower root, then the
    upper one.
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
    rows = []
    for window in windows:
        scanned = scanned_resonances(cfg, window)
        fundamental = scanned.mode_index == 1
        assert fundamental.sum() == 1, f"rabi {rabi}, window {window}: {scanned}"
        rows.append([column[fundamental] for column in scanned])
    return Resonances(*map(np.concatenate, zip(*rows)))


def exact_mode_root(m: int, cfg: CavityConfig, upper: bool = False):
    """Mode m's root of tan(n W L) = n/Lambda in 50-digit mpmath, as an mpf.

    Solves n W L = m pi + atan(n/Lambda) at gamma = 0 with omega_t, 4 pi
    beta, L and Lambda taken exactly as the doubles of cfg. The bracket
    n W L in [m pi, (m + 1/2) pi] is mapped to W on the lower or the
    upper branch by `exact_branches`, W = q in vacuum, and bisected 200
    times, far below one ulp of a double.
    """
    import mpmath

    with mpmath.workdps(50):
        wt, b = mpmath.mpf(cfg.medium.omega_t), mpmath.mpf(cfg.medium.beta4pi)
        length, lam = mpmath.mpf(cfg.length), mpmath.mpf(cfg.lambda_mirror)

        def phase(w):
            n = mpmath.sqrt(1 + b * wt**2 / (wt**2 - w * w))
            return n * w * length - m * mpmath.pi - mpmath.atan(n / lam)

        def to_omega(q):
            return exact_branches(q, wt, b)[upper][0] if b else q

        lo, hi = (to_omega(k * mpmath.pi / length) for k in (m, m + mpmath.mpf(0.5)))
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if phase(mid) >= 0 else (mid, hi)
        return lo


def bisected_omega_q(q: float, p: MediumParams, branch: str) -> float:
    """Root of n(W) * W = q on one branch by bracket walking and bisection.

    Evaluates the index itself at gamma = 0 and never the quartic. The
    lower bracket walks toward omega_t, the upper one down toward
    omega_longitudinal, halving the distance to the edge until h changes
    sign; bisection then stops at 1e-12 relative, so the result carries
    up to 5e-13 relative error. Raises BranchError where the walk comes
    within 1e-15 of the band edge.
    """
    wt = p.omega_t
    lossless = MediumParams(wt, p.beta4pi, 0.0)
    if p.beta4pi == 0.0:
        return q

    def h(w):
        return refractive_index(w, lossless).real * w - q

    if branch == "lower":
        delta = 0.5 * wt
        hi = wt - delta
        while h(hi) < 0.0:
            delta *= 0.5
            if delta < 1e-15 * wt:
                raise BranchError(f"lower-branch walk for q = {q:g} reached the band edge")
            hi = wt - delta
        lo = min(1e-12 * wt, 0.5 * hi)
    else:
        top = p.omega_longitudinal
        delta = 0.5 * top
        lo = top + delta
        while h(lo) > 0.0:
            delta *= 0.5
            if delta < 1e-15 * top:
                raise BranchError(f"upper-branch walk for q = {q:g} reached the band edge")
            lo = top + delta
        hi = 2.0 * max(q, lo)
        while h(hi) < 0.0:
            hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def reference_csv(names, rows, comments=()) -> str:
    """CSV text with every cell formatted on its own and rows joined one by one.

    Strings pass through, ints and bools are written as integers, and
    everything else as repr(float(v)): the dialect of tables.write_csv.
    """

    def cell(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, bool)):
            return str(int(v))
        return repr(float(v))

    lines = [f"# {c}" for c in comments]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_polylines(series, width=640, height=440):
    """The points attribute of each curve svgplot.write_svg writes, point by point.

    series holds (label, xs, ys, style) as write_svg takes them. Ranges are
    Python min/max over the values in series order, padded as svgplot.layout
    pads them, and each point is mapped to the plot frame by scalar
    arithmetic and formatted with two decimals. Returns the ranges
    (x0, x1, y0, y1) and one points string per curve.
    """
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 <= x0:
        x0, x1 = x0 - 0.5, x0 + 0.5
    if y1 <= y0:
        pad = 0.5 if y0 == 0 else 0.1 * abs(y0)
        y0, y1 = y0 - pad, y1 + pad
    ypad = 0.06 * (y1 - y0)
    y0, y1 = y0 - ypad, y1 + ypad
    ml, mr, mt, mb = 78, 18, 34, 52
    pw, ph = width - ml - mr, height - mt - mb

    def px(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mt + (y1 - y) / (y1 - y0) * ph

    points = [
        " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        for _, xs, ys, _ in series
    ]
    return (x0, x1, y0, y1), points
