"""Single-mode Bogoliubov diagonalization against a dense eigensolver."""

import math

import numpy as np
import pytest

from oracles import bogoliubov_matrix, bosonic_norm, dense_modes, exact_modes, mode_vector
from polariton_mbc import BogoliubovProblem, hopfield_modes, weight


def random_problem(rng):
    return BogoliubovProblem(
        photon_freq=rng.uniform(0.1, 3.0),
        omega_t=rng.uniform(0.5, 2.0),
        rabi=rng.uniform(0.01, 1.5),
    )


def modes_of(prob):
    """Both modes of one problem, index [branch, 0] with the lower branch first."""
    return hopfield_modes(prob.photon_freq, prob.omega_t, prob.rabi)


def random_arrays(rng, size=300):
    """photon_freq, omega_t, rabi with off-resonant, decoupled and degenerate draws."""
    wc = rng.uniform(0.1, 3.0, size)
    wt = rng.uniform(0.5, 2.0, size)
    rabi = rng.uniform(0.01, 1.5, size)
    kind = rng.integers(0, 4, size)
    wc[kind == 1] = wt[kind == 1]  # degenerate
    rabi[kind == 2] = 0.0  # decoupled
    wc[kind == 3], rabi[kind == 3] = wt[kind == 3], 0.0  # both
    return wc, wt, rabi


def test_one_coupling_calls_match_the_whole_array_bit_for_bit():
    rng = np.random.default_rng(37)
    wc, wt, rabi = random_arrays(rng)
    sweep = hopfield_modes(wc, wt, rabi)
    assert sweep.omega.shape == (2, wc.size)
    single = []
    for i in range(wc.size):
        m = modes_of(BogoliubovProblem(float(wc[i]), float(wt[i]), float(rabi[i])))
        assert m.omega.shape == (2, 1)
        single.append(np.array(m))  # (part, branch, 1)
    kernel = np.array(sweep)  # (part, branch, problem)
    assert np.concatenate(single, axis=2).tobytes() == kernel.tobytes()


def test_kernel_and_scalar_match_dense_eigensolver():
    rng = np.random.default_rng(39)
    wc, wt, rabi = random_arrays(rng, 200)
    coupled = rabi > 0.0  # the dense phase fix needs w != 0 on both modes
    sweep = hopfield_modes(wc, wt, rabi)
    for i in np.flatnonzero(coupled):
        prob = BogoliubovProblem(wc[i], wt[i], rabi[i])
        freqs, vecs = dense_modes(prob)
        single = modes_of(prob)
        for j in range(2):
            column = np.array([sweep.w[j, i], sweep.x[j, i], sweep.y[j, i], sweep.z[j, i]])
            for omega, vector in (
                (single.omega[j, 0], mode_vector(single, j)),
                (sweep.omega[j, i], column),
            ):
                assert abs(omega - freqs[j]) < 1e-10 * freqs[j]
                assert np.max(np.abs(vector - vecs[j])) < 1e-9


def test_matrix_is_pseudo_hermitian():
    # eta M^dag eta = M with eta = diag(1,1,-1,-1); this is what makes
    # the spectrum real and the +/- pairing exact
    rng = np.random.default_rng(21)
    eta = np.diag([1.0, 1.0, -1.0, -1.0])
    for _ in range(100):
        mat = bogoliubov_matrix(random_problem(rng))
        assert np.max(np.abs(eta @ mat.conj().T @ eta - mat)) < 1e-15


def test_spectrum_comes_in_opposite_pairs():
    rng = np.random.default_rng(23)
    for _ in range(100):
        mat = bogoliubov_matrix(random_problem(rng))
        vals = np.sort_complex(np.linalg.eigvals(mat))
        assert np.max(np.abs(vals.imag)) < 1e-10
        assert np.max(np.abs(vals.real + vals.real[::-1])) < 1e-10


def test_eigenfrequencies_satisfy_characteristic_polynomial():
    rng = np.random.default_rng(25)
    for _ in range(300):
        prob = random_problem(rng)
        g = prob.coupling4pi * prob.omega_t**2
        for w in modes_of(prob).omega[:, 0]:
            resid = w**4 - w**2 * (prob.photon_freq**2 + prob.omega_t**2 + g) + (
                prob.photon_freq * prob.omega_t
            ) ** 2
            assert abs(resid) < 1e-10 * max(1.0, w**4), f"char poly residual {resid}"


def test_eigenvectors_satisfy_matrix_equation():
    rng = np.random.default_rng(27)
    for _ in range(200):
        prob = random_problem(rng)
        mat = bogoliubov_matrix(prob)
        m = modes_of(prob)
        for j in range(2):
            v = mode_vector(m, j)
            assert np.max(np.abs(mat @ v - m.omega[j, 0] * v)) < 1e-10


def test_closed_forms_match_dense_eigensolver():
    rng = np.random.default_rng(29)
    for _ in range(400):
        prob = random_problem(rng)
        freqs, vecs = dense_modes(prob)
        m = modes_of(prob)
        assert abs(m.omega[0, 0] - freqs[0]) < 1e-10 * freqs[0]
        assert abs(m.omega[1, 0] - freqs[1]) < 1e-10 * freqs[1]
        assert np.max(np.abs(mode_vector(m, 0) - vecs[0])) < 1e-9
        assert np.max(np.abs(mode_vector(m, 1) - vecs[1])) < 1e-9


def test_bosonic_norm_and_sum_rules():
    rng = np.random.default_rng(31)
    for _ in range(300):
        m = modes_of(random_problem(rng))
        assert bosonic_norm(m, 0) == pytest.approx(1.0, abs=1e-12)
        assert bosonic_norm(m, 1) == pytest.approx(1.0, abs=1e-12)
        # completeness across the two branches, photon and matter sectors
        (w_lo, w_up), (x_lo, x_up) = m.w[:, 0], m.x[:, 0]
        (y_lo, y_up), (z_lo, z_up) = m.y[:, 0], m.z[:, 0]
        w_sum = abs(w_lo) ** 2 - abs(y_lo) ** 2 + abs(w_up) ** 2 - abs(y_up) ** 2
        x_sum = abs(x_lo) ** 2 - abs(z_lo) ** 2 + abs(x_up) ** 2 - abs(z_up) ** 2
        assert w_sum == pytest.approx(1.0, abs=1e-12)
        assert x_sum == pytest.approx(1.0, abs=1e-12)


def test_phase_convention_w_real_positive():
    rng = np.random.default_rng(33)
    for _ in range(200):
        m = modes_of(random_problem(rng))
        for w, x in zip(m.w[:, 0], m.x[:, 0]):
            assert w.imag == 0.0
            assert w.real > 0.0
            # matter amplitude sits on the imaginary axis in this gauge
            assert abs(x.real) < 1e-12 * abs(x)


def test_branch_ordering_and_labels():
    rng = np.random.default_rng(35)
    for _ in range(200):
        prob = random_problem(rng)
        # index 0 is the lower branch, index 1 the upper one
        lo, up = modes_of(prob).omega[:, 0]
        assert lo < up
        # the polariton gap brackets both bare frequencies
        assert lo < min(prob.photon_freq, prob.omega_t)
        assert up > max(prob.photon_freq, prob.omega_t)


def test_decoupled_limit():
    m = modes_of(BogoliubovProblem(photon_freq=0.7, omega_t=1.0, rabi=0.0))
    assert (m.omega[0, 0], m.omega[1, 0]) == (0.7, 1.0)
    assert (m.w[0, 0], m.x[0, 0]) == (1.0 + 0j, 0j)
    assert (m.w[1, 0], m.x[1, 0]) == (0j, 1j)
    # above the crossing the excitation-like mode is the lower branch
    m = modes_of(BogoliubovProblem(photon_freq=1.4, omega_t=1.0, rabi=0.0))
    assert (m.omega[0, 0], m.omega[1, 0]) == (1.0, 1.4)
    assert m.x[0, 0] == -1j
    assert m.w[1, 0] == 1.0 + 0j
    # exact degeneracy: photon-like mode takes the lower slot
    m = modes_of(BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=0.0))
    assert m.w[0, 0] == 1.0 + 0j
    assert m.x[1, 0] == 1j


def test_decoupled_limit_is_continuous():
    # the rabi -> 0 closed forms should approach the hard-coded
    # decoupled modes on both sides of the crossing
    for wc in (0.7, 1.4):
        m0 = modes_of(BogoliubovProblem(photon_freq=wc, omega_t=1.0, rabi=0.0))
        ms = modes_of(BogoliubovProblem(photon_freq=wc, omega_t=1.0, rabi=1e-6))
        for j in range(2):
            assert abs(m0.omega[j, 0] - ms.omega[j, 0]) < 1e-6
            assert np.max(np.abs(mode_vector(m0, j) - mode_vector(ms, j))) < 1e-4


def test_weak_coupling_splitting_is_twice_rabi():
    # on resonance the gap between the branches is 2*rabi to first order
    prob = BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=1e-3)
    lo, up = modes_of(prob).omega[:, 0]
    assert up - lo == pytest.approx(2e-3, rel=1e-5)


def test_photon_weight_and_rabi_zero_weights():
    prob = BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=0.3)
    m = modes_of(prob)
    (w_lo, w_up), (y_lo, y_up) = m.w[:, 0], m.y[:, 0]
    assert weight(w_lo) == pytest.approx(abs(w_lo) ** 2, rel=1e-15)
    # on resonance the photon splits evenly up to the A^2 reshuffling,
    # and the total photon weight obeys the completeness sum rule
    total = weight(w_lo) - abs(y_lo) ** 2 + weight(w_up) - abs(y_up) ** 2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ultrastrong_weights_grow():
    # anomalous amplitudes are negligible at weak coupling and order one
    # deep in the ultrastrong regime
    weak = modes_of(BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=0.01))
    strong = modes_of(BogoliubovProblem(photon_freq=1.0, omega_t=1.0, rabi=1.5))
    weak_anom = max(abs(y) ** 2 + abs(z) ** 2 for y, z in zip(weak.y[:, 0], weak.z[:, 0]))
    strong_anom = max(abs(y) ** 2 + abs(z) ** 2 for y, z in zip(strong.y[:, 0], strong.z[:, 0]))
    assert weak_anom < 1e-3
    assert strong_anom > 0.1


def test_coupling_constant_forms():
    prob = BogoliubovProblem(photon_freq=1.3, omega_t=1.0, rabi=0.5)
    assert prob.diamagnetic == pytest.approx(0.25, rel=1e-15)
    assert prob.coupling4pi == pytest.approx(4 * 0.25 * 1.3, rel=1e-15)
    # on resonance coupling4pi reduces to the bulk medium form
    on_res = BogoliubovProblem(photon_freq=2.0, omega_t=2.0, rabi=0.5)
    assert on_res.coupling4pi == pytest.approx(4 * 0.25 / 4.0, rel=1e-15)


def test_problem_validation():
    with pytest.raises(ValueError):
        BogoliubovProblem(photon_freq=0.0)
    with pytest.raises(ValueError):
        BogoliubovProblem(photon_freq=1.0, omega_t=-1.0)
    with pytest.raises(ValueError):
        BogoliubovProblem(photon_freq=1.0, rabi=-0.1)
    with pytest.raises(ValueError):
        BogoliubovProblem(photon_freq=1.0, rabi=float("nan"))
    # 4 rabi^2 underflows to 0 at the degeneracy: no finite closed form
    with pytest.raises(ValueError, match="float range"):
        modes_of(BogoliubovProblem(photon_freq=1.0, rabi=1e-163)).require_finite(1e-163)
    with pytest.raises(ValueError):
        hopfield_modes(1.0, 1.0, [0.5, -0.1])


def test_small_photon_freq_has_no_cancellation():
    # with a soft photon the small root of the frequency-squared
    # quadratic is prone to subtractive cancellation; the product and
    # sum of roots are exact identities that expose lost digits
    for wc in (1e-4, 1e-6, 1e-8):
        prob = BogoliubovProblem(photon_freq=wc, omega_t=1.0, rabi=0.5)
        lo, up = modes_of(prob).omega[:, 0]
        g = prob.coupling4pi * prob.omega_t**2
        assert lo * up == pytest.approx(wc * 1.0, rel=1e-12)
        assert lo**2 + up**2 == pytest.approx(wc**2 + 1.0 + g, rel=1e-12)
        # the soft mode tracks the photon, not the matter resonance
        assert lo == pytest.approx(wc, rel=1e-3)


def test_modes_match_mpmath_from_weak_to_ultrastrong_coupling():
    # log-uniform rabi in [1e-12, 1e3] on resonance against the eigenvector
    # template at 50 digits: each frequency one double from the correctly
    # rounded root, each weight within 2e-15 relative (measured at worst:
    # 1.11 ulps from the exact lower root, 1.14e-15 in a weight)
    mpmath = pytest.importorskip("mpmath")
    rabi = 10.0 ** np.random.default_rng(41).uniform(-12.0, 3.0, 600)
    modes = hopfield_modes(1.0, 1.0, rabi)
    for i, r in enumerate(rabi.tolist()):
        for j, (omega, *coefficients) in enumerate(exact_modes(BogoliubovProblem(1.0, 1.0, r))):
            assert abs(modes.omega[j, i] - float(omega)) <= math.ulp(float(omega)), (r, j)
            got = [weight(c[j, i]) for c in (modes.w, modes.x, modes.y, modes.z)]
            with mpmath.workdps(50):
                want = [abs(c) ** 2 for c in coefficients]
                assert all(abs(g - w) <= 2e-15 * w for g, w in zip(got, want)), (r, j)
