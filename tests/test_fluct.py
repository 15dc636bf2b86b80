"""Medium-dressed commutator weights and their index scalings."""

import math

import numpy as np
import pytest

from oracles import bisected_omega_q, exact_branches, ulps_from
from polariton_mbc import (
    BranchError,
    MediumParams,
    forward_commutator_decay,
    group_velocity,
    mode_commutators,
    refractive_index,
    solve_omega_q,
)


def lossless(beta4pi):
    return MediumParams(omega_t=1.0, beta4pi=beta4pi, gamma=0.0)


def test_self_consistent_frequency_solves_the_branch_condition():
    rng = np.random.default_rng(71)
    for _ in range(200):
        med = lossless(rng.uniform(0.05, 20.0))
        q = rng.uniform(0.01, 5.0)
        for branch in ("lower", "upper"):
            w = solve_omega_q(q, med, branch)
            n = refractive_index(w, med).real
            # the solve converges to 1e-12 relative in frequency; mapped
            # through the dispersion that is 1e-12 / (n vg) in q
            vg = group_velocity(w, med)
            tol = max(1e-12, 5e-12 / (n * vg)) * q
            assert abs(n * w - q) < tol, f"residual at q={q}, branch={branch}"
            if branch == "lower":
                assert w < med.omega_t
            else:
                assert w > med.omega_longitudinal


def test_branch_auto_selection_switches_at_omega_t():
    med = lossless(4.0)
    assert solve_omega_q(0.6, med) == solve_omega_q(0.6, med, "lower")
    assert solve_omega_q(1.7, med) == solve_omega_q(1.7, med, "upper")


def test_vacuum_reduces_to_light_line():
    vac = lossless(0.0)
    for q in (0.3, 1.0, 2.5):
        assert solve_omega_q(q, vac) == pytest.approx(q, rel=1e-12)
    # there is no second branch without a resonance to hybridize with
    with pytest.raises(BranchError):
        solve_omega_q(0.5, vac, "upper")


def test_branch_and_input_validation():
    med = lossless(1.0)
    with pytest.raises(ValueError):
        solve_omega_q(0.0, med)
    with pytest.raises(ValueError):
        solve_omega_q(1.0, med, "middle")


def test_commutators_at_a_hand_checked_point():
    # q = 0.5 in a medium with 4 pi beta = 4: the lower branch frequency
    # solves w^2 (1 + 4/(1-w^2)) = 0.25
    med = lossless(4.0)
    w = solve_omega_q(0.5, med, "lower")
    assert w == pytest.approx(0.219220, abs=1e-5)
    n = 0.5 / w
    c = mode_commutators(0.5, med, "lower")
    assert c.a_comm == pytest.approx(1.0 / (2 * 0.5 * n), rel=1e-9)
    assert c.e_comm == pytest.approx(0.25 / n**3, rel=1e-9)
    assert c.b_comm == pytest.approx(0.25 / n, rel=1e-9)
    assert c.d_comm == pytest.approx(0.25 * n, rel=1e-9)


def test_commutator_index_powers():
    # the four weights carry n^-1, n^-3, n^-1, n^+1 exactly
    rng = np.random.default_rng(73)
    for _ in range(100):
        med = lossless(rng.uniform(0.1, 10.0))
        q = rng.uniform(0.05, 4.0)
        branch = "lower" if rng.random() < 0.5 else "upper"
        w = solve_omega_q(q, med, branch)
        n = refractive_index(w, med).real
        c = mode_commutators(q, med, branch)
        assert c.a_comm * 2.0 * q == pytest.approx(1.0 / n, rel=1e-10)
        assert c.e_comm * 2.0 / q == pytest.approx(n**-3, rel=1e-10)
        assert c.b_comm * 2.0 / q == pytest.approx(1.0 / n, rel=1e-10)
        assert c.d_comm * 2.0 / q == pytest.approx(n, rel=1e-10)
        assert c.d_comm / c.e_comm == pytest.approx(n**4, rel=1e-9)


def test_vacuum_commutators():
    vac = lossless(0.0)
    c = mode_commutators(2.0, vac)
    assert c.a_comm == pytest.approx(0.25, rel=1e-12)
    assert c.e_comm == pytest.approx(1.0, rel=1e-12)
    assert c.b_comm == pytest.approx(1.0, rel=1e-12)
    assert c.d_comm == pytest.approx(1.0, rel=1e-12)


def test_static_limit_suppresses_the_transverse_field():
    # as q -> 0 the lower-branch index saturates at sqrt(1 + 4 pi beta),
    # so the E commutator is suppressed by that factor cubed
    med = lossless(4.0)
    q = 1e-5
    c = mode_commutators(q, med, "lower")
    n_static = math.sqrt(5.0)
    assert c.e_comm == pytest.approx(0.5 * q / n_static**3, rel=1e-3)
    assert c.a_comm == pytest.approx(1.0 / (2 * q * n_static), rel=1e-3)


def test_commutator_scaling_exponents_across_media():
    # sweep beta at fixed q on the lower branch and read off the
    # log-log slopes of the four weights against the index
    qs = 0.8
    betas = np.geomspace(0.5, 50.0, 25)
    ns, a, e, b, d = [], [], [], [], []
    for b4 in betas:
        med = lossless(float(b4))
        w = solve_omega_q(qs, med, "lower")
        ns.append(refractive_index(w, med).real)
        c = mode_commutators(qs, med, "lower")
        a.append(c.a_comm)
        e.append(c.e_comm)
        b.append(c.b_comm)
        d.append(c.d_comm)
    logn = np.log(ns)
    for vals, target in ((a, -1.0), (e, -3.0), (b, -1.0), (d, 1.0)):
        slope = np.polyfit(logn, np.log(vals), 1)[0]
        assert abs(slope - target) < 0.02, f"slope {slope} vs {target}"


def test_closed_form_matches_bracket_walking_bisection():
    # the bisection stops at 1e-12 relative; the closed form is a few ulp
    rng = np.random.default_rng(79)
    for _ in range(300):
        med = lossless(rng.uniform(0.05, 20.0))
        q = rng.uniform(0.01, 5.0)
        for branch in ("lower", "upper"):
            w = solve_omega_q(q, med, branch)
            ref = bisected_omega_q(q, med, branch)
            assert abs(w - ref) < 1e-11 * ref, f"q={q}, {branch}, 4 pi beta={med.beta4pi}"


@pytest.mark.parametrize("b4", [0.0, 0.36, 2.0, 16.0])
@pytest.mark.parametrize("branch", ["auto", "lower", "upper"])
def test_array_solve_and_commutators_equal_scalar_calls_to_the_bit(b4, branch):
    rng = np.random.default_rng(83)
    med = MediumParams(omega_t=1.0, beta4pi=b4, gamma=1e-9)
    lo = 1.0 if branch == "upper" and b4 == 0.0 else 0.01
    qs = rng.uniform(lo, 5.0, 500)  # auto: a mix of lower and upper roots
    w = solve_omega_q(qs, med, branch)
    scalar = np.array([solve_omega_q(float(q), med, branch) for q in qs])
    assert w.tobytes() == scalar.tobytes()
    grid = solve_omega_q(qs.reshape(20, 25), med, branch)
    assert grid.shape == (20, 25) and grid.tobytes() == w.tobytes()
    fc = mode_commutators(qs, med, branch)
    single = [mode_commutators(float(q), med, branch) for q in qs]
    for name in ("a_comm", "e_comm", "b_comm", "d_comm"):
        one_by_one = np.array([getattr(c, name) for c in single])
        assert getattr(fc, name).tobytes() == one_by_one.tobytes(), name
    assert type(single[0].e_comm) is float


def _exact_mode(q, b4, branch):
    """W and the four weights at the exact index q/W of `exact_branches`
    (omega_t = 1), in 50-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    w, _, n, _ = exact_branches(q, 1.0, b4)[branch == "upper"]
    with mpmath.workdps(50):
        weights = (1 / (2 * q * n), q / (2 * n**3), q / (2 * n), q * n / 2)
    return w, weights


def _assert_matches_mpmath(q, med, branch):
    # the root within one double of the correctly rounded one, and the
    # weights, through n = q/W, within 4 ulps (3.42 measured at worst)
    w_exact, weights = _exact_mode(q, med.beta4pi, branch)
    assert abs(solve_omega_q(q, med, branch) - float(w_exact)) <= math.ulp(float(w_exact))
    c = mode_commutators(q, med, branch)
    for got, want in zip((c.a_comm, c.e_comm, c.b_comm, c.d_comm), weights):
        assert ulps_from(got, want) <= 4.0, (q, branch)


@pytest.mark.parametrize("q, branch", [(1e6, "lower"), (1e-6, "upper")])
def test_band_edge_roots_against_mpmath(q, branch):
    # 1 - W = 1.8e-13 on the lower branch and W - omega_L = 1.1e-13 on the
    # upper one, where the index diverges or vanishes: n = q/W keeps every
    # weight to a few ulps (a bisection stopped at 1e-12 relative puts
    # e_comm 5.6x too high at q = 1e6 and 12x too low at q = 1e-6)
    _assert_matches_mpmath(q, lossless(0.36), branch)


def test_roots_that_round_onto_the_band_edge_match_mpmath():
    # the lower root at q = 1e8 rounds onto omega_t and the upper one at
    # q = 1e-8 onto omega_L; the index q/W is still right
    med = lossless(0.36)
    assert solve_omega_q(1e8, med, "lower") == 1.0
    assert solve_omega_q(1e-8, med, "upper") == med.omega_longitudinal
    _assert_matches_mpmath(1e8, med, "lower")
    _assert_matches_mpmath(1e-8, med, "upper")
    for q in (1e77, 1e150):  # past the old overflow of the quartic's q^4
        _assert_matches_mpmath(q, med, "lower")
        _assert_matches_mpmath(q, med, "upper")
    # (q/omega_t)**2 overflows: refused as bulk_dispersion refuses it, the
    # root not returned as 0 or inf
    for q in (1e155, 1e200):
        for branch in ("lower", "upper"):
            with pytest.raises(ValueError, match="too large"):
                solve_omega_q(q, med, branch)
    # one such element fails the whole array
    with pytest.raises(ValueError, match="k = 1e\\+155 is too large"):
        solve_omega_q(np.array([0.5, 1e155, 0.7]), med, "lower")
    fc = mode_commutators(np.array([0.5, 1e8]), med, "lower")
    assert fc.e_comm[1] == mode_commutators(1e8, med, "lower").e_comm


def test_vector_potential_weight_is_subnormal_not_zero():
    # n = q/W is about q on the lower branch at q = 1.2e154, where 2 q n
    # overflows: a_comm was written 0.0, and 0.5/(q n) keeps the weight
    mpmath = pytest.importorskip("mpmath")
    q = 1.2e154
    _, _, n, _ = exact_branches(q, 1.0, 0.36)[0]
    with mpmath.workdps(50):
        exact = float(1 / (2 * q * n))
    a_comm = mode_commutators(q, lossless(0.36), "lower").a_comm
    assert 0.0 < exact < 2.0**-1022
    assert abs(a_comm - exact) <= math.ulp(exact)


def test_forward_kernel_decay_and_symmetry():
    med = MediumParams(omega_t=1.0, beta4pi=2.0, gamma=1e-3)
    w = 0.9
    k = refractive_index(w, med) * w
    zp = 0.3
    local = forward_commutator_decay(zp, zp, w, med)
    assert local.imag == 0.0 and local.real > 0.0
    # two decay lengths out the modulus drops by e^-2
    dz = 2.0 / k.imag
    far = forward_commutator_decay(zp + dz, zp, w, med)
    assert abs(far) == pytest.approx(abs(local) * math.exp(-2.0), rel=1e-10)
    # swapping the points conjugates the kernel: the backward kernel
    assert forward_commutator_decay(zp, zp + dz, w, med) == pytest.approx(
        far.conjugate(), rel=1e-12
    )


def test_decay_length_scales_inversely_with_damping():
    # away from the resonance Im k is linear in gamma, so the decay
    # length 1/Im k runs like gamma^-1
    med0 = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=0.0)
    w = 0.7
    gammas = np.array([1e-5, 1e-4, 1e-3])
    lengths = []
    for g in gammas:
        med = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=float(g))
        lengths.append(1.0 / (refractive_index(w, med) * w).imag)
    slope = np.polyfit(np.log(gammas), np.log(lengths), 1)[0]
    assert abs(slope + 1.0) < 0.05
    del med0


def test_kernel_validation():
    med = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        forward_commutator_decay(0.1, 0.0, 1.0, med)
    damped = MediumParams(omega_t=1.0, beta4pi=1.0, gamma=1e-3)
    with pytest.raises(ValueError):
        forward_commutator_decay(0.1, 0.0, 0.0, damped)
