import math

import numpy as np
import pytest

from oracles import (direct_autocorrelation, direct_random_odd_lift,
                     full_grid_fourier_mode)
from scherk import oddmap
from scherk.oddmap import (OddLift, _c_at_shifts, _check_monotone,
                           _mirror, _theta_half, autocorrelation,
                           extremal_sequence, fourier_S1, fourier_spectrum,
                           hall_inequality_check, identity_lift,
                           random_odd_lift, random_odd_S1, snap_shift)

SHARP = 8.0 / math.pi ** 2


def small_lifts(n=1024):
    return (identity_lift(n), random_odd_lift(4, modes=5, amplitude=0.3, n=n),
            extremal_sequence(0.01, n=n))


def test_lift_validation():
    with pytest.raises(ValueError):
        OddLift(np.zeros(7))          # not a power of two
    with pytest.raises(ValueError):
        OddLift(np.linspace(0, 1, 16))   # violates odd periodicity
    dec = identity_lift(64).samples.copy()
    dec[3] = dec[5]  # break monotonicity
    with pytest.raises(ValueError):
        OddLift(dec)


def test_identity_lift_basics():
    lift = identity_lift()
    assert fourier_S1(lift) == pytest.approx(1.0, abs=1e-13)
    assert 1.0 >= SHARP
    c1, cm1 = full_grid_fourier_mode(lift.samples, 1)
    assert abs(c1 - 1.0) < 1e-13 and abs(cm1) < 1e-13


def test_identity_autocorrelation_closed_form():
    lift = identity_lift()
    for t in (0.0, 0.3, 0.7, 1.2):
        m = snap_shift(lift, t)
        t_eff = m * lift.step
        c, j = autocorrelation(lift, t)
        assert c == pytest.approx(math.cos(2 * t_eff), abs=1e-12)
        assert j == pytest.approx(math.sin(t_eff) ** 2, abs=1e-12)


def test_autocorrelation_at_zero():
    for lift in (identity_lift(), random_odd_lift(3, 4, 0.3)):
        c, j = autocorrelation(lift, 0.0)
        assert c == 1.0 and j == 0.0


def test_random_lift_invariants_and_bound(rng):
    for seed in range(100):
        lift = random_odd_lift(seed, modes=1 + seed % 8, amplitude=0.3)
        s = lift.samples
        assert np.diff(s).min() >= 0.0
        half = lift.n // 2
        assert np.abs(s[half:] - s[:half] - math.pi).max() < 1e-12
        assert fourier_S1(lift) >= SHARP - 1e-9


def test_even_modes_vanish():
    lift = random_odd_lift(11, modes=5, amplitude=0.3)
    spec = fourier_spectrum(lift)
    assert float(spec[1::2].max()) < 1e-10   # S_2, S_4, ...


def test_autocorrelation_series_identity():
    # C(t) computed by quadrature must match the odd-mode cosine series
    # built from the FFT spectrum.
    lift = random_odd_lift(5, modes=4, amplitude=0.25)
    spec = fourier_spectrum(lift)
    n_modes = 64   # spectrum of a smooth lift is gone long before Nyquist
    worst = 0.0
    for m in range(0, lift.n // 4 + 1, 37):
        t = m * lift.step
        c, _ = autocorrelation(lift, t)
        series = sum(spec[k - 1] * math.cos(2 * k * t)
                     for k in range(1, n_modes, 2))
        worst = max(worst, abs(c - series))
    assert worst < 1e-8


def test_autocorrelation_antisymmetry_and_c_eq_1_minus_2j():
    lift = random_odd_lift(9, modes=3, amplitude=0.3)
    for t in (0.3, 0.5, 1.1):
        m = snap_shift(lift, t)
        c1, j1 = autocorrelation(lift, m * lift.step)
        c2, _ = autocorrelation(lift, math.pi / 2 - m * lift.step)
        assert abs(c1 + c2) < 1e-9
        assert c1 == pytest.approx(1.0 - 2.0 * j1, abs=1e-15)


def test_hall_identity_lift_closed_forms():
    rep = hall_inequality_check(identity_lift())
    # For theta(t) = t: J = sin^2, so lhs = 1/4 - pi/16 and
    # rhs = (2/pi)(pi/8 - 1/4) = 1/4 - 1/(2 pi).
    assert rep.lhs == pytest.approx(0.25 - math.pi / 16, abs=1e-6)
    assert rep.rhs == pytest.approx(0.25 - 1 / (2 * math.pi), abs=1e-6)
    assert rep.holds
    assert rep.max_j_minus_tau <= 1e-10


def test_hall_random_lifts(rng):
    for seed in (2, 7, 23):
        lift = random_odd_lift(seed, modes=1 + seed % 6, amplitude=0.3)
        rep = hall_inequality_check(lift)
        assert rep.holds
        assert rep.max_j_minus_tau <= 1e-10


def test_hall_extremal_approaches_equality():
    rep = hall_inequality_check(extremal_sequence(0.01))
    assert rep.holds
    assert rep.rhs - rep.lhs < 2e-3   # averaged bound tightens


def test_c_at_shifts_matches_direct_sum():
    for lift in small_lifts():
        ms = np.arange(lift.n // 4 + 1)
        direct = np.array([direct_autocorrelation(lift.samples, m)
                           for m in ms])
        assert np.abs(_c_at_shifts(lift, ms) - direct).max() < 1e-13


def test_hall_and_folding_match_direct_sums():
    for lift in small_lifts():
        step = lift.step
        n4, n8 = lift.n // 4, lift.n // 8
        js = np.array([0.5 * (1.0 - direct_autocorrelation(lift.samples, m))
                       for m in range(n4 + 1)])
        taus = np.arange(n4 + 1) * step
        g = np.cos(2.0 * taus[:n8 + 1]) * js[:n8 + 1]
        lhs = step * (g.sum() - 0.5 * (g[0] + g[-1]))
        rep = hall_inequality_check(lift)
        assert abs(rep.lhs - lhs) < 1e-13
        assert abs(rep.max_j_minus_tau - (js - taus).max()) < 1e-13


def test_fourier_mode_matches_full_grid_mean():
    # S1 from the half-period sums against the full-grid means of c_1 and
    # c_-1, on smooth lifts and on the steep extremal ones.
    for lift in (random_odd_lift(13, modes=6, amplitude=0.3),
                 random_odd_lift(40, modes=2, amplitude=0.3),
                 extremal_sequence(0.01), extremal_sequence(1e-3)):
        c1, cm1 = full_grid_fourier_mode(lift.samples, 1)
        assert abs(fourier_S1(lift) - (abs(c1) ** 2 + abs(cm1) ** 2)) < 1e-14


def test_random_lift_matches_direct_definition():
    for seed in range(50):
        modes = 1 + seed % 8
        lift = random_odd_lift(seed, modes=modes, amplitude=0.3)
        want = direct_random_odd_lift(seed, modes, 0.3, lift.n)
        assert np.abs(lift.samples - want).max() < 1e-13


def oracle_S1(seed, modes, amplitude, n):
    c1, cm1 = full_grid_fourier_mode(
        direct_random_odd_lift(seed, modes, amplitude, n), 1)
    return abs(c1) ** 2 + abs(cm1) ** 2


def test_random_odd_S1_matches_single_lifts_and_oracle():
    seeds = range(200)
    modes = [1 + seed % 8 for seed in seeds]
    batch = random_odd_S1(seeds, modes, 0.3)
    assert batch.shape == (200,)
    for seed, m, s1 in zip(seeds, modes, batch):
        assert abs(s1 - fourier_S1(random_odd_lift(seed, m, 0.3))) < 1e-14
        assert abs(s1 - oracle_S1(seed, m, 0.3, oddmap.DEFAULT_GRID)) < 1e-14


@pytest.mark.parametrize("trials", [1, 7, 8, 9, 17])
def test_random_odd_S1_block_edges(trials):
    # Lifts go in blocks of four: partial, exact and spill-over last blocks.
    seeds = range(300, 300 + trials)
    modes = [1 + seed % 8 for seed in seeds]
    batch = random_odd_S1(seeds, modes, 0.3)
    assert batch.shape == (trials,)
    for seed, m, s1 in zip(seeds, modes, batch):
        assert abs(s1 - fourier_S1(random_odd_lift(seed, m, 0.3))) < 1e-14
    small = random_odd_S1(seeds, modes, 0.3, n=1024)
    for seed, m, s1 in zip(seeds, modes, small):
        assert abs(s1 - oracle_S1(seed, m, 0.3, 1024)) < 1e-14


def test_random_odd_S1_rejects_decreasing_lift(monkeypatch):
    # theta = t + 2 sin(2t) has theta' = 1 + 4 cos(2t) < 0 near t = pi/2.
    bad = np.array([2.0, 0.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        OddLift(_mirror(_theta_half(bad[None, :], 1024)[0]))
    draw = oddmap._lift_coefficients

    def rigged(seed, modes, amplitude):
        return bad if seed == 12 else draw(seed, modes, amplitude)

    monkeypatch.setattr(oddmap, "_lift_coefficients", rigged)
    random_odd_S1(range(12), [1] * 12, 0.3, n=1024)
    with pytest.raises(ValueError, match="nondecreasing"):
        random_odd_S1(range(20), [1] * 20, 0.3, n=1024)  # a later block


def test_check_monotone_seam():
    # Increasing within the half-period, but theta(pi - step) > theta(0) + pi.
    theta = np.linspace(0.0, 3.5, 8)[None, :]
    with pytest.raises(ValueError, match="nondecreasing"):
        _check_monotone(theta, np.empty_like(theta))
    with pytest.raises(ValueError):
        OddLift(_mirror(theta[0]))
    ok = np.linspace(0.0, 3.0, 8)[None, :]
    _check_monotone(ok, np.empty_like(ok))


def test_random_odd_S1_input_errors():
    for call in (lambda: random_odd_S1([0, 1], [1, 0], 0.3),
                 lambda: random_odd_S1([0], [2], -0.1),
                 lambda: random_odd_S1([0, 1], [2], 0.3),
                 lambda: random_odd_S1([0], [2], 0.3, n=1000),
                 lambda: random_odd_lift(0, 0, 0.3),
                 lambda: random_odd_lift(0, 2, -0.1)):
        with pytest.raises(ValueError):
            call()
    assert random_odd_S1([], [], 0.3).shape == (0,)


def test_extremal_sequence_invariants_and_convergence():
    lift = extremal_sequence(0.1)
    assert fourier_S1(lift) - SHARP < 0.05
    # Frozen implementation values for the convergence ladder.
    assert fourier_S1(lift) == pytest.approx(0.86038192, abs=1e-6)
    lift = extremal_sequence(1e-3)
    s1 = fourier_S1(lift)
    assert s1 - SHARP < 1e-3
    assert s1 >= SHARP - 1e-9
    c1, cm1 = full_grid_fourier_mode(lift.samples, 1)
    assert abs(c1) ** 2 == pytest.approx(SHARP, abs=1e-3)
    assert abs(cm1) < 1e-12   # collapse concentrates in c_1
    with pytest.raises(ValueError):
        extremal_sequence(0.0)
    with pytest.raises(ValueError):
        extremal_sequence(0.2)


def test_exact_collapse_coefficient():
    # a_1 of the exact four-point collapse is 2(1-i)/pi with |a_1|^2 = 8/pi^2.
    a1 = 2.0 * (1.0 - 1.0j) / math.pi
    assert abs(a1) ** 2 == pytest.approx(SHARP, abs=1e-15)
