import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from oracles import (direct_autocorrelation, direct_extremal_sequence,
                     direct_lift_draw, direct_random_odd_lift,
                     full_grid_c_at_shifts, full_grid_fourier_mode)
from scherk import oddmap
from scherk.oddmap import (OddLift, _c_at_shifts, _certify_monotone,
                           _check_monotone, _draw_coefficients, _mirror,
                           _splitmix64_draws, _theta_half, autocorrelation,
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


def hall_lifts(seed=0):
    """The three lifts `scherk odd` runs the Hall check on."""
    return (identity_lift(), random_odd_lift(seed, modes=4, amplitude=0.3),
            extremal_sequence(0.01))


def test_c_at_shifts_matches_direct_sum():
    # Every shift in -n-3 .. n+4: the fold mod N/4, the sign flip at each
    # multiple of N/4, negative shifts and shifts past a whole period.
    for lift in small_lifts(8) + small_lifts(16) + small_lifts(1024):
        n = lift.n
        ms = np.arange(-n - 3, n + 5)
        direct = np.array([direct_autocorrelation(lift.samples, m)
                           for m in ms])
        assert np.abs(_c_at_shifts(lift, ms) - direct).max() <= 2e-15


@pytest.mark.parametrize("seed", [0, 7])
def test_c_at_shifts_matches_full_grid_formula(seed):
    # The half-period form against one N-point FFT of the whole lift.
    for lift in hall_lifts(seed):
        n = lift.n
        ms = np.concatenate([np.arange(n // 4 + 1), [-1, -n // 4, n + 3]])
        want = full_grid_c_at_shifts(lift.samples, ms)
        assert np.abs(_c_at_shifts(lift, ms) - want).max() <= 2e-15


def test_c_at_shifts_quarter_period_antisymmetry():
    # C(N/4 - m) = -C(m): the shift pi/2 - t against t.
    for lift in hall_lifts():
        ms = np.arange(lift.n // 4 + 1)
        c = _c_at_shifts(lift, ms)
        assert np.abs(c[::-1] + c).max() <= 1e-15


def test_shifted_matches_index_formula():
    # Two slices, bit for bit the unwrapped index form.
    for lift in small_lifts(64):
        n = lift.n
        for m in (-n - 3, -n, -1, 0, 1, n // 2, n, n + 5):
            idx = np.arange(n) + m
            want = lift.samples[idx % n] + 2.0 * math.pi * (idx // n)
            assert np.array_equal(lift.shifted(m), want), m


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
    draw = oddmap._draw_coefficients

    def rigged(seeds, modes, amplitude):
        coefs = draw(seeds, modes, amplitude)
        for row, seed in zip(coefs, seeds):
            if seed == 12:
                row[:] = bad
        return coefs

    monkeypatch.setattr(oddmap, "_draw_coefficients", rigged)
    random_odd_S1(range(12), [1] * 12, 0.3, n=1024)
    with pytest.raises(ValueError, match="nondecreasing"):
        random_odd_S1(range(20), [1] * 20, 0.3, n=1024)  # a later block


def test_random_odd_S1_rejects_a_bad_lift_in_any_group(monkeypatch):
    # Lifts go in blocks per mode count; a decreasing or non-finite row is
    # caught in a later block of a later group too.
    draw = oddmap._draw_coefficients
    seeds = range(40)
    modes = [1 + seed % 3 for seed in seeds]
    random_odd_S1(seeds, modes, 0.3, n=1024)
    for bad in ([2.0, 0.0], [math.nan, 0.0], [0.0, math.inf]):
        def rigged(seeds, modes, amplitude):
            coefs = draw(seeds, modes, amplitude)
            coefs[38, :2] = bad      # seed 38 has 3 modes: last group
            return coefs

        monkeypatch.setattr(oddmap, "_draw_coefficients", rigged)
        with pytest.raises(ValueError, match="nondecreasing"), \
                np.errstate(invalid="ignore"):     # inf - inf in the check
            random_odd_S1(seeds, modes, 0.3, n=1024)


def spy(monkeypatch, name):
    """Widths of the sample rows each call of oddmap.`name` receives."""
    widths = []
    real = getattr(oddmap, name)

    def recording(theta, *args):
        widths.append(theta.shape[1])
        return real(theta, *args)

    monkeypatch.setattr(oddmap, name, recording)
    return widths


@pytest.mark.parametrize("n", [1024, oddmap.DEFAULT_GRID])
def test_random_odd_S1_certifies_every_row(monkeypatch, n):
    # Monotonicity is proved per row from the coefficients, at every t: rows
    # at sum 2k a_k = 0.95 pass, and the step rule sees exactly the samples
    # S1 reads.  A row at 0.95 (1 + 1e-9), the last of 25 rows with 8
    # modes (the last chunk of the last group), is refused although every
    # sample it would be formed on still increases.
    for modes in (1, 8, 16, 32):
        checked = spy(monkeypatch, "_check_monotone")
        read = spy(monkeypatch, "_s1_rows")
        random_odd_S1(range(40), [modes] * 40, 5.0, n=n)
        assert read and checked == read
        monkeypatch.undo()
    seeds = range(200)
    modes = [1 + seed % 8 for seed in seeds]
    random_odd_S1(seeds, modes, 5.0, n=n)
    draw = oddmap._draw_coefficients

    def rigged(seeds, modes, amplitude):
        coefs = draw(seeds, modes, amplitude)
        coefs[-1] *= 1.0 + 1e-9
        return coefs

    monkeypatch.setattr(oddmap, "_draw_coefficients", rigged)
    with pytest.raises(ValueError, match="nondecreasing"):
        random_odd_S1(seeds, modes, 5.0, n=n)


@pytest.mark.parametrize("modes", [1, 8, 16, 32, 40])
def test_certificate_implies_the_full_grid_step_rule(modes):
    # The certificate against the sampled rule it replaced, kept as the
    # oracle: rows at sum 2k a_k = 0.95 pass the step rule on the whole
    # N = 2^14 grid, every step at least 0.05 grid steps (theta' >= 0.05).
    coefs = _draw_coefficients(range(40, 46), [modes] * 6, 5.0)
    _certify_monotone(coefs)
    n = oddmap.DEFAULT_GRID
    theta = _theta_half(coefs, n)
    _check_monotone(theta)
    steps = np.concatenate([np.diff(theta, axis=1),
                            theta[:, :1] + math.pi - theta[:, -1:]], axis=1)
    assert steps.min() >= 0.05 * (2.0 * math.pi / n) * (1.0 - 1e-9)


@pytest.mark.parametrize("n, modes, points", [
    (oddmap.DEFAULT_GRID, 1, 32), (oddmap.DEFAULT_GRID, 3, 64),
    (oddmap.DEFAULT_GRID, 4, 64), (oddmap.DEFAULT_GRID, 5, 128),
    (oddmap.DEFAULT_GRID, 8, 128), (oddmap.DEFAULT_GRID, 20, 256),
    (oddmap.DEFAULT_GRID, 21, 512), (oddmap.DEFAULT_GRID, 32, 512),
    (oddmap.DEFAULT_GRID, 40, 512), (1024, 8, 128), (1024, 16, 256),
    (64, 8, 32), (8, 1, 4)])
def test_random_odd_S1_point_count(monkeypatch, n, modes, points):
    # Each lift's S1 reads the least 2^j >= 12 m + 16 samples per
    # half-period, m its own mode count, or all n/2 of them when there are
    # fewer: the two 1-mode lifts read 32 points, the `modes` lift `points`.
    widths = spy(monkeypatch, "_s1_rows")
    random_odd_S1([3, 4, 5], [1, modes, 1], 0.3, n=n)
    assert widths == ([points] if modes == 1 else [min(32, n // 2), points])


@pytest.mark.parametrize("amplitude", [0.01, 0.3])
def test_draw_coefficients_match_per_seed_draws(rng, amplitude):
    # One batch of draws, scaled per mode count, is bit for bit the per-seed
    # SplitMix64 draw; 0.01 never rescales, 0.3 sometimes does.
    seeds = range(2000)
    modes = rng.integers(1, 9, len(seeds))
    coefs = _draw_coefficients(seeds, modes, amplitude)
    assert coefs.shape == (2000, 16)
    rescaled = 0
    for seed, m, row in zip(seeds, modes, coefs):
        ks, amps, phases = direct_lift_draw(seed, m, amplitude)
        assert (row[0:2 * m:2] == amps * np.cos(phases)).all()
        assert (row[1:2 * m:2] == amps * np.sin(phases)).all()
        assert (row[2 * m:] == 0.0).all()
        rescaled += bool(np.sum(2.0 * ks * amps) > 0.95 - 1e-15)
    assert (rescaled == 0) if amplitude == 0.01 else (0 < rescaled < 2000)


def test_draw_coefficients_bit_equal_for_any_seed(rng):
    # The batched key fold matches the per-seed one bit for bit, across the
    # 64-bit word boundaries and for seeds zero-padded to the batch's four
    # words; 5000 random seeds of 1 to 256 bits.
    seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1,
             2 ** 128, 2 ** 200 + 3]
    for bits in rng.integers(1, 257, 5000).tolist():
        seeds.append(int.from_bytes(rng.bytes(32), "little") >> (256 - bits))
    modes = rng.integers(1, 9, len(seeds))
    coefs = _draw_coefficients(seeds, modes, 0.3)
    for seed, m, row in zip(seeds, modes, coefs):
        _, amps, phases = direct_lift_draw(seed, m, 0.3)
        assert (row[0:2 * m:2] == amps * np.cos(phases)).all(), seed
        assert (row[1:2 * m:2] == amps * np.sin(phases)).all(), seed
    with pytest.raises(ValueError, match="seeds"):
        _draw_coefficients([3, -1], [2, 2], 0.3)


@pytest.mark.parametrize("modes", [[32] * 40, [40] * 40, [1, 40, 7, 32, 2]])
def test_draw_coefficients_bit_equal_for_many_modes(modes):
    # 64 and 80 draws per seed, and rows of mixed width in one batch: every
    # draw position of the stream, each row zero past its own 2m.
    seeds = [0, 2 ** 128 - 1, 2 ** 200 + 3] + list(range(7, 7 + len(modes) - 3))
    coefs = _draw_coefficients(seeds, modes, 0.3)
    assert coefs.shape == (len(modes), 2 * max(modes))
    for seed, m, row in zip(seeds, modes, coefs):
        _, amps, phases = direct_lift_draw(seed, m, 0.3)
        assert (row[0:2 * m:2] == amps * np.cos(phases)).all(), seed
        assert (row[1:2 * m:2] == amps * np.sin(phases)).all(), seed
        assert (row[2 * m:] == 0.0).all(), seed


@pytest.mark.parametrize("seeds", [[0], [2 ** 128 - 1], range(1000),
                                   [2 ** 64 - 1, 2 ** 64]])
def test_draw_coefficients_warn_nothing(seeds):
    # The 64-bit words wrap in uint64 arithmetic, which must stay silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _draw_coefficients(seeds, [8] * len(seeds), 0.3)


def test_splitmix64_stream_sanity():
    # 16 draws for each of seeds 0-9999: every position uniform in mean and
    # variance, no correlation between consecutive seeds or between any two
    # positions, and distinct rows across the 2^64 word boundary.
    draws = _splitmix64_draws(range(10000), 16)
    assert np.abs(draws.mean(axis=0) - 0.5).max() < 0.015
    assert np.abs(draws.var(axis=0) - 1.0 / 12.0).max() < 0.005
    first = draws[:, 0]
    assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < 0.04
    r = np.corrcoef(draws.T)
    assert np.abs(r - np.eye(16)).max() < 0.05
    edge = _splitmix64_draws(range(2 ** 64 - 8, 2 ** 64 + 9), 16)
    assert len({row.tobytes() for row in edge}) == 17


def test_odd_does_not_import_numpy_random():
    # The draws need no numpy.random, so a `scherk odd` process loads none.
    probe = ("import sys, numpy; print('numpy.random' in sys.modules); "
             "from scherk import cli; cli.main(['odd', '--trials', '20', "
             "'--extremal']); print('numpy.random' in sys.modules)")
    src = str(Path(oddmap.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    lines = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    if lines[0] == "True":
        pytest.skip("this numpy loads numpy.random on import")
    assert lines[-2:] == ["PASS", "False"]


@pytest.mark.parametrize("n", [1024, oddmap.DEFAULT_GRID])
@pytest.mark.parametrize("smoothing", [0.1, 0.0999, 0.03, 1e-3, 1e-4])
def test_extremal_sequence_matches_all_jumps(n, smoothing):
    # Only the three jumps near [0, pi) are evaluated; the others add
    # exactly 1.0 or 0.0, so the lift is the 18-jump sum bit for bit.
    want = direct_extremal_sequence(smoothing, n)
    assert (extremal_sequence(smoothing, n=n).samples == want).all()


@pytest.mark.parametrize("modes", [1, 4, 8, 16, 20, 32])
def test_random_odd_S1_exact_at_the_bound(modes):
    # Amplitude 5 always rescales, so sum 2k a_k = 0.95: the subgrid's
    # worst case.  It agrees with the full-grid oracle all the same, also
    # at 4 and 20 modes, where h' = 12 m + 16 exactly.
    seeds = range(40, 46)
    coefs = _draw_coefficients(seeds, [modes] * len(seeds), 5.0)
    amps = np.hypot(coefs[:, 0::2], coefs[:, 1::2])
    ks = np.arange(1, modes + 1)
    assert np.abs(amps @ (2.0 * ks) - 0.95).max() < 1e-15
    n = oddmap.DEFAULT_GRID
    batch = random_odd_S1(seeds, [modes] * len(seeds), 5.0)
    for seed, s1 in zip(seeds, batch):
        assert abs(s1 - oracle_S1(seed, modes, 5.0, n)) < 1e-14


def _mp_trapezoid_S1(coefs, points):
    """S1 of the lift with coefficient row `coefs` from the `points`-point
    trapezoid rule on the half-period, at the working mpmath precision.

    theta = t + phi, phi = sum_k x_k sin 2kt + y_k cos 2kt, so c_1 and
    c_-1 are the means of e^{i phi} and e^{i phi} e^{2it}.
    """
    c1 = cm1 = 0
    for j in range(points):
        z = mpmath.expj(2 * mpmath.pi * j / points)    # e^{2it}
        zk, phi = 1, 0
        for x, y in zip(coefs[0::2], coefs[1::2]):
            zk *= z
            phi += x * zk.imag + y * zk.real
        f = mpmath.expj(phi)
        c1, cm1 = c1 + f, cm1 + f * z
    return (abs(c1) ** 2 + abs(cm1) ** 2) / points ** 2


@pytest.mark.parametrize("modes", [1, 4, 20])
def test_s1_points_aliasing_bound(modes):
    # The trapezoid rule itself, without double rounding: at sum 2k a_k =
    # 0.95, the edge of the certificate, S1 on h' points and on 2h' points
    # agree to the < 5e-29 aliasing bound, in 40-digit arithmetic.  At 4
    # and 20 modes h' = 12 m + 16 exactly.
    coefs = _draw_coefficients([40], [modes], 5.0)[0].tolist()
    points = oddmap._s1_points(oddmap.DEFAULT_GRID, modes)
    with mpmath.workdps(40):
        gap = abs(_mp_trapezoid_S1(coefs, points)
                  - _mp_trapezoid_S1(coefs, 2 * points))
    assert gap < 1e-28


def test_check_monotone_seam():
    # Increasing within the half-period, but theta(pi - step) > theta(0) + pi.
    theta = np.linspace(0.0, 3.5, 8)[None, :]
    with pytest.raises(ValueError, match="nondecreasing"):
        _check_monotone(theta)
    with pytest.raises(ValueError):
        OddLift(_mirror(theta[0]))
    ok = np.linspace(0.0, 3.0, 8)[None, :]
    _check_monotone(ok)


def test_random_odd_S1_input_errors():
    nan, inf = math.nan, math.inf
    for call in (lambda: random_odd_S1([0, 1], [1, 0], 0.3),
                 lambda: random_odd_S1([0], [2], -0.1),
                 lambda: random_odd_S1([0, 1], [2], 0.3),
                 lambda: random_odd_S1([0], [2, 3], 0.3),
                 lambda: random_odd_S1([0], [2], 0.3, n=1000),
                 lambda: random_odd_lift(0, 0, 0.3),
                 lambda: random_odd_lift(0, 2, -0.1),
                 lambda: OddLift(np.full(16, nan)),
                 lambda: OddLift(np.where(np.arange(16) == 3, inf,
                                          identity_lift(16).samples))):
        with pytest.raises(ValueError):
            call()
    for call in (lambda: random_odd_S1([0, 1], [2, 3], nan, n=1024),
                 lambda: random_odd_S1([0, 1], [2, 3], inf, n=1024),
                 lambda: random_odd_lift(0, 2, nan)):
        with pytest.raises(ValueError, match="amplitude"):
            call()
    for bad in (nan, inf, -inf):
        theta = np.linspace(0.0, 3.0, 8)[None, :]
        for j in (0, 3, 7):
            row = theta.copy()
            row[0, j] = bad
            with pytest.raises(ValueError, match="nondecreasing"):
                _check_monotone(row)
    for call in (lambda: random_odd_S1([0, 1], [2, 2.5], 0.3),
                 lambda: random_odd_lift(0, 2.5, 0.3)):
        with pytest.raises(TypeError):
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
