"""Odd circle lifts and the sharp first-coefficient energy bound.

An odd lift is a nondecreasing theta: R -> R with theta(t+pi) = theta(t)+pi.
The boundary map F = exp(i*theta) then carries only odd Fourier modes, and
the first-mode energy

    S1 = |c_1|^2 + |c_-1|^2

is bounded below by 8/pi^2.  Equality is approached by the four-point
collapse (F locked to the fourth roots of unity), reproduced here as a
mollified staircase.  The averaging route to the bound runs through the
autocorrelation

    C(t) = mean_s cos(theta(s+t) - theta(s-t)),    J = (1 - C)/2,

the pointwise bound J(tau) <= tau, and the weighted averaging inequality
with weight M(tau) = cos(2 tau) on [0, pi/4].  At grid shift m, C is the
real part of the circular autocorrelation of F at lag 2m (Wiener-Khinchin).
F has only odd modes, so the Hall check gets C at every shift from the
first half-period: one N/2-point FFT and one N/4-point inverse FFT.

Lifts are sampled on a uniform grid of N = 2^14 points (power of two,
divisible by 8 so that pi/4-aligned quadrature nodes are exact grid
multiples); the second half of every sample array is the first half plus
pi, which makes the odd periodicity exact by construction.  The first
Fourier modes c_1 and c_-1 are sums over the first half-period against the
twiddle exp(i t), cached per grid size on first use.  A generated lift is
its row of coefficients times one cached table of sin(2kt) and cos(2kt).

`random_odd_S1` gives S1 of many generated lifts without building an
`OddLift` for each.  Every lift's coefficients come from its own SplitMix64
stream, keyed by its seed; `_splitmix64_draws` computes all draws of all
streams in one pass of uint64 array arithmetic.  Each lift is certified
nondecreasing from its coefficients, and a lift with m modes is formed only
where S1 reads it: h' points per half-period, the smallest power of two
>= 12 m + 16 (at most N/2), where the trapezoid rule is already exact to
< 5e-29 (see `random_odd_S1`).  `random_odd_lift` and `fourier_S1` run the
same helpers on a single lift, on the full grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_GRID = 2 ** 14
_MONOTONE_TOL = 1e-12
_ODD_TOL = 1e-12
_BLOCK = 4          # fewest rows per S1 chunk: none exceeds 4 x N/2 samples
_DERIV_BOUND = 0.95  # sum_k 2k |a_k| of a generated lift: theta' >= 0.05
_TABLE_MODES = 8    # the even-mode table covers modes 1..8 at least

# SplitMix64's increment and output-mix constants, as uint64 so that no word
# is ever promoted to a Python int
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_S30, _S27, _S31, _S11 = map(np.uint64, (30, 27, 31, 11))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True, eq=False)
class OddLift:
    """Samples of theta on the uniform grid t_k = 2*pi*k/N."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        n = s.size
        _check_grid(n)
        object.__setattr__(self, "samples", s)
        if not np.isfinite(s).all():
            raise ValueError("lift samples must be finite")
        diffs = np.diff(s)
        if diffs.min(initial=0.0) < -_MONOTONE_TOL:
            raise ValueError(f"lift not nondecreasing: min step {diffs.min()}")
        if (s[0] + 2.0 * math.pi) - s[-1] < -_MONOTONE_TOL:
            raise ValueError("lift violates theta(2 pi) = theta(0) + 2 pi")
        half = n // 2
        odd_resid = np.abs(s[half:] - s[:half] - math.pi).max()
        if odd_resid > _ODD_TOL:
            raise ValueError(f"odd periodicity violated by {odd_resid}")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def step(self) -> float:
        return 2.0 * math.pi / self.n

    def shifted(self, m: int) -> np.ndarray:
        """theta(t_k + m*step) for all k, unwrapped by theta(t+2pi)=theta+2pi.

        With m = w n + m0, 0 <= m0 < n, index k + m is k + m0 in turn w for
        k < n - m0 and k + m0 - n in turn w + 1 after: two slices.
        """
        w, m0 = divmod(m, self.n)
        s = self.samples
        return np.concatenate([s[m0:] + 2.0 * math.pi * w,
                               s[:m0] + 2.0 * math.pi * (w + 1)])


def _check_grid(n: int) -> None:
    if n < 8 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 8, got {n}")


def _mirror(first_half: np.ndarray) -> np.ndarray:
    return np.concatenate([first_half, first_half + math.pi])


@lru_cache(maxsize=64)
def _half_grid(n: int) -> np.ndarray:
    """The first half-period t_j = 2 pi j / n, j < n/2."""
    t_half = np.arange(n // 2) * (2.0 * math.pi / n)
    t_half.flags.writeable = False
    return t_half


@lru_cache(maxsize=64)
def _twiddle(n: int) -> np.ndarray:
    """exp(i t_j) on the first half-period t_j = 2 pi j / n, j < n/2."""
    tw = np.exp(1j * _half_grid(n))
    tw.flags.writeable = False
    return tw


@lru_cache(maxsize=8)
def _even_table(n: int, modes: int) -> np.ndarray:
    """Rows sin(2k t_j), cos(2k t_j), k = 1..modes, on the first half-period."""
    t_half = _half_grid(n)
    table = np.empty((2 * modes, n // 2))
    for k in range(1, modes + 1):   # row by row: no (modes, n/2) temporaries
        np.sin(2 * k * t_half, out=table[2 * k - 2])
        np.cos(2 * k * t_half, out=table[2 * k - 1])
    table.flags.writeable = False
    return table


def _mode_counts(modes) -> np.ndarray:
    """`modes` as an int array, each an integer >= 1."""
    counts = np.array([operator.index(m) for m in modes], dtype=int)
    if counts.size and counts.min() < 1:
        raise ValueError(f"modes must be >= 1, got {counts.min()}")
    return counts


def _mode_groups(modes: np.ndarray) -> list:
    """(m, indices of the rows with m modes) for each mode count, ascending."""
    # np.unique would cost 1.6 MB of RSS
    return [(m, np.flatnonzero(modes == m)) for m in sorted(set(modes.tolist()))]


def _fmix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of a uint64 array, mod 2^64."""
    z = (z ^ z >> _S30) * _M1
    z = (z ^ z >> _S27) * _M2
    return z ^ z >> _S31


def _splitmix64_draws(seeds, width: int) -> np.ndarray:
    """Row j: the first `width` doubles of the SplitMix64 stream of seeds[j].

    The seed is split into 64-bit words w, most significant first, and
    folded into key = fmix(key ^ w) from key = 0.  fmix(0) = 0, so the
    leading zero words that pad a seed to the widest of the batch change
    nothing: a row never depends on the other seeds.  Below 2^64 the key
    is fmix(seed), a bijection, so no two such seeds share a stream.
    Draw k = 1, 2, ... is (fmix(key + k gamma) >> 11) 2^-53 with
    gamma = 0x9E3779B97F4A7C15: the SplitMix64 generator (Steele, Lea &
    Flood, OOPSLA 2014) started from key.  Every word is a uint64 array or
    constant and wraps silently.
    """
    seeds = [operator.index(s) for s in seeds]
    if min(seeds, default=0) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    n_words = max(1, -(-max(seeds, default=0).bit_length() // 64))
    words = np.frombuffer(
        b"".join(s.to_bytes(8 * n_words, "big") for s in seeds),
        dtype=">u8").reshape(len(seeds), n_words).astype(np.uint64)
    key = np.zeros(len(seeds), dtype=np.uint64)
    for word in words.T:
        key = _fmix(key ^ word)
    steps = np.arange(1, width + 1, dtype=np.uint64) * _GAMMA
    return (_fmix(key[:, None] + steps) >> _S11) * 2.0 ** -53


def _draw_coefficients(seeds, modes, amplitude: float) -> np.ndarray:
    """Coefficient rows of the lifts (seed, m), zero-padded to the widest.

    Row i is (a_k cos phi_k, a_k sin phi_k), k = 1..m, in `_even_table` row
    order: a sin(2k t + phi) = a cos(phi) sin(2k t) + a sin(phi) cos(2k t).
    The first 2m draws d of the seed's stream (`_splitmix64_draws`, one
    call for all rows) give a_k = amplitude (0.2 + 0.8 d_k)/k and then
    phi_k = 2 pi d_{m+k}.  The amplitudes are rescaled if needed so that
    sum_k 2k a_k <= `_DERIV_BOUND`, hence min theta' >= 0.05.  Rows are
    scaled per mode count, so each sum over k sees exactly m terms.
    """
    if not 0.0 <= amplitude < math.inf:
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    modes = _mode_counts(modes)
    coefs = _splitmix64_draws(seeds, 2 * modes.max(initial=1))
    if len(coefs) != modes.size:
        raise ValueError(f"{len(coefs)} seeds but {modes.size} mode counts")
    for m, rows in _mode_groups(modes):
        d = coefs[rows]     # a copy: the draws are overwritten below
        ks = np.arange(1, m + 1)
        amps = amplitude * (0.2 + 0.8 * d[:, :m]) / ks
        phases = 2.0 * math.pi * d[:, m:2 * m]
        deriv_bound = (2.0 * ks * amps).sum(axis=1)
        big = deriv_bound > _DERIV_BOUND
        amps[big] *= (_DERIV_BOUND / deriv_bound[big])[:, None]
        coefs[rows, 0:2 * m:2] = amps * np.cos(phases)
        coefs[rows, 1:2 * m:2] = amps * np.sin(phases)
        coefs[rows, 2 * m:] = 0.0
    return coefs


def _theta_half(coefs: np.ndarray, n: int) -> np.ndarray:
    """theta on the first half-period, one row per row of coefficients.

    Every mode count up to `_TABLE_MODES` reads the first rows of one table.
    """
    width = coefs.shape[1]
    table = _even_table(n, max(width // 2, _TABLE_MODES))[:width]
    theta = coefs @ table
    theta += _half_grid(n)
    return theta


def _certify_monotone(coefs: np.ndarray) -> None:
    """Every row's lift is nondecreasing at every t, not only on a grid.

    A row (x_k, y_k) has theta' = 1 + sum_k 2k (x_k cos 2kt - y_k sin 2kt)
    >= 1 - sum_k 2k hypot(x_k, y_k) >= 0.05 when that sum is at most
    `_DERIV_BOUND` (+ `_MONOTONE_TOL` for rounding).  NaN and inf fail.
    """
    ks = np.arange(1, coefs.shape[1] // 2 + 1)
    bound = np.hypot(coefs[:, 0::2], coefs[:, 1::2]) @ (2.0 * ks)
    bad = np.flatnonzero(~(bound <= _DERIV_BOUND + _MONOTONE_TOL))
    if bad.size:
        raise ValueError(f"lift not certified nondecreasing: row {bad[0]} "
                         f"has sum 2k|a_k| = {bound[bad[0]]} > {_DERIV_BOUND}")


def _check_monotone(theta: np.ndarray) -> None:
    """OddLift's step rule for rows of first-half samples.

    The mirrored lift's steps are the steps within the first half plus
    theta(0) + pi - theta(pi - step), at the seam and at the wrap.  A NaN
    or infinite sample makes some step NaN or -inf, which fails the rule.
    """
    steps = theta[:, 1:] - theta[:, :-1]
    min_step = min(steps.min(), (theta[:, 0] + math.pi - theta[:, -1]).min())
    if not min_step >= -_MONOTONE_TOL:
        raise ValueError(f"lift not nondecreasing: min step {min_step}")


def _s1_rows(theta: np.ndarray) -> np.ndarray:
    """S1 of each row of first-half samples, from cos and sin of theta.

    With C = cos theta, S = sin theta and h samples per row, c_1 and c_-1
    are (C.cos t +- S.sin t + i (S.cos t -+ C.sin t)) / h, so
    S1 = 2 (|C.e^{it}|^2 + |S.e^{it}|^2) / h^2.  C and S of b rows are
    stacked (2b rows) for one product against the mode-1 twiddle read as
    a (h, 2) real matrix.  Stacked, one lift is a matrix product too and
    sums like a block; as a (1, h) row it took a matrix-vector path that
    differed from the block by up to 7e-15.
    """
    b, half = theta.shape
    trig = np.empty((2 * b, half))
    np.cos(theta, out=trig[:b])
    np.sin(theta, out=trig[b:])
    sums = trig @ _twiddle(2 * half).view(float).reshape(half, 2)
    sq = (sums * sums).sum(axis=1)
    return 2.0 * (sq[:b] + sq[b:]) / half ** 2


def _s1_points(n: int, modes: int) -> int:
    """Half-period points for S1: the least 2^j >= 12 modes + 16, at most
    n/2 (the bound is in `random_odd_S1`)."""
    return min(1 << (12 * modes + 15).bit_length(), n // 2)


def random_odd_lift(seed: int, modes: int, amplitude: float,
                    n: int = DEFAULT_GRID) -> OddLift:
    """theta(t) = t + sum_k a_k sin(2k t + phi_k), k = 1..modes.

    Even frequencies keep theta(t+pi) = theta(t) + pi; the amplitudes are
    rescaled if needed so that min theta' >= 0.05, which keeps every
    generated lift strictly increasing.
    """
    coefs = _draw_coefficients([seed], [modes], amplitude)
    return OddLift(_mirror(_theta_half(coefs, n)[0]))


def random_odd_S1(seeds, modes, amplitude: float,
                  n: int = DEFAULT_GRID) -> np.ndarray:
    """fourier_S1(random_odd_lift(seed, m, amplitude, n)) for each pair.

    `seeds` and `modes` are equal-length sequences of ints.  Every row must
    pass `_certify_monotone` (ValueError otherwise).  A lift with m modes
    is formed only on the h' = `_s1_points(n, m)` half-period samples S1
    reads, `_theta_half(rows, 2 h')`: bit for bit every stride-th point of
    the n-point grid.  Rows go in chunks of max(`_BLOCK`, n/(2h')), each
    one matrix product against the first 2m even-mode table rows; their
    samples pass the `OddLift` step rule too.

    S1 from h' points per half-period is exact.  The certificate gives
    phi = theta - t with sum_k 2k |a_k| <= 0.95 (+1e-12), so on the strip
    Im t = +-3/m, where sinh(6k/m) <= (k/m) sinh 6 for k <= m,
    |Im phi| <= 0.95 sinh(6)/(2m) < 96/m.  The pi-periodic integrands
    e^{i phi} (for c_1) and e^{i(phi + 2t)} (for c_-1) thus have Fourier
    coefficients at e^{2ijt} of modulus at most e^{96/m} e^{-6(|j| - 1)/m},
    and the h'-point trapezoid sum differs from the exact mean only by the
    aliased ones, j = +-h', +-2h', ...  As h' >= 12m + 16, 6h'/m >= 72 +
    96/m and their sum is at most 2 e^{-66}/(1 - e^{-72}) < 5e-29 for
    every m >= 1.  The full grid is no closer, so both sums are exact up to
    rounding.  The bound holds for certified lifts only, not for
    `extremal_sequence`.
    """
    _check_grid(n)
    modes = _mode_counts(modes)
    coefs = _draw_coefficients(seeds, modes, amplitude)
    _certify_monotone(coefs)
    s1 = np.empty(len(coefs))
    for m, rows in _mode_groups(modes):
        points = _s1_points(n, m)
        chunk = max(_BLOCK, (n // 2) // points)
        for lo in range(0, len(rows), chunk):
            block = rows[lo:lo + chunk]
            theta = _theta_half(coefs[block, :2 * m], 2 * points)
            _check_monotone(theta)
            s1[block] = _s1_rows(theta)
    return s1


def identity_lift(n: int = DEFAULT_GRID) -> OddLift:
    return OddLift(_mirror(_half_grid(n)))


def _erf_steps(x: np.ndarray) -> np.ndarray:
    """Elementwise erf; beyond |x| = 6 the tail is below double rounding."""
    out = np.sign(x)
    near = np.abs(x) < 6.0
    out[near] = list(map(math.erf, x[near].tolist()))
    return out


def extremal_sequence(smoothing: float, n: int = DEFAULT_GRID) -> OddLift:
    """Mollified four-point collapse: steps of pi/2 near t = k*pi/2.

    Uses an error-function profile of width `smoothing`, so the lift stays
    strictly increasing with bounded derivative; as smoothing -> 0 the
    first-mode energy S1 tends to 8/pi^2 (the sharp constant).
    """
    if not (0.0 < smoothing <= 0.1):
        raise ValueError(f"smoothing must be in (0, 0.1], got {smoothing}")
    t_half = _half_grid(n)
    # Jumps live at k*pi/2, k = -8..9.  Every jump but k = 0, 1, 2 lies at
    # least pi/2 from [0, pi), i.e. >= 15.7 widths for smoothing <= 0.1,
    # past the |x| = 6 cutoff where `_erf_steps` returns exactly +-1: jumps
    # k = -8..-1 add exactly 1.0 each and k = 3..9 exactly 0.0, so the
    # total starts at 8.0.
    total = np.full_like(t_half, 8.0)
    for k in range(3):
        total += 0.5 * (1.0 + _erf_steps((t_half - 0.5 * math.pi * k) / smoothing))
    theta_half = 0.5 * math.pi * total - 4.0 * math.pi
    return OddLift(_mirror(theta_half))


def fourier_S1(lift: OddLift) -> float:
    """First-mode energy S1 = |c_1|^2 + |c_-1|^2, bounded below by 8/pi^2."""
    return float(_s1_rows(lift.samples[None, :lift.n // 2])[0])


def fourier_spectrum(lift: OddLift) -> np.ndarray:
    """S_n = |c_n|^2 + |c_-n|^2 for n = 1 .. N/2 - 1, via one FFT."""
    c = np.fft.fft(np.exp(1j * lift.samples)) / lift.n
    half = lift.n // 2
    ns = np.arange(1, half)
    return np.abs(c[ns]) ** 2 + np.abs(c[-ns]) ** 2


def snap_shift(lift: OddLift, t: float) -> int:
    """Nearest grid multiple of t; shifts are evaluated on the grid."""
    return int(round(t / lift.step))


def autocorrelation(lift: OddLift, t: float) -> tuple[float, float]:
    """(C(t), J(t)) with the shift snapped to the nearest grid multiple.

    C(t) = mean_s cos(theta(s+t) - theta(s-t)); J = (1 - C)/2.  Exact grid
    shifts keep the telescoping mean of the phase difference exactly 2t,
    which preserves the pointwise bound J(t) <= t up to rounding.
    """
    m = snap_shift(lift, t)
    diff = lift.shifted(m) - lift.shifted(-m)
    c = float(np.mean(np.cos(diff)))
    return c, 0.5 * (1.0 - c)


def _c_at_shifts(lift: OddLift, ms: np.ndarray) -> np.ndarray:
    """C at grid shifts ms (any integers) from the first half-period.

    C(m) = Re R(2m) with R(l) = mean_s F(s+l) conj(F(s)), the circular
    autocorrelation of F = exp(i theta) on the N-point grid, and by
    Wiener-Khinchin R(l) = sum_k |X_k|^2 e^{2 pi i k l/N} / N^2 with X the
    N-point DFT of F.  An odd lift has F(s + N/2) = -F(s), so X_k =
    (1 - (-1)^k) sum_{s<N/2} F(s) e^{-2 pi i k s/N}: every even bin is 0
    and X_{2j+1} = 2 Y_j, Y the N/2-point DFT of F(s) e^{-2 pi i s/N},
    s < N/2.  At l = 2m, e^{2 pi i (2j+1) 2m/N} = e^{4 pi i m/N}
    e^{2 pi i j m/q} with q = N/4, so with P_j = |Y_j|^2 folded mod q,
    P'_r = P_r + P_{r+q}, and z the q-point inverse DFT of P',

        C(m) = Re(e^{4 pi i m/N} z[m mod q]) / N
             = (-1)^{floor(m/q)} Re(e^{4 pi i r/N} z[r]) / N,  r = m mod q,

    as e^{4 pi i q/N} = -1.  e^{4 pi i r/N} is `_twiddle(N)`[2r], bit for
    bit `_twiddle(N/2)`[r] (the same double angle, as doubling is exact), so
    no second table is cached.  The second half of the samples is not
    read: `OddLift` enforces theta(s + N/2) = theta(s) + pi to 1e-12.
    Agrees with the direct mean of cosines to rounding, so C(0) =
    mean |F|^2 is 1 only up to rounding.
    """
    n = lift.n
    q = n // 4
    half = lift.samples[:n // 2]
    y = np.fft.fft(np.exp(1j * half) * _twiddle(n).conj())
    p = y.real ** 2 + y.imag ** 2
    z = np.fft.ifft(p[:q] + p[q:]) * _twiddle(n)[::2]
    sign = 1 - 2 * ((ms // q) & 1)
    return sign * z.real[ms % q] / n


@dataclass(frozen=True)
class HallReport:
    """Weighted averaging inequality with weight cos(2 tau) on [0, pi/4]."""

    lhs: float              # integral of cos(2 tau) J(tau) over [0, pi/4]
    rhs: float              # (2/pi) integral of tau cos(2 tau) over [0, pi/4]
    holds: bool
    max_j_minus_tau: float  # max over nodes in [0, pi/2] of J(tau) - tau


def hall_inequality_check(lift: OddLift, slack: float = 1e-9) -> HallReport:
    """Trapezoid quadrature on every grid node of [0, pi/4].

    The weight vanishes beyond pi/4, so both integrals stop there; the
    pointwise bound J <= tau is checked on nodes covering all of [0, pi/2].
    J comes from the half-period FFTs of `_c_at_shifts`, so J(0) is
    rounding-level (about 1e-16, of either sign) rather than exact 0, and
    so is `max_j_minus_tau`, which J(0) attains on the lifts `scherk odd`
    checks.
    """
    n4 = lift.n // 4   # pi/2 = n4 * step
    n8 = lift.n // 8   # pi/4
    step = lift.step
    shifts = np.arange(n4 + 1)
    js = 0.5 * (1.0 - _c_at_shifts(lift, shifts))
    taus = shifts * step

    weights = np.cos(2.0 * taus[:n8 + 1])
    lhs = float(np.trapezoid(weights * js[:n8 + 1], dx=step))
    rhs = (2.0 / math.pi) * float(np.trapezoid(weights * taus[:n8 + 1],
                                               dx=step))
    max_gap = float((js - taus).max())
    return HallReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs + slack,
                      max_j_minus_tau=max_gap)
