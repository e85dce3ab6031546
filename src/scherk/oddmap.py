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
real part of the circular autocorrelation of F at lag 2m (Wiener-Khinchin),
so the Hall check gets C at every shift from one FFT.

Lifts are sampled on a uniform grid of N = 2^14 points (power of two,
divisible by 8 so that pi/4-aligned quadrature nodes are exact grid
multiples); the second half of every sample array is the first half plus
pi, which makes the odd periodicity exact by construction.  The first
Fourier modes c_1 and c_-1 are sums over the first half-period against the
twiddle exp(i t), cached per grid size on first use.  A generated lift is
its row of coefficients times one cached table of sin(2kt) and cos(2kt).

`random_odd_S1` gives S1 of many generated lifts without building an
`OddLift` for each.  It seeds the streams of all lifts in one batched pass
of numpy's seeding hash and computes all their PCG64 draws in one
vectorised pass, with no `Generator` and without importing `numpy.random`,
so each coefficient row is bit for bit the `default_rng(seed)` draw.  It
groups the lifts by mode count m, forms each group in blocks of four by one
matrix product against the first 2m table rows, and applies the `OddLift`
monotonicity rule to every sample of every row.  S1 of a lift with m
modes is then taken from every stride-th sample only: h' points per
half-period, the smallest power of two >= 64 m (at most N/2), where the
trapezoid rule is already exact (see `random_odd_S1`).  `random_odd_lift`
and `fourier_S1` run the same helpers on a single lift, on the full grid.
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
_BLOCK = 4          # lifts per block: theta and steps fill 512 KiB, N = 2^14
_TABLE_MODES = 8    # the even-mode table covers modes 1..8 at least

# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# uint64 constants, so that no word is ever promoted to a Python int
_1, _11, _32, _58, _63, _64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


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
        """theta(t_k + m*step) for all k, unwrapped by theta(t+2pi)=theta+2pi."""
        idx = np.arange(self.n) + m
        return self.samples[idx % self.n] + 2.0 * math.pi * (idx // self.n)


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


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: (h_j, h_j * mult mod 2^32)."""
    h = init
    while True:
        h_next = h * mult & _MASK32
        yield np.uint32(h), np.uint32(h_next)
        h = h_next


def _hashmix(word: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 column with the next constants."""
    h, h_next = next(consts)
    v = (word ^ h) * h_next
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 columns."""
    v = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return v ^ v >> 16


def _pcg64_seeds(seeds) -> np.ndarray:
    """The 128-bit PCG64 seed (s, i) of `default_rng(seed)`, for each seed.

    Row j is (s_hi, s_lo, i_hi, i_lo) as uint64.  `SeedSequence(seed)`
    splits the seed into 32-bit words, low first, and hashes them into a
    pool of four (numpy/random/bit_generator.pyx).  A seed below 2^128 is
    zero-padded to four words, which is exact: the pool hashes a missing
    word as 0.  Words past the fourth are then mixed into the pool one by
    one, masked to the seeds that have them.  The hash constants depend on
    the word's position only, so each step runs on one uint32 column over
    all seeds.  The pool's first eight generated words are the row.
    """
    seeds = [operator.index(s) for s in seeds]
    if min(seeds, default=0) < 0:
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    lengths = np.array([max(1, -(-s.bit_length() // 32)) for s in seeds])
    width = max(4, lengths.max(initial=1))
    words = np.frombuffer(
        b"".join(s.to_bytes(4 * width, "little") for s in seeds),
        dtype="<u4").reshape(len(seeds), width).T
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for src in range(4, width):
        live = lengths > src
        for dst in range(4):
            mixed = _mix(pool[dst], _hashmix(words[src], consts))
            pool[dst] = np.where(live, mixed, pool[dst])
    consts = _hash_constants(_INIT_B, _MULT_B)
    generated = [_hashmix(pool[j % 4], consts) for j in range(8)]
    return np.ascontiguousarray(np.transpose(generated),
                                dtype="<u4").view("<u8")


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


def _mul128(hi, lo, c_hi, c_lo):
    """(hi, lo) * (c_hi, c_lo) mod 2^128 on uint64 word arrays.

    The high word is the high half of lo * c_lo, from 32-bit limbs, plus
    (lo c_hi + hi c_lo) mod 2^64.
    """
    a0, a1 = lo & _LOW32, lo >> _32
    b0, b1 = c_lo & _LOW32, c_lo >> _32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    top = a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)
    return top + lo * c_hi + hi * c_lo, lo * c_lo


def _add128(hi, lo, b_hi, b_lo):
    """(hi, lo) + (b_hi, b_lo) mod 2^128 on uint64 word arrays."""
    low = lo + b_lo
    return hi + b_hi + (low < b_lo), low


def _pcg64_draws(seeds, width: int) -> np.ndarray:
    """Row j: the first `width` doubles of `default_rng(seeds[j]).random`.

    PCG64 (numpy/random/src/pcg64) starts at u M + inc, u = inc + s, with
    inc = 2 i + 1 and (s, i) from `_pcg64_seeds`; each draw steps the state
    to state M + inc and outputs the XSL-RR word x = rotr64(hi ^ lo, hi >> 58)
    as the double (x >> 11) 2^-53.  Draw k's state is thus
    u M^(k+1) + inc (1 + M + ... + M^k) mod 2^128, so all draws of all seeds
    come from two 128-bit products of a seed column and a row of constants.
    Every word is a uint64 array or scalar and wraps without a warning.
    """
    s_hi, s_lo, i_hi, i_lo = _pcg64_seeds(seeds).T[:, :, None]
    inc_hi, inc_lo = i_hi << _1 | i_lo >> _63, i_lo << _1 | _1
    consts, power, total = [], _PCG_MULT, 1
    for _ in range(width):
        total = total + power & _MASK128
        power = power * _PCG_MULT & _MASK128
        consts.append((power >> 64, power & _MASK64, total >> 64,
                       total & _MASK64))
    p_hi, p_lo, g_hi, g_lo = np.array(consts, dtype=np.uint64).T
    u_hi, u_lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    hi, lo = _add128(*_mul128(u_hi, u_lo, p_hi, p_lo),
                     *_mul128(inc_hi, inc_lo, g_hi, g_lo))
    rot, x = hi >> _58, hi ^ lo
    x = x >> rot | x << (_64 - rot & _63)
    return (x >> _11) * (1.0 / 9007199254740992.0)


def _draw_coefficients(seeds, modes, amplitude: float) -> np.ndarray:
    """Coefficient rows of the lifts (seed, m), zero-padded to the widest.

    Row i is (a_k cos phi_k, a_k sin phi_k), k = 1..m, in `_even_table` row
    order: a sin(2k t + phi) = a cos(phi) sin(2k t) + a sin(phi) cos(2k t).
    Each seed's `default_rng` stream gives m draws for
    a_k = amplitude U(0.2, 1)/k and then m for phi_k = U(0, 2 pi), in one
    `random(2m)` call.  No generator is built: `_pcg64_draws` computes the
    first 2 max(m) doubles of every stream in one vectorised PCG64 pass.
    The draws are mapped as `Generator.uniform(low, high)` maps them,
    low + (high - low) d, so every row is bit-identical to two `uniform`
    calls of `default_rng(seed)`.  The amplitudes are rescaled if needed so
    that min theta' >= 0.05.  Rows are scaled per mode count, so each sum
    over k sees exactly m terms.
    """
    if not 0.0 <= amplitude < math.inf:
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude}")
    modes = _mode_counts(modes)
    coefs = _pcg64_draws(seeds, 2 * modes.max(initial=1))
    if len(coefs) != modes.size:
        raise ValueError(f"{len(coefs)} seeds but {modes.size} mode counts")
    for m, rows in _mode_groups(modes):
        d = coefs[rows]     # a copy: the draws are overwritten below
        ks = np.arange(1, m + 1)
        amps = amplitude * (0.2 + (1.0 - 0.2) * d[:, :m]) / ks
        phases = 0.0 + (2.0 * math.pi - 0.0) * d[:, m:2 * m]
        deriv_bound = (2.0 * ks * amps).sum(axis=1)
        big = deriv_bound > 0.95
        amps[big] *= (0.95 / deriv_bound[big])[:, None]
        coefs[rows, 0:2 * m:2] = amps * np.cos(phases)
        coefs[rows, 1:2 * m:2] = amps * np.sin(phases)
        coefs[rows, 2 * m:] = 0.0
    return coefs


def _theta_half(coefs: np.ndarray, n: int, out=None) -> np.ndarray:
    """theta on the first half-period, one row per row of coefficients.

    Every mode count up to `_TABLE_MODES` reads the first rows of one table.
    """
    width = coefs.shape[1]
    table = _even_table(n, max(width // 2, _TABLE_MODES))[:width]
    theta = np.matmul(coefs, table, out=out)
    theta += _half_grid(n)
    return theta


def _check_monotone(theta: np.ndarray, work: np.ndarray) -> None:
    """OddLift's step rule for rows of first-half samples.

    The mirrored lift's steps are the steps within the first half plus
    theta(0) + pi - theta(pi - step), at the seam and at the wrap.  A NaN
    or infinite sample makes some step NaN or -inf, which fails the rule.
    """
    steps = np.subtract(theta[:, 1:], theta[:, :-1], out=work[:, :-1])
    min_step = min(steps.min(), (theta[:, 0] + math.pi - theta[:, -1]).min())
    if not min_step >= -_MONOTONE_TOL:
        raise ValueError(f"lift not nondecreasing: min step {min_step}")


def _s1_rows(theta: np.ndarray, trig=None) -> np.ndarray:
    """S1 of each row of first-half samples, from cos and sin of theta.

    With C = cos theta, S = sin theta and h samples per row, c_1 and c_-1
    are (C.cos t +- S.sin t + i (S.cos t -+ C.sin t)) / h, so
    S1 = 2 (|C.e^{it}|^2 + |S.e^{it}|^2) / h^2.  C and S of b rows are
    stacked in `trig` (2b rows) for one product against the mode-1 twiddle
    read as a (h, 2) real matrix.  Stacked, one lift is a matrix product
    too and sums like a block; as a (1, h) row it took a matrix-vector path
    that differed from the block by up to 7e-15.
    """
    b, half = theta.shape
    if trig is None:
        trig = np.empty((2 * b, half))
    np.cos(theta, out=trig[:b])
    np.sin(theta, out=trig[b:])
    sums = trig @ _twiddle(2 * half).view(float).reshape(half, 2)
    sq = (sums * sums).sum(axis=1)
    return 2.0 * (sq[:b] + sq[b:]) / half ** 2


def _s1_points(n: int, modes: int) -> int:
    """Half-period points for S1: the least 2^j >= 64 modes, at most n/2."""
    return min(1 << (64 * modes - 1).bit_length(), n // 2)


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

    `seeds` and `modes` are equal-length sequences of ints.  The lifts are
    grouped by mode count m and formed in blocks of a few rows, each by one
    matrix product against the first 2m rows of the even-mode table, as
    `random_odd_lift` forms its one lift; every sample of each block passes
    the same monotonicity rule as `OddLift` (ValueError otherwise).

    S1 of a lift with m modes is then taken from every stride-th sample:
    h' = `_s1_points(n, m)` per half-period.  That is exact.  Every
    generated lift has phi = theta - t with sum_k 2k a_k <= 0.95, so on
    Im t = +-1/(2m), where sinh(k/m) <= (k/m) sinh 1,
    |Im phi| <= 0.95 sinh(1)/(2m) < 0.56.  The pi-periodic integrands
    e^{i phi} (for c_1) and e^{i(phi + 2t)} (for c_-1) thus have Fourier
    coefficients at e^{2ijt} of modulus at most e^{0.56} e^{-(|j| - 1)/m},
    and the h'-point trapezoid sum differs from the exact mean only by the
    aliased ones, j = +-h', +-2h', ...: about
    2 e^{0.56} e^{-(h' - 1)/m} <= 3.5 e^{-63} < 2e-27.  The full grid is no
    closer, so both sums are exact up to rounding.  The bound holds for
    generated lifts only, not for `extremal_sequence`.
    """
    _check_grid(n)
    modes = _mode_counts(modes)
    coefs = _draw_coefficients(seeds, modes, amplitude)
    half = n // 2
    work = np.empty((2 * _BLOCK, half))
    s1 = np.empty(len(coefs))
    for m, rows in _mode_groups(modes):
        group = coefs[rows, :2 * m]
        points = _s1_points(n, m)
        trig = np.empty((2 * _BLOCK, points))
        group_s1 = np.empty(len(rows))
        for lo in range(0, len(rows), _BLOCK):
            b = min(_BLOCK, len(rows) - lo)
            theta = _theta_half(group[lo:lo + b], n, out=work[b:2 * b])
            _check_monotone(theta, work[:b])
            group_s1[lo:lo + b] = _s1_rows(theta[:, ::half // points],
                                           trig[:2 * b])
        s1[rows] = group_s1
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
    """C at grid shifts ms from one FFT (Wiener-Khinchin).

    C(m) = Re R(2m) with R(l) = mean_s F(s+l) conj(F(s)), the circular
    autocorrelation of F = exp(i theta), which is N-periodic on the grid.
    Agrees with the direct mean of cosines to rounding, so C(0) = mean |F|^2
    is 1 only up to rounding.
    """
    n = lift.n
    spec = np.fft.fft(np.exp(1j * lift.samples))
    acf = np.fft.ifft(spec.real ** 2 + spec.imag ** 2).real / n
    return acf[(2 * ms) % n]


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
    J comes from the FFT autocorrelation of `_c_at_shifts`, so J(0) and
    `max_j_minus_tau` are rounding-level (about 1e-16) rather than exact 0.
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
