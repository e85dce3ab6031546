"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: harmonic measures are
integrated with adaptive quadrature of the Poisson kernel, scalar roots
are isolated with 50-digit bisection in mpmath, and odd-lift quantities are
direct sums over the full sample grid.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

mpmath.mp.dps = 50


def poisson_arc_measure(r: float, t: float, phi: float, s: float) -> float:
    """Harmonic measure of the arc (phi-s, phi+s) at r*e^{it} by quadrature."""
    two_pi = 2.0 * math.pi

    def kernel(eta):
        return (1.0 - r * r) / (
            two_pi * (1.0 - 2.0 * r * math.cos(t - eta) + r * r))

    # Shift the kernel peak to its representative nearest the arc so the
    # adaptive rule can subdivide around it when r is close to 1.
    peak = t - two_pi * round((t - phi) / two_pi)
    lo, hi = phi - s, phi + s
    pts = [peak] if lo < peak < hi else None
    value, _ = quad(kernel, lo, hi, points=pts, limit=200,
                    epsabs=1e-13, epsrel=1e-13)
    return value


def mp_scalar_root(A: float, B: float):
    """(U, S(U)) of the scalar zero by 50-digit bisection."""
    A = mpmath.mpf(A)
    B = mpmath.mpf(B)
    k = mpmath.sqrt(1 - A * A)
    e = mpmath.sqrt(1 - B * B)
    P = (1 + A * B) / (B * (A + B))
    shift = k * k / (A * (A + B))

    def g(u):
        return (B * mpmath.cos(mpmath.pi * k * (P - u))
                - A * mpmath.cos(mpmath.pi * e * (u + shift))
                - (A + B) * mpmath.cos(mpmath.pi * u))

    lo = k / (1 + k) * P
    hi = (1 - e * shift) / (1 + e)
    if g(lo) > 0 or g(hi) < 0:
        raise ValueError(f"no bracket for A={A}, B={B}")
    for _ in range(150):
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    u = (lo + hi) / 2
    s = ((A + B) * mpmath.sin(mpmath.pi * u)
         + B * k * mpmath.sin(mpmath.pi * k * (P - u))
         + A * e * mpmath.sin(mpmath.pi * e * (u + shift)))
    return float(u), float(s)


def direct_autocorrelation(samples, m: int) -> float:
    """mean_s cos(theta(s+m) - theta(s-m)) over the full grid.

    Indices past either end wrap around, and theta is unwrapped there by
    theta(t + 2 pi) = theta(t) + 2 pi.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    idx = np.arange(n)

    def theta(j):
        return samples[j % n] + 2.0 * math.pi * (j // n)

    return float(np.mean(np.cos(theta(idx + m) - theta(idx - m))))


def full_grid_c_at_shifts(samples, ms) -> np.ndarray:
    """C at grid shifts ms by Wiener-Khinchin on the full grid.

    C(m) = Re R(2m), R the circular autocorrelation of F = exp(i theta)
    from one N-point FFT and inverse FFT; no use of the odd symmetry.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    spec = np.fft.fft(np.exp(1j * samples))
    acf = np.fft.ifft(spec.real ** 2 + spec.imag ** 2).real / n
    return acf[(2 * np.asarray(ms)) % n]


def full_grid_fourier_mode(samples, k: int) -> tuple:
    """(c_k, c_-k) of exp(i theta) as plain means over the full grid."""
    samples = np.asarray(samples, dtype=float)
    t = 2.0 * math.pi * np.arange(samples.size) / samples.size
    f = np.exp(1j * samples)
    return (complex(np.mean(f * np.exp(-1j * k * t))),
            complex(np.mean(f * np.exp(1j * k * t))))


def splitmix64_draws(seed: int, count: int) -> list:
    """The first `count` doubles of the SplitMix64 stream keyed by `seed`.

    Plain Python integers, masked to 64 bits after every step: the key folds
    the seed's 64-bit words, most significant first, by key = fmix(key ^ w)
    from 0, and draw k is (fmix(key + k gamma) >> 11) 2^-53.
    """
    mask = (1 << 64) - 1

    def fmix(z):
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ z >> 27) * 0x94D049BB133111EB & mask
        return z ^ z >> 31

    key = 0
    for shift in reversed(range(0, max(seed.bit_length(), 1), 64)):
        key = fmix(key ^ seed >> shift & mask)
    return [(fmix(key + k * 0x9E3779B97F4A7C15 & mask) >> 11) * 2.0 ** -53
            for k in range(1, count + 1)]


def direct_lift_draw(seed: int, modes: int, amplitude: float):
    """(k, a_k, phi_k), k = 1..modes, of the generated lift `seed`.

    Maps the seed's first 2 modes draws of `splitmix64_draws` in the order
    the package documents, a_k = amplitude (0.2 + 0.8 d_k)/k and then
    phi_k = 2 pi d_{modes+k}, and applies the same rescaling to
    min theta' >= 0.05.
    """
    draws = np.array(splitmix64_draws(seed, 2 * modes))
    ks = np.arange(1, modes + 1)
    amps = amplitude * (0.2 + 0.8 * draws[:modes]) / ks
    phases = 2.0 * math.pi * draws[modes:]
    deriv_bound = float(np.sum(2.0 * ks * amps))
    if deriv_bound > 0.95:
        amps = amps * (0.95 / deriv_bound)
    return ks, amps, phases


def direct_random_odd_lift(seed: int, modes: int, amplitude: float,
                           n: int) -> np.ndarray:
    """Samples of t + sum_k a_k sin(2k t + phi_k) over the full grid.

    Sums the sines of `direct_lift_draw` at every grid node rather than
    mirroring a half-period.
    """
    ks, amps, phases = direct_lift_draw(seed, modes, amplitude)
    t = 2.0 * math.pi * np.arange(n) / n
    return t + sum(a * np.sin(2.0 * k * t + ph)
                   for k, a, ph in zip(ks, amps, phases))


def direct_extremal_sequence(smoothing: float, n: int) -> np.ndarray:
    """Samples of the mollified four-point collapse from all 18 jumps.

    theta = (pi/2) sum_k (1 + erf((t - k pi/2)/smoothing))/2 - 4 pi over
    k = -8..9 on the first half-period, with `math.erf` at every point and
    every jump, then mirrored by theta(t + pi) = theta(t) + pi.
    """
    t_half = np.arange(n // 2) * (2.0 * math.pi / n)
    total = np.zeros_like(t_half)
    for k in range(-8, 10):
        x = (t_half - 0.5 * math.pi * k) / smoothing
        total += 0.5 * (1.0 + np.array([math.erf(v) for v in x]))
    theta_half = 0.5 * math.pi * total - 4.0 * math.pi
    return np.concatenate([theta_half, theta_half + math.pi])
