"""Driven transition rates through an avoided crossing.

Under a sinusoidal drive of amplitude A and frequency w, the
population-transfer rate through an avoided crossing of size delta is a
comb of Lorentzian resonances at integer multiples of w, each weighted
by the squared Bessel function J_n(A/w)**2:

    W = (delta**2 / 2) * sum_n  gamma2 * J_n(A/w)**2
                                / ((eps - n*w)**2 + gamma2**2)

with eps the detuning from the crossing and gamma2 the dephasing rate.
One rule, ``_photon_range``, truncates the infinite sum, for one point
and for a row alike: keep the integers within A/w + n_margin of the
interval from 0 to eps/w (to the extreme eps/w of a row).  That covers
the Bessel support |n| <= A/w + n_margin, beyond which the summand is
negligible because J_n(x) decays super-exponentially for |n| > x, and
each point's resonant window |n - eps/w| <= A/w + n_margin.  With the
default n_margin = 20, every rate is within a relative 1e-7 of the rate
with n_margin = 80, and P_L within 1e-10 absolute, on the grids of the
shipped configs and on second_diamond driven at w = 0.6 GHz up to
A = 14 GHz (A/w = 23); the largest gaps seen there are 3.5e-15 and
7.8e-16, roundoff.  The range, and so the cost, grows with |eps|/w away
from the crossing: every n between the Bessel support and the resonance
is kept, although J_n is negligible on nearly all of them.

``row_rates`` evaluates the same sum for many crossings and detunings at
one drive, over the one window that serves the whole set.

The Bessel kernel is self-contained: an ascending power series for
x < 2 and Miller's normalized downward recurrence otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import DriveParams

__all__ = ["RateKernelParams", "bessel_jn", "lzs_rate"]

# Downward recurrence is seeded this far above max(n, x); the extra
# x**(1/3) term covers the slow Airy-like decay near the turning point.
_START_PAD = 50
_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250
# Most elements in one (crossings x detunings x photons) temporary of
# row_rates (1 MB of float64); longer rows are split into blocks.
_BLOCK_TERMS = 1 << 17


@dataclass(frozen=True)
class RateKernelParams:
    """Truncation controls for the photon sum.

    n_margin widens both the resonant window and the Bessel-support
    window.  lorentz_cutoff, when set, additionally drops photon numbers
    whose resonance lies further than lorentz_cutoff * gamma2 from the
    working detuning; by default every windowed n is kept.
    """

    n_margin: int = 20
    lorentz_cutoff: float | None = None

    def __post_init__(self):
        if not isinstance(self.n_margin, int) or self.n_margin < 0:
            raise ValidationError("n_margin must be a nonnegative integer")
        if self.lorentz_cutoff is not None:
            if not (math.isfinite(self.lorentz_cutoff) and self.lorentz_cutoff > 0):
                raise ValidationError("lorentz_cutoff must be positive when set")


def _jn_series(n: int, x: float) -> float:
    # Ascending series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!), n >= 0.
    # First term via lgamma so huge n underflows cleanly to 0.
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    log_t0 = n * math.log(x / 2.0) - math.lgamma(n + 1)
    if log_t0 < -745.0:  # below smallest subnormal
        return 0.0
    term = math.exp(log_t0)
    total = term
    q = 0.25 * x * x
    for k in range(1, 200):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) <= 1e-20 * abs(total):
            break
    return total


def _jn_array(nmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_nmax(x) for x >= 0, abs accuracy ~1e-15 per entry."""
    if 0.5 * x == 0.0:  # includes subnormals whose half underflows
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out
    if x < 2.0:
        return np.array([_jn_series(n, x) for n in range(nmax + 1)])

    start = max(nmax, int(x)) + _START_PAD + int(15.0 * x ** (1.0 / 3.0))
    out = np.empty(nmax + 1)
    fp = 0.0  # f_{k+1}
    fc = 1.0  # f_k
    norm = 0.0  # accumulates f_0 + 2*sum_{k even>0} f_k
    two_over_x = 2.0 / x
    for k in range(start, -1, -1):
        if k <= nmax:
            out[k] = fc
        if k % 2 == 0:
            norm += fc if k == 0 else 2.0 * fc
        fm = k * two_over_x * fc - fp
        fp = fc
        fc = fm
        if abs(fc) > _RESCALE_LIMIT:
            fc *= _RESCALE
            fp *= _RESCALE
            norm *= _RESCALE
            if k <= nmax:
                out[k:] *= _RESCALE
    out /= norm
    return out


def bessel_jn(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n.

    Accurate to better than 1e-12 absolute for |n| <= 1e4, |x| <= 1e4.
    Negative orders and arguments are handled via the parity relations
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    if not (math.isfinite(n) and math.isfinite(x)):
        raise ValidationError("bessel_jn requires finite arguments")
    n = int(n)
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    return sign * float(_jn_array(n, x)[n])


def _photon_range(c_lo: float, c_hi: float, half: float) -> np.ndarray:
    """The integers within half of [min(c_lo, 0), max(c_hi, 0)].

    c_lo and c_hi are the extreme resonance centres eps/w of the points
    summed; the range is contiguous and covers each centre's resonant
    window and the Bessel support |n| <= half.
    """
    return np.arange(
        math.ceil(min(c_lo, 0.0) - half), math.floor(max(c_hi, 0.0) + half) + 1
    )


def lzs_rate(
    delta: float,
    eps_local: float,
    drive: DriveParams,
    kernel: RateKernelParams = RateKernelParams(),
) -> float:
    """Transition rate W (GHz) through one avoided crossing.

    Parameters
    ----------
    delta:
        Avoided-crossing size (GHz), >= 0.  W scales exactly as delta**2.
    eps_local:
        Detuning (GHz) from this crossing.
    drive, kernel:
        Drive parameters and photon-sum truncation controls.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValidationError("delta must be >= 0 and finite")
    if not math.isfinite(eps_local):
        raise ValidationError("eps_local must be finite")
    if delta == 0.0:
        return 0.0

    w = drive.frequency
    gamma2 = drive.dephasing
    x = drive.amplitude / w
    center = eps_local / w
    ns = _photon_range(center, center, x + kernel.n_margin)
    if kernel.lorentz_cutoff is not None:
        ns = ns[np.abs(eps_local - ns * w) <= kernel.lorentz_cutoff * gamma2]
        if ns.size == 0:
            return 0.0
    jn = _jn_array(int(np.abs(ns).max()), x)
    jn_sq = jn[np.abs(ns)] ** 2
    detune = eps_local - ns * w
    total = gamma2 * float(np.sum(jn_sq / (detune * detune + gamma2 * gamma2)))
    # delta enters only as a final power-of-two-friendly scale so that
    # doubling delta quadruples W exactly.
    return 0.5 * delta * delta * total


def row_rates(
    deltas,
    positions,
    eps_values,
    drive: DriveParams,
    kernel: RateKernelParams = RateKernelParams(),
) -> np.ndarray:
    """Rates W[c, m] (GHz) through crossings of size deltas[c] at
    positions[c], at the global detunings eps_values[m], for one drive.

    Each entry is the sum ``lzs_rate(deltas[c], eps_values[m] -
    positions[c], drive, kernel)`` takes, by the same window rule, but
    one window serves every crossing and detuning: ``_photon_range``
    over the extreme local detunings of the set.  It contains each
    point's own window and adds only terms below the truncation bound,
    so the result differs from lzs_rate by roundoff; for a single
    point, without lorentz_cutoff, it has lzs_rate's bits.
    The photon axis is summed by np.sum over the contiguous last axis,
    never by BLAS, so the bits depend neither on the BLAS build nor on
    how the detunings are split into blocks.
    """
    deltas = np.asarray(deltas, dtype=float)
    positions = np.asarray(positions, dtype=float)
    eps_local = np.asarray(eps_values, dtype=float)[None, :] - positions[:, None]
    if eps_local.size == 0:
        return np.zeros(eps_local.shape)

    w = drive.frequency
    gamma2 = drive.dephasing
    x = drive.amplitude / w
    centers = eps_local / w
    ns = _photon_range(centers.min(), centers.max(), x + kernel.n_margin)
    jn_sq = _jn_array(int(max(-ns[0], ns[-1])), x)[np.abs(ns)] ** 2
    nw = ns * w

    total = np.empty(eps_local.shape)
    block = max(1, _BLOCK_TERMS // (ns.size * len(deltas)))
    for start in range(0, eps_local.shape[1], block):
        detune = eps_local[:, start : start + block, None] - nw
        terms = jn_sq / (detune * detune + gamma2 * gamma2)
        if kernel.lorentz_cutoff is not None:
            terms[np.abs(detune) > kernel.lorentz_cutoff * gamma2] = 0.0
        total[:, start : start + block] = gamma2 * np.sum(terms, axis=-1)
    return (0.5 * deltas * deltas)[:, None] * total
