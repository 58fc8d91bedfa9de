"""Driven transition rates through an avoided crossing.

Under a sinusoidal drive of amplitude A and frequency w, the
population-transfer rate through an avoided crossing of size delta is a
comb of Lorentzian resonances at integer multiples of w, each weighted
by the squared Bessel function J_n(A/w)**2:

    W = (delta**2 / 2) * sum_n  gamma2 * J_n(A/w)**2
                                / ((eps - n*w)**2 + gamma2**2)

with eps the detuning from the crossing and gamma2 the dephasing rate.
One rule, ``_photon_runs``, truncates the infinite sum, for one point
and for a map row alike: keep the Bessel support |n| <= A/w + n_margin,
beyond which the summand is negligible because J_n(x) decays
super-exponentially for |n| > x, and the resonant window of the points
summed, the integers within A/w + n_margin of [eps/w, eps/w] (of the
extreme eps/w of a row), in ascending n.  A point far from its crossing
thus sums two runs of photon numbers, not the stretch between them,
whose J_n**2 is negligible.  With the default n_margin = 20, every rate
is within a relative 1e-7 of the rate with n_margin = 80, and P_L within
1e-10 absolute, on the grids of the shipped configs and on
second_diamond driven at w = 0.6 GHz up to A = 14 GHz (A/w = 23); the
largest gaps seen there are 3.5e-15 and 7.8e-16, roundoff.

Every sum adds its terms one after another in ascending n.
``PhotonTable`` evaluates the same sums for many crossings, detunings
and amplitudes at one drive frequency: its Lorentzian denominators are
built once, over the one window that serves a whole map, and each point
adds the terms of its own window in that order, so every rate has
lzs_rate's bits.

The Bessel kernel is self-contained: an ascending power series for
x < 2 and Miller's normalized downward recurrence otherwise, run in
fixed chunks of orders so that J_n(x) does not depend on how many
orders are asked for.
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
        n = self.n_margin
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValidationError("n_margin must be a nonnegative integer")
        cutoff = self.lorentz_cutoff
        if cutoff is not None:
            if not isinstance(cutoff, (int, float)) or isinstance(cutoff, bool):
                raise ValidationError("lorentz_cutoff must be a number when set")
            if not (math.isfinite(cutoff) and cutoff > 0):
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


def _miller(lo: int, hi: int, x: float):
    """Miller's downward recurrence for J_lo(x) .. J_hi(x) up to a common
    factor, seeded a pad above hi, and the normalization sum
    f_0 + 2 * sum_{k even > 0} f_k, complete when lo == 0."""
    start = hi + _START_PAD + int(15.0 * x ** (1.0 / 3.0))
    out = np.empty(hi - lo + 1)
    fp = 0.0  # f_{k+1}
    fc = 1.0  # f_k
    norm = 0.0
    two_over_x = 2.0 / x
    for k in range(start, lo - 1, -1):
        if k <= hi:
            out[k - lo] = fc
        if k % 2 == 0:
            norm += fc if k == 0 else 2.0 * fc
        fm = k * two_over_x * fc - fp
        fp = fc
        fc = fm
        if abs(fc) > _RESCALE_LIMIT:
            fc *= _RESCALE
            fp *= _RESCALE
            norm *= _RESCALE
            if k <= hi:
                out[k - lo :] *= _RESCALE
    return out, norm


def _jn_array(nmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_nmax(x) for x >= 0, abs accuracy ~1e-15 per entry.

    Each J_n(x) has the same bits whatever nmax, so a photon sum over a
    wider window weighs each of its terms exactly as a narrower one does.
    Above x = 2 the orders come in fixed chunks: 0 .. x + pad from one
    normalized recurrence, then pad more orders at a time, each chunk
    from its own recurrence scaled to meet the chunk below.
    """
    if 0.5 * x == 0.0:  # includes subnormals whose half underflows
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out
    if x < 2.0:
        return np.array([_jn_series(n, x) for n in range(nmax + 1)])

    pad = _START_PAD + int(15.0 * x ** (1.0 / 3.0))
    f, norm = _miller(0, int(x) + pad, x)
    out = f / norm
    while out.size <= nmax and out[-1] != 0.0:
        f, _ = _miller(out.size - 1, out.size - 1 + pad, x)
        out = np.concatenate([out, f[1:] * (out[-1] / f[0])])
    # Past an underflow every chunk would be scaled by 0.0.
    return np.concatenate([out, np.zeros(max(0, nmax + 1 - out.size))])[: nmax + 1]


def bessel_jn(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n.

    Accurate to better than 1e-12 absolute for |n| <= 1e4, |x| <= 1e4.
    Negative orders and arguments are handled via the parity relations
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x).
    """
    if not (math.isfinite(n) and math.isfinite(x)):
        raise ValidationError("bessel_jn requires finite arguments")
    if n != int(n):
        raise ValidationError("bessel_jn requires an integer order n")
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


def _photon_runs(c_lo: float, c_hi: float, half: float) -> tuple[tuple[int, int], ...]:
    """The photon numbers summed, as ascending runs [start, stop) of
    consecutive integers.

    c_lo and c_hi are the extreme resonance centres eps/w of the points
    summed.  The runs cover the Bessel support |n| <= half and the
    resonant window [c_lo - half, c_hi + half], and nothing else: one
    run where the two meet, two where a gap lies between them.
    """
    support = (math.ceil(-half), math.floor(half) + 1)
    window = (math.ceil(c_lo - half), math.floor(c_hi + half) + 1)
    if window[0] > support[1]:
        return support, window
    if window[1] < support[0]:
        return window, support
    return ((min(support[0], window[0]), max(support[1], window[1])),)


def _photon_range(c_lo: float, c_hi: float, half: float) -> np.ndarray:
    """The photon numbers of ``_photon_runs``, ascending, as one array."""
    return np.concatenate([np.arange(*run) for run in _photon_runs(c_lo, c_hi, half)])


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
    # Added one term after another in ascending n (accumulate, unlike
    # np.sum, never pairs them up), as PhotonTable adds them.
    terms = jn_sq / (detune * detune + gamma2 * gamma2)
    total = gamma2 * float(np.add.accumulate(terms)[-1])
    # delta enters only as a final power-of-two-friendly scale so that
    # doubling delta quadruples W exactly.
    return 0.5 * delta * delta * total


class PhotonTable:
    """Rates W[c, k, m] (GHz) through crossings of size deltas[c] at
    positions[c], at the global detunings eps_values[m], for drive
    amplitudes amps[k] up to drive.amplitude at the drive's frequency and
    dephasing.

    The Lorentzian denominators are tabulated once, photon by photon,
    over the photon range of the largest amplitude, which holds that of
    every smaller one; ``rates`` divides each amplitude's squared Bessel
    weights by the table.  Under lorentz_cutoff a cut term's denominator
    is inf, so the term is exactly 0.  Each point adds the terms of its
    own window, as lzs_rate sums it, in ascending n from 0.0, and skips
    every other photon of the table, so W has lzs_rate's bits at every
    point: the elementwise ops are lzs_rate's and the Bessel weights do
    not depend on the window.
    """

    def __init__(
        self,
        deltas,
        positions,
        eps_values,
        drive: DriveParams,
        kernel: RateKernelParams = RateKernelParams(),
    ):
        self.deltas = np.asarray(deltas, dtype=float)
        positions = np.asarray(positions, dtype=float)
        self.eps_local = np.asarray(eps_values, dtype=float)[None, :] - positions[:, None]
        self.drive = drive
        self.kernel = kernel
        w, gamma2 = drive.frequency, drive.dephasing
        self.centers = self.eps_local / w
        # Without a crossing the table is empty, whatever its range.
        if self.centers.size:
            self.c_lo, self.c_hi = self.centers.min(), self.centers.max()
        else:
            self.c_lo = self.c_hi = 0.0
        self.ns = _photon_range(self.c_lo, self.c_hi, drive.amplitude / w + kernel.n_margin)
        # denominators[i, c, m], built in place with the elementwise ops
        # lzs_rate uses.
        table = self.eps_local[None] - (self.ns * w)[:, None, None]
        if kernel.lorentz_cutoff is not None:
            cut = np.abs(table) > kernel.lorentz_cutoff * gamma2
        table *= table
        table += gamma2 * gamma2
        if kernel.lorentz_cutoff is not None:
            table[cut] = np.inf
        self.denominators = table

    def rates(self, amps) -> np.ndarray:
        """W[c, k, m] at drive amplitudes amps[k], each in
        [0, drive.amplitude]."""
        amps = [float(a) for a in amps]
        for amp in amps:
            if not 0.0 <= amp <= self.drive.amplitude:
                raise ValidationError(
                    f"amplitude {amp!r} outside the table's range [0, {self.drive.amplitude!r}]"
                )
        n_c, n_m = self.eps_local.shape
        total = np.zeros((n_c, len(amps), n_m))
        if n_c == 0 or not amps:
            return total
        w, gamma2 = self.drive.frequency, self.drive.dephasing
        halves = np.array([amp / w + self.kernel.n_margin for amp in amps])
        # weights[i, k]: amps[k]'s squared Bessel weight of photon ns[i], and
        # 0 outside that amplitude's range, where its terms then vanish.
        weights = np.zeros((self.ns.size, len(amps)))
        for k, (amp, half) in enumerate(zip(amps, halves)):
            ns = _photon_range(self.c_lo, self.c_hi, half)
            jn = _jn_array(int(max(-ns[0], ns[-1])), amp / w)
            weights[np.searchsorted(self.ns, ns), k] = jn[np.abs(ns)] ** 2
        inner = np.abs(self.ns) <= halves.min()  # in every point's window
        # Each point's own resonant window, as _photon_runs bounds it.
        centers = self.centers[:, None, :]
        lo, hi = centers - halves[:, None], centers + halves[:, None]
        terms = np.empty_like(total)
        for i, n in enumerate(self.ns.tolist()):
            if not weights[i].any():
                continue
            np.divide(weights[i, :, None], self.denominators[i, :, None], out=terms)
            if inner[i]:
                total += terms
            else:
                own = (lo <= n) & (n <= hi)
                own |= (abs(n) <= halves)[:, None]
                np.add(total, terms, out=total, where=own)
        return (0.5 * self.deltas * self.deltas)[:, None, None] * (gamma2 * total)
