"""Driven transition rates through an avoided crossing.

Under a sinusoidal drive of amplitude A and frequency w, the
population-transfer rate through an avoided crossing of size delta is a
comb of Lorentzian resonances at integer multiples of w, each weighted
by the squared Bessel function J_n(A/w)**2:

    W = (delta**2 / 2) * sum_n  gamma2 * J_n(A/w)**2
                                / ((eps - n*w)**2 + gamma2**2)

with eps the detuning from the crossing and gamma2 the dephasing rate.
It is the rate of population transfer, dP_L/dt = -W (P_L - P_R), of the
Bloch equations of H = -(eps(t) sigma_z + delta sigma_x) / 2 with
eps(t) = eps + A cos(w t), hbar = 1, dephasing gamma2 on the
coherences and eps, A, w, delta and gamma2 in the same angular units
(Berns et al., Nature 455, 51 (2008); Shevchenko, Ashhab and Nori,
Phys. Rep. 492, 1 (2010)).  It holds where the coupling is weak against
the dephasing, delta |J_n(A/w)| << gamma2: there its relative gap to
the slowest Bloch decay is at most about
(delta max_n |J_n(A/w)| / gamma2)**2.
Beyond that the populations oscillate and W is the rate model's, not
the Bloch equations'.

One rule, ``_photon_range``, truncates the infinite sum, for one point
and for a map alike: keep the Bessel support |n| <= A/w + n_margin, in
ascending n, whatever the detuning.  The photons summed thus depend on
the amplitude alone.  A dropped photon has |n| > x + n_margin, with
x = A/w, and a Lorentzian factor of at most 1/gamma2**2; by Abramowitz
and Stegun 9.1.62, |J_n(x)| <= (x/2)**n / n! for n >= 0, so the
dropped part of W is at most

    (delta**2 / 2) * (2 / gamma2) * sum_{n > x + n_margin} ((x/2)**n / n!)**2,

which J_n's super-exponential decay beyond |n| = x makes negligible.
With the default n_margin = 20, every rate is within a relative 1e-7
of the rate with n_margin = 80, and P_L within 1e-10 absolute, on the
grids of the shipped configs and on second_diamond driven at
w = 0.6 GHz up to A = 14 GHz (A/w = 23); the largest gaps seen there
are 3.5e-15 and 7.8e-16, roundoff.  The gap is largest where a point
sits on the resonance of the first dropped photon, at |eps| just above
(A/w + n_margin) * w.  There, for gamma2/w >= 0.01, it stays below a
relative 1e-8 up to A/w = 25; beyond, it grows as (w/gamma2)**2, and
for A/w in [50, 60) reaches 2e-7 at gamma2/w = 0.1 and 2e-5 at
gamma2/w = 0.01.  A detuning whose square overflows gives a term of
exactly 0, its limit.

Each rule that ``lzs_rate`` (one point, the oracle of ``probe``) and
``PhotonTable`` (a map) share is written once here: ``_chain`` adds
terms one after another in order (for the GTH solve and the well sums
too), ``_photon_weights`` gives an amplitude's photons and their
squared Bessel weights, and ``_denominators`` the Lorentzian
denominators (eps - n*w)**2 + gamma2**2.  ``PhotonTable`` evaluates the
sums for many crossings, detunings and amplitudes at one drive
frequency: its denominators are built once, over the support of the
map's largest amplitude, and every point adds the photons of its own
amplitude's support in ascending n, as lzs_rate does, so every rate has
lzs_rate's bits.  A rate that is not finite (an overflowing delta**2,
a gamma2**2 that underflows to 0 on a resonance, or in a table a
detuning from a crossing that overflows) comes out as inf or nan,
without a warning, for the caller to reject.

The Bessel kernel is self-contained: an ascending power series for
x < 2, whose first term is a product of IEEE-754 operations, and
Miller's normalized downward recurrence otherwise, run in fixed chunks
of orders so that J_n(x) does not depend on how many orders are asked
for, and seeded at a pad decided in integer arithmetic.  No libm call
lies on the map path: every map bit follows from IEEE-754 basic
operations, exact scaling by powers of two and Python's correctly
rounded float formatting.

Every scalar argument is a number (``errors._number``) or a count
(``errors._count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _count, _number
from .model import DriveParams

__all__ = ["RateKernelParams", "bessel_jn", "lzs_rate"]

# bessel_jn's stated range of |n| and x, so the largest A/w + n_margin.
_BESSEL_RANGE = 1e4
# Downward recurrence is seeded this far above max(n, x); the extra
# x**(1/3) term covers the slow Airy-like decay near the turning point.
_START_PAD = 50
_RESCALE_LIMIT = 1e250
_RESCALE = 1e-250


@dataclass(frozen=True)
class RateKernelParams:
    """Truncation control for the photon sum.

    Every photon number with |n| <= A/w + n_margin is kept.  n_margin may
    not pass the Bessel kernel's range: no amplitude could use it.
    """

    n_margin: int = 20

    def __post_init__(self):
        n_margin = _count(self.n_margin, "n_margin must be a nonnegative integer", 0)
        if n_margin > _BESSEL_RANGE:
            raise ValidationError(f"n_margin exceeds the Bessel kernel's range {_BESSEL_RANGE:g}")
        object.__setattr__(self, "n_margin", n_margin)


def _miller(lo: int, hi: int, x: float, pad: int):
    """Miller's downward recurrence for J_lo(x) .. J_hi(x) up to a common
    factor, seeded pad above hi, and the normalization sum
    f_0 + 2 * sum_{k even > 0} f_k, complete when lo == 0."""
    start = hi + pad
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


def _miller_pad(x: float) -> int:
    """The seed pad of Miller's recurrence at x >= 2: 50 plus the largest
    integer p with p**3 <= 3375 x, that is floor(15 x**(1/3)), decided
    exactly from x's integer ratio by Newton's integer cube root, which
    falls to the root from above."""
    a, b = x.as_integer_ratio()
    n = 3375 * a // b  # p**3 <= 3375 x exactly when p**3 <= n, for an integer p
    p = 1 << -(-n.bit_length() // 3)  # above n's cube root
    while p**3 > n:
        p = (2 * p + n // (p * p)) // 3
    return _START_PAD + p


def _jn_array(nmax: int, x: float) -> np.ndarray:
    """J_0(x) .. J_nmax(x) for x >= 0, abs accuracy ~1e-15 per entry.

    Each J_n(x) has the same bits whatever nmax, so a photon sum at any
    n_margin weighs each of its terms exactly as bessel_jn gives it.
    Below x = 2 each order sums the ascending series
    sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!) from its first term
    (x/2)^n / n!, which is order n - 1's times (x/2)/n: the product
    ((x/2)/1) * ((x/2)/2) * ... * ((x/2)/n) of IEEE-754 operations.
    Once it underflows to 0 every higher order is 0 too, so at x = 0,
    or an x whose half underflows, the orders are exactly 1, 0, 0, ...
    Above x = 2 the orders come in fixed chunks, with pad =
    ``_miller_pad(x)``: 0 .. x + pad from one normalized recurrence,
    then pad more orders at a time, each chunk from its own recurrence
    scaled to meet the chunk below; each recurrence starts pad orders
    above its chunk's top.
    """
    if x < 2.0:
        out, first, q = np.zeros(nmax + 1), 1.0, 0.25 * x * x
        for n in range(nmax + 1):
            term = total = first
            for k in range(1, 200):
                term *= -q / (k * (n + k))
                total += term
                if abs(term) <= 1e-20 * abs(total):
                    break
            out[n] = total
            first *= 0.5 * x / (n + 1)
            if first == 0.0:
                break
        return out

    pad = _miller_pad(x)
    f, norm = _miller(0, int(x) + pad, x, pad)
    out = f / norm
    while out.size <= nmax and out[-1] != 0.0:
        f, _ = _miller(out.size - 1, out.size - 1 + pad, x, pad)
        out = np.concatenate([out, f[1:] * (out[-1] / f[0])])
    # Past an underflow every chunk would be scaled by 0.0.
    return np.concatenate([out, np.zeros(max(0, nmax + 1 - out.size))])[: nmax + 1]


def bessel_jn(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer-valued n.

    Accurate to better than 1e-12 absolute for |n|, |x| <= 1e4, and a
    ValidationError beyond.  Negative orders and arguments follow from
    the parity relations J_{-n}(x) = (-1)^n J_n(x) = J_n(-x).
    """
    n = _number(n, "bessel_jn requires finite arguments")
    x = _number(x, "bessel_jn requires finite arguments")
    if n != int(n):
        raise ValidationError("bessel_jn requires an integer order n")
    if not max(abs(n), abs(x)) <= _BESSEL_RANGE:
        raise ValidationError(f"bessel_jn requires |n|, |x| <= {_BESSEL_RANGE:g}")
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


def _photon_range(half: float) -> np.ndarray:
    """The photon numbers summed, ascending: the Bessel support
    |n| <= half, one run of consecutive integers.  half = A/w + n_margin
    must lie within bessel_jn's range."""
    if not half <= _BESSEL_RANGE:
        raise ValidationError(
            f"A/w + n_margin = {half!r} exceeds the Bessel kernel's range {_BESSEL_RANGE:g}"
        )
    top = math.floor(half)
    return np.arange(-top, top + 1)


def _photon_weights(x: float, n_margin: int):
    """The photons ns summed at A/w = x (``_photon_range``) and their
    squared Bessel weights J_|n|(x)**2."""
    ns = _photon_range(x + n_margin)
    jn = _jn_array(int(ns[-1]), x)
    return ns, jn[np.abs(ns)] ** 2


def _denominators(eps_local, ns, w: float, gamma2: float) -> np.ndarray:
    """Lorentzian denominators (eps_local - n*w)**2 + gamma2**2, indexed
    [photon, *eps_local's shape].  A square that overflows gives inf, so
    its term is exactly 0, its limit."""
    eps_local = np.asarray(eps_local, dtype=float)
    with np.errstate(over="ignore"):
        table = eps_local - (ns * w).reshape(ns.shape + (1,) * eps_local.ndim)
        table *= table
    table += gamma2 * gamma2
    return table


def _chain(terms: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... added in that order, elementwise over
    the remaining axes.

    Not np.sum: over a contiguous axis numpy adds eight or more terms
    through unrolled partial sums, so a point's bits would depend on how
    many points share its array.  np.add.accumulate returns every
    prefix sum, so it cannot regroup the terms.
    """
    if len(terms) == 0:
        return np.zeros(terms.shape[1:])
    return np.add.accumulate(terms)[-1]


def lzs_rate(
    delta: float,
    eps_local: float,
    drive: DriveParams,
    kernel: RateKernelParams = RateKernelParams(),
) -> float:
    """Transition rate W (GHz) through one avoided crossing.

    Sums the photons |n| <= A/w + n_margin in ascending n, 2 *
    floor(A/w + n_margin) + 1 terms at any detuning.  A rate that is not
    finite is returned as inf or nan, for the caller to reject.

    Parameters
    ----------
    delta:
        Avoided-crossing size (GHz), >= 0.  W scales exactly as delta**2.
    eps_local:
        Detuning (GHz) from this crossing.
    drive, kernel:
        Drive parameters and photon-sum truncation controls.
    """
    delta = _number(delta, "delta must be >= 0 and finite", at_least=0)
    eps_local = _number(eps_local, "eps_local must be finite")
    if delta == 0.0:
        return 0.0

    w = drive.frequency
    gamma2 = drive.dephasing
    ns, weights = _photon_weights(drive.amplitude / w, kernel.n_margin)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights / _denominators(eps_local, ns, w, gamma2)
    total = gamma2 * float(_chain(terms))
    # delta enters only as a final power-of-two-friendly scale so that
    # doubling delta quadruples W exactly.
    return 0.5 * delta * delta * total


class PhotonTable:
    """Rates W[c, k, m] (GHz) through crossings of size deltas[c] at
    positions[c], at the global detunings eps_values[m], for drive
    amplitudes amps[k] up to drive.amplitude at the drive's frequency and
    dephasing.

    The Lorentzian denominators (``_denominators``) are tabulated once,
    photon by photon, over the support of the largest amplitude, which
    holds that of every smaller one; ``rates`` divides each amplitude's
    squared Bessel weights (``_photon_weights``) by the table and adds
    the terms of exactly the photons of that amplitude's support, in
    ascending n in ``_chain``'s order, so W has lzs_rate's bits at every
    point.  A detuning from a crossing that overflows is held as nan, so
    that crossing's rates there are nan and the point fails the
    acceptance check, as lzs_rate rejects that detuning for probe; the
    table itself rejects no detuning.
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
        with np.errstate(over="ignore"):
            self.eps_local = np.asarray(eps_values, dtype=float)[None, :] - positions[:, None]
        self.eps_local[~np.isfinite(self.eps_local)] = np.nan
        self.drive = drive
        self.kernel = kernel
        self.ns = _photon_range(drive.amplitude / drive.frequency + kernel.n_margin)
        # denominators[i, c, m]
        self.denominators = _denominators(
            self.eps_local, self.ns, drive.frequency, drive.dephasing
        )

    def rates(self, amps) -> np.ndarray:
        """W[c, k, m] at drive amplitudes amps[k], floats each in
        [0, drive.amplitude]."""
        n_c, n_m = self.eps_local.shape
        w, gamma2 = self.drive.frequency, self.drive.dephasing
        # weights[i, k]: amps[k]'s squared Bessel weight of photon ns[i], held
        # where ns[i] lies in amps[k]'s support, the only photons it sums.
        weights = np.zeros((self.ns.size, len(amps)))
        held = np.zeros(weights.shape, dtype=bool)
        for k, amp in enumerate(amps):
            ns, weight = _photon_weights(amp / w, self.kernel.n_margin)
            support = slice(ns[0] - self.ns[0], ns[-1] - self.ns[0] + 1)  # one run
            weights[support, k] = weight
            held[support, k] = True
        # _chain's sum, photon by photon in place: 0.0 + t0 is t0 exactly.
        # A where= mask, even where=True, slows numpy's loops, so only a
        # photon that some amplitude does not hold gets one.
        total = np.zeros((n_c, len(amps), n_m))
        terms = np.empty_like(total)
        full = held.all(axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i in np.flatnonzero(held.any(axis=1)):
                some = {} if full[i] else {"where": held[i, :, None]}
                np.divide(weights[i, :, None], self.denominators[i, :, None], out=terms, **some)
                np.add(total, terms, out=total, **some)
            return (0.5 * self.deltas * self.deltas)[:, None, None] * (gamma2 * total)
