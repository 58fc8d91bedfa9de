"""Bessel kernel and driven transition rate.

Reference values were computed independently with mpmath at 60 decimal
digits (3000 digits for the two order-10^4 entries) and frozen here, so
the kernel is never compared against itself.
"""

import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from lzs_sim import (
    DriveParams,
    RateKernelParams,
    ValidationError,
    bessel_jn,
    build_rate_matrix,
    crossing_position,
    lzs_rate,
    stationary_solve,
)
from lzs_sim import rates as rates_mod
from lzs_sim.cli import parse_config
from lzs_sim.rates import PhotonTable, _jn_array, _photon_range

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))
# (config, text replacements) for the truncation bound: every shipped
# config as is, and second_diamond driven slowly enough that A/w reaches
# 23, beyond the default n_margin.
TRUNCATION_INPUTS = [pytest.param(path, {}, id=path.stem) for path in CONFIGS] + [
    pytest.param(
        CONFIG_DIR / "second_diamond.cfg",
        {"frequency = 1.0": "frequency = 0.6", "amp = 0 12 201": "amp = 0 14 201"},
        id="second_diamond_slow_drive",
    )
]

# (n, x, J_n(x)) from mpmath.besselj, 60 significant digits.
MPMATH_REFERENCE = [
    (0, 0.5, 0.9384698072408129),
    (1, 0.5, 0.2422684576748739),
    (5, 0.5, 8.053627241357474e-06),
    (0, 1.0, 0.7651976865579666),
    (1, 1.0, 0.4400505857449335),
    (2, 1.5, 0.23208767214421472),
    (0, 1.9999, 0.22394845194430277),
    (7, 1.9999, 0.00017488507076195706),
    (0, 2.0, 0.22389077914123567),
    (3, 2.0, 0.12894324947440206),
    (10, 1.9, 1.5195615133800903e-07),
    (0, 2.4048, 1.326828430108156e-05),
    (0, 5.52, -2.657836947993624e-05),
    (1, 3.0, 0.3390589585259365),
    (2, 3.0, 0.4860912605858911),
    (5, 10.0, -0.23406152818679363),
    (20, 10.0, 1.1513369247813398e-05),
    (40, 10.0, 6.030895312346907e-21),
    (0, 100.0, 0.019985850304223122),
    (100, 100.0, 0.09636667329586156),
    (250, 200.0, 2.5017890997210433e-12),
    (0, 1000.0, 0.024786686152420176),
    (1000, 1000.0, 0.04473067294796404),
    (30, 500.0, 0.0294485569064779),
    (540, 500.0, 6.748963967175106e-07),
    # order ~ argument ~ 1e4, the corner of the accuracy contract
    (9999, 10000.0, 0.021646899943972425),
    (10000, 10000.0, 0.020762165277200785),
]


def series_jn(n: int, x: float, terms: int = 400) -> float:
    """Independent ascending-series oracle: sum over k of
    (-1)^k (x/2)^(n+2k) / (k! (n+k)!), evaluated in logs per term."""
    total = 0.0
    for k in range(terms):
        log_mag = (n + 2 * k) * math.log(x / 2.0) - math.lgamma(k + 1) - math.lgamma(
            n + k + 1
        )
        if log_mag < -745.0:
            term = 0.0
        else:
            term = (-1.0) ** k * math.exp(log_mag)
        total += term
        if k > x and abs(term) < 1e-25:
            break
    return total


class TestBesselJn:
    def test_at_zero_argument(self):
        # 5e-324, the smallest subnormal, has a half that underflows to 0,
        # so its series is x = 0's.
        for x in (0.0, 5e-324, -5e-324):
            assert bessel_jn(0, x) == 1.0
            for n in (1, 2, 17, -3):
                assert bessel_jn(n, x) == 0.0
        assert _jn_array(5, 5e-324).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_series_within_4e_15_relative(self):
        # The ascending series below x = 2, against 40-digit mpmath, at
        # every order up to 60 whose J_n is not deep in the subnormals.
        rng = np.random.default_rng(20260424)
        xs = np.exp(rng.uniform(math.log(0.001), math.log(2.0), 100)).tolist() + [1.999]
        worst = 0.0
        with mpmath.workdps(40):
            for x in xs:
                got = _jn_array(60, x)
                for n in range(61):
                    ref = mpmath.besselj(n, mpmath.mpf(x))
                    if abs(ref) > 1e-290:
                        worst = max(worst, float(abs((got[n] - ref) / ref)))
        assert worst <= 4e-15

    @pytest.mark.parametrize("n,x,ref", MPMATH_REFERENCE)
    def test_frozen_reference_values(self, n, x, ref):
        assert bessel_jn(n, x) == pytest.approx(ref, abs=1e-12)

    def test_first_zero_rounded_to_two_decimals(self):
        # J_0's first zero is 2.4048...; at the two-decimal rounding 2.40
        # the function is small but not below 2e-3 (|J_0(2.40)| = 2.5e-3).
        assert abs(bessel_jn(0, 2.40)) < 3e-3

    def test_zeros_bracket_sign_changes(self):
        for z in (2.40, 5.52):
            assert bessel_jn(0, z - 0.01) * bessel_jn(0, z + 0.01) < 0

    def test_against_ascending_series(self):
        # the double-precision series oracle loses accuracy to alternating
        # cancellation beyond x ~ 4, so stop there
        for n in range(0, 12):
            for x in (0.1, 0.7, 1.0, 1.9, 2.5, 4.0):
                assert bessel_jn(n, x) == pytest.approx(series_jn(n, x), abs=5e-14)

    def test_against_scipy_grid(self):
        ns = np.arange(0, 31)
        xs = np.linspace(0.0, 30.0, 61)
        for n in ns:
            for x in xs:
                assert bessel_jn(int(n), float(x)) == pytest.approx(
                    float(special.jv(n, x)), abs=5e-14
                )

    def test_parity_in_order(self):
        for n in (1, 2, 5, 8):
            for x in (0.3, 3.0, 12.0):
                assert bessel_jn(-n, x) == (-1) ** n * bessel_jn(n, x)

    def test_parity_in_argument(self):
        for n in (0, 1, 4, 7):
            for x in (0.5, 2.5, 9.0):
                assert bessel_jn(n, -x) == (-1) ** n * bessel_jn(n, x)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            bessel_jn(0, math.nan)
        with pytest.raises(ValidationError):
            bessel_jn(0, math.inf)
        with pytest.raises(ValidationError):
            bessel_jn(2.5, 1.0)
        assert bessel_jn(2.0, 1.0) == bessel_jn(np.int64(2), 1.0) == bessel_jn(2, 1.0)

    def test_range_is_enforced(self, monkeypatch):
        # |n| and |x| up to 1e4 are accepted; just past either bound the
        # call is rejected before the kernel allocates anything (x = 1e9
        # would ask _miller for about 8 GB).
        assert bessel_jn(0, 1e4) == pytest.approx(-0.0070961603533888015, abs=1e-12)
        assert bessel_jn(-10_000, -1e4) == bessel_jn(10_000, 1e4)
        assert bessel_jn(10_000, 1.0) == 0.0

        def no_kernel(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(rates_mod, "_jn_array", no_kernel)
        past = math.nextafter(1e4, math.inf)
        for n, x in ((0, past), (0, -past), (10_001, 1.0), (-10_001, 1.0), (0, 1e9)):
            with pytest.raises(ValidationError, match=r"\|n\|, \|x\| <= 10000"):
                bessel_jn(n, x)

    def test_normalization_identity(self):
        # J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1; the unsquared tail decays
        # slowly past the turning point, hence the wide order margin
        for x in (0.5, 5.0, 50.0, 500.0):
            nmax = int(x) + 100
            total = bessel_jn(0, x) + 2.0 * math.fsum(
                bessel_jn(2 * k, x) for k in range(1, nmax // 2 + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        n=st.integers(0, 60),
        x=st.floats(0.0, 60.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_magnitude_bound(self, n, x):
        assert abs(bessel_jn(n, x)) <= 1.0 + 1e-14

    @given(x=st.floats(0.01, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_decay_beyond_support(self, x):
        # orders far above the argument are negligible
        assert abs(bessel_jn(int(x) + 40, x)) < 1e-20

    # Both branches of _jn_array: the series below x = 2, Miller's
    # recurrence from there on, up to A/w = 60.
    @pytest.mark.parametrize(
        "x", [1e-3, 0.05, 0.7, 1.5, 1.999, 2.0, 2.4048, 5.52, 13.7, 30.0, 40.0, 59.9, 60.0]
    )
    def test_row_against_mpmath(self, x):
        # Every order n <= 200: abs 1e-15, as the docstring states, and a
        # relative 1e-12 on the decaying tail n > x + 2, whose squares the
        # far resonances weigh.
        got = _jn_array(200, x)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(n, x)) for n in range(201)])
        assert np.max(np.abs(got - ref)) <= 1e-15
        tail = (np.arange(201) > x + 2) & (np.abs(ref) > 1e-290)
        assert np.all(np.abs(got - ref)[tail] <= 1e-12 * np.abs(ref[tail]))

    @pytest.mark.parametrize("x", [0.7, 2.0, 13.7, 60.0])
    def test_orders_do_not_depend_on_nmax(self, x):
        # A wider photon range (a larger n_margin) weighs each order it
        # shares with a narrower one by the same bits.
        full = _jn_array(400, x)
        for nmax in (0, 1, int(x), int(x) + 80, 250):
            assert np.array_equal(_jn_array(nmax, x), full[: nmax + 1])


class TestPhotonWindow:
    """The photons summed: the Bessel support |n| <= A/w + n_margin, in
    ascending n, whatever the detuning."""

    def test_resonance_inside_support_sums_the_support(self):
        # Integer or not, the half-width keeps the integers |n| <= half.
        ns = _photon_range(23.0)
        assert np.array_equal(ns, np.arange(-23, 24))
        assert np.array_equal(_photon_range(23.9), ns)

    def test_far_resonance_keeps_bessel_support(self, monkeypatch):
        # 100 and 10,000 photons from the crossing, the same 45 photon
        # numbers as at the crossing, and the rate of a far wider truncation.
        ranges = []

        def spy(*args):
            ranges.append(_photon_range(*args))
            return ranges[-1]

        monkeypatch.setattr(rates_mod, "_photon_range", spy)
        drive = DriveParams(amplitude=2.0, frequency=1.0, dephasing=0.1)
        wide = RateKernelParams(n_margin=80)
        for eps in (0.0, 100.0, -1e4):
            rate = lzs_rate(0.1, eps, drive)
            assert np.array_equal(ranges[-1], np.arange(-22, 23))
            assert rate == pytest.approx(lzs_rate(0.1, eps, drive, wide), rel=1e-12)

    def test_far_point_sums_the_support(self, monkeypatch):
        # 300 GHz from the crossing at w = 0.3 GHz: the 53 photon numbers of
        # the Bessel support, against 1,053 up to the resonance; the rate
        # is that of a far wider truncation.
        sizes = []

        def spy(*args):
            ns = _photon_range(*args)
            sizes.append(ns.size)
            return ns

        monkeypatch.setattr(rates_mod, "_photon_range", spy)
        drive = DriveParams(2.0, 0.3, 0.1)
        rate = lzs_rate(0.1, 300.0, drive)
        assert sizes == [53]
        wide = lzs_rate(0.1, 300.0, drive, RateKernelParams(n_margin=80))
        assert rate == pytest.approx(wide, rel=1e-12)

    def test_zero_margin_keeps_n0(self):
        assert np.array_equal(_photon_range(0.5), [0])
        # At A = 0 the n = 0 Lorentzian is the whole rate, however far.
        drive = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        expected = 0.1**2 * 0.1 / (2.0 * (50.0**2 + 0.1**2))
        got = lzs_rate(0.1, 50.0, drive, RateKernelParams(n_margin=0))
        assert got == pytest.approx(expected, rel=1e-12)

    @given(half=st.floats(0.0, 200.0))
    @settings(max_examples=200, deadline=None)
    def test_range_is_the_support_and_nothing_else(self, half):
        ns = _photon_range(half)
        assert np.all(np.diff(ns) == 1)
        assert ns.size == 2 * math.floor(half) + 1
        assert set(ns.tolist()) == set(range(math.ceil(-half), math.floor(half) + 1))


DRIVE = DriveParams(amplitude=2.0, frequency=1.0, dephasing=0.05)


class TestLzsRate:
    def test_zero_delta(self):
        assert lzs_rate(0.0, 0.3, DRIVE) == 0.0

    def test_static_on_resonance(self):
        # A = 0, eps = 0: only the n = 0 Lorentzian survives, W = delta^2/(2 Gamma2)
        d = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        assert lzs_rate(0.01, 0.0, d) == pytest.approx(5.0e-4, rel=1e-12)

    def test_static_lorentzian_any_detuning(self):
        d = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        for eps in (-30.0, -3.0, -0.2, 0.0, 0.7, 4.0, 25.0):
            expected = 0.01**2 * 0.1 / (2.0 * (eps**2 + 0.1**2))
            assert lzs_rate(0.01, eps, d) == pytest.approx(expected, rel=1e-12)

    def test_brute_force_wide_window_oracle(self):
        # independent evaluation: series Bessel values, n in [-2000, 2000]
        delta, eps, gamma2 = 0.01, 1.0, 0.05
        x = 2.0
        total = 0.0
        for n in range(-2000, 2001):
            jn = series_jn(abs(n), x)
            if n < 0 and n % 2:
                jn = -jn
            total += gamma2 * jn**2 / ((eps - n * 1.0) ** 2 + gamma2**2)
        expected = 0.5 * delta**2 * total
        got = lzs_rate(delta, eps, DRIVE)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_even_in_local_detuning(self):
        for eps in (0.0, 1.0, 2.0, 5.0):
            assert lzs_rate(0.1, eps, DRIVE) == pytest.approx(
                lzs_rate(0.1, -eps, DRIVE), rel=1e-13
            )

    @given(
        delta=st.floats(1e-4, 1.0),
        eps=st.floats(-20.0, 20.0),
        amp=st.floats(0.0, 10.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_delta_squared_scaling_exact(self, delta, eps, amp):
        d = DriveParams(amplitude=amp, frequency=1.0, dephasing=0.1)
        assert lzs_rate(2.0 * delta, eps, d) == 4.0 * lzs_rate(delta, eps, d)

    @given(
        delta=st.floats(1e-4, 1.0),
        eps=st.floats(-40.0, 40.0),
        amp=st.floats(0.0, 12.0),
        gamma2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_nonnegative(self, delta, eps, amp, gamma2):
        d = DriveParams(amplitude=amp, frequency=1.0, dephasing=gamma2)
        assert lzs_rate(delta, eps, d) >= 0.0

    def test_sum_rule(self):
        # integral of W over eps equals pi*delta^2/2 within 1%
        delta = 0.1
        d = DriveParams(amplitude=5.0, frequency=1.0, dephasing=0.1)
        lim = 5.0 + 50 * 0.1 + 50 * 1.0
        cuts = [float(n) for n in range(-int(lim), int(lim) + 1)]
        edges = [-lim] + cuts + [lim]
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            part, _ = integrate.quad(
                lambda e: lzs_rate(delta, e, d), a, b, limit=200
            )
            total += part
        assert total == pytest.approx(math.pi * delta**2 / 2.0, rel=0.01)

    def test_resonance_peaks_near_multiples(self):
        # local maxima of W(eps) sit within Gamma2/2 of n*omega
        d = DriveParams(amplitude=3.0, frequency=1.0, dephasing=0.05)
        eps = np.linspace(-2.5, 2.5, 2001)
        w = np.array([lzs_rate(0.1, float(e), d) for e in eps])
        for n in (-2, -1, 0, 1, 2):
            sel = np.abs(eps - n) <= 0.4
            peak = eps[sel][np.argmax(w[sel])]
            assert abs(peak - n) <= 0.025

    def test_margin_truncation_stable(self):
        wide = RateKernelParams(n_margin=40)
        for eps in (-7.3, 0.0, 2.5, 14.0):
            base = lzs_rate(0.1, eps, DRIVE)
            ref = lzs_rate(0.1, eps, DRIVE, wide)
            assert base == pytest.approx(ref, rel=1e-9)

    def test_truncation_near_the_support_edge(self):
        # Random points whose resonance lies within a few photons of the
        # support's edge, where the dropped photons weigh most.  Every gap
        # to n_margin = 80 is within the bound of the dropped photons at
        # the worst-case Lorentzian 1/gamma2**2, |J_n(x)| <= (x/2)**n / n!
        # (Abramowitz and Stegun 9.1.62); up to A/w = 25 it is also within
        # a relative 1e-7.  Beyond, the relative gap grows as (w/gamma2)**2.
        rng = np.random.default_rng(20)
        default, wide = RateKernelParams(), RateKernelParams(n_margin=80)
        for _ in range(600):
            delta, w, x = rng.uniform(0.01, 1.0), rng.uniform(0.3, 3.0), rng.uniform(0.0, 60.0)
            drive = DriveParams(x * w, w, w * 10.0 ** rng.uniform(-2.0, 0.0))
            x, gamma2 = drive.amplitude / w, drive.dephasing
            first = math.floor(x + default.n_margin) + 1
            edge = first + rng.choice([0.0, 1.0, rng.uniform(-6.0, 4.0)])
            eps = rng.choice([-1.0, 1.0]) * edge * w
            ref = lzs_rate(delta, eps, drive, wide)
            gap = abs(lzs_rate(delta, eps, drive, default) - ref)
            tail = math.fsum(
                math.exp(2.0 * (n * math.log(x / 2.0) - math.lgamma(n + 1)))
                for n in range(first, first + 200)
            )
            assert gap <= delta * delta / gamma2 * tail + 4.0 * math.ulp(ref)
            if x <= 25.0:
                assert gap <= 1e-7 * ref

    def test_far_detunings_are_quiet(self):
        # A squared detuning past about 1e154 GHz overflows to inf, and its
        # term is then exactly 0, its limit, without a warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = lzs_rate(0.1, 1e20, DRIVE)
            assert 0.0 < far < 1e-40
            assert lzs_rate(0.1, 1e200, DRIVE) == 0.0
            row = PhotonTable([0.1], [0.0], [1e20, 1e200], DRIVE).rates([2.0])
        assert row[0, 0, 0] == far and row[0, 0, 1] == 0.0

    @pytest.mark.parametrize("eps", [0.0, 1e20, 1e200])
    def test_photon_count_depends_on_amplitude_only(self, monkeypatch, eps):
        sizes = []

        def spy(*args):
            ns = _photon_range(*args)
            sizes.append(ns.size)
            return ns

        monkeypatch.setattr(rates_mod, "_photon_range", spy)
        cases = [(0.0, 1.0, 0), (2.0, 0.3, 20), (14.9, 1.0, 20), (60.0, 1.0, 5)]
        for amp, w, margin in cases:
            lzs_rate(0.1, eps, DriveParams(amp, w, 0.1), RateKernelParams(margin))
        assert sizes == [2 * math.floor(amp / w + margin) + 1 for amp, w, margin in cases]

    @pytest.mark.parametrize("path, edits", TRUNCATION_INPUTS)
    def test_truncation_bound_on_shipped_grids(self, path, edits):
        # The bounds stated in the rates module docstring, on a 9 x 9
        # sample (corners included) of each grid and frequency.
        text = path.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        config = parse_config(text)
        grid, model = config.grid, config.model
        pick = np.linspace(0.0, 1.0, 9)
        eps_sample = grid.eps_values[(pick * (grid.n_eps - 1)).round().astype(int)]
        amp_sample = grid.amp_values[(pick * (grid.n_amp - 1)).round().astype(int)]
        default, wide = RateKernelParams(), RateKernelParams(n_margin=80)
        worst_rate = worst_p = 0.0
        for base, amp in ((d, a) for d in config.drives for a in amp_sample):
            drive = DriveParams(float(amp), base.frequency, base.dephasing)
            for eps in map(float, eps_sample):
                for i, j, delta in model.coupled_pairs():
                    local = eps - crossing_position(model, i, j)
                    ref = lzs_rate(delta, local, drive, wide)
                    rel = abs(lzs_rate(delta, local, drive, default) - ref) / ref
                    worst_rate = max(worst_rate, rel)
                p_default, p_wide = (
                    stationary_solve(build_rate_matrix(model, eps, drive, k)).p_left
                    for k in (default, wide)
                )
                worst_p = max(worst_p, abs(p_default - p_wide))
        assert worst_rate <= 1e-7
        assert worst_p <= 1e-10

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            lzs_rate(-0.1, 0.0, DRIVE)
        with pytest.raises(ValidationError):
            lzs_rate(0.1, math.nan, DRIVE)

    def test_kernel_params_validation(self):
        with pytest.raises(ValidationError):
            RateKernelParams(n_margin=-1)
        with pytest.raises(ValidationError):
            RateKernelParams(n_margin=True)

    def test_n_margin_past_the_bessel_range_rejected(self):
        # No amplitude can use more than 1e4: A/w + n_margin may not pass it.
        assert RateKernelParams(n_margin=10**4).n_margin == 10**4
        for n_margin in (10**4 + 1, 10**400):
            with pytest.raises(ValidationError, match="Bessel kernel's range"):
                RateKernelParams(n_margin=n_margin)

    def test_photon_range_within_bessel_range(self):
        # bessel_jn is accurate for |n|, x <= 1e4: A/w + n_margin up to 1e4
        # sums, and past it (or once A/w overflows) both paths reject the
        # amplitude instead of allocating the range.
        assert _photon_range(1e4).size == 20001
        assert lzs_rate(0.1, 0.0, DriveParams(9980.0, 1.0, 0.1)) > 0.0
        for amp, w in ((9980.5, 1.0), (1e308, 0.5), (1e308, 1.0)):
            drive = DriveParams(amp, w, 0.1)
            with pytest.raises(ValidationError, match="Bessel kernel's range"):
                lzs_rate(0.1, 0.0, drive)
            with pytest.raises(ValidationError, match="Bessel kernel's range"):
                PhotonTable([0.1], [0.0], [0.0], drive)

    @pytest.mark.parametrize(
        "delta, gamma2", [(1e200, 0.1), (0.1, 1e-200)], ids=["delta_sq_overflows", "gamma2_sq_underflows"]
    )
    def test_non_finite_rates_are_quiet(self, delta, gamma2):
        # An overflowing delta**2, or a gamma2**2 that underflows to 0 on a
        # resonance, gives a rate that is not finite, without a warning,
        # for the caller to reject; table and point agree on every point.
        eps = [-1.0, -0.5, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = PhotonTable([delta], [0.0], eps, DriveParams(1.0, 1.0, gamma2)).rates([0.0, 1.0])
            for k, amp in enumerate((0.0, 1.0)):
                for m, e in enumerate(eps):
                    point = lzs_rate(delta, e, DriveParams(amp, 1.0, gamma2))
                    assert np.array_equal(row[0, k, m], point, equal_nan=True)
        assert not np.isfinite(row[0, 0, 0])


def bloch_rate(delta, eps, amp, w, gamma2):
    """The rate W that lzs_rate stands for, from the Bloch equations of
    H = -(eps(t) sigma_z + delta sigma_x) / 2, eps(t) = eps + amp cos(w t),
    hbar = 1, with dephasing gamma2 on the coherences and no relaxation.
    dr/dt = M(t) r is linear; over one period T it maps r to Phi r.  The
    population difference z decays as exp(-2 W t), so Phi's slowest
    eigenvalue lambda gives 2 W = -ln|lambda| / T."""
    period = 2.0 * math.pi / w

    def rhs(t, phi):
        e = eps + amp * math.cos(w * t)
        m = np.array([[-gamma2, e, 0.0], [-e, -gamma2, delta], [0.0, -delta, 0.0]])
        return (m @ phi.reshape(3, 3)).ravel()

    phi = integrate.solve_ivp(
        rhs, (0.0, period), np.eye(3).ravel(), method="DOP853", rtol=1e-11, atol=1e-13
    ).y[:, -1]
    return -math.log(np.abs(np.linalg.eigvals(phi.reshape(3, 3))).max()) / (2.0 * period)


class TestBlochEquations:
    # Where the rate picture holds, delta |J_n(A/w)| << gamma2, lzs_rate is
    # the Bloch equations' slowest decay up to the coupling ratio
    # (delta max_n |J_n(A/w)| / gamma2)**2: on a resonance the relative gap
    # is -ratio * (J_n / max_n |J_n|)**2, off resonance a tenth of that or
    # less.  Over 900 seeded points the gap never exceeded 1.1 * ratio.
    A, B = 1.25, 1e-4

    def test_one_photon_resonance(self):
        # w = 1, gamma2 = 0.1, A = 2.5, eps = 1: the gap follows the ratio
        # as delta halves.
        for delta, gap, ratio in ((0.02, -9.90e-3, 9.88e-3), (0.01, -2.46e-3, 2.47e-3)):
            w_bloch = bloch_rate(delta, 1.0, 2.5, 1.0, 0.1)
            got = lzs_rate(delta, 1.0, DriveParams(2.5, 1.0, 0.1))
            assert (got - w_bloch) / w_bloch == pytest.approx(gap, rel=0.01)
            assert (delta * special.jv(1, 2.5) / 0.1) ** 2 == pytest.approx(ratio, rel=0.01)

    def test_seeded_weak_coupling_points(self):
        # On a resonance n*w, off it by a quarter to a half photon, and on
        # the resonance whose weight a Bessel zero removes; delta sets the
        # ratio between 1e-4 and 1e-2, in units where w and gamma2 vary.
        rng = np.random.default_rng(8)
        zeros = {n: special.jn_zeros(n, 2) for n in range(4)}
        for kind in ("on", "off", "zero") * 12:
            w = rng.uniform(0.5, 2.0)
            gamma2 = rng.uniform(0.05, 0.2) * w
            n = int(rng.integers(-3, 4))
            x = zeros[abs(n)][rng.integers(2)] if kind == "zero" else rng.uniform(0.0, 6.0)
            offset = rng.uniform(0.25, 0.5) * rng.choice([-1.0, 1.0]) if kind == "off" else 0.0
            eps = (n + offset) * w
            ratio = 10.0 ** rng.uniform(-4.0, -2.0)
            delta = gamma2 * math.sqrt(ratio) / np.abs(special.jv(np.arange(-60, 61), x)).max()
            w_bloch = bloch_rate(delta, eps, x * w, w, gamma2)
            got = lzs_rate(delta, eps, DriveParams(x * w, w, gamma2))
            assert abs(got - w_bloch) <= (self.A * ratio + self.B) * w_bloch, (kind, n, x, eps)


class TestRowRates:
    """PhotonTable, the photon sum of a map: rows of any amplitudes up
    to the table's."""

    DELTAS = [0.08, 0.2, 0.0, 0.45]
    POSITIONS = [0.0, -2.1, 3.0, 6.75]
    EPS = np.linspace(-10.0, 10.0, 41)

    @pytest.mark.parametrize("amp", [0.0, 1.5, 4.0, 9.0])
    def test_matches_lzs_rate(self, amp):
        table = PhotonTable(self.DELTAS, self.POSITIONS, self.EPS, DriveParams(9.0, 1.0, 0.1))
        # Every point sums the support in lzs_rate's order: the same bits.
        got = table.rates([amp])
        assert got.shape == (4, 1, self.EPS.size)
        drive = DriveParams(amplitude=amp, frequency=1.0, dephasing=0.1)
        for c, (delta, pos) in enumerate(zip(self.DELTAS, self.POSITIONS)):
            for m, eps in enumerate(self.EPS):
                assert got[c, 0, m] == lzs_rate(delta, float(eps) - pos, drive)

    def test_wide_windows_match_lzs_rate(self):
        # At A/w up to 47 a smaller amplitude's support is far narrower than
        # the table's, whose other photons its rates must not sum.
        drive = DriveParams(14.0, 0.3, 0.1)
        table = PhotonTable(self.DELTAS, self.POSITIONS, self.EPS, drive)
        amps = [0.0, 14.0 / 3.0, 14.0]
        got = table.rates(amps)
        for k, amp in enumerate(amps):
            point_drive = DriveParams(amp, 0.3, 0.1)
            for c, (delta, pos) in enumerate(zip(self.DELTAS, self.POSITIONS)):
                for m, eps in enumerate(self.EPS):
                    assert got[c, k, m] == lzs_rate(delta, float(eps) - pos, point_drive)

    @pytest.mark.parametrize("n_extra", [1, 100, 5000])
    def test_blocks_change_no_bit(self, n_extra):
        # A point's rates depend neither on the amplitudes nor on the
        # detunings that share its table: n_extra far detunings leave the
        # table's photons as they are.
        drive = DriveParams(amplitude=12.0, frequency=0.7, dephasing=0.05)
        table = PhotonTable(self.DELTAS, self.POSITIONS, self.EPS, drive)
        whole = table.rates([12.0, 5.0])
        alone = [table.rates([amp])[:, 0] for amp in (12.0, 5.0)]
        assert all(np.array_equal(whole[:, k], a) for k, a in enumerate(alone))
        wide_eps = np.concatenate((self.EPS, np.linspace(-60.0, 60.0, n_extra)))
        wide = PhotonTable(self.DELTAS, self.POSITIONS, wide_eps, drive)
        assert np.array_equal(wide.ns, table.ns)
        assert np.array_equal(wide.rates([12.0, 5.0])[:, :, : self.EPS.size], whole)

    @given(
        delta=st.floats(1e-3, 1.0),
        eps=st.floats(-40.0, 40.0),
        amp=st.floats(0.0, 20.0),
        extra=st.floats(0.0, 10.0),
        frequency=st.floats(0.3, 17.0),
        gamma2=st.floats(0.01, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_point_row_is_lzs_rate(self, delta, eps, amp, extra, frequency, gamma2):
        # Both sum the same photons in the same order, so the bits agree,
        # whatever larger amplitude the table was built for.
        drive = DriveParams(amplitude=amp, frequency=frequency, dephasing=gamma2)
        top = DriveParams(amplitude=amp + extra, frequency=frequency, dephasing=gamma2)
        row = PhotonTable([delta], [0.0], [eps], top).rates([amp])
        assert row[0, 0, 0] == lzs_rate(delta, eps, drive)

    def test_far_row_keeps_bessel_support(self):
        # 50 to 70 photons from the crossing, every point sums the Bessel
        # support |n| <= A/w + n_margin, which keeps n = 0, the only term
        # at A = 0.
        table = PhotonTable([0.1], [60.0], self.EPS, DriveParams(9.0, 1.0, 0.1))
        for amp in (0.0, 9.0):
            got = table.rates([amp])
            drive = DriveParams(amplitude=amp, frequency=1.0, dephasing=0.1)
            for m, eps in enumerate(self.EPS):
                ref = lzs_rate(0.1, float(eps) - 60.0, drive)
                assert ref > 0.0
                assert got[0, 0, m] == ref

    def test_no_crossings(self):
        assert PhotonTable([], [], self.EPS, DRIVE).rates([2.0]).shape == (0, 1, self.EPS.size)
        assert PhotonTable([], [], self.EPS, DRIVE).rates([]).shape == (0, 0, self.EPS.size)
        table = PhotonTable(self.DELTAS, self.POSITIONS, self.EPS, DRIVE)
        assert table.rates([]).shape == (4, 0, self.EPS.size)
