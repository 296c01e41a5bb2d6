from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLIENT_EP, SERVER_EP, MM_ADDR, build_idle_sim
from inferscan.classify import (
    CLIENT_TO_SERVER_DROP,
    COEF_LIMIT,
    ERROR,
    LONG_AR_ORDER,
    NO_PACKETS_DROPPED,
    PHASE_BASE,
    PHASE_PERTURB,
    SERVER_TO_CLIENT_DROP,
    CaseLabel,
    classify_case,
    classify_series,
    _innovations,
    _lstsq2,
    diff_series,
    fit_arma,
    intervention_amplitude,
)
from inferscan.idlescan import IpidSample, IpidTimeSeries
from inferscan.transport import NS_PER_SEC


def make_series(base_deltas, perturb_deltas, spoof_rate=2.0, probe_rate=1.0,
                start=1000, offset=0):
    samples = []
    ipid = (start + offset) % 65536
    t = NS_PER_SEC
    samples.append(IpidSample(t, ipid, PHASE_BASE))
    for d in base_deltas:
        t += NS_PER_SEC
        ipid = (ipid + d) % 65536
        samples.append(IpidSample(t, ipid, PHASE_BASE))
    for d in perturb_deltas:
        t += NS_PER_SEC
        ipid = (ipid + d) % 65536
        samples.append(IpidSample(t, ipid, PHASE_PERTURB))
    return IpidTimeSeries(samples=samples, spoof_rate=spoof_rate,
                          probe_rate=probe_rate, client=CLIENT_EP,
                          server=SERVER_EP)


class TestDiffSeries:
    def test_wraparound(self):
        assert diff_series([65535, 2]).deltas == [3]

    def test_plain_increments(self):
        assert diff_series([100, 101, 102]).deltas == [1, 1]

    def test_backward_step_flagged(self):
        result = diff_series([10, 9])
        assert result.deltas == []
        assert result.artifacts == [(0, 65535)]

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            diff_series([7])

    def test_artifact_positions(self):
        result = diff_series([0, 5, 4, 6])
        assert result.deltas == [5, 2]
        assert result.artifacts == [(1, 65535)]

    @given(st.integers(0, 65535),
           st.lists(st.integers(0, 32767), min_size=1, max_size=50))
    def test_forward_steps_survive_the_wrap(self, start, steps):
        ipids = [start]
        for step in steps:
            ipids.append((ipids[-1] + step) % 65536)
        result = diff_series(ipids)
        assert result.deltas == steps
        assert result.artifacts == []


class TestFitArma:
    def test_white_noise_from_simulated_client(self):
        # Sample a noisy but otherwise idle client; per-interval deltas are
        # 1 (the probe RST) plus Poisson background traffic.
        from inferscan.transport import FlowKey
        sim = build_idle_sim("none", seed=31, noise=4.0)
        tr = sim.attach(MM_ADDR)
        ipids = []
        for _ in range(120):
            probe = tr.craft_segment(
                dst_addr=CLIENT_EP.addr, dst_port=443, flags=("SYN", "ACK"),
                src_port=40000)
            tr.send(probe)
            for seg in tr.capture([FlowKey(CLIENT_EP.addr, 443, MM_ADDR, 40000)],
                                  tr.clock.now_ns() + NS_PER_SEC):
                ipids.append(seg.ipid)
        deltas = diff_series(ipids).deltas
        model = fit_arma(deltas)
        sample_var = float(np.var(deltas))
        assert abs(model.ar[0]) < 0.25
        assert abs(model.ma[0]) < 0.35
        assert model.variance == pytest.approx(sample_var, rel=0.25)
        assert len(model.residuals) == len(deltas)

    def test_constant_series_degenerate(self):
        model = fit_arma([5] * 40)
        assert model.degenerate
        assert model.variance == 0.0
        assert model.ar == (0.0,) and model.ma == (0.0,)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_arma(list(range(10)))

    def test_ar1_recovery(self):
        rng = random.Random(7)
        y, prev = [], 0.0
        for _ in range(600):
            prev = 0.6 * prev + rng.gauss(0, 1)
            y.append(prev + 50)
        model = fit_arma([int(round(v)) for v in y])
        assert model.ar[0] == pytest.approx(0.6, abs=0.12)

    def test_stationarity_enforced(self):
        rng = random.Random(8)
        trend = [int(i + rng.random() * 2) for i in range(80)]  # near unit root
        model = fit_arma(trend)
        assert abs(model.ar[0]) < 1.0


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def delta_sequences(draw):
    """Non-constant IP-ID delta sequences: plain Poisson-like counts or a
    rounded ARMA(1, 1) path."""
    n = draw(st.integers(20, 80))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        deltas = [rng.randrange(draw(st.integers(2, 40))) for _ in range(n)]
    else:
        phi, theta = draw(st.floats(-0.9, 0.9)), draw(st.floats(-0.9, 0.9))
        value, shock, deltas = 0.0, 0.0, []
        for _ in range(n):
            new_shock = rng.gauss(0, 3)
            value = phi * value + new_shock + theta * shock
            shock = new_shock
            deltas.append(max(0, round(10 + value)))
    if len(set(deltas)) == 1:
        deltas[0] += 1
    return deltas


dyadic = st.sampled_from([0.5, -0.5, 0.25, -0.25])
small_ints = st.lists(st.integers(-20, 20), min_size=1, max_size=20)


class TestInnovations:
    """The whitening filter is e_t = y_t - ar y_{t-1} - ma e_{t-1}."""

    @given(dyadic, dyadic, small_ints)
    def test_dyadic_coefficients_exact(self, ar, ma, y):
        # |e_t| < 2**6 and its denominator divides 4**20, so every value
        # fits in a double and the float recursion must equal exact
        # arithmetic.
        expected, prev_y, prev_e = [], 0, Fraction(0)
        for value in y:
            prev_e = value - Fraction(ar) * prev_y - Fraction(ma) * prev_e
            prev_y = value
            expected.append(prev_e)
        assert _innovations(ar, ma, y) == expected

    @given(small_ints)
    def test_zero_coefficients_return_input(self, y):
        assert _innovations(0.0, 0.0, y) == y


class TestHannanRissanen:
    @settings(max_examples=100, deadline=None)
    @given(deltas=delta_sequences())
    def test_coefficients_clipped_and_innovations_kept(self, deltas):
        model = fit_arma(deltas)
        assert abs(model.ar[0]) <= 0.98 and abs(model.ma[0]) <= 0.98
        y = np.asarray(deltas, dtype=float)
        eps = _innovations(model.ar[0], model.ma[0], (y - y.mean()).tolist())
        assert bits(model.residuals) == bits(eps)
        assert model.variance == math.fsum(e * e for e in eps) / len(deltas)

    def test_lone_outlier_anywhere_fits(self):
        # An outlier among the first or last deltas makes a regression
        # rank-deficient; it takes the minimum-norm solution.
        for where in range(60):
            deltas = [1] * 60
            deltas[where] = 2
            model = fit_arma(deltas)
            assert all(math.isfinite(v) for v in model.residuals)


def reference_fit(deltas):
    """The fit as written over numpy.linalg.lstsq, for a non-constant
    sequence: (ar, ma, variance, residuals)."""
    x = np.asarray(deltas, dtype=float)
    n = len(x)
    y = x - x.mean()
    m = min(LONG_AR_ORDER, n // 4)
    lags = np.column_stack([y[m - k:n - k] for k in range(1, m + 1)])
    long_resid = y[m:] - lags @ np.linalg.lstsq(lags, y[m:], rcond=None)[0]
    design = np.column_stack([y[m:-1], long_resid[:-1]])
    ar, ma = np.clip(np.linalg.lstsq(design, y[m + 1:], rcond=None)[0],
                     -COEF_LIMIT, COEF_LIMIT).tolist()
    eps = np.array(_innovations(ar, ma, y.tolist()))
    return ar, ma, float(np.dot(eps, eps) / n), eps


# Fixed before the first comparison.  The two solvers round differently
# (an SVD against an exact Gram matrix and Gram-Schmidt), which moves the
# fit by about 1e-13 on these series; a different estimator, or a different
# rank decision on a collinear design, moves it by far more.
FIT_TOLERANCE = 1e-9


def assert_matches_reference(deltas):
    ar, ma, variance, residuals = reference_fit(deltas)
    model = fit_arma(deltas)
    assert abs(model.ar[0] - ar) <= FIT_TOLERANCE, deltas
    assert abs(model.ma[0] - ma) <= FIT_TOLERANCE, deltas
    assert abs(model.variance - variance) <= FIT_TOLERANCE * max(1.0, variance)
    scale = 1.0 + max(abs(d - model.mean) for d in deltas)
    assert max(abs(a - b) for a, b in zip(model.residuals, residuals)) \
        <= FIT_TOLERANCE * scale


@st.composite
def flat_with_outlier(draw):
    """A constant delta sequence with one other value anywhere: the series
    whose regressions are rank-deficient."""
    n = draw(st.integers(20, 120))
    level = draw(st.integers(0, 5))
    deltas = [level] * n
    deltas[draw(st.integers(0, n - 1))] = draw(
        st.integers(0, 12).filter(lambda v: v != level))
    return deltas


class TestMatchesLeastSquaresReference:
    @settings(max_examples=300, deadline=None)
    @given(deltas=st.one_of(delta_sequences(), flat_with_outlier()))
    def test_fit_matches_reference(self, deltas):
        assert_matches_reference(deltas)

    @pytest.mark.parametrize("n", [20, 21, 23, 59, 60, 97])
    def test_lone_outlier_at_every_position(self, n):
        for where in range(n):
            for level, outlier in ((1, 2), (3, 0)):
                deltas = [level] * n
                deltas[where] = outlier
                assert_matches_reference(deltas)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(10, 60).flatmap(lambda n: st.tuples(
        *[st.lists(st.integers(-20, 20), min_size=n, max_size=n)] * 3)),
           st.sampled_from(["free", "multiple", "zero"]), st.integers(-5, 5))
    def test_two_column_solve_matches_lstsq(self, columns, shape, factor):
        u, v, target = columns
        if shape == "multiple":
            v = [factor * a for a in u]
        elif shape == "zero":
            v = [0] * len(u)
        u, v, target = ([float(a) for a in col] for col in (u, v, target))
        coef, _, rank, _ = np.linalg.lstsq(np.column_stack([u, v]), target,
                                           rcond=None)
        got = _lstsq2(u, v, target)
        assert got[2] == rank
        scale = 1.0 + float(np.max(np.abs(coef)))
        assert max(abs(got[0] - coef[0]), abs(got[1] - coef[1])) \
            <= FIT_TOLERANCE * scale


def residual_digest(residuals) -> str:
    return hashlib.sha256(bits(residuals)).hexdigest()[:16]


# Base-phase deltas of noisy idle rounds, a hypothesis-style count
# sequence and an ARMA path, Poisson-like deltas and nearly flat series,
# with the bits fit_arma gives for them: ar, ma and variance as
# float.hex(), the residuals as residual_digest.
PINNED_FITS = [
    ([1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 1,
      1, 1, 1, 2, 1, 2, 3, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 3, 1,
      2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1],
     "0x1.4b46aa15d9571p-2", "-0x1.eaa8cd4098ef9p-2", "0x1.386177081793dp-2",
     "b552e6ebc06f6e7d"),
    ([1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 2, 1, 2, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 2, 1, 2, 1, 1, 1, 1, 2, 2, 1],
     "0x1.d605c6db6a19ap-7", "-0x1.9c8171d949234p-4", "0x1.64ccb3d00afffp-3",
     "a41eddb92293a60c"),
    ([2, 1, 2, 1, 0, 1, 2, 0, 2, 0, 1, 1, 2, 2, 2, 1, 1, 2, 1, 0, 1, 0, 0, 1,
      1, 1, 1, 1, 2, 1, 1, 0, 2, 1, 2, 0, 1, 0, 2, 1, 1, 1, 1, 2, 0, 1, 0, 1,
      2, 2, 0, 1, 1, 2],
     "-0x1.4ed3ecce1f942p-6", "-0x1.95d2b6ade1dbbp-5", "0x1.028e4c0f2fb2dp-1",
     "1f057fea69a92f16"),
    ([9, 10, 5, 6, 2, 5, 4, 9, 5, 9, 8, 6, 10, 12, 14, 5, 6, 12, 11, 7, 10, 8,
      5, 6, 6, 10, 12, 7, 7, 8, 5, 12, 7, 8, 6, 4, 3, 1, 6, 6, 6, 9, 12, 7,
      10, 9, 15, 9, 5, 7, 4, 5, 5, 7, 11, 11, 11],
     "0x1.c7b440d55661bp-2", "-0x1.af73c1eb94dd2p-4", "0x1.ec9511e109c7ep+2",
     "3866a452bce0416d"),
    ([1, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 2, 2, 4, 1, 2, 1, 1, 1, 1, 1, 2,
      3, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2],
     "-0x1.89b72992744cdp-3", "0x1.24e7fc8149a8ep-2", "0x1.bcc23f2ef13f7p-2",
     "0f6bf00ebb479b4d"),
    ([1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 2, 1, 3, 3, 2, 2,
      2, 1, 1, 2, 2, 2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1, 4, 3, 1,
      2, 1, 1, 1, 3, 3, 1, 2, 1, 1, 1],
     "0x1.0b8dfa27f36a9p-2", "-0x1.3e4aed0d774e1p-3", "0x1.04f8b66927364p-1",
     "190da93576a1f516"),
    ([1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
     "0x1.f5c28f5c28f5cp-1", "-0x1.f5c28f5c28f5cp-1", "0x1.851eb851eb852p-5",
     "f631612f08afc2ba"),
    ([1] * 46 + [2] + [1] * 13,
     "0x1.f5c28f5c28f5cp-1", "-0x1.f5c28f5c28f5cp-1", "0x1.0c83fb72ea61ep-6",
     "88266e3544f353b0"),
]


class TestPinnedFits:
    """fit_arma's bits on fixed series."""

    @pytest.mark.parametrize(
        "deltas, ar, ma, variance, residuals", PINNED_FITS,
        ids=[f"series{i}" for i in range(len(PINNED_FITS))])
    def test_bits_unchanged(self, deltas, ar, ma, variance, residuals):
        model = fit_arma(deltas)
        assert (model.ar[0].hex(), model.ma[0].hex(), model.variance.hex(),
                residual_digest(model.residuals)) == (ar, ma, variance,
                                                      residuals)


class TestInterventionAmplitude:
    def test_noiseless_step(self):
        series = make_series([1] * 40, [13] * 20)
        amplitude, diag = intervention_amplitude(series, settle_s=0.0)
        assert amplitude == 6.0
        assert diag["residual_variance"] == 0.0

    def test_flat_perturbation(self):
        series = make_series([1] * 40, [1] * 20)
        amplitude, _ = intervention_amplitude(series, settle_s=0.0)
        assert amplitude == 0.0

    def test_normalization_by_rates(self):
        series = make_series([1] * 40, [11] * 20, spoof_rate=5.0)
        amplitude, _ = intervention_amplitude(series, settle_s=0.0)
        assert amplitude == 2.0

    def test_settle_window_excludes_ramp(self):
        ramp = [3, 5, 7, 9] + [13] * 30
        series = make_series([1] * 40, ramp)
        amplitude, _ = intervention_amplitude(series, settle_s=10.0)
        assert amplitude == 6.0

    def test_phases_too_short(self):
        from inferscan.classify import PhasesTooShortError
        series = make_series([1] * 10, [13] * 10)
        with pytest.raises(PhasesTooShortError):
            intervention_amplitude(series, settle_s=0.0)

    def test_noisy_step_recovered(self):
        rng = random.Random(11)
        base = [1 + rng.randrange(0, 5) for _ in range(60)]
        perturb = [13 + rng.randrange(0, 5) for _ in range(40)]
        series = make_series(base, perturb)
        amplitude, _ = intervention_amplitude(series, settle_s=0.0)
        assert amplitude == pytest.approx(6.0, abs=0.6)


class TestOffsetInvariance:
    def test_constant_offset_preserves_everything(self):
        rng = random.Random(12)
        base = [1 + rng.randrange(0, 3) for _ in range(50)]
        perturb = [13 + rng.randrange(0, 3) for _ in range(30)]
        reference = make_series(base, perturb)
        ref_amp, _ = intervention_amplitude(reference, settle_s=0.0)
        ref_label = classify_series(reference, settle_s=0.0)
        for offset in (1, 777, 32768, 65535):
            shifted = make_series(base, perturb, offset=offset)
            assert (diff_series([s.ipid for s in shifted.samples]).deltas
                    == diff_series([s.ipid for s in reference.samples]).deltas)
            amp, _ = intervention_amplitude(shifted, settle_s=0.0)
            assert amp == pytest.approx(ref_amp, abs=1e-9)
            assert classify_series(shifted, settle_s=0.0).variant == ref_label.variant


class TestClassifyCase:
    def test_server_to_client(self):
        label = classify_case(0.02, {"residual_variance": 0.0})
        assert label.variant == SERVER_TO_CLIENT_DROP

    def test_no_packets_dropped(self):
        label = classify_case(1.0, {"residual_variance": 0.0})
        assert label.variant == NO_PACKETS_DROPPED
        assert label.amplitude == 1.0

    def test_rejection_band(self):
        label = classify_case(2.2, {"residual_variance": 0.0})
        assert label.variant == ERROR
        assert label.reason == "ambiguous-amplitude"

    def test_client_to_server(self):
        assert classify_case(6.0, {}).variant == CLIENT_TO_SERVER_DROP
        assert classify_case(2.5, {}).variant == CLIENT_TO_SERVER_DROP
        assert classify_case(8.0, {}).variant == CLIENT_TO_SERVER_DROP

    def test_above_upper_bound_rejected(self):
        assert classify_case(9.5, {}).variant == ERROR

    def test_confidence_decreases_with_residual_variance(self):
        confident = classify_case(1.0, {"residual_variance": 0.0})
        shaky = classify_case(1.0, {"residual_variance": 10.0})
        assert confident.confidence > shaky.confidence

    def test_non_finite_amplitude(self):
        assert classify_case(float("nan"), {}).variant == ERROR

    def test_label_invariants(self):
        with pytest.raises(ValueError):
            CaseLabel(ERROR, None, 0.5)  # error without reason
        with pytest.raises(ValueError):
            CaseLabel(NO_PACKETS_DROPPED, None, 0.5)  # missing amplitude
        with pytest.raises(ValueError):
            CaseLabel(NO_PACKETS_DROPPED, 1.0, 0.5, reason="nope")


class TestPipeline:
    def test_error_label_from_short_series(self):
        series = make_series([1] * 10, [13] * 10)
        label = classify_series(series, settle_s=0.0)
        assert label.variant == ERROR
        assert label.reason == "phases-too-short"

    def test_series_invariants(self):
        with pytest.raises(ValueError):
            IpidTimeSeries(samples=[IpidSample(2, 1, PHASE_BASE),
                                    IpidSample(1, 2, PHASE_BASE)],
                           spoof_rate=2.0, probe_rate=1.0,
                           client=CLIENT_EP, server=SERVER_EP)
        with pytest.raises(ValueError):
            IpidTimeSeries(samples=[IpidSample(1, 1, PHASE_PERTURB),
                                    IpidSample(2, 2, PHASE_BASE)],
                           spoof_rate=2.0, probe_rate=1.0,
                           client=CLIENT_EP, server=SERVER_EP)
        with pytest.raises(ValueError):
            IpidTimeSeries(samples=[], spoof_rate=0.0, probe_rate=1.0,
                           client=CLIENT_EP, server=SERVER_EP)
