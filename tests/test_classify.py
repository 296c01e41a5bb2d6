from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLIENT_EP, SERVER_EP, MM_ADDR, build_idle_sim
from inferscan.classify import (
    CLIENT_TO_SERVER_DROP,
    ERROR,
    NO_PACKETS_DROPPED,
    PHASE_BASE,
    PHASE_PERTURB,
    SERVER_TO_CLIENT_DROP,
    CaseLabel,
    ModelFitError,
    classify_case,
    classify_series,
    _ar_stationary,
    _innovations,
    _nelder_mead,
    diff_series,
    fit_arma,
    intervention_amplitude,
)
from inferscan.idlescan import IpidSample, IpidTimeSeries, ScanRoundConfig, run_idle_scan
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
                                  NS_PER_SEC):
                ipids.append(seg.ipid)
        deltas = diff_series(ipids).deltas
        model = fit_arma(deltas, 1, 1)
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
        model = fit_arma([int(round(v)) for v in y], p=1, q=0)
        assert model.ar[0] == pytest.approx(0.6, abs=0.12)

    def test_stationarity_enforced(self):
        rng = random.Random(8)
        trend = [int(i + rng.random() * 2) for i in range(80)]  # near unit root
        model = fit_arma(trend, p=1, q=0)
        assert abs(model.ar[0]) < 1.0


@pytest.fixture(scope="module")
def scipy_ref():
    """scipy's optimize and signal modules, the fit's reference."""
    pytest.importorskip("scipy")
    from scipy import optimize, signal
    return optimize, signal


def reference_fit(optimize, signal, deltas, p, q):
    """fit_arma as it was written over scipy: lfilter for the innovations
    and minimize(method="Nelder-Mead") for the conditional least squares.
    Returns (ar, ma, variance, residuals)."""
    def innovations(ar, ma, y):
        return signal.lfilter(np.concatenate(([1.0], -ar)),
                              np.concatenate(([1.0], ma)), y)

    def css(params, y, ridge):
        if np.any(np.abs(params) >= 0.99):
            return 1e12 * (1.0 + float(np.sum(np.abs(params))))
        eps = innovations(params[:p], params[p:], y)
        value = float(np.dot(eps, eps))
        if not np.isfinite(value):
            return 1e15
        return value + ridge * float(np.dot(params, params))

    x = np.asarray(deltas, dtype=float)
    y = x - float(x.mean())
    if p == 0 and q == 0:
        return (), (), float(np.dot(y, y) / len(y)), tuple(y)
    ridge = 0.05 * float(np.dot(y, y))
    result = optimize.minimize(css, np.zeros(p + q), args=(y, ridge),
                               method="Nelder-Mead",
                               options={"xatol": 1e-7, "fatol": 1e-9,
                                        "maxiter": 2000})
    if not result.success or not np.all(np.isfinite(result.x)):
        raise ModelFitError(result.message)
    ar, ma = result.x[:p].copy(), result.x[p:].copy()
    shrink = 0
    while not _ar_stationary(ar):
        ar *= 0.9
        shrink += 1
        if shrink > 60:
            raise ModelFitError("could not reach a stationary AR polynomial")
    eps = innovations(ar, ma, y)
    return tuple(ar), tuple(ma), float(np.dot(eps, eps) / len(y)), tuple(eps)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


coefficients = st.lists(st.floats(-0.98, 0.98, exclude_min=True,
                                  exclude_max=True), max_size=2)


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


class TestAgainstScipy:
    """The in-house filter and optimizer give scipy's bits."""

    @given(coefficients, coefficients,
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_innovations_match_lfilter(self, scipy_ref, ar, ma, y):
        _optimize, signal = scipy_ref
        expected = signal.lfilter(np.concatenate(([1.0], np.negative(ar))),
                                  np.concatenate(([1.0], ma)), y)
        assert bits(_innovations(ar, ma, y)) == expected.tobytes()

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("q", [0, 1, 2])
    @settings(max_examples=20, deadline=None)
    @given(deltas=delta_sequences())
    def test_fit_matches_scipy_fit(self, scipy_ref, p, q, deltas):
        try:
            expected = reference_fit(*scipy_ref, deltas, p, q)
        except ModelFitError as exc:
            with pytest.raises(type(exc)):
                fit_arma(deltas, p, q)
            return
        model = fit_arma(deltas, p, q)
        ar, ma, variance, residuals = expected
        assert bits(model.ar) == bits(ar)
        assert bits(model.ma) == bits(ma)
        assert model.variance.hex() == variance.hex()
        assert bits(model.residuals) == bits(residuals)

    def test_nelder_mead_gives_up_after_maxiter(self):
        with pytest.raises(ModelFitError):
            _nelder_mead(lambda v: (v[0] - 1.0) ** 2 + v[1] ** 2, 2, maxiter=5)


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

    def test_phase_length_robustness_in_simulation(self):
        labels = {}
        for scale in (1, 2):
            sim = build_idle_sim("c2s", seed=40)
            tr = sim.attach(MM_ADDR, isn_seed=40)
            cfg = ScanRoundConfig(scan_duration_s=120.0 * scale)
            series = run_idle_scan(tr, CLIENT_EP, SERVER_EP, cfg)
            labels[scale] = classify_series(series, settle_s=cfg.settle_s)
        assert labels[1].variant == labels[2].variant == CLIENT_TO_SERVER_DROP

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
