from __future__ import annotations

import hashlib
import math
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
    _converged,
    _css,
    _innovations,
    _nelder_mead,
    _stationary_ar,
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


@pytest.fixture(scope="module")
def scipy_ref():
    """scipy's optimize and signal modules, the fit's reference."""
    pytest.importorskip("scipy")
    from scipy import optimize, signal
    return optimize, signal


def _ar_stationary(ar: np.ndarray) -> bool:
    """Whether 1 - ar_1 z - ... - ar_p z^p has all roots outside the unit
    circle, found with np.roots."""
    if len(ar) == 0 or not np.any(ar):
        return True
    roots = np.roots(np.concatenate(([1.0], -ar))[::-1])
    return bool(np.all(np.abs(roots) > 1.0))


def reference_ar_repair(ar: np.ndarray) -> np.ndarray:
    """The AR repair as written over np.roots: shrink by 0.9 until
    stationary, giving up after 60 steps."""
    ar = ar.copy()
    shrink = 0
    while not _ar_stationary(ar):
        ar *= 0.9
        shrink += 1
        if shrink > 60:
            raise ModelFitError("could not reach a stationary AR polynomial")
    return ar


def reference_fit(optimize, signal, deltas):
    """fit_arma as it was written over scipy: lfilter for the innovations
    and minimize(method="Nelder-Mead") for the conditional least squares
    of an ARMA(1,1) model.  Returns (ar, ma, variance, residuals)."""
    def innovations(ar, ma, y):
        return signal.lfilter(np.concatenate(([1.0], -ar)),
                              np.concatenate(([1.0], ma)), y)

    def css(params, y, ridge):
        if np.any(np.abs(params) >= 0.99):
            return 1e12 * (1.0 + float(np.sum(np.abs(params))))
        eps = innovations(params[:1], params[1:], y)
        value = float(np.dot(eps, eps))
        if not np.isfinite(value):
            return 1e15
        return value + ridge * float(np.dot(params, params))

    x = np.asarray(deltas, dtype=float)
    y = x - float(x.mean())
    ridge = 0.05 * float(np.dot(y, y))
    result = optimize.minimize(css, np.zeros(2), args=(y, ridge),
                               method="Nelder-Mead",
                               options={"xatol": 1e-7, "fatol": 1e-9,
                                        "maxiter": 2000})
    if not result.success or not np.all(np.isfinite(result.x)):
        raise ModelFitError(result.message)
    ar, ma = reference_ar_repair(result.x[:1]), result.x[1:].copy()
    eps = innovations(ar, ma, y)
    return tuple(ar), tuple(ma), float(np.dot(eps, eps) / len(y)), tuple(eps)


ONE_ULP_BELOW_1 = 1.0 - 2.0 ** -53
AR_GRID = [0.0, -0.0, 0.5, -0.5, 0.99, -0.99, ONE_ULP_BELOW_1,
           -ONE_ULP_BELOW_1, 1.0, -1.0, 1.5, -1.5]


class TestStationarityRepair:
    """The scalar AR(1) repair decides and shrinks as the np.roots one."""

    @pytest.mark.parametrize("ar", AR_GRID)
    def test_decision_matches_np_roots(self, ar):
        unchanged = _stationary_ar(ar) == ar
        assert unchanged == _ar_stationary(np.array([ar]))

    @pytest.mark.parametrize("ar", [1.0, -1.0, 1.5, -1.5, 50.0, -50.0])
    def test_shrinks_by_the_same_steps(self, ar):
        # Each further 0.9 step changes the bits, so equal bits mean equal
        # step counts.
        expected = reference_ar_repair(np.array([ar]))[0]
        assert _stationary_ar(ar).hex() == expected.hex() != ar.hex()

    def test_gives_up_after_sixty_steps(self):
        with pytest.raises(ModelFitError):
            reference_ar_repair(np.array([1e300]))
        with pytest.raises(ModelFitError):
            _stationary_ar(1e300)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


coefficients = st.floats(-0.98, 0.98, exclude_min=True, exclude_max=True)


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
        expected = signal.lfilter([1.0, -ar], [1.0, ma], y)
        assert bits(_innovations(ar, ma, y)) == expected.tobytes()

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-9]))
    def test_css_matches_array_css(self, scipy_ref, seed, scale):
        """Both sums stay np.dot over arrays: a Python sum, or a*a + b*b
        for the ridge, differs in the last bit where BLAS uses FMA.  Tiny
        series let the ridge term's last bit show in the sum; coefficients
        come from a seeded generator, as round ones square exactly."""
        _optimize, signal = scipy_ref
        rng = random.Random(seed)
        ar, ma = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        y = [rng.randint(-20, 20) * scale for _ in range(rng.randint(20, 60))]
        params = np.array([ar, ma])
        if np.any(np.abs(params) >= 0.99):
            expected = 1e12 * (1.0 + float(np.sum(np.abs(params))))
        else:
            eps = signal.lfilter([1.0, -ar], [1.0, ma], y)
            expected = (float(np.dot(eps, eps))
                        + 0.37 * float(np.dot(params, params)))
        assert _css([ar, ma], y, 0.37).hex() == expected.hex()

    @settings(max_examples=100, deadline=None)
    @given(deltas=delta_sequences())
    def test_fit_matches_scipy_fit(self, scipy_ref, deltas):
        try:
            expected = reference_fit(*scipy_ref, deltas)
        except ModelFitError as exc:
            with pytest.raises(type(exc)):
                fit_arma(deltas)
            return
        model = fit_arma(deltas)
        ar, ma, variance, residuals = expected
        assert bits(model.ar) == bits(ar)
        assert bits(model.ma) == bits(ma)
        assert model.variance.hex() == variance.hex()
        assert bits(model.residuals) == bits(residuals)

    def test_nelder_mead_gives_up_after_maxiter(self):
        with pytest.raises(ModelFitError):
            _nelder_mead(lambda v: (v[0] - 1.0) ** 2 + v[1] ** 2, 2, maxiter=5)


def reference_nelder_mead(func, n, maxiter=2000):
    """_nelder_mead as it was first written: np.argsort ranks every
    simplex, and the stopping test is max() over generators."""
    sim = [[0.0] * n]
    for k in range(n):
        vertex = [0.0] * n
        vertex[k] = 0.00025
        sim.append(vertex)
    fsim = [func(v) for v in sim]

    def by_value():
        order = np.argsort(fsim)
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = by_value()
    sim, fsim = by_value()
    iterations = 1
    while iterations < maxiter:
        best, worst = sim[0], sim[-1]
        if (max(abs(v[i] - best[i]) for v in sim[1:] for i in range(n))
                <= 1e-7 and max(abs(fsim[0] - f) for f in fsim[1:]) <= 1e-9):
            break
        xbar = []
        for i in range(n):
            total = best[i]
            for v in sim[1:-1]:
                total += v[i]
            xbar.append(total / n)
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            shrink = False
            if fxr < fsim[-1]:
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = func(sim[j])
        iterations += 1
        sim, fsim = by_value()
    if iterations >= maxiter:
        raise ModelFitError("maximum number of iterations exceeded")
    return sim[0]


def steps(scale, ar0, ma0):
    """A piecewise-constant bowl: plateaus ``scale`` wide, so simplex
    vertices often share a value exactly."""
    def func(v):
        return float((math.floor(v[0] / scale) - ar0) ** 2
                     + (math.floor(v[1] / scale) - ma0) ** 2)
    return func


def steps_with_nan(v):
    """A step function that is NaN on part of the plane."""
    if v[0] > 0.0004:
        return math.nan
    return float(abs(math.floor(v[1] / 0.001) + 2))


def signed_zero(v):
    """-0.0 left of the axis and 0.0 right of it, 1.0 away from the
    origin: ranks ties of equal values with different signs."""
    if abs(v[0]) + abs(v[1]) > 0.01:
        return 1.0
    return -0.0 if v[0] < 0 else 0.0


def nan_off_origin(v):
    """0.0 at the origin and NaN elsewhere: the simplex shrinks onto the
    origin with NaN values beside its best one."""
    return math.nan if v[0] or v[1] else 0.0


class TestNelderMeadTies:
    """Simplices with tied, signed-zero and NaN values rank and stop as the
    np.argsort reference does."""

    @pytest.mark.parametrize("func", [
        steps(0.001, 3, -2), steps(0.00025, 1, 1), steps(0.0001, -7, 4),
        steps(0.01, 0, 0), steps(0.002, -1, 5), steps_with_nan, signed_zero,
        nan_off_origin])
    def test_matches_argsort_reference(self, func, monkeypatch):
        argsorts = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a: argsorts.append(1) or real(a))
        try:
            expected = reference_nelder_mead(func, 2, maxiter=300)
        except ModelFitError:
            expected = None
        ties = len(argsorts)
        if expected is None:
            with pytest.raises(ModelFitError):
                _nelder_mead(func, 2, maxiter=300)
        else:
            assert bits(_nelder_mead(func, 2, maxiter=300)) == bits(expected)
        assert len(argsorts) > ties  # the tie path ran

    @given(st.lists(st.lists(st.sampled_from(
               [0.0, -0.0, 1e-8, 2e-7, -3e-7, 1.0, math.nan, math.inf]),
               min_size=2, max_size=2), min_size=3, max_size=3),
           st.lists(st.sampled_from(
               [0.0, -0.0, 5e-10, 2e-9, 1.0, math.nan, math.inf, -math.inf]),
               min_size=3, max_size=3))
    def test_stopping_test_is_max_over_generators(self, sim, fsim):
        best = sim[0]
        expected = (
            max(abs(v[i] - best[i]) for v in sim[1:] for i in range(2))
            <= 1e-7 and max(abs(fsim[0] - f) for f in fsim[1:]) <= 1e-9)
        assert _converged(sim, fsim) == expected


def residual_digest(residuals) -> str:
    return hashlib.sha256(bits(residuals)).hexdigest()[:16]


# Base-phase deltas of noisy idle rounds, a hypothesis-style count
# sequence and an ARMA path, Poisson-like deltas and a nearly flat series,
# with the bits fit_arma gave for them when it ranked every simplex with
# np.argsort: ar, ma and variance as float.hex(), the residuals as
# residual_digest.  ``ties`` marks a fit that meets a tie and so ranks
# with np.argsort.
PINNED_FITS = [
    ([1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 1,
      1, 1, 1, 2, 1, 2, 3, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 3, 1,
      2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1], True,
     "-0x1.15b987b2e2a40p-6", "0x1.74afbbf7e7052p-5", "0x1.2ff0504e9438dp-2",
     "bbd30524103c2a56"),
    ([1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 1, 2, 1, 2, 1, 1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
      1, 2, 1, 2, 1, 1, 1, 1, 2, 2, 1], False,
     "-0x1.239800708f4bep-3", "0x1.1dfaa6c53c39cp-4", "0x1.636f38bda4d58p-3",
     "fdc2529242cfbca9"),
    ([2, 1, 2, 1, 0, 1, 2, 0, 2, 0, 1, 1, 2, 2, 2, 1, 1, 2, 1, 0, 1, 0, 0, 1,
      1, 1, 1, 1, 2, 1, 1, 0, 2, 1, 2, 0, 1, 0, 2, 1, 1, 1, 1, 2, 0, 1, 0, 1,
      2, 2, 0, 1, 1, 2], True,
     "-0x1.f1d090664f35ap-3", "0x1.82dd8937c2f5cp-4", "0x1.ffbf54e109544p-2",
     "d016bf97b416376b"),
    ([9, 10, 5, 6, 2, 5, 4, 9, 5, 9, 8, 6, 10, 12, 14, 5, 6, 12, 11, 7, 10, 8,
      5, 6, 6, 10, 12, 7, 7, 8, 5, 12, 7, 8, 6, 4, 3, 1, 6, 6, 6, 9, 12, 7,
      10, 9, 15, 9, 5, 7, 4, 5, 5, 7, 11, 11, 11], False,
     "0x1.48e8b8e5e6943p-2", "0x1.4be4191daccf1p-6", "0x1.ed58e619ff5e5p+2",
     "cc89c6ca7f735906"),
    ([1, 2, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 2, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 2, 2, 4, 1, 2, 1, 1, 1, 1, 1, 2,
      3, 1, 3, 1, 2, 1, 2, 1, 1, 2, 2], True,
     "-0x1.2383b7b3d6216p-1", "0x1.baaee58303258p-2", "0x1.9c924f0315878p-2",
     "027986fcd246b03e"),
    ([1, 2, 1, 1, 1, 1, 2, 2, 1, 1, 2, 1, 2, 2, 1, 1, 1, 1, 2, 1, 3, 3, 2, 2,
      2, 1, 1, 2, 2, 2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1, 4, 3, 1,
      2, 1, 1, 1, 3, 3, 1, 2, 1, 1, 1], False,
     "0x1.460b80c4e64d0p-8", "0x1.277e687addb41p-3", "0x1.034bc371fde71p-1",
     "d04ca3130c3d7688"),
    ([1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], True,
     "0x1.59bb4b9cff441p-7", "-0x1.2397c78d267aep-4", "0x1.83b930e5111e2p-5",
     "52bd681d50d32690"),
    ([1] * 46 + [2] + [1] * 13, False,
     "-0x1.67a7a4d8b484bp-8", "-0x1.7eedf0df2630ap-7", "0x1.0c6f1234e0eccp-6",
     "1b19d41b4e0c6c6c"),
]


class TestPinnedFits:
    """fit_arma's bits on fixed series, without scipy."""

    @pytest.mark.parametrize("deltas, ties, ar, ma, variance, residuals",
                             PINNED_FITS)
    def test_bits_unchanged(self, deltas, ties, ar, ma, variance, residuals,
                            monkeypatch):
        argsorts = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort",
                            lambda a: argsorts.append(1) or real(a))
        model = fit_arma(deltas)
        assert (model.ar[0].hex(), model.ma[0].hex(), model.variance.hex(),
                residual_digest(model.residuals)) == (ar, ma, variance,
                                                      residuals)
        if ties:
            assert argsorts

    def test_some_pinned_fit_meets_a_tie(self):
        assert any(ties for _, ties, *_ in PINNED_FITS)


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
