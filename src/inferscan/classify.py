"""Turn an IPID time series into a packet-drop case label.

The decision pipeline: difference the sampled IPID values, model the
quiet-phase noise with a small ARMA process, estimate the size of the
level shift aligned with the perturbation phase after whitening, and map
the per-spoofed-SYN amplitude onto one of the three drop cases (or the
explicit error case).

All functions are pure; they only read the attributes of the series
object they are given (``samples``, ``spoof_rate``, ``probe_rate``).

The ARMA fit is in-house rather than scipy's ``lfilter`` and Nelder-Mead:
importing ``scipy.signal`` and ``scipy.optimize`` added about 1.3 s and
75 MB of resident memory to every process that imports the CLI (scipy
1.17 on a shared 2-vCPU Xeon), most of its start-up.  The two helpers must
match scipy exactly, operation for operation, so that a fit gives the same
bits as ``scipy.optimize.minimize(..., method="Nelder-Mead")`` over
``scipy.signal.lfilter``; ``tests/test_classify.py`` checks this against
scipy when it is installed.  Where numpy's order of summation or sorting
could differ from plain Python, they keep numpy (``np.dot``, ``np.sum``,
``np.argsort``, ``np.convolve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

IPID_MOD = 65536
FORWARD_LIMIT = 32768  # deltas at or past this are reorder artifacts

PHASE_BASE = "base"
PHASE_PERTURB = "perturb"

SERVER_TO_CLIENT_DROP = "ServerToClientDrop"
NO_PACKETS_DROPPED = "NoPacketsDropped"
CLIENT_TO_SERVER_DROP = "ClientToServerDrop"
ERROR = "Error"

# Amplitude bands, in IPID increments per spoofed SYN.  The gap between the
# no-drop band and the client-to-server band is a deliberate rejection zone:
# boundary amplitudes become the error case instead of a guess.
THRESHOLD_S2C = 0.5
THRESHOLD_NONE_UPPER = 2.0
THRESHOLD_C2S_LOWER = 2.5
THRESHOLD_C2S_UPPER = 8.0

DEFAULT_SETTLE_S = 32.0  # covers the longest default retransmission span
MIN_DELTAS_FOR_FIT = 20
MIN_STEADY_DELTAS = 6


class ClassifyError(Exception):
    """Estimation failure carrying the error-case reason string."""

    reason = "classify-error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.reason)


class ModelFitError(ClassifyError):
    reason = "model-fit-failed"


class PhasesTooShortError(ClassifyError):
    reason = "phases-too-short"


class WhiteningError(ClassifyError):
    reason = "whitening-failed"


@dataclass(frozen=True)
class DiffResult:
    deltas: list
    artifacts: list  # (index, raw_delta) pairs excluded from deltas


def diff_series(ipids: Sequence[int]) -> DiffResult:
    """Forward IPID deltas modulo 65536.

    delta[i] = (ipid[i+1] - ipid[i]) mod 65536, kept only when it falls in
    [0, 32768); larger apparent jumps (backward steps, reordering) are
    excluded and reported as artifacts.
    """
    if len(ipids) < 2:
        raise ValueError("need at least 2 samples to difference")
    deltas, artifacts = [], []
    for i in range(len(ipids) - 1):
        raw = (ipids[i + 1] - ipids[i]) % IPID_MOD
        if raw < FORWARD_LIMIT:
            deltas.append(raw)
        else:
            artifacts.append((i, raw))
    return DiffResult(deltas=deltas, artifacts=artifacts)


@dataclass(frozen=True)
class ArmaModel:
    p: int
    q: int
    ar: tuple
    ma: tuple
    mean: float
    variance: float
    residuals: tuple
    degenerate: bool = False
    converged: bool = True

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """Apply the innovation filter with zero initial conditions."""
        return np.array(_innovations(
            self.ar, self.ma, np.asarray(values, dtype=float).tolist()))


def _innovations(ar, ma, y) -> list:
    """Innovations of ``y`` under ARMA coefficients ``ar`` and ``ma``.

    This is ``scipy.signal.lfilter([1, -ar...], [1, ma...], y)`` from zero
    state.  Without MA terms lfilter is numpy's convolution, so that is
    what runs; otherwise its direct-form-II-transposed recursion runs here
    with both coefficient lists padded to one length and every product and
    sum in lfilter's order.
    """
    b = [-float(c) for c in ar]
    if not len(ma):
        return np.convolve([1.0] + b, y)[:len(y)].tolist()
    order = max(len(b), len(ma))
    b += [0.0] * (order - len(b))
    a = [float(c) for c in ma] + [0.0] * (order - len(ma))
    out = []
    if order == 1:
        b1, a1 = b[0], a[0]
        z = 0.0
        for x in y:
            e = z + x
            z = x * b1 - e * a1
            out.append(e)
        return out
    (b1, b2), (a1, a2) = b, a
    z1 = z2 = 0.0
    for x in y:
        e = z1 + x
        z1 = z2 + x * b1 - e * a1
        z2 = x * b2 - e * a2
        out.append(e)
    return out


def _ar_stationary(ar: np.ndarray) -> bool:
    if len(ar) == 0 or not np.any(ar):
        return True
    # 1 - ar_1 z - ... - ar_p z^p must have all roots outside the unit circle.
    roots = np.roots(np.concatenate(([1.0], -ar))[::-1])
    return bool(np.all(np.abs(roots) > 1.0))


def _css(params: list, y: list, p: int, ridge: float) -> float:
    if any(abs(v) >= 0.99 for v in params):
        return 1e12 * (1.0 + float(np.sum(np.abs(params))))
    eps = _innovations(params[:p], params[p:], y)
    value = float(np.dot(eps, eps))
    if not math.isfinite(value):
        return 1e15
    # Mixed models on white noise have a flat ridge where the AR and MA
    # terms cancel; a small penalty settles it at the origin.
    return value + ridge * float(np.dot(params, params))


def _nelder_mead(func, n: int, maxiter: int = 2000) -> list:
    """Minimise ``func`` over n parameters from the origin.

    scipy's ``_minimize_neldermead`` with its defaults (reflection 1,
    expansion 2, contraction 0.5, shrink 0.5, a first simplex stepping
    0.00025 along each axis), xatol 1e-7, fatol 1e-9 and no cap on
    evaluations, in its order of operations.  Returns the best vertex;
    raises ModelFitError when ``maxiter`` iterations pass without
    convergence.
    """
    sim = [[0.0] * n]
    for k in range(n):
        vertex = [0.0] * n
        vertex[k] = 0.00025
        sim.append(vertex)
    fsim = [func(v) for v in sim]

    def by_value():
        # np.argsort, not sorted(): ties must break as scipy breaks them.
        order = np.argsort(fsim)
        return [sim[i] for i in order], [fsim[i] for i in order]

    sim, fsim = by_value()
    sim, fsim = by_value()  # scipy sorts the first simplex twice
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
        raise ModelFitError("optimizer failed: maximum number of iterations "
                            "exceeded")
    return sim[0]


def fit_arma(deltas: Sequence[int], p: int = 1, q: int = 1) -> ArmaModel:
    """Conditional-least-squares ARMA fit of a delta sequence.

    Deterministic (Nelder-Mead from the origin, no randomness).  Constant
    input yields a degenerate model with zero variance.  Raises
    ModelFitError when the optimizer fails to converge.
    """
    x = np.asarray(deltas, dtype=float)
    n = len(x)
    if n < MIN_DELTAS_FOR_FIT:
        raise ValueError(f"need >= {MIN_DELTAS_FOR_FIT} usable deltas, got {n}")
    if p < 0 or q < 0 or p > 2 or q > 2:
        raise ValueError("orders limited to p, q <= 2")
    mu = float(x.mean())
    y = x - mu
    if not np.any(y):
        return ArmaModel(p=p, q=q, ar=(0.0,) * p, ma=(0.0,) * q, mean=mu,
                         variance=0.0, residuals=(0.0,) * n,
                         degenerate=True)
    if p == 0 and q == 0:
        eps = y
        variance = float(np.dot(eps, eps) / n)
        return ArmaModel(p=0, q=0, ar=(), ma=(), mean=mu, variance=variance,
                         residuals=tuple(eps))
    ridge = 0.05 * float(np.dot(y, y))
    values = y.tolist()
    best = np.array(_nelder_mead(
        lambda params: _css(params, values, p, ridge), p + q))
    if not np.all(np.isfinite(best)):
        raise ModelFitError("optimizer failed: non-finite parameters")
    ar, ma = best[:p], best[p:]
    # Enforce stationarity of the AR polynomial after fitting.
    shrink = 0
    while not _ar_stationary(ar):
        ar *= 0.9
        shrink += 1
        if shrink > 60:
            raise ModelFitError("could not reach a stationary AR polynomial")
    eps = np.array(_innovations(ar, ma, values))
    variance = float(np.dot(eps, eps) / n)
    return ArmaModel(p=p, q=q, ar=tuple(ar), ma=tuple(ma), mean=mu,
                     variance=variance, residuals=tuple(eps))


def _phase_samples(series, phase: str) -> list:
    return [s for s in series.samples if s.phase == phase]


def intervention_amplitude(series, noise: Optional[ArmaModel] = None,
                           settle_s: float = DEFAULT_SETTLE_S):
    """Estimate the IPID increase per spoofed SYN.

    Fits (or reuses) the quiet-phase noise model, whitens both phases with
    it, and regresses the whitened deltas on a whitened phase-step
    regressor.  The perturbation phase only contributes samples recorded
    after ``settle_s`` seconds, once the retransmission pipeline of the
    probed server has reached steady state.  The step estimate is divided
    by the spoofed-SYNs-per-sample-interval ratio so the result is
    expressed per spoofed SYN.

    Returns (amplitude, diagnostics dict).
    """
    base = _phase_samples(series, PHASE_BASE)
    perturb = _phase_samples(series, PHASE_PERTURB)
    if len(base) < MIN_DELTAS_FOR_FIT + 1 or not perturb:
        raise PhasesTooShortError(
            f"base={len(base)} perturb={len(perturb)} samples")
    settle_ns = int(settle_s * 1e9)
    cutoff = perturb[0].timestamp + settle_ns
    steady = [s for s in perturb if s.timestamp >= cutoff]
    if len(steady) < MIN_STEADY_DELTAS + 1:
        raise PhasesTooShortError(
            f"only {len(steady)} perturb samples past the settle window")

    base_diff = diff_series([s.ipid for s in base])
    steady_diff = diff_series([s.ipid for s in steady])
    if len(base_diff.deltas) < MIN_DELTAS_FOR_FIT:
        raise PhasesTooShortError("too few usable base deltas")
    if len(steady_diff.deltas) < MIN_STEADY_DELTAS:
        raise PhasesTooShortError("too few usable steady deltas")

    if noise is None:
        noise = fit_arma(base_diff.deltas)

    yb = np.asarray(base_diff.deltas, dtype=float)
    ys = np.asarray(steady_diff.deltas, dtype=float)
    ratio = series.spoof_rate / series.probe_rate

    if noise.degenerate and np.ptp(yb) == 0 and np.ptp(ys) == 0:
        # Noiseless runs: the mean difference is exact; skip the solver so
        # integer arithmetic survives untouched.
        step = float(ys[0] - yb[0])
        amplitude = step / ratio
        residual_var = 0.0
    else:
        # Whiten each phase independently (the phases are not contiguous
        # once the settle window is dropped), then solve the two-column
        # least squares [intercept, step].
        wyb, wys = noise.whiten(yb), noise.whiten(ys)
        wib = noise.whiten(np.ones_like(yb))
        wis = noise.whiten(np.ones_like(ys))
        wxs = wis  # step regressor is 0 over base, 1 over steady
        design = np.column_stack([
            np.concatenate([wib, wis]),
            np.concatenate([np.zeros_like(wyb), wxs]),
        ])
        target = np.concatenate([wyb, wys])
        try:
            coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise WhiteningError(str(exc)) from exc
        if rank < 2 or not np.all(np.isfinite(coef)):
            raise WhiteningError("rank-deficient whitened design")
        step = float(coef[1])
        amplitude = step / ratio
        fitted = design @ coef
        resid = target - fitted
        residual_var = float(np.dot(resid, resid) / len(resid))

    diagnostics = {
        "step_per_interval": step,
        "spoof_per_interval": ratio,
        "residual_variance": residual_var,
        "noise_variance": noise.variance,
        "noise_ar": list(noise.ar),
        "noise_ma": list(noise.ma),
        "degenerate_noise": noise.degenerate,
        "n_base_deltas": len(base_diff.deltas),
        "n_steady_deltas": len(steady_diff.deltas),
        "n_artifacts": len(base_diff.artifacts) + len(steady_diff.artifacts),
    }
    return amplitude, diagnostics


@dataclass(frozen=True)
class CaseLabel:
    variant: str
    amplitude: Optional[float]
    confidence: float
    reason: Optional[str] = None

    def __post_init__(self):
        if self.variant == ERROR and self.reason is None:
            raise ValueError("error labels need a reason")
        if self.variant != ERROR and self.amplitude is None:
            raise ValueError("non-error labels need an amplitude")
        if self.variant != ERROR and self.reason is not None:
            raise ValueError("reason only accompanies the error variant")


def _confidence(residual_variance: float) -> float:
    return 1.0 / (1.0 + max(residual_variance, 0.0))


def classify_case(amplitude: float, diagnostics: dict) -> CaseLabel:
    """Map an estimated amplitude onto a case label.

    Amplitudes between the bands (or past the upper bound) land in an
    explicit rejection zone and come back as the error case.
    """
    confidence = _confidence(diagnostics.get("residual_variance", 0.0))
    if not np.isfinite(amplitude):
        return CaseLabel(ERROR, None, 0.0, reason="non-finite-amplitude")
    if amplitude < THRESHOLD_S2C:
        return CaseLabel(SERVER_TO_CLIENT_DROP, amplitude, confidence)
    if amplitude < THRESHOLD_NONE_UPPER:
        return CaseLabel(NO_PACKETS_DROPPED, amplitude, confidence)
    if THRESHOLD_C2S_LOWER <= amplitude <= THRESHOLD_C2S_UPPER:
        return CaseLabel(CLIENT_TO_SERVER_DROP, amplitude, confidence)
    return CaseLabel(ERROR, None, confidence, reason="ambiguous-amplitude")


def classify_series(series, noise: Optional[ArmaModel] = None,
                    settle_s: float = DEFAULT_SETTLE_S) -> CaseLabel:
    """Full pipeline; estimation failures become error-case labels."""
    try:
        amplitude, diagnostics = intervention_amplitude(series, noise, settle_s)
    except ClassifyError as exc:
        return CaseLabel(ERROR, None, 0.0, reason=exc.reason)
    return classify_case(amplitude, diagnostics)
