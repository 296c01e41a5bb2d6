"""Turn an IPID time series into a packet-drop case label.

The decision pipeline: difference the sampled IPID values, model the
quiet-phase noise as an ARMA(1,1) process, estimate the size of the
level shift aligned with the perturbation phase after whitening, and map
the per-spoofed-SYN amplitude onto one of the three drop cases (or the
explicit error case).

All functions are pure; they only read the attributes of the series
object they are given (``samples``, ``spoof_rate``, ``probe_rate``).
Each function that needs numpy imports it where it runs, so a process
that never fits a model, such as a backlog scan or an analysis, never
loads numpy (about 0.13 s and 13 MB of start-up on a shared 2-vCPU
Xeon).

The noise model is the Hannan-Rissanen estimate of an ARMA(1,1) process
(Hannan & Rissanen, Biometrika 69(1), 1982): two ordinary least-squares
regressions, with no optimizer and no starting point.  A long AR fit gives
residual estimates, and each delta is then regressed on the previous delta
and the previous residual estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

IPID_MOD = 65536
FORWARD_LIMIT = 32768  # deltas at or past this are reorder artifacts

PHASE_BASE = "base"
PHASE_PERTURB = "perturb"

SERVER_TO_CLIENT_DROP = "ServerToClientDrop"
NO_PACKETS_DROPPED = "NoPacketsDropped"
CLIENT_TO_SERVER_DROP = "ClientToServerDrop"
ERROR = "Error"
#: Every label variant, in the case table's column order.
VARIANTS = (SERVER_TO_CLIENT_DROP, NO_PACKETS_DROPPED, CLIENT_TO_SERVER_DROP,
            ERROR)

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
LONG_AR_ORDER = 10  # largest order of the fit's first, long AR regression
COEF_LIMIT = 0.98  # fitted AR and MA coefficients are clipped to +-this


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
    """An ARMA(1,1) noise model; ``ar`` and ``ma`` hold one coefficient each."""

    ar: tuple
    ma: tuple
    mean: float
    variance: float
    residuals: tuple
    degenerate: bool = False

    def whiten(self, values: np.ndarray) -> np.ndarray:
        """Apply the innovation filter with zero initial conditions."""
        import numpy as np
        return np.array(_innovations(
            self.ar[0], self.ma[0], np.asarray(values, dtype=float).tolist()))


def _innovations(ar: float, ma: float, y) -> list:
    """Innovations of ``y`` under ARMA(1,1) coefficients ``ar`` and ``ma``:
    e_t = y_t - ar * y_{t-1} - ma * e_{t-1}, from zero state."""
    out = []
    prev_y = prev_e = 0.0
    for x in y:
        prev_e = x - ar * prev_y - ma * prev_e
        prev_y = x
        out.append(prev_e)
    return out


def _stationary_ar(ar: float) -> float:
    """``ar`` shrunk by 0.9 until 1 - ar z is stationary, at most 60 times.

    The polynomial's root is 1/ar (none when ar is 0), and it must lie
    outside the unit circle; the test is on 1/ar, as ``np.roots`` makes it.
    """
    for _ in range(61):
        if ar == 0 or abs(1 / ar) > 1.0:
            return ar
        ar *= 0.9
    raise ModelFitError("could not reach a stationary AR polynomial")


def _least_squares(design, target):
    """Least-squares coefficients, the minimum-norm ones when ``design`` is
    rank-deficient (a lone outlier at either end of a flat series makes its
    columns collinear); ModelFitError when the solver fails."""
    import numpy as np
    try:
        return np.linalg.lstsq(design, target, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise ModelFitError(f"singular regression: {exc}") from exc


def fit_arma(deltas: Sequence[int]) -> ArmaModel:
    """Hannan-Rissanen ARMA(1,1) fit of a delta sequence.

    An AR(m) least-squares fit, m = min(LONG_AR_ORDER, n // 4), gives
    residual estimates e; y_t is then regressed on y_{t-1} and e_{t-1}.
    The two coefficients are clipped to +-COEF_LIMIT and the AR one made
    stationary; the residuals and variance are the innovations under them.
    Constant input yields a degenerate model with zero variance.
    """
    import numpy as np
    x = np.asarray(deltas, dtype=float)
    n = len(x)
    if n < MIN_DELTAS_FOR_FIT:
        raise ValueError(f"need >= {MIN_DELTAS_FOR_FIT} usable deltas, got {n}")
    mu = float(x.mean())
    y = x - mu
    if not np.any(y):
        return ArmaModel(ar=(0.0,), ma=(0.0,), mean=mu, variance=0.0,
                         residuals=(0.0,) * n, degenerate=True)
    m = min(LONG_AR_ORDER, n // 4)
    lags = np.column_stack([y[m - k:n - k] for k in range(1, m + 1)])
    long_resid = y[m:] - lags @ _least_squares(lags, y[m:])
    design = np.column_stack([y[m:-1], long_resid[:-1]])
    coef = np.clip(_least_squares(design, y[m + 1:]), -COEF_LIMIT, COEF_LIMIT)
    ar, ma = _stationary_ar(float(coef[0])), float(coef[1])
    eps = np.array(_innovations(ar, ma, y.tolist()))
    variance = float(np.dot(eps, eps) / n)
    return ArmaModel(ar=(ar,), ma=(ma,), mean=mu, variance=variance,
                     residuals=tuple(eps))


def _phase_samples(series, phase: str) -> list:
    return [s for s in series.samples if s.phase == phase]


def intervention_amplitude(series, settle_s: float = DEFAULT_SETTLE_S):
    """Estimate the IPID increase per spoofed SYN.

    Fits the quiet-phase noise model, whitens both phases with
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

    noise = fit_arma(base_diff.deltas)

    import numpy as np
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
    if not math.isfinite(amplitude):
        return CaseLabel(ERROR, None, 0.0, reason="non-finite-amplitude")
    if amplitude < THRESHOLD_S2C:
        return CaseLabel(SERVER_TO_CLIENT_DROP, amplitude, confidence)
    if amplitude < THRESHOLD_NONE_UPPER:
        return CaseLabel(NO_PACKETS_DROPPED, amplitude, confidence)
    if THRESHOLD_C2S_LOWER <= amplitude <= THRESHOLD_C2S_UPPER:
        return CaseLabel(CLIENT_TO_SERVER_DROP, amplitude, confidence)
    return CaseLabel(ERROR, None, confidence, reason="ambiguous-amplitude")


def classify_series(series, settle_s: float = DEFAULT_SETTLE_S) -> CaseLabel:
    """Full pipeline; estimation failures become error-case labels."""
    try:
        amplitude, diagnostics = intervention_amplitude(series, settle_s)
    except ClassifyError as exc:
        return CaseLabel(ERROR, None, 0.0, reason=exc.reason)
    return classify_case(amplitude, diagnostics)
