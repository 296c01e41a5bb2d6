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

The ARMA fit is in-house rather than scipy's ``lfilter`` and Nelder-Mead:
importing ``scipy.signal`` and ``scipy.optimize`` added about 1.3 s and
75 MB of resident memory to every process that imports the CLI (scipy
1.17 on a shared 2-vCPU Xeon), most of its start-up.  The two helpers must
match scipy exactly, operation for operation, so that a fit gives the same
bits as ``scipy.optimize.minimize(..., method="Nelder-Mead")`` over
``scipy.signal.lfilter``; ``tests/test_classify.py`` checks this against
scipy when it is installed, and pins the bits of fixed fits without it.
Two rules keep the bits:

- Sums of squares stay ``np.dot`` over arrays, as scipy computes them.
  OpenBLAS's ``ddot`` uses fused multiply-adds, so neither a Python sum
  nor ``a * a + b * b`` gives its last bit.  Each sum converts its operand
  to an array once.
- The simplex is ranked with ``sorted`` only when the ranked values are
  strictly increasing, so that the order is unique and is
  ``np.argsort``'s.  A tie, a signed zero or a NaN ranks with
  ``np.argsort``, whose SIMD sorts need not be stable, as scipy does.
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
    """Innovations of ``y`` under ARMA(1,1) coefficients ``ar`` and ``ma``.

    This is ``scipy.signal.lfilter([1, -ar], [1, ma], y)`` from zero state:
    its direct-form-II-transposed recursion, every product and sum in
    lfilter's order.
    """
    b1, a1 = -float(ar), float(ma)
    out = []
    z = 0.0
    for x in y:
        e = z + x
        z = x * b1 - e * a1
        out.append(e)
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


def _css(params: list, y: list, ridge: float) -> float:
    import numpy as np
    ar, ma = params
    if abs(ar) >= 0.99 or abs(ma) >= 0.99:
        return 1e12 * (1.0 + float(np.sum(np.abs(params))))
    eps = np.array(_innovations(ar, ma, y))
    value = float(np.dot(eps, eps))
    if not math.isfinite(value):
        return 1e15
    # Mixed models on white noise have a flat ridge where the AR and MA
    # terms cancel; a small penalty settles it at the origin.
    coef = np.array(params)
    return value + ridge * float(np.dot(coef, coef))


def _converged(sim: list, fsim: list) -> bool:
    """scipy's stopping test, ``max(spread) <= 1e-7 and max(gap) <= 1e-9``.

    The spreads are ``abs(v[i] - best[i])`` over each other vertex and
    coordinate, the gaps ``abs(fsim[0] - f)`` over each other value.  The
    loops stop at the first failure.  ``max`` keeps a NaN in first place
    and passes over a later one, so only a first NaN fails the test.
    """
    best = sim[0]
    first = True
    for v in sim[1:]:
        for x, b in zip(v, best):
            d = abs(x - b)
            if d > 1e-7 or (first and d != d):
                return False
            first = False
    f0 = fsim[0]
    first = True
    for f in fsim[1:]:
        d = abs(f0 - f)
        if d > 1e-9 or (first and d != d):
            return False
        first = False
    return True


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
        order = sorted(range(n + 1), key=fsim.__getitem__)
        ranked = [fsim[i] for i in order]
        for a, b in zip(ranked, ranked[1:]):
            if not a < b:
                # A tie, a signed zero or a NaN: the order is not unique,
                # and np.argsort's, which need not be stable, is scipy's.
                import numpy as np
                order = np.argsort(fsim)
                ranked = [fsim[i] for i in order]
                break
        return [sim[i] for i in order], ranked

    sim, fsim = by_value()
    sim, fsim = by_value()  # scipy sorts the first simplex twice
    iterations = 1
    while iterations < maxiter:
        best, worst = sim[0], sim[-1]
        if _converged(sim, fsim):
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


def fit_arma(deltas: Sequence[int]) -> ArmaModel:
    """Conditional-least-squares ARMA(1,1) fit of a delta sequence.

    Deterministic (Nelder-Mead from the origin, no randomness).  Constant
    input yields a degenerate model with zero variance.  Raises
    ModelFitError when the optimizer fails to converge.
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
    ridge = 0.05 * float(np.dot(y, y))
    values = y.tolist()
    best = np.array(_nelder_mead(lambda params: _css(params, values, ridge), 2))
    if not np.all(np.isfinite(best)):
        raise ModelFitError("optimizer failed: non-finite parameters")
    ar, ma = _stationary_ar(best[0]), best[1]
    eps = np.array(_innovations(ar, ma, values))
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
