"""Turn an IPID time series into a packet-drop case label.

The decision pipeline: difference the sampled IPID values, model the
quiet-phase noise as an ARMA(1,1) process, estimate the size of the
level shift aligned with the perturbation phase after whitening, and map
the per-spoofed-SYN amplitude onto one of the three drop cases (or the
explicit error case).

All functions are pure; they only read the attributes of the series
object they are given (``samples``, ``spoof_rate``, ``probe_rate``).
The arithmetic is plain Python floats, summed with ``math.fsum``, so a fit
gives the same bits on every platform and Python version.

The noise model is the Hannan-Rissanen estimate of an ARMA(1,1) process
(Hannan & Rissanen, Biometrika 69(1), 1982): two ordinary least-squares
regressions, with no optimizer and no starting point.  A long AR fit gives
residual estimates, and each delta is then regressed on the previous delta
and the previous residual estimate.  Both regressions, and the final
[intercept, step] one, give the least-squares answer of minimum norm, with
a rank cut relative to the design's scale as SVD solvers make it (see
``_long_ar_residuals`` and ``_lstsq2``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

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
_EPS = sys.float_info.epsilon


class ClassifyError(Exception):
    """Estimation failure carrying the error-case reason string."""

    reason = "classify-error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.reason)


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

    def whiten(self, values: Sequence[float]) -> list:
        """Apply the innovation filter with zero initial conditions."""
        return _innovations(self.ar[0], self.ma[0], values)


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


def _dot(a, b) -> float:
    """Sum of the products of ``a`` and ``b``, correctly rounded."""
    return math.fsum(map(mul, a, b))


def _long_ar_residuals(x: Sequence[int], y: list, m: int) -> list:
    """Residuals of the least-squares regression of y[m:] on its m lags.

    The residual is the projection off the span of the lags, whatever
    coefficients reach it, so a Cholesky factor of the Gram matrix that
    skips dependent lags gives it.  The Gram matrix is built from
    z = n x - sum(x) = n y, which is integral for integer deltas, so it is
    exact; each entry past the first row comes from the one up and to the
    left in O(1).  A column whose pivot (its squared length off the columns
    kept before it) is at most eps max(M, N) times its squared length is
    dependent; a dependent target leaves residuals of exactly zero.
    """
    n = len(x)
    total = sum(x)
    z = [n * v - total for v in x]
    # gram[j][k], j <= k, is the product of columns j and k, where column k
    # is z[m - k:n - k]: column 0 is the target, column k its lag k.
    gram = [[sum(map(mul, z[m:], z[m - k:n - k])) for k in range(m + 1)]]
    for j in range(m):
        up, head, tail = gram[j], z[m - j - 1], z[n - j - 1]
        gram.append([0] * (j + 1) + [
            up[k] + head * z[m - k - 1] - tail * z[n - k - 1]
            for k in range(j, m)])
    cut = _EPS * max(n - m, m)
    kept, factor = [], []  # kept lags, and their rows of the factor
    for j in (*range(1, m + 1), 0):
        row = []
        for p, i in enumerate(kept):
            g = gram[i][j] if i < j else gram[j][i]
            row.append((g - _dot(row, factor[p])) / factor[p][p])
        pivot = gram[j][j] - math.fsum(v * v for v in row)
        if pivot <= cut * gram[j][j]:
            if j == 0:
                return [0.0] * (n - m)
            continue
        if j == 0:
            break
        row.append(math.sqrt(pivot))
        kept.append(j)
        factor.append(row)
    coef = [0.0] * len(kept)
    for p in reversed(range(len(kept))):
        later = math.fsum(factor[q][p] * coef[q]
                          for q in range(p + 1, len(kept)))
        coef[p] = (row[p] - later) / factor[p][p]
    resid = y[m:]
    for k, c in zip(kept, coef):
        resid = [r - c * v for r, v in zip(resid, y[m - k:n - k])]
    return resid


def _lstsq2(u: list, v: list, target: list) -> tuple:
    """Minimum-norm least-squares coefficients of ``target`` on the columns
    ``u`` and ``v``, and the rank: (coef_u, coef_v, rank).

    A Gram-Schmidt step from the longer column gives the triangular factor
    [[r11, r12], [0, r22]], whose singular values have product r11 r22 and
    squares summing to its squared Frobenius norm.  Taking the smaller one
    as that product over the larger keeps it accurate to rounding; from the
    2x2 Gram matrix ac - b^2 would cancel to about sqrt(eps), so an exactly
    collinear pair would pass the rank cut.
    """
    uu, vv = _dot(u, u), _dot(v, v)
    if vv > uu:
        coef_v, coef_u, rank = _lstsq2(v, u, target)
        return coef_u, coef_v, rank
    if uu == 0:
        return 0.0, 0.0, 0
    r11 = math.sqrt(uu)
    q = [a / r11 for a in u]
    r12 = _dot(q, v)
    w = [b - r12 * a for a, b in zip(q, v)]
    r22 = math.sqrt(_dot(w, w))
    frob = uu + r12 * r12 + r22 * r22
    det = r11 * r22
    large = math.sqrt((frob + math.sqrt(max(frob * frob - 4 * det * det,
                                            0.0))) / 2)
    qt = _dot(q, target)
    if det / large <= _EPS * max(len(target), 2) * large:
        # The rank-1 factor [r11, r12]: its minimum-norm solution.
        scale = qt / (uu + r12 * r12)
        return r11 * scale, r12 * scale, 1
    coef_v = _dot(w, target) / (r22 * r22)
    return (qt - r12 * coef_v) / r11, coef_v, 2


def fit_arma(deltas: Sequence[int]) -> ArmaModel:
    """Hannan-Rissanen ARMA(1,1) fit of a delta sequence.

    An AR(m) least-squares fit, m = min(LONG_AR_ORDER, n // 4), gives
    residual estimates e; y_t is then regressed on y_{t-1} and e_{t-1}.
    The two coefficients are clipped to +-COEF_LIMIT, which keeps the AR
    one stationary; the residuals and variance are the innovations under
    them.
    Constant input yields a degenerate model with zero variance.
    """
    n = len(deltas)
    if n < MIN_DELTAS_FOR_FIT:
        raise ValueError(f"need >= {MIN_DELTAS_FOR_FIT} usable deltas, got {n}")
    mu = math.fsum(deltas) / n
    y = [v - mu for v in deltas]
    if not any(y):
        return ArmaModel(ar=(0.0,), ma=(0.0,), mean=mu, variance=0.0,
                         residuals=(0.0,) * n, degenerate=True)
    m = min(LONG_AR_ORDER, n // 4)
    long_resid = _long_ar_residuals(deltas, y, m)
    ar, ma, _ = _lstsq2(y[m:-1], long_resid[:-1], y[m + 1:])
    ar = min(max(ar, -COEF_LIMIT), COEF_LIMIT)
    ma = min(max(ma, -COEF_LIMIT), COEF_LIMIT)
    eps = _innovations(ar, ma, y)
    return ArmaModel(ar=(ar,), ma=(ma,), mean=mu,
                     variance=math.fsum(e * e for e in eps) / n,
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

    yb, ys = base_diff.deltas, steady_diff.deltas
    ratio = series.spoof_rate / series.probe_rate

    if noise.degenerate and len(set(yb)) == 1 and len(set(ys)) == 1:
        # Noiseless runs: the mean difference is exact; skip the solver so
        # integer arithmetic survives untouched.
        step = float(ys[0] - yb[0])
        amplitude = step / ratio
        residual_var = 0.0
    else:
        # Whiten each phase independently (the phases are not contiguous
        # once the settle window is dropped), then solve the two-column
        # least squares [intercept, step]; the step regressor is 0 over
        # base, 1 over steady.
        wis = noise.whiten([1.0] * len(ys))
        intercept = noise.whiten([1.0] * len(yb)) + wis
        stepcol = [0.0] * len(yb) + wis
        target = noise.whiten(yb) + noise.whiten(ys)
        level, step, rank = _lstsq2(intercept, stepcol, target)
        if rank < 2 or not (math.isfinite(level) and math.isfinite(step)):
            raise WhiteningError("rank-deficient whitened design")
        amplitude = step / ratio
        residual_var = math.fsum(
            (t - level * a - step * b) ** 2
            for t, a, b in zip(target, intercept, stepcol)) / len(target)

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
