"""Statistical summaries of pipeline runs.

Estimators here operate on plain sequences so they can be fed either from
in-process run results or from exported CSV rows.  The fairness index, of
backend use and of signing-key use alike, is a distance-from-uniform measure
on probability vectors; the scaling estimators are least-squares fits in
log-log space (base-10 logs; slopes are base-invariant).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DegenerateInput, DomainError

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares y = slope * x + intercept."""

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    n: int


def linear_fit(points: Sequence[tuple[float, float]]) -> RegressionFit:
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    if n < 2:
        raise DegenerateInput(f"need at least 2 points, got {n}")
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError("fit points must be finite")
    mean_x = sum(x for x, _ in pts) / n
    mean_y = sum(y for _, y in pts) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in pts)
    if sxx == 0.0:
        raise DegenerateInput("all x values are identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in pts)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in pts)
    ss_tot = sum((y - mean_y) ** 2 for _, y in pts)
    if ss_tot > 0.0:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    else:
        # All y equal: the horizontal fit is exact.
        r_squared = 1.0
    if n > 2:
        slope_stderr = math.sqrt(max(ss_res, 0.0) / (n - 2) / sxx)
    else:
        slope_stderr = 0.0
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r_squared,
                         slope_stderr=slope_stderr, n=n)


def loglog_fit(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Power-law fit y = 10^intercept * x^slope via OLS in log10-log10 space."""
    transformed = []
    for x, y in points:
        if x <= 0 or y <= 0:
            raise DomainError(f"log-log fit needs positive values, got ({x}, {y})")
        transformed.append((math.log10(x), math.log10(y)))
    return linear_fit(transformed)


def _check_probability_vector(probabilities: Sequence[float]) -> list[float]:
    probs = [float(p) for p in probabilities]
    if not probs:
        raise DegenerateInput("empty probability vector")
    for p in probs:
        if not math.isfinite(p) or p < 0.0:
            raise DomainError(f"probability {p} invalid")
    if abs(sum(probs) - 1.0) > _PROB_SUM_TOL:
        raise DomainError(f"probabilities sum to {sum(probs)}, not 1")
    return probs


def fairness_index(probabilities: Sequence[float]) -> float:
    """1 minus half the L1 distance from the uniform distribution.

    1.0 means perfectly uniform; the minimum for k categories is 1/k
    (all mass on one category).
    """
    probs = _check_probability_vector(probabilities)
    k = len(probs)
    return 1.0 - 0.5 * sum(abs(p - 1.0 / k) for p in probs)


def selection_variance(probabilities: Sequence[float]) -> float:
    """Mean squared deviation of the frequencies from uniform."""
    probs = _check_probability_vector(probabilities)
    k = len(probs)
    return sum((p - 1.0 / k) ** 2 for p in probs) / k


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Entropy in bits; zero-probability categories contribute nothing."""
    probs = _check_probability_vector(probabilities)
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


def entropy_elasticity(series: Sequence[tuple[float, float]]) -> float:
    """Log-log slope of entropy against scale."""
    if len(series) < 2:
        raise DegenerateInput("need entropy at two scales or more")
    return loglog_fit(series).slope


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    cramers_v: float


def chi_square_gof(observed: Sequence[float], expected: Sequence[float]) -> ChiSquareResult:
    """Goodness-of-fit statistic with Cramér's V effect size.

    No significance decision is made here; the statistic and effect size are
    reported as-is.
    """
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    if len(obs) != len(exp):
        raise DomainError("observed and expected must have equal length")
    if len(obs) < 2:
        raise DegenerateInput("need at least two categories")
    for o in obs:
        if not math.isfinite(o) or o < 0:
            raise DomainError(f"observed count {o} invalid")
    for e in exp:
        if not math.isfinite(e) or e <= 0:
            raise DomainError(f"expected count {e} must be positive")
    total = sum(obs)
    if total <= 0:
        raise DegenerateInput("observed counts are all zero")
    statistic = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
    dof = len(obs) - 1
    cramers_v = min(1.0, math.sqrt(statistic / (total * dof)))
    return ChiSquareResult(statistic=statistic, dof=dof, cramers_v=cramers_v)


def error_density(series: Sequence[tuple[int, int]]) -> list[tuple[int, float]]:
    """Errors per processed manifest at each scale: (N, E/N)."""
    out = []
    for scale, errors in series:
        if scale <= 0:
            raise DomainError(f"scale {scale} must be positive")
        if errors < 0:
            raise DomainError("error count must not be negative")
        out.append((scale, errors / scale))
    return out


def variance_exponent(series: Sequence[tuple[float, float]]) -> float:
    """Log-log slope of a variance measure against scale."""
    if len(series) < 2:
        raise DegenerateInput("need variance at two scales or more")
    return loglog_fit(series).slope


def success_rate_series(pairs: Iterable[tuple[int, bool]]) -> list[tuple[int, float]]:
    """Per-scale success fraction from (scale, succeeded) pairs, sorted by scale."""
    totals: dict[int, int] = defaultdict(int)
    wins: dict[int, int] = defaultdict(int)
    for scale, succeeded in pairs:
        totals[scale] += 1
        if succeeded:
            wins[scale] += 1
    if not totals:
        raise DegenerateInput("no outcomes supplied")
    return [(scale, wins[scale] / totals[scale]) for scale in sorted(totals)]


def frequencies(counts: Mapping[str, int]) -> dict[str, float]:
    """Normalize a count table to relative frequencies."""
    total = sum(counts.values())
    if total <= 0:
        raise DegenerateInput("no observations to normalize")
    return {name: count / total for name, count in counts.items()}


@dataclass(frozen=True)
class StatsReport:
    """Summary bundle computed from one run's outcome rows."""

    scales: tuple[int, ...]
    backend_fairness: float
    backend_selection_variance: float
    backend_chi_square: ChiSquareResult
    key_balance: float
    success_rates: tuple[tuple[int, float], ...]
    success_rate_slope: float
    error_densities: tuple[tuple[int, float], ...]
    severity_entropy_bits: float
    entropy_elasticity: Optional[float]
    timestamp_variance_exponent: Optional[float]
    backend_counts: Mapping[str, int] = field(default_factory=dict)
    key_counts: Mapping[str, int] = field(default_factory=dict)


def report_from_rows(rows: Sequence[Mapping]) -> StatsReport:
    """Build the summary from outcome rows.

    Each row needs: scale (int), backend_id (str), key_id (str), status
    ("success"/"failure"), severity (str), timestamp (float).  Fairness and
    the chi-square test are computed over successful executions at the
    largest scale; key balance over all signed manifests at the largest
    scale; entropy series over per-scale severity distributions.
    """
    if not rows:
        raise DegenerateInput("no outcome rows")
    scales = sorted({int(r["scale"]) for r in rows})
    largest = scales[-1]

    backend_counts: Counter[str] = Counter()
    key_counts: Counter[str] = Counter()
    severity_by_scale: dict[int, Counter] = defaultdict(Counter)
    errors_by_scale: Counter[int] = Counter()
    totals_by_scale: Counter[int] = Counter()
    ts_by_scale: dict[int, list[float]] = defaultdict(list)
    pairs: list[tuple[int, bool]] = []

    for row in rows:
        scale = int(row["scale"])
        status_success = str(row["status"]) == "success"
        totals_by_scale[scale] += 1
        pairs.append((scale, status_success))
        if not status_success:
            errors_by_scale[scale] += 1
        severity_by_scale[scale][str(row["severity"])] += 1
        ts_by_scale[scale].append(float(row["timestamp"]))
        if scale == largest:
            if status_success and row.get("backend_id"):
                backend_counts[str(row["backend_id"])] += 1
            if row.get("key_id"):
                key_counts[str(row["key_id"])] += 1

    if not backend_counts:
        raise DegenerateInput("no successful executions at the largest scale")
    backend_freqs = list(frequencies(backend_counts).values())
    fairness = fairness_index(backend_freqs)
    sel_variance = selection_variance(backend_freqs)
    k = len(backend_counts)
    n_success = sum(backend_counts.values())
    chi = chi_square_gof(
        list(backend_counts.values()),
        [n_success / k] * k,
    )
    if key_counts:
        balance = fairness_index(list(frequencies(key_counts).values()))
    else:
        balance = 0.0

    successes = success_rate_series(pairs)
    if len(successes) >= 2:
        slope = linear_fit([(float(s), rate) for s, rate in successes]).slope
    else:
        slope = 0.0

    densities = error_density(
        [(scale, errors_by_scale.get(scale, 0)) for scale in scales]
    )

    severity_all: Counter = Counter()
    for counter in severity_by_scale.values():
        severity_all.update(counter)
    entropy_all = shannon_entropy(list(frequencies(severity_all).values()))

    entropy_series = []
    for scale in scales:
        h = shannon_entropy(list(frequencies(severity_by_scale[scale]).values()))
        entropy_series.append((float(scale), h))
    if len(entropy_series) >= 2 and all(h > 0 for _, h in entropy_series):
        elasticity: Optional[float] = entropy_elasticity(entropy_series)
    else:
        elasticity = None

    # Arrival times ramp linearly within a batch; detrend against row order
    # so the series measures timing dispersion, not the schedule span.
    var_series = []
    for scale in scales:
        ts = ts_by_scale[scale]
        if len(ts) >= 3:
            fit = linear_fit([(float(i), t) for i, t in enumerate(ts)])
            ss_res = sum(
                (t - (fit.slope * i + fit.intercept)) ** 2 for i, t in enumerate(ts)
            )
            var = ss_res / (len(ts) - 2)
            if var > 0:
                var_series.append((float(scale), var))
    if len(var_series) >= 2:
        var_exponent: Optional[float] = variance_exponent(var_series)
    else:
        var_exponent = None

    return StatsReport(
        scales=tuple(scales),
        backend_fairness=fairness,
        backend_selection_variance=sel_variance,
        backend_chi_square=chi,
        key_balance=balance,
        success_rates=tuple(successes),
        success_rate_slope=slope,
        error_densities=tuple(densities),
        severity_entropy_bits=entropy_all,
        entropy_elasticity=elasticity,
        timestamp_variance_exponent=var_exponent,
        backend_counts=dict(backend_counts),
        key_counts=dict(key_counts),
    )
