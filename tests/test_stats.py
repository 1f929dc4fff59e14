"""Estimator tests.

Hand-computable values first, then planted-parameter recovery, then a
numpy.polyfit cross-check so the in-package regression is validated against
an independent implementation.
"""

import math

import numpy as np
import pytest

from manifestd.errors import DegenerateInput, DomainError
from manifestd.stats import (
    chi_square_gof,
    entropy_elasticity,
    error_density,
    fairness_index,
    frequencies,
    linear_fit,
    loglog_fit,
    report_from_rows,
    selection_variance,
    shannon_entropy,
    success_rate_series,
    variance_exponent,
)


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([(x, 3.0 * x - 2.0) for x in range(10)])
        assert fit.slope == pytest.approx(3.0)
        assert fit.intercept == pytest.approx(-2.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.n == 10

    def test_matches_numpy_polyfit(self):
        rng = np.random.Generator(np.random.Philox(11))
        x = np.linspace(1, 50, 40)
        y = 0.7 * x + 5 + rng.normal(0, 2.0, size=40)
        fit = linear_fit(list(zip(x.tolist(), y.tolist())))
        slope_np, intercept_np = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope_np, rel=1e-9)
        assert fit.intercept == pytest.approx(intercept_np, rel=1e-9)
        ss_res = float(np.sum((y - (slope_np * x + intercept_np)) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-9)

    def test_flat_series(self):
        fit = linear_fit([(x, 4.2) for x in range(5)])
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_two_points(self):
        fit = linear_fit([(0.0, 1.0), (2.0, 5.0)])
        assert fit.slope == pytest.approx(2.0)
        assert fit.slope_stderr == 0.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            linear_fit([(1.0, 1.0)])
        with pytest.raises(DegenerateInput):
            linear_fit([(2.0, 1.0), (2.0, 5.0)])


class TestLogLogFit:
    def test_planted_power_law(self):
        series = [(float(n), 0.7 * n**1.02) for n in (10, 100, 1000, 10000)]
        fit = loglog_fit(series)
        assert fit.slope == pytest.approx(1.02, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log10(0.7), abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_identity_law(self):
        fit = loglog_fit([(float(n), float(n)) for n in (1, 10, 100)])
        assert fit.slope == pytest.approx(1.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_values(self):
        with pytest.raises(DomainError):
            loglog_fit([(0.0, 1.0), (10.0, 2.0)])
        with pytest.raises(DomainError):
            loglog_fit([(1.0, -5.0), (10.0, 2.0)])

    def test_variance_exponent_recovers_planted_value(self):
        series = [(float(n), 0.003 * n**1.3) for n in (100, 500, 1000, 5000, 10000)]
        assert variance_exponent(series) == pytest.approx(1.3, abs=1e-9)

    def test_entropy_elasticity_recovers_planted_value(self):
        series = [(float(n), 2.0 * n**0.4) for n in (10, 100, 1000)]
        assert entropy_elasticity(series) == pytest.approx(0.4, abs=1e-9)


class TestDistributionMeasures:
    def test_fairness_hand_values(self):
        assert fairness_index([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1.0)
        assert fairness_index([0.5, 0.5]) == pytest.approx(1.0)
        assert fairness_index([0.8, 0.2]) == pytest.approx(0.7)
        # monopoly reaches the 1/k floor
        assert fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_key_balance_is_the_same_measure(self):
        rows = [row for row in synthetic_rows() if row["scale"] == 1000]
        share = sum(row["key_id"] == "k1" for row in rows) / len(rows)
        balance = report_from_rows(rows).key_balance
        assert balance == pytest.approx(fairness_index([share, 1 - share]))

    def test_selection_variance_hand_values(self):
        assert selection_variance([0.5, 0.5]) == 0.0
        assert selection_variance([0.8, 0.2]) == pytest.approx(0.09)

    def test_probability_vector_validation(self):
        with pytest.raises(DomainError):
            fairness_index([0.5, 0.6])
        with pytest.raises(DomainError):
            fairness_index([0.5, -0.5, 1.0])
        with pytest.raises(DegenerateInput):
            fairness_index([])

    def test_entropy_hand_values(self):
        assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5)
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_frequencies_normalizes(self):
        freqs = frequencies({"a": 6, "b": 2})
        assert freqs == {"a": 0.75, "b": 0.25}
        with pytest.raises(DegenerateInput):
            frequencies({"a": 0})


class TestChiSquare:
    def test_hand_value(self):
        result = chi_square_gof([60, 40], [50, 50])
        assert result.statistic == pytest.approx(4.0)
        assert result.dof == 1
        assert result.cramers_v == pytest.approx(0.2)

    def test_uniform_sample_has_small_effect_size(self):
        rng = np.random.Generator(np.random.Philox(5))
        counts = rng.multinomial(30_000, [1 / 3] * 3)
        expected = [10_000.0] * 3
        result = chi_square_gof(counts.tolist(), expected)
        assert result.cramers_v < 0.05

    def test_effect_size_is_clamped(self):
        result = chi_square_gof([1000, 0], [1, 999])
        assert result.cramers_v == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chi_square_gof([1, 2], [1.0])
        with pytest.raises(DomainError):
            chi_square_gof([1, 2], [0.0, 3.0])
        with pytest.raises(DomainError):
            chi_square_gof([-1, 2], [1.0, 1.0])
        with pytest.raises(DegenerateInput):
            chi_square_gof([5], [5.0])


class TestSeriesHelpers:
    def test_error_density(self):
        out = error_density([(100, 20), (200, 20)])
        assert out == [(100, 0.2), (200, 0.1)]
        with pytest.raises(DomainError):
            error_density([(0, 1)])

    def test_success_rate_series(self):
        pairs = [(10, True), (10, False), (5, True), (5, True)]
        assert success_rate_series(pairs) == [(5, 1.0), (10, 0.5)]
        with pytest.raises(DegenerateInput):
            success_rate_series([])


def synthetic_rows(scales=(100, 500, 1000), variance_coeff=0.004, exponent=1.3, seed=17):
    """Outcome rows with planted backend uniformity and timestamp dispersion."""
    rng = np.random.Generator(np.random.Philox(seed))
    rows = []
    backends = ["b0", "b1", "b2"]
    for scale in scales:
        sd = math.sqrt(variance_coeff * scale**exponent)
        for i in range(scale):
            success = rng.random() < 0.8
            rows.append(
                {
                    "scale": scale,
                    "backend_id": backends[int(rng.integers(3))] if success else "",
                    "key_id": "k1" if rng.random() < 0.5 else "k2",
                    "status": "success" if success else "failure",
                    "severity": "ok" if success else ("warn" if rng.random() < 0.4 else "block"),
                    # linear arrival ramp plus planted dispersion noise
                    "timestamp": 1000.0 + 2.0 * i + rng.normal(0.0, sd),
                }
            )
    return rows


class TestReportFromRows:
    def test_planted_values_recovered(self):
        report = report_from_rows(synthetic_rows(scales=(200, 1000, 5000, 20000)))
        assert report.scales == (200, 1000, 5000, 20000)
        assert report.backend_fairness > 0.97
        assert report.backend_selection_variance < 3.1e-4
        assert 0.75 < dict(report.success_rates)[20000] < 0.85
        assert report.backend_chi_square.cramers_v < 0.05
        # detrending must expose the planted dispersion exponent even though
        # the arrival ramp's variance would otherwise swamp it
        assert report.timestamp_variance_exponent == pytest.approx(1.3, abs=0.25)

    def test_key_balance_reflects_even_split(self):
        report = report_from_rows(synthetic_rows())
        assert report.key_balance > 0.95

    def test_empty_rows_rejected(self):
        with pytest.raises(DegenerateInput):
            report_from_rows([])

    def test_json_dict_is_serializable(self):
        import json
        from dataclasses import asdict

        report = report_from_rows(synthetic_rows())
        blob = json.dumps(asdict(report))
        assert "backend_fairness" in blob
