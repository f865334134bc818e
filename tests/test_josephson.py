"""The meV -> GHz conversion, the Ambegaokar-Baratoff chain, and the E_J distribution."""

import math

import numpy as np
import pytest

from jjvar.config import PipelineConfig
from jjvar.constants import ELEMENTARY_CHARGE, PLANCK_H
from jjvar.josephson import ej_distribution, ej_single
from jjvar.stats import BetaBinomial

from stats_reference import sample

HBAR = PLANCK_H / (2.0 * math.pi)  # J s

# The junction.* defaults: gap 0.20 meV, A 200x200 nm^2, A0 9.61x8.32, A1 34.17^2.
REFERENCE_PARAMS = PipelineConfig()


def reference_distribution(counts, ej_clean, ej_contaminated):
    return ej_distribution(
        counts, ej_clean, ej_contaminated, REFERENCE_PARAMS.patch_area, REFERENCE_PARAMS.md_area
    )


def mixed_ej(n_patches, params, ej_clean, ej_contaminated):
    """Oracle: the parallel-resistor mixture of N contaminated patches, written out."""
    w = n_patches * params.patch_area / params.area
    return (1.0 - w) * ej_clean + w * ej_contaminated


def transform_ej(n_patches, params, ej_clean, ej_contaminated):
    """E_J of N contaminated patches through the linear map n -> offset + slope n
    that ej_distribution builds.

    The map takes a count n over the reference area; N patches over the
    junction are n = N md_area / area.
    """
    counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
    dist = ej_distribution(counts, ej_clean, ej_contaminated, params.patch_area, params.md_area)
    return dist.offset + dist.slope * (n_patches * params.md_area / params.area)


class TestConvertEnergy:
    def test_mev_to_ghz(self):
        # 1e-3 * e / h / 1e9 with exact SI constants
        expected = 1e-3 * ELEMENTARY_CHARGE / PLANCK_H / 1e9
        assert expected == pytest.approx(241.798924, rel=1e-8)
        # (gap / 4) T A / A0 = 1 meV
        assert ej_single(1.0, 4.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)


class TestEjSingle:
    def test_zero_transmission(self):
        assert ej_single(0.0, 0.2, 1.0, 1.0) == 0.0

    def test_reference_transmissions(self):
        e_jj = ej_single(1.61e-5, 0.20, REFERENCE_PARAMS.area, REFERENCE_PARAMS.patch_area)
        e_jjh = ej_single(1.74e-5, 0.20, REFERENCE_PARAMS.area, REFERENCE_PARAMS.patch_area)
        # direct arithmetic: (gap/4) * T0 * A/A0, converted meV -> GHz
        mev_to_ghz = 1e-3 * ELEMENTARY_CHARGE / PLANCK_H / 1e9
        expected_jj = 0.05 * 1.61e-5 * (4e6 / 79.9552) * mev_to_ghz
        assert e_jj == pytest.approx(expected_jj, rel=1e-12)
        assert e_jj == pytest.approx(9.74, abs=0.01)
        assert e_jjh == pytest.approx(10.52, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ej_single(-1e-6, 0.2, 1.0, 1.0)


class TestCriticalCurrentChain:
    def test_chain_round_trip(self):
        # T -> R_N -> I_c -> E_J closes onto (gap/4) T within 1e-12
        gap_mev, t_fermi = 0.20, 1.61e-5
        r_n = PLANCK_H / (2.0 * ELEMENTARY_CHARGE**2 * t_fermi)
        i_c = math.pi * (gap_mev * 1e-3 * ELEMENTARY_CHARGE) / (2.0 * ELEMENTARY_CHARGE * r_n)
        ej_ghz = (HBAR / (2.0 * ELEMENTARY_CHARGE)) * i_c / PLANCK_H / 1e9
        direct = ej_single(t_fermi, gap_mev, 1.0, 1.0)
        assert ej_ghz == pytest.approx(direct, rel=1e-12)


class TestMixedEj:
    """The linear clean/contaminated mixture E_J(N), as the count transform evaluates it."""

    def test_endpoints(self):
        params = REFERENCE_PARAMS
        assert transform_ej(0, params, 9.7, 10.5) == pytest.approx(9.7)
        n_full = params.area / params.patch_area
        assert transform_ej(n_full, params, 9.7, 10.5) == pytest.approx(10.5)

    def test_midpoint(self):
        params = REFERENCE_PARAMS
        n_half = params.area / (2 * params.patch_area)
        assert transform_ej(n_half, params, 9.7, 10.5) == pytest.approx(0.5 * (9.7 + 10.5))

    def test_linear_extrapolation_beyond_unity_weight(self):
        # the reference-parameter regime: N A0 / A ~ 1.47 at the mean count
        params = REFERENCE_PARAMS
        n = (params.area / params.md_area) * 21.41
        assert n * params.patch_area / params.area == pytest.approx(1.4659, abs=1e-3)
        value = transform_ej(n, params, 9.7, 10.5)
        assert value > 10.5  # linear form extrapolates past the contaminated limit


class TestEjDistribution:
    def _reference_distribution(self):
        counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
        e_jj = ej_single(1.61e-5, 0.20, REFERENCE_PARAMS.area, REFERENCE_PARAMS.patch_area)
        e_jjh = ej_single(1.74e-5, 0.20, REFERENCE_PARAMS.area, REFERENCE_PARAMS.patch_area)
        return reference_distribution(counts, e_jj, e_jjh), e_jj, e_jjh

    def test_headline_numbers(self):
        dist, _, _ = self._reference_distribution()
        assert dist.mean() == pytest.approx(10.92, abs=0.05)
        assert dist.std() == pytest.approx(0.26, abs=0.02)

    def test_support_and_normalization(self):
        dist, e_jj, _ = self._reference_distribution()
        support = dist.support()
        probs = dist.probabilities()
        assert len(support) == 41
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        assert support[0] == pytest.approx(e_jj)
        assert all(b - a > 0 for a, b in zip(support, support[1:]))

    def test_degenerate_transmissions(self):
        counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
        dist = reference_distribution(counts, 9.7, 9.7)
        assert dist.std() == 0.0
        assert dist.mean() == pytest.approx(9.7)

    def test_monte_carlo_consistency(self):
        dist, e_jj, e_jjh = self._reference_distribution()
        counts = dist.counts
        draws = sample(counts, seed=77, k=10**6)
        n_patches = (REFERENCE_PARAMS.area / REFERENCE_PARAMS.md_area) * draws
        sampled = np.array(
            [mixed_ej(float(n), REFERENCE_PARAMS, e_jj, e_jjh) for n in n_patches[:200000]]
        )
        se = dist.std() / math.sqrt(sampled.size)
        assert abs(sampled.mean() - dist.mean()) < 3 * se

    def test_mean_equals_mixed_ej_at_mean_count(self):
        dist, e_jj, e_jjh = self._reference_distribution()
        n_mean = (REFERENCE_PARAMS.area / REFERENCE_PARAMS.md_area) * dist.counts.mean()
        assert dist.mean() == pytest.approx(mixed_ej(n_mean, REFERENCE_PARAMS, e_jj, e_jjh), rel=1e-12)

    def test_std_scales_with_transmission_gap(self):
        counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
        d1 = reference_distribution(counts, 9.7, 10.1)
        d2 = reference_distribution(counts, 9.7, 10.5)
        assert d2.std() == pytest.approx(2.0 * d1.std(), rel=1e-12)

    def test_mean_monotone_in_contaminated_energy(self):
        counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
        means = [
            reference_distribution(counts, 9.7, e_jjh).mean()
            for e_jjh in (9.7, 10.0, 10.5, 11.0)
        ]
        assert means == sorted(means)

    def test_transform_validation(self):
        counts = BetaBinomial.from_shapes(17.69, 15.36, 40)
        for e_jj, e_jjh in ((math.inf, 9.7), (9.7, math.inf), (math.nan, 9.7)):
            with pytest.raises(ValueError, match="must be finite"):
                reference_distribution(counts, e_jj, e_jjh)
        # Finite energies whose slope overflows.
        with pytest.raises(ValueError, match="must be finite"):
            ej_distribution(counts, 0.0, 1e300, 1e10, 1e-10)
