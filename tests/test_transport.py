"""NEGF engine vs analytic lead Green's functions and the transfer-matrix oracle."""

import dataclasses
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jjvar import transport
from jjvar.config import PipelineConfig
from jjvar.transport import (
    CalibrationError,
    JunctionModel,
    NumericalError,
    TransmissionCurve,
    apply_defect,
    calibrate_barrier,
    default_model,
    fit_transmission_shift,
    lead_surface_gf,
    transfer_matrix_transmission,
    transmission,
)

from transport_reference import band_halfwidth, shift_sites


def analytic_1d_gf(eps, t, energy, eta=0.0):
    z = complex(energy, eta) - eps
    return (z - 1j * np.sqrt(4 * t * t - z * z + 0j)) / (2 * t * t)


class TestSurfaceGreenFunction:
    """Physical limits of the closed-form lead surface Green's function."""

    def test_band_center_resonance(self):
        g = lead_surface_gf(0.0, 1.0, 0.0)
        expected = analytic_1d_gf(0.0, 1.0, 0.0)
        assert abs(g - expected) < 1e-8

    @pytest.mark.parametrize("eta", [1e-4, 1e-6, 1e-8])
    def test_in_band_sweep(self, eta):
        # The closed form is the eta -> 0+ limit of the broadened function.
        # |dg/dE| < 1.2 for |E - eps| <= 1.8 t, so the two differ by < 2 eta;
        # the wrong branch anywhere in the band would differ by O(1).
        for energy in np.linspace(-1.8, 1.8, 13):
            g = lead_surface_gf(0.3, 1.0, float(energy) + 0.3)
            expected = analytic_1d_gf(0.3, 1.0, float(energy) + 0.3, eta)
            assert abs(g - expected) < 2.0 * eta

    def test_outside_band_nearly_real(self):
        g = lead_surface_gf(0.0, 1.0, 10.0)
        assert abs(g.imag) < 1e-8
        decaying_root = (10.0 - math.sqrt(10.0**2 - 4.0)) / 2.0
        assert g.real == pytest.approx(decaying_root, abs=1e-8)

    def test_decoupled_chain(self):
        g = lead_surface_gf(1.5, 0.0, 2.0)
        assert g == pytest.approx(1.0 / (2.0 - 1.5), rel=1e-12)

    def test_retarded_branch(self):
        energies = np.linspace(-6.0, 6.0, 241)
        for onsite, hopping in [(0.0, 1.0), (0.3, 0.9), (-0.4, 0.2)]:
            g = lead_surface_gf(onsite, hopping, energies)
            assert np.all(g.imag <= 1e-12)
            in_band = np.abs(energies - onsite) < 2.0 * hopping
            assert np.all(g.imag[in_band] < 0.0)
            # Dyson equation of the semi-infinite chain on every energy
            dyson = 1.0 / (energies - onsite - hopping * hopping * g)
            np.testing.assert_allclose(g, dyson, rtol=1e-12)


class TestLeadClosedForm:
    def test_matches_retarded_limit_in_band(self):
        for energy in np.linspace(-1.9, 1.9, 21):
            g = lead_surface_gf(0.0, 1.0, float(energy))
            expected = analytic_1d_gf(0.0, 1.0, float(energy))
            assert g == pytest.approx(expected, rel=1e-12)

    def test_out_of_band_decaying_root(self):
        g = lead_surface_gf(0.0, 1.0, 5.0)
        # g must satisfy g = 1/(E - t^2 g) on the decaying branch
        assert g == pytest.approx(1.0 / (5.0 - g), rel=1e-12)
        assert abs(g) < 1.0

    def test_zero_hopping(self):
        assert lead_surface_gf(1.0, 0.0, 3.0) == pytest.approx(0.5)


class TestTransmission:
    def test_uniform_chain_is_transparent(self):
        model = default_model(barrier_sites=12, height=0.0)
        half = band_halfwidth(model)
        grid = np.linspace(-0.9 * half, 0.9 * half, 201)
        curve = transmission(model, grid)
        assert np.max(np.abs(curve.values - 1.0)) < 1e-10

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.3, 6.0),
        st.sampled_from([1.0, -1.0]),
        st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_default_model_follows_configured_lead(self, onsite, magnitude, sign, sites):
        # At height 0 the barrier, the coupling and the leads form one perfect
        # chain.
        model = default_model(
            barrier_sites=sites, height=0.0, lead_onsite=onsite, lead_hopping=sign * magnitude
        )
        grid = onsite + np.linspace(-0.9, 0.9, 37) * band_halfwidth(model)
        assert np.max(np.abs(transmission(model, grid).values - 1.0)) < 1e-10

    def test_calibration_height_ignores_lead_onsite(self):
        heights = {
            onsite: calibrate_barrier(1.61e-5, base=default_model(lead_onsite=onsite)).height
            for onsite in (0.0, 1.0, -2.5)
        }
        assert heights[1.0] == pytest.approx(heights[0.0], abs=1e-9)
        assert heights[-2.5] == pytest.approx(heights[0.0], abs=1e-9)

    def test_calibration_evaluates_at_the_lead_onsite(self):
        # The Fermi level of any model is its lead on-site energy.
        built = calibrate_barrier(1.61e-5, base=JunctionModel(lead_onsite=1.0))
        default = calibrate_barrier(1.61e-5, base=default_model(lead_onsite=1.0))
        assert built.height == default.height
        assert built.model == default.model

    def test_single_site_barrier_matches_oracle(self):
        model = JunctionModel(
            lead_onsite=0.0,
            lead_hopping=2.0,
            barrier_onsite=(1.3,),
            barrier_hopping=2.0,
            coupling=1.5,
        )
        for energy in (-3.0, -1.0, 0.2, 2.5):
            t_negf = transmission(model, np.array([energy])).values[0]
            t_tm = transfer_matrix_transmission(model, energy)
            assert t_negf == pytest.approx(t_tm, rel=1e-10)

    def test_opaque_barrier(self):
        model = default_model(barrier_sites=4, height=1e6)
        value = transmission(model, np.array([0.0])).values[0]
        assert value < 1e-20

    def test_random_models_vs_transfer_matrix(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            model = JunctionModel(
                lead_onsite=float(rng.uniform(-1, 1)),
                lead_hopping=float(rng.uniform(1.0, 4.0)),
                barrier_onsite=tuple(rng.uniform(-6, 8, size=n)),
                barrier_hopping=float(rng.uniform(0.5, 4.0)),
                coupling=float(rng.uniform(0.5, 4.0)),
            )
            half = band_halfwidth(model)
            energies = model.lead_onsite + np.linspace(-0.9, 0.9, 21) * half
            curve = transmission(model, energies)
            for energy, t_negf in zip(energies, curve.values):
                t_tm = transfer_matrix_transmission(model, float(energy))
                assert abs(t_negf - t_tm) <= 1e-10 * t_tm

    def test_reciprocity(self):
        import dataclasses

        model = JunctionModel(barrier_onsite=(5.0, 7.5, 6.0, 8.8), coupling=2.0)
        flipped = dataclasses.replace(model, barrier_onsite=model.barrier_onsite[::-1])
        grid = np.linspace(-5, 5, 101)
        t1 = transmission(model, grid).values
        t2 = transmission(flipped, grid).values
        assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_channel_bound(self):
        model = default_model(barrier_sites=6, height=3.0)
        grid = np.linspace(-8.0, 8.0, 401)
        curve = transmission(model, grid)
        assert np.all(curve.values <= curve.channels + 1e-9)
        assert np.all(curve.values >= 0.0)
        inside = np.abs(grid) < band_halfwidth(model)
        assert np.array_equal(curve.channels, inside.astype(int))

    def test_continuity_on_fine_grid(self):
        model = calibrate_barrier(1.61e-5, base=default_model()).model
        grid = np.arange(-5.0, 5.0, 1e-3)
        curve = transmission(model, grid)
        inside = np.abs(grid) < 0.98 * band_halfwidth(model)
        values = curve.values[inside]
        ratio = values[1:] / values[:-1]
        assert np.all(ratio < 10.0) and np.all(ratio > 0.1)

    def test_grid_validation(self):
        model = default_model()
        with pytest.raises(ValueError):
            transmission(model, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            transmission(model, np.array([0.0, 30.0]))
        for energies in ([0.0, math.nan, 1.0], [math.nan]):
            with pytest.raises(ValueError):
                transmission(model, energies)
            with pytest.raises(ValueError):
                TransmissionCurve(energies, np.zeros(len(energies)), np.zeros(len(energies)))

    def test_curve_bounds(self):
        # 0 <= T <= 1 where the channel is open, T = 0 (to 1e-9) where closed.
        grid = np.array([0.0, 1.0])
        TransmissionCurve(grid, np.array([1.0, 1e-10]), np.array([True, False]))
        for values in ([1.1, 0.0], [-1e-6, 0.0], [0.5, 1e-6], [0.5, math.nan], [math.nan, 0.0]):
            with pytest.raises(ValueError):
                TransmissionCurve(grid, np.array(values), np.array([True, False]))

    def test_singular_solve_reported(self):
        # decoupled middle site resonant with E makes the device matrix singular
        model = JunctionModel(barrier_onsite=(1.0, 0.0, 1.0), barrier_hopping=0.0, coupling=1.0)
        with pytest.raises(NumericalError, match="singular"):
            transmission(model, np.array([0.0]))

    def test_singular_energy_inside_grid_reported(self):
        model = JunctionModel(barrier_onsite=(1.0, 0.0, 1.0), barrier_hopping=0.0, coupling=1.0)
        grid = np.linspace(-1.0, 1.0, 9)  # E = 0 is the fifth point
        with pytest.raises(NumericalError, match="singular"):
            transmission(model, grid)
        np.testing.assert_array_equal(transmission(model, grid[:4]).values, 0.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            JunctionModel(barrier_onsite=())


class TestTransmissionBlocks:
    """The sweep runs transport._BLOCK energies at a time; block edges must not show."""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("blocks", [1, 2])
    @pytest.mark.parametrize("span", [(-8.0, 8.0), (-6.5, 14.0), (-19.0, 6.5)])
    def test_matches_transfer_matrix_across_block_edges(self, blocks, offset, span):
        # Both ends of each span lie outside the +-6 eV lead band, so closed
        # stretches straddle the block edges (the last point of 2 blocks + 1
        # is alone in its block; (-19, 6.5) leaves the first block closed).
        model = default_model(barrier_sites=6, height=3.0)
        grid = np.linspace(*span, blocks * transport._BLOCK + offset)
        curve = transmission(model, grid)
        inside = np.abs(grid) < band_halfwidth(model)
        np.testing.assert_array_equal(curve.channels, inside)
        assert curve.channels.dtype == bool
        np.testing.assert_array_equal(curve.values[~inside], 0.0)
        expected = np.array([transfer_matrix_transmission(model, float(e)) for e in grid[inside]])
        assert np.all(np.abs(curve.values[inside] - expected) <= 1e-10 * expected)

    def test_singular_energy_in_second_block_named(self):
        # Decoupled middle sites make the device singular at E = 0.25 (second
        # block) and E = 1.5 (third block); the lower one is reported.
        model = JunctionModel(
            barrier_onsite=(1.0, 0.25, 1.5, 1.0), barrier_hopping=0.0, coupling=1.0
        )
        block = transport._BLOCK
        grid = np.arange(3 * block) / block - 1.0  # exact: 0.25 at index 1.25 block
        with pytest.raises(NumericalError, match=r"at E = 0\.25 eV"):
            transmission(model, grid)
        with pytest.raises(NumericalError, match=r"at E = 1\.5 eV"):
            transmission(model, grid[grid > 0.5])

    def test_default_grid_is_one_block(self):
        assert transport._BLOCK >= PipelineConfig().grid_points

    def test_memory_per_point_bounded(self):
        # The persistent result is 9 bytes per point (float64 values and a
        # bool mask); the sweep's temporaries are per block, not per point.
        model = default_model()
        grid = np.linspace(-5.0, 5.0, 200_001)
        transmission(model, grid[:10])
        tracemalloc.start()
        try:
            transmission(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * grid.size


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def random_chains(draw):
    """A random lead/barrier/lead chain and in-band energies."""
    sites = draw(st.integers(1, 16))
    model = JunctionModel(
        lead_onsite=draw(_floats(-1.0, 1.0)),
        lead_hopping=draw(_floats(1.0, 4.0)),
        barrier_onsite=tuple(draw(st.lists(_floats(-6.0, 8.0), min_size=sites, max_size=sites))),
        barrier_hopping=draw(_floats(0.5, 4.0)),
        coupling=draw(_floats(0.5, 4.0)),
    )
    fractions = draw(st.lists(_floats(-0.9, 0.9), min_size=1, max_size=12))
    energies = np.unique(model.lead_onsite + np.array(fractions) * band_halfwidth(model))
    return model, energies


class TestTransmissionProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_chains())
    def test_grid_recursion_matches_transfer_matrix(self, chain):
        model, energies = chain
        curve = transmission(model, energies)
        for energy, t_negf in zip(energies, curve.values):
            t_tm = transfer_matrix_transmission(model, float(energy))
            assert abs(t_negf - t_tm) <= 1e-10 * t_tm


class TestTransferMatrix:
    def test_uniform_chain(self):
        model = default_model(barrier_sites=7, height=0.0)
        for energy in (-4.0, 0.0, 3.3):
            assert transfer_matrix_transmission(model, energy) == pytest.approx(1.0, abs=1e-12)

    def test_log_transmission_linear_in_length(self):
        values = []
        for n in (4, 8, 12):
            model = default_model(barrier_sites=n, height=8.0)
            values.append(math.log(transfer_matrix_transmission(model, 0.0)))
        slope1 = values[1] - values[0]
        slope2 = values[2] - values[1]
        assert slope1 == pytest.approx(slope2, rel=1e-3)

    def test_outside_band_rejected(self):
        model = default_model()
        with pytest.raises(ValueError):
            transfer_matrix_transmission(model, 7.0)


class TestCalibration:
    def test_default_target(self):
        result = calibrate_barrier(1.61e-5, base=default_model())
        assert abs(result.transmission - 1.61e-5) <= 1e-3 * 1.61e-5
        check = transmission(result.model, np.array([0.0])).values[0]
        assert check == pytest.approx(result.transmission, rel=1e-12)

    def test_transparent_target_returns_lower_bound(self):
        result = calibrate_barrier(1.0, base=default_model(), bounds=(0.0, 10.0))
        assert result.height == 0.0
        assert result.transmission == pytest.approx(1.0, abs=1e-10)

    def test_unbracketed_target(self):
        with pytest.raises(CalibrationError) as err:
            calibrate_barrier(0.5, base=default_model(), bounds=(8.0, 20.0))
        # The message quotes the endpoint transmissions, both below the target.
        quoted = re.fullmatch(
            r"target 0\.5 not bracketed by heights 8\.0\.\.20\.0 eV "
            r"\(endpoint transmissions (\S+), (\S+)\)",
            str(err.value),
        )
        assert quoted and all(float(t) < 0.5 for t in quoted.groups())

    def test_default_heights_and_bisections(self):
        results = [calibrate_barrier(t, base=default_model()) for t in (1.61e-5, 1.74e-5)]
        assert [(r.height, r.iterations) for r in results] == [
            (6.60369873046875, 15),
            (6.5929412841796875, 17),
        ]

    @pytest.mark.parametrize("hi", [1e30, 1e308])
    def test_wide_bracket_meets_the_tolerance(self, hi):
        result = calibrate_barrier(1.61e-5, base=default_model(), bounds=(0.0, hi))
        assert abs(result.transmission - 1.61e-5) <= 1e-3 * 1.61e-5

    def test_step_in_transmission_exhausts_the_bracket(self, monkeypatch):
        # T jumps from 1 to 0 at height 5: no height meets the target, and
        # bisection narrows the bracket to two adjacent floats around 5.
        def step(model, energies):
            height = model.barrier_onsite[0] - model.lead_onsite
            value = np.array([float(height < 5.0)])
            return TransmissionCurve(np.asarray(energies), value, np.ones(1, dtype=bool))

        monkeypatch.setattr(transport, "transmission", step)
        with pytest.raises(NumericalError) as err:
            calibrate_barrier(0.5, base=default_model(), bounds=(0.0, 10.0))
        lo = math.nextafter(5.0, 0.0)
        assert str(err.value) == (
            "barrier calibration did not reach |T - target|/target <= 0.001 "
            f"before the bracket {lo!r}..5.0 eV held no midpoint"
        )


class TestDefects:
    def test_zero_shift_identity(self):
        model = calibrate_barrier(1.61e-5, base=default_model()).model
        grid = np.linspace(-3, 3, 301)
        base = transmission(model, grid).values
        shifted = transmission(apply_defect(model, 0.0), grid).values
        np.testing.assert_array_equal(base, shifted)

    def test_negative_shift_raises_fermi_transmission(self):
        model = calibrate_barrier(1.61e-5, base=default_model()).model
        values = [
            transmission(apply_defect(model, dv), np.array([0.0])).values[0]
            for dv in (0.0, -0.2, -0.4)
        ]
        assert values[0] < values[1] < values[2]

    def test_shift_moves_every_site(self):
        model = JunctionModel(barrier_onsite=(6.0, 5.5, 7.25, 6.0))
        shifted = apply_defect(model, -1.0)
        assert shifted.barrier_onsite == (5.0, 4.5, 6.25, 5.0)
        assert dataclasses.replace(shifted, barrier_onsite=model.barrier_onsite) == model

    def test_fitted_shift_tracks_applied_shift(self):
        model = calibrate_barrier(1.61e-5, base=default_model()).model
        grid = np.linspace(-5, 5, 2001)
        reference = transmission(model, grid)
        shifted = transmission(apply_defect(model, -0.3), grid)
        s = fit_transmission_shift(reference, shifted, window=(-2, 2), shift_bounds=(-1, 1))
        assert 0.2 <= s <= 0.4

    def test_shift_fit_validation(self):
        grid = np.linspace(-1, 1, 11)
        curve = TransmissionCurve(grid, np.full(11, 0.5), np.ones(11, dtype=int))
        with pytest.raises(ValueError):
            fit_transmission_shift(curve, curve, window=(-1.0, 1.0), shift_bounds=(1.0, -1.0))


class TestTunnelingDecay:
    def test_r_squared_over_lengths(self):
        height = calibrate_barrier(1.61e-5, base=default_model()).height
        lengths = np.arange(4, 17)
        log_t = []
        for n in lengths:
            model = default_model(barrier_sites=int(n), height=height)
            log_t.append(math.log(transmission(model, np.array([0.0])).values[0]))
        log_t = np.array(log_t)
        design = np.vstack([lengths, np.ones_like(lengths)]).T.astype(float)
        coef, residual, *_ = np.linalg.lstsq(design, log_t, rcond=None)
        ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
        r_squared = 1.0 - float(residual[0]) / ss_tot
        assert r_squared > 0.999
        assert coef[0] < 0.0


def _full_scan_shift(reference, shifted, *, window, shift_bounds):
    """The shift fit with all 801 scan points evaluated: the result the pruned
    scan of `fit_transmission_shift` must reproduce bit for bit."""
    lo, hi = window
    mask = (shifted.energies >= lo) & (shifted.energies <= hi) & (shifted.values > 0)
    if mask.sum() < 3:
        raise ValueError("window leaves fewer than 3 usable points for the shift fit")
    e_pts = shifted.energies[mask]
    log_shifted = np.log(shifted.values[mask])
    ref_ok = reference.values > 0
    ref_e = reference.energies[ref_ok]
    ref_log = np.log(reference.values[ref_ok])

    def objective(s):
        interp = np.interp(e_pts + s, ref_e, ref_log)
        return float(np.mean((log_shifted - interp) ** 2))

    scan = np.linspace(shift_bounds[0], shift_bounds[1], 801)
    best = int(np.argmin([objective(s) for s in scan]))
    a = scan[max(best - 1, 0)]
    b = scan[min(best + 1, scan.size - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(80):
        if b - a < 1e-10:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = objective(x2)
    return float(0.5 * (a + b))


@st.composite
def shift_fit_cases(draw):
    """(reference, shifted, window, shift_bounds) over random junctions, with
    uniform or scattered grids that may differ between the two curves."""
    sites = draw(st.integers(1, 14))
    onsite = draw(_floats(-1.0, 1.0))
    hopping = draw(_floats(1.0, 4.0))
    model = default_model(
        barrier_sites=sites, height=draw(_floats(0.0, 10.0)), lead_onsite=onsite, lead_hopping=hopping
    )
    defect_sites = draw(st.none() | st.lists(st.integers(0, sites - 1), min_size=1, unique=True))
    shift = draw(_floats(-1.0, 1.0))
    if defect_sites is None:
        shifted_model = apply_defect(model, shift)
    else:
        shifted_model = shift_sites(model, shift, defect_sites)
    halfwidth = 2.0 * hopping * draw(_floats(0.2, 1.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def grid():
        points = draw(st.integers(8, 1500))
        if draw(st.booleans()):
            return onsite + np.linspace(-halfwidth, halfwidth, points)
        return onsite + np.unique(rng.uniform(-halfwidth, halfwidth, points))

    reference_grid = grid()
    shifted_grid = grid() if draw(st.booleans()) else reference_grid
    lo, hi = sorted(onsite + halfwidth * np.array(draw(st.tuples(_floats(-1, 1), _floats(-1, 1)))))
    s_lo = draw(_floats(-3.0, 3.0))
    s_hi = s_lo + draw(st.sampled_from([1e-6, 0.01]) | _floats(0.01, 4.0))
    return (
        transmission(model, reference_grid),
        transmission(shifted_model, shifted_grid),
        (float(lo), float(hi)),
        (s_lo, s_hi),
    )


def _cli_shift_case(points):
    """The curves, window and shift bounds of `jjvar transmission --grid points`."""
    clean = calibrate_barrier(1.61e-5, base=default_model())
    delta_v = calibrate_barrier(1.74e-5, base=default_model()).height - clean.height
    grid = np.linspace(-5.0, 5.0, points)
    return (
        transmission(clean.model, grid),
        transmission(apply_defect(clean.model, delta_v), grid),
        (-2.0, 2.0),
        (-1.0, 1.0),
    )


def _raised_barrier_case(shift_bounds):
    """A barrier raised by 0.5 eV: the best shift is near -0.5 eV, so the scan
    minimum sits at the first point of (0, 1) and the last point of (-2, -1)."""
    model = default_model(height=4.0)
    grid = np.linspace(-5.0, 5.0, 1001)
    return (
        transmission(model, grid),
        transmission(apply_defect(model, 0.5), grid),
        (-2.0, 2.0),
        shift_bounds,
    )


def _clamped_reference_case():
    """Reference grid on [-1, 1] eV, reached from [-3.5, 3.5] eV: np.interp clamps."""
    model = default_model(height=6.0)
    return (
        transmission(model, np.linspace(-1.0, 1.0, 201)),
        transmission(apply_defect(model, -0.3), np.linspace(-3.0, 3.0, 601)),
        (-2.5, 2.5),
        (-1.0, 1.0),
    )


def _log_curve(energies, log_t):
    return TransmissionCurve(energies, np.exp(log_t), np.ones(energies.size, dtype=int))


def _periodic_case():
    """A triangle-wave ln T, translated: the scan has several basins of equal
    depth, and the best coarse point lies in another basin than the minimum.
    Only the full slope K keeps that minimum's neighbours in the scan."""
    energies = np.linspace(-3.0, 3.0, 601)

    def log_t(e):
        return -1.0 - 9.6 * np.abs(np.mod(e / 0.646, 1.0) - 0.5)

    reference = _log_curve(energies, log_t(energies))
    return reference, _log_curve(energies, log_t(energies - 0.0436)), (-1.0, 1.0), (-1.0, 1.0)


def _rounding_noise_case():
    """Both ln T flat up to 3 ulps: the costs differ by rounding more than the
    slope bound allows, and only the rounding margin keeps the minimum in."""
    rng = np.random.default_rng(1)
    ref_e, energies = np.linspace(-3.0, 3.0, 20), np.linspace(-1.0, 1.0, 44)
    ref_log = -1.0 + 3 * np.spacing(1.0) * rng.integers(-1, 2, ref_e.size)
    log_t = -2.0 + 3 * np.spacing(2.0) * rng.integers(-1, 2, energies.size)
    return _log_curve(ref_e, ref_log), _log_curve(energies, log_t), (-1.0, 1.0), (-1.0, 1.0)


@st.composite
def zero_run_curves(draw):
    """A curve whose values hold zero runs of random lengths, some longer than
    the drawn block size, and a query range [q_lo, q_hi] over its energies."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 40)), min_size=1, max_size=12))
    values = np.concatenate([np.full(n, 0.5 if positive else 0.0) for positive, n in runs])
    energies = np.arange(values.size, dtype=float)
    query = _floats(-5.0, values.size + 5.0)
    q_lo, q_hi = sorted(draw(st.tuples(query, query)))
    return TransmissionCurve(energies, values, np.ones(values.size, dtype=bool)), q_lo, q_hi


class TestShiftReferenceSlice:
    """The shift fit reads the reference only within reach of its queries."""

    @settings(max_examples=200, deadline=None)
    @given(zero_run_curves(), st.integers(1, 8))
    def test_reach_is_the_positive_slice(self, case, block):
        # The positive points of the stretch are those of the whole positive
        # reference from two before q_lo to two from q_hi on.
        curve, q_lo, q_hi = case
        positive = curve.values > 0
        ref_e = curve.energies[positive]
        first, last = np.searchsorted(ref_e, [q_lo, q_hi])
        with mock.patch.object(transport, "_BLOCK", block):
            reach = transport._positive_reach(curve, q_lo, q_hi)
        stretch = curve.energies[reach][positive[reach]]
        np.testing.assert_array_equal(stretch, ref_e[max(first - 2, 0) : last + 2])

    @settings(max_examples=60, deadline=None)
    @given(shift_fit_cases(), st.integers(1, 8))
    @example(_clamped_reference_case(), 2)
    def test_matches_whole_reference(self, case, block):
        # Small blocks make the zero runs of the curves span several of them.
        reference, shifted, window, shift_bounds = case
        try:
            expected = _full_scan_shift(reference, shifted, window=window, shift_bounds=shift_bounds)
        except ValueError:
            return
        with mock.patch.object(transport, "_BLOCK", block):
            got = fit_transmission_shift(reference, shifted, window=window, shift_bounds=shift_bounds)
        assert got == expected


class TestShiftScanPruning:
    @settings(max_examples=60, deadline=None)
    @given(shift_fit_cases())
    @example(_cli_shift_case(2001))
    @example(_cli_shift_case(20001))
    @example(_raised_barrier_case((0.0, 1.0)))
    @example(_raised_barrier_case((-2.0, -1.0)))
    @example(_clamped_reference_case())
    @example(_periodic_case())
    @example(_rounding_noise_case())
    def test_matches_full_scan(self, case):
        reference, shifted, window, shift_bounds = case
        try:
            expected = _full_scan_shift(reference, shifted, window=window, shift_bounds=shift_bounds)
        except ValueError:
            with pytest.raises(ValueError):
                fit_transmission_shift(reference, shifted, window=window, shift_bounds=shift_bounds)
            return
        got = fit_transmission_shift(reference, shifted, window=window, shift_bounds=shift_bounds)
        assert got == expected
