"""Laboratory parameter translation and hardware feasibility checks."""

import math

import pytest

import chronokey as ck

# frozen: 30-digit conversions for a 2 nm resolution at 1550 nm
BIN_FREQUENCY_HZ = 249567082622.26847
REQUIRED_MOD_FREQUENCY_HZ = 49913416524.453694
# frozen: fiber realization of the designed 16-bin lens at 30 ps^2/km,
# in the two dispersion bookkeeping conventions
ORDINARY_GVD_S2 = 6.6898157058378499e-24
ORDINARY_FIBER_M = 222.99385686126166
ORDINARY_APERTURE_S = 2.0034693467839007e-11
ANGULAR_GVD_S2 = 1.6945501141614807e-25
ANGULAR_FIBER_M = 5.6485003805382689
ANGULAR_APERTURE_S = 3.1886204987374845e-12


def _hardware(**overrides):
    kwargs = dict(
        center_wavelength=1.55e-6,
        spectrometer_resolution=2e-9,
        resolution_kind="wavelength",
        modulator_max_frequency=50e9,
        modulator_max_depth=20.0 * math.pi,
        fiber_gvd=3e-26,
        angular_convention="ordinary",
    )
    kwargs.update(overrides)
    return ck.HardwareSpec(**kwargs)


class TestConversions:
    def test_frozen_wavelength_to_frequency(self):
        assert ck.wavelength_to_frequency(2e-9, 1.55e-6) == pytest.approx(
            BIN_FREQUENCY_HZ, rel=1e-12
        )

    @pytest.mark.parametrize("delta,center", [(2e-9, 1.55e-6), (0.1e-9, 8.1e-7)])
    def test_round_trip(self, delta, center):
        forward = ck.wavelength_to_frequency(delta, center)
        assert ck.frequency_to_wavelength(forward, center) == pytest.approx(
            delta, rel=1e-12
        )

    @pytest.mark.parametrize("delta,center", [(0.0, 1.55e-6), (1e-9, 0.0)])
    def test_rejects_non_positive_inputs(self, delta, center):
        with pytest.raises(ck.ParameterError):
            ck.wavelength_to_frequency(delta, center)

    @pytest.mark.parametrize("convert", [ck.wavelength_to_frequency, ck.frequency_to_wavelength])
    @pytest.mark.parametrize(
        "width,center",
        [
            (math.inf, 1.55e-6),
            (2e-9, math.inf),
            (math.nan, 1.55e-6),
            (2e-9, -math.inf),
            # The center's square overflows, or underflows to 0.
            (2e-9, 1e200),
            (2e-9, 1e-200),
        ],
    )
    def test_refuses_non_finite_inputs(self, convert, width, center):
        with pytest.raises(ck.ParameterError, match="finite and positive"):
            convert(width, center)

    @pytest.mark.parametrize(
        "convert,width,center",
        [
            (ck.wavelength_to_frequency, 1e300, 1e-10),
            (ck.wavelength_to_frequency, 1e-320, 1e10),
            (ck.frequency_to_wavelength, 1e300, 1e10),
            (ck.frequency_to_wavelength, 1e-320, 1e-10),
        ],
        ids=["to-frequency-overflow", "to-frequency-zero", "to-wavelength-overflow", "to-wavelength-zero"],
    )
    def test_refuses_results_that_overflow_or_vanish(self, convert, width, center):
        with pytest.raises(ck.ParameterError, match="finite and positive"):
            convert(width, center)


class TestHardwareSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(resolution_kind="voltage"),
            dict(angular_convention="both"),
            dict(center_wavelength=0.0),
            dict(modulator_max_depth=-1.0),
            dict(fiber_gvd=0.0),
            dict(center_wavelength=float("inf")),
            dict(modulator_max_frequency=float("nan")),
            dict(fiber_gvd=float("inf")),
        ],
    )
    def test_rejects_invalid_fields(self, overrides):
        with pytest.raises(ck.ParameterError):
            _hardware(**overrides)

    def test_frequency_kind_bypasses_conversion(self):
        scheme = ck.BinningScheme(m=16, delta_omega=1.0)
        by_wavelength = ck.check_feasibility(scheme, _hardware())
        direct = ck.check_feasibility(
            scheme,
            _hardware(
                resolution_kind="frequency",
                spectrometer_resolution=by_wavelength.bin_frequency_hz,
            ),
        )
        assert direct.bin_frequency_hz == pytest.approx(
            by_wavelength.bin_frequency_hz, rel=1e-12
        )
        assert direct.required_frequency_hz == pytest.approx(
            by_wavelength.required_frequency_hz, rel=1e-12
        )


@pytest.fixture(scope="module")
def report():
    scheme = ck.BinningScheme(m=16, delta_omega=1.0)
    return ck.check_feasibility(scheme, _hardware())


class TestFeasibilityReport:
    def test_designed_binning_is_feasible(self, report):
        assert report.bin_frequency_hz == pytest.approx(BIN_FREQUENCY_HZ, rel=1e-12)
        assert report.required_frequency_hz == pytest.approx(
            REQUIRED_MOD_FREQUENCY_HZ, rel=1e-12
        )
        assert report.required_depth == pytest.approx(60.0, rel=1e-12)
        assert report.frequency_ok and report.depth_ok and report.feasible

    def test_ordinary_convention_figures(self, report):
        fig = report.ordinary
        assert fig.convention == "ordinary"
        assert fig.total_gvd == pytest.approx(ORDINARY_GVD_S2, rel=1e-10)
        assert fig.fiber_length == pytest.approx(ORDINARY_FIBER_M, rel=1e-10)
        assert fig.aperture == pytest.approx(ORDINARY_APERTURE_S, rel=1e-10)

    def test_angular_convention_figures(self, report):
        fig = report.angular
        assert fig.convention == "angular"
        assert fig.total_gvd == pytest.approx(ANGULAR_GVD_S2, rel=1e-10)
        assert fig.fiber_length == pytest.approx(ANGULAR_FIBER_M, rel=1e-10)
        assert fig.aperture == pytest.approx(ANGULAR_APERTURE_S, rel=1e-10)

    def test_conventions_differ_by_two_pi_squared(self, report):
        ratio = report.ordinary.total_gvd / report.angular.total_gvd
        assert ratio == pytest.approx((2.0 * math.pi) ** 2, rel=1e-12)
        assert report.ordinary.fiber_length / report.angular.fiber_length == (
            pytest.approx((2.0 * math.pi) ** 2, rel=1e-12)
        )

    def test_selected_follows_the_declared_convention(self, report):
        assert report.selected_convention == "ordinary"
        scheme = ck.BinningScheme(m=16, delta_omega=1.0)
        other = ck.check_feasibility(scheme, _hardware(angular_convention="angular"))
        assert other.required_depth == pytest.approx(60.0, rel=1e-12)

    def test_infeasible_hardware_is_flagged(self):
        scheme = ck.BinningScheme(m=16, delta_omega=1.0)
        slow = ck.check_feasibility(scheme, _hardware(modulator_max_frequency=40e9))
        assert not slow.frequency_ok and not slow.feasible
        scheme32 = ck.BinningScheme(m=32, delta_omega=1.0)
        deep = ck.check_feasibility(scheme32, _hardware())
        assert deep.required_depth == pytest.approx(120.0, rel=1e-12)
        assert not deep.depth_ok and not deep.feasible
