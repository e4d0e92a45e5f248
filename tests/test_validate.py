"""Tests for the physics-aware config validator (:mod:`repro.validate`)."""

import json

import pytest

from repro.errors import ConfigError
from repro.photonics.components import (
    AGGRESSIVE_PARAMETERS,
    MODERATE_PARAMETERS,
)
from repro.photonics.crosstalk import DEFAULT_CROSSTALK, CrosstalkModel
from repro.spacx.topology import SpacxTopology
from repro.validate import (
    MAX_LAUNCH_POWER_PER_WAVELENGTH_MW,
    MAX_WAVELENGTHS_PER_WAVEGUIDE,
    Diagnostic,
    ValidationReport,
    crosstalk_limited_channels,
    machine_zoo,
    validate_link_budget,
    validate_model,
    validate_photonic_parameters,
    validate_raw_config,
    validate_simulator,
    validate_spec,
    validate_wdm_density,
    validate_zoo,
)
from repro.models.zoo import EXTENDED_MODELS, get_model


class TestDiagnostic:
    def test_roundtrips_to_dict(self):
        diag = Diagnostic(
            code="X-1",
            severity="error",
            message="broken",
            subject="thing",
            hint="fix it",
            context={"value": 3},
        )
        payload = diag.to_dict()
        assert payload["code"] == "X-1"
        assert payload["severity"] == "error"
        assert payload["context"] == {"value": 3}
        json.dumps(payload)  # must be JSON-serialisable

    def test_rejects_bad_severity(self):
        with pytest.raises(ConfigError):
            Diagnostic(code="X", severity="fatal", message="nope")

    def test_describe_is_one_line(self):
        diag = Diagnostic(code="X", severity="warning", message="hm")
        assert "\n" not in diag.describe()


class TestValidationReport:
    def test_error_and_warning_partition(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "bad")
        report.warning("W-1", "meh")
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert not report.ok
        assert not report.clean

    def test_clean_vs_ok(self):
        report = ValidationReport(subject="s")
        assert report.clean and report.ok
        report.warning("W-1", "meh")
        assert report.ok and not report.clean

    def test_merge(self):
        a = ValidationReport(subject="a")
        a.error("E-1", "x")
        b = ValidationReport(subject="b")
        b.merge(a)
        assert "E-1" in b.codes()

    def test_raise_if_errors(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "boom")
        with pytest.raises(ConfigError) as excinfo:
            report.raise_if_errors()
        assert getattr(excinfo.value, "diagnostics", None)

    def test_json_roundtrip(self):
        report = ValidationReport(subject="s")
        report.error("E-1", "boom", knob=7)
        payload = json.loads(report.to_json())
        assert payload["subject"] == "s"
        assert payload["diagnostics"][0]["code"] == "E-1"


class TestPhotonicParameters:
    def test_shipped_parameter_sets_are_clean(self):
        assert validate_photonic_parameters(MODERATE_PARAMETERS).clean
        assert validate_photonic_parameters(AGGRESSIVE_PARAMETERS).clean

    def test_negative_loss_is_error(self):
        report = validate_photonic_parameters({"coupler_db": -1.0})
        assert any(d.code == "PHO-PARAM" for d in report.errors)

    def test_positive_sensitivity_is_error(self):
        report = validate_photonic_parameters(
            {"receiver_sensitivity_dbm": 3.0}
        )
        assert any(d.code == "PHO-SENS" for d in report.errors)


def _quadratic_crosstalk_limit(crosstalk, search_limit=512):
    """The reference walk: the full leakage sum at every channel count."""
    feasible = 1
    for n_channels in range(2, search_limit + 1):
        if crosstalk.total_leakage_ratio(n_channels) >= 0.5:
            return feasible
        feasible = n_channels
    return feasible


class TestCrosstalkLimitedChannels:
    @pytest.mark.parametrize("rolloff", [0.0, 0.5, 1.0, 3.0, 6.0])
    @pytest.mark.parametrize(
        "suppression", [0.1, 1.0, 3.0, 4.5, 6.0, 8.0, 12.0, 25.0, 30.0]
    )
    def test_matches_quadratic_walk(self, suppression, rolloff):
        model = CrosstalkModel(suppression, rolloff)
        for limit in (1, 2, 3, 5, 17, 64, 160):
            assert crosstalk_limited_channels(model, limit) == (
                _quadratic_crosstalk_limit(model, limit)
            ), (suppression, rolloff, limit)

    def test_matches_quadratic_walk_at_default_limit(self):
        assert crosstalk_limited_channels() == _quadratic_crosstalk_limit(
            DEFAULT_CROSSTALK
        )

    def test_weak_suppression_binds_before_the_limit(self):
        # <= 6 dB adjacent suppression stops the walk within a few
        # channels, so the early exit is what the oracle comparison hits.
        for suppression in (0.1, 3.0, 4.5, 6.0):
            model = CrosstalkModel(suppression, 0.0)
            limit = crosstalk_limited_channels(model, 64)
            assert limit < 64
            assert limit == _quadratic_crosstalk_limit(model, 64)

    def test_aggressor_ratio_calls_are_linear(self, monkeypatch):
        calls = 0
        ratio = CrosstalkModel.aggressor_ratio

        def counted(self, distance):
            nonlocal calls
            calls += 1
            return ratio(self, distance)

        monkeypatch.setattr(CrosstalkModel, "aggressor_ratio", counted)
        assert crosstalk_limited_channels(DEFAULT_CROSSTALK) == 512
        assert 0 < calls <= 512


class TestWdmDensity:
    def test_crosstalk_limit_exceeds_density_cap_at_defaults(self):
        # At 25 dB suppression the first-order crosstalk limit is far
        # beyond the 64-channel density cap: density binds first.
        assert crosstalk_limited_channels() > MAX_WAVELENGTHS_PER_WAVEGUIDE

    def test_in_range_counts_are_clean(self):
        assert validate_wdm_density(24).ok
        assert validate_wdm_density(MAX_WAVELENGTHS_PER_WAVEGUIDE).ok

    def test_over_dense_is_error(self):
        report = validate_wdm_density(MAX_WAVELENGTHS_PER_WAVEGUIDE + 1)
        assert any(d.code == "PHO-WDM-DENSITY" for d in report.errors)

    def test_crosstalk_limited_with_poor_suppression(self):
        weak = CrosstalkModel(suppression_db=8.0, rolloff_db_per_channel=0.0)
        report = validate_wdm_density(32, crosstalk=weak)
        assert any(d.code == "PHO-XTALK" for d in report.errors)


class TestLinkBudget:
    def test_shipped_topology_closes(self):
        report = validate_link_budget(SpacxTopology(32, 32, 8, 16))
        assert report.ok

    def test_tiny_ceiling_fails(self):
        report = validate_link_budget(
            SpacxTopology(32, 32, 8, 16), max_launch_power_mw=0.001
        )
        assert any(d.code == "PHO-LINK-BUDGET" for d in report.errors)

    def test_coarse_granularity_blows_the_default_ceiling(self):
        # The all-broadcast corner (g_ef = M, g_k = N) pays the full
        # 1/(M*N) splitting penalty: hundreds of mW per wavelength,
        # far above the default ceiling.
        report = validate_link_budget(SpacxTopology(32, 32, 32, 32))
        assert any(d.code == "PHO-LINK-BUDGET" for d in report.errors)

    def test_ceiling_is_physical(self):
        assert MAX_LAUNCH_POWER_PER_WAVELENGTH_MW == pytest.approx(100.0)


class TestSpecValidation:
    def test_zoo_specs_are_clean(self):
        for name, factory in machine_zoo().items():
            report = validate_spec(factory().spec)
            assert report.clean, f"{name}: {report.describe()}"

    def test_split_caps_must_sum(self):
        import dataclasses

        spec = machine_zoo()["spacx-ba"]().spec
        if not spec.gb_weight_egress_gbps:
            spec = machine_zoo()["spacx"]().spec
        broken = dataclasses.replace(
            spec, gb_weight_egress_gbps=spec.gb_egress_gbps * 2
        )
        report = validate_spec(broken)
        assert any(
            d.code in ("CFG-SPLIT-SUM", "CFG-SPLIT-PAIR")
            for d in report.errors + report.warnings
        )


class TestModelValidation:
    def test_all_zoo_models_are_clean(self):
        for name in EXTENDED_MODELS:
            report = validate_model(get_model(name))
            assert report.clean, f"{name}: {report.describe()}"

    def test_empty_model_is_error(self):
        from repro.core.layer import LayerSet

        report = validate_model(LayerSet("empty", []))
        assert any(d.code == "MDL-EMPTY" for d in report.errors)


class TestSimulatorAndZoo:
    def test_every_zoo_machine_validates_cleanly(self):
        for name, factory in machine_zoo().items():
            report = validate_simulator(factory(), subject=name)
            assert report.clean, f"{name}: {report.describe()}"

    def test_validate_zoo_covers_machines_and_models(self):
        reports = validate_zoo(["spacx"], ["ResNet-50"])
        assert len(reports) == 2
        assert all(r.ok for r in reports)

    def test_validate_zoo_rejects_unknown_machine(self):
        with pytest.raises(ConfigError):
            validate_zoo(["warp-drive"])

    def test_validate_zoo_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            validate_zoo([], ["AlexNet-9000"])


class TestRawConfig:
    def test_default_configs_are_clean(self):
        for machine in ("spacx", "simba", "popstar"):
            report = validate_raw_config({"machine": machine})
            assert report.clean, f"{machine}: {report.describe()}"

    def test_negative_laser_power_is_error(self):
        report = validate_raw_config(
            {"machine": "spacx", "laser_power_mw": -5}
        )
        assert any(d.code == "PHO-LASER" for d in report.errors)

    def test_over_dense_wdm_is_error(self):
        report = validate_raw_config(
            {"machine": "spacx", "wavelengths_per_waveguide": 96}
        )
        assert any(d.code == "PHO-WDM-DENSITY" for d in report.errors)

    def test_unknown_machine_is_error(self):
        report = validate_raw_config({"machine": "hal9000"})
        assert any(d.code == "DOC-MACHINE" for d in report.errors)

    def test_unknown_key_is_warning(self):
        report = validate_raw_config({"machine": "spacx", "turbo": True})
        assert any(d.code == "DOC-KEY" for d in report.warnings)

    def test_non_integer_knob_is_error(self):
        report = validate_raw_config({"machine": "spacx", "chiplets": "many"})
        assert not report.ok

    @pytest.mark.parametrize(
        "field", ["suppression_db", "rolloff_db_per_channel"]
    )
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_crosstalk_is_error(self, field, value):
        # json accepts the NaN / Infinity literals a config file may hold.
        raw = json.loads(
            f'{{"machine": "spacx", "crosstalk": {{"{field}": {value}}}}}'
        )
        report = validate_raw_config(raw)
        assert not report.ok
        assert any(
            d.code == "DOC-TYPE" and "bad crosstalk model" in d.message
            for d in report.errors
        )

    def test_report_is_json_serialisable(self):
        report = validate_raw_config(
            {"machine": "spacx", "laser_power_mw": -1, "bogus": 1}
        )
        json.dumps(report.to_dict())
