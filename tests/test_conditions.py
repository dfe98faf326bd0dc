"""Tests for condition validation and the degradation mapping."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trajkit as tk
from trajkit import conditions
from trajkit.errors import InputError, InvariantViolation, ParseError

from conftest import exactly


class TestValidate:
    def test_reference_setting_is_valid(self):
        # Clear weather at noon with empty streets: the baseline setting.
        cond = tk.ConditionSet(tk.Weather.CLEAR, tk.TimeOfDay.DAY, 0.0, 0.0)
        assert cond == tk.ConditionSet()

    def test_boundary_density_valid(self):
        cond = tk.ConditionSet(vehicle_density=1.0, pedestrian_density=0.0)
        assert (cond.vehicle_density, cond.pedestrian_density) == (1.0, 0.0)

    def test_out_of_range_density(self):
        message = "pedestrian_density must be within [0, 1], got 1.5"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.ConditionSet(pedestrian_density=1.5)

    def test_negative_density(self):
        message = "vehicle_density must be within [0, 1], got -0.1"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.ConditionSet(vehicle_density=-0.1)


class TestDegradation:
    def test_default_table_identity_row(self):
        profile = tk.degradation(tk.ConditionSet())
        assert profile == tk.DegradationProfile(1.0, 0.0)

    def test_snow_night_row(self):
        profile = tk.degradation(tk.ConditionSet(tk.Weather.SNOW, tk.TimeOfDay.NIGHT))
        assert profile.pixel_noise_multiplier == 2.0
        assert profile.dropout_rate == pytest.approx(0.3)

    def test_density_coupling(self):
        profile = tk.degradation(
            tk.ConditionSet(tk.Weather.CLEAR, tk.TimeOfDay.NIGHT, 1.0, 1.0)
        )
        assert profile.pixel_noise_multiplier == 1.0
        assert profile.dropout_rate == pytest.approx(0.5)  # 0.3 + 0.2 * 1.0

    def test_dropout_clamped_to_one(self):
        table = tk.DegradationTable(time_dropout={tk.TimeOfDay.DAY: 0.95, tk.TimeOfDay.NIGHT: 0.3})
        profile = tk.degradation(tk.ConditionSet(vehicle_density=1.0), table)
        assert profile.dropout_rate == 1.0

    def test_missing_weather_entry(self):
        table = tk.DegradationTable(weather_noise={tk.Weather.CLEAR: 1.0})
        with pytest.raises(InputError, match=exactly("no noise multiplier for weather 'snow'")):
            tk.degradation(tk.ConditionSet(weather=tk.Weather.SNOW), table)

    def test_missing_time_entry(self):
        table = tk.DegradationTable(time_dropout={tk.TimeOfDay.DAY: 0.0})
        with pytest.raises(InputError, match=exactly("no dropout rate for time 'night'")):
            tk.degradation(tk.ConditionSet(time_of_day=tk.TimeOfDay.NIGHT), table)

    def test_invalid_condition_rejected(self):
        message = "vehicle_density must be within [0, 1], got 2.0"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.degradation(tk.ConditionSet(vehicle_density=2.0))

    @given(
        v1=st.floats(min_value=0, max_value=1),
        v2=st.floats(min_value=0, max_value=1),
        p=st.floats(min_value=0, max_value=1),
        weather=st.sampled_from(list(tk.Weather)),
        time=st.sampled_from(list(tk.TimeOfDay)),
    )
    def test_dropout_monotone_in_density(self, v1, v2, p, weather, time):
        lo, hi = sorted((v1, v2))
        d_lo = tk.degradation(tk.ConditionSet(weather, time, lo, p)).dropout_rate
        d_hi = tk.degradation(tk.ConditionSet(weather, time, hi, p)).dropout_rate
        assert d_lo <= d_hi


class TestTableFile:
    def test_load_full_table(self):
        text = (
            "# pixel-noise multipliers\n"
            "clear 1.0\nrain 1.75\nsnow 2.5\n"
            "# dropout\n"
            "day 0.05\nnight 0.4\n"
        )
        table = conditions.read_degradation_table(text)
        assert table.weather_noise[tk.Weather.RAIN] == 1.75
        assert table.time_dropout[tk.TimeOfDay.NIGHT] == 0.4
        profile = tk.degradation(tk.ConditionSet(tk.Weather.SNOW, tk.TimeOfDay.DAY), table)
        assert profile == tk.DegradationProfile(2.5, 0.05)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            conditions.read_degradation_table("fog 3.0\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ParseError) as exc:
            conditions.read_degradation_table("rain heavy\n")
        assert exc.value.line == 1

    def test_partial_table_defers_to_lookup(self):
        table = conditions.read_degradation_table("clear 1.0\nday 0.0\n")
        assert tk.degradation(tk.ConditionSet(), table) == tk.DegradationProfile(1.0, 0.0)
        with pytest.raises(InputError, match=exactly("no noise multiplier for weather 'rain'")):
            tk.degradation(tk.ConditionSet(weather=tk.Weather.RAIN), table)
