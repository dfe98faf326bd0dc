"""Tests for condition validation and the fixed degradation model."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import trajkit as tk
from trajkit.errors import InvariantViolation

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
        assert tk.degradation(tk.ConditionSet()) == (1.0, 0.0)

    def test_snow_night_row(self):
        noise, dropout = tk.degradation(tk.ConditionSet(tk.Weather.SNOW, tk.TimeOfDay.NIGHT))
        assert noise == 2.0
        assert dropout == pytest.approx(0.3)

    def test_density_coupling(self):
        noise, dropout = tk.degradation(
            tk.ConditionSet(tk.Weather.CLEAR, tk.TimeOfDay.NIGHT, 1.0, 1.0)
        )
        assert noise == 1.0
        assert dropout == pytest.approx(0.5)  # 0.3 + 0.2 * 1.0

    def test_invalid_condition_rejected(self):
        message = "vehicle_density must be within [0, 1], got 2.0"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.degradation(tk.ConditionSet(vehicle_density=2.0))

    def test_default_table_is_read_only(self):
        with pytest.raises(TypeError):
            tk.DEFAULT_DEGRADATION[tk.Weather.CLEAR] = 5.0  # type: ignore[index]

    @given(
        v1=st.floats(min_value=0, max_value=1),
        v2=st.floats(min_value=0, max_value=1),
        p=st.floats(min_value=0, max_value=1),
        weather=st.sampled_from(list(tk.Weather)),
        time=st.sampled_from(list(tk.TimeOfDay)),
    )
    def test_dropout_monotone_in_density(self, v1, v2, p, weather, time):
        lo, hi = sorted((v1, v2))
        _, d_lo = tk.degradation(tk.ConditionSet(weather, time, lo, p))
        _, d_hi = tk.degradation(tk.ConditionSet(weather, time, hi, p))
        assert d_lo <= d_hi

    def test_fixed_model_matches_readme_table(self):
        # The README's table, restated: noise per weather, dropout per time of
        # day plus 0.2 times the busier density.
        noise = {"clear": 1.0, "rain": 1.5, "snow": 2.0}
        dropout = {"day": 0.0, "night": 0.3}
        for weather, time, density in itertools.product(tk.Weather, tk.TimeOfDay, (0.0, 1.0)):
            cond = tk.ConditionSet(weather, time, density, density / 2)
            expected = (noise[weather.value], dropout[time.value] + 0.2 * density)
            assert tk.degradation(cond) == expected, cond
