"""Environmental condition controls and the fixed degradation model.

Conditions (weather, time of day, traffic densities) never touch camera
poses; they only degrade what the synthetic capture backend observes.
Each weather sets a pixel-noise multiplier and each time of day an
observation-dropout rate, which the busier of the two traffic densities
raises by a fixed gain.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping

from .errors import InvariantViolation
from .trajectory import FINITE, IN_UNIT, value_type


class Weather(enum.Enum):
    CLEAR = "clear"
    RAIN = "rain"
    SNOW = "snow"


class TimeOfDay(enum.Enum):
    DAY = "day"      # the 12:00 preset
    NIGHT = "night"  # the 23:00 preset


_DENSITY = (FINITE, IN_UNIT._replace(error=InvariantViolation))


@value_type(vehicle_density=_DENSITY, pedestrian_density=_DENSITY)
class ConditionSet:
    """One environment setting; densities range 0 (none) to 1 (normal)."""

    weather: Weather = Weather.CLEAR
    time_of_day: TimeOfDay = TimeOfDay.DAY
    vehicle_density: float = 0.0
    pedestrian_density: float = 0.0


DEFAULT_DEGRADATION: Mapping[Weather | TimeOfDay, float] = MappingProxyType({
    Weather.CLEAR: 1.0, Weather.RAIN: 1.5, Weather.SNOW: 2.0,
    TimeOfDay.DAY: 0.0, TimeOfDay.NIGHT: 0.3,
})

# Extra dropout per unit of the dominant traffic density.
DENSITY_DROPOUT_GAIN = 0.2


def degradation(cond: ConditionSet) -> tuple[float, float]:
    """(pixel-noise multiplier, dropout rate) for ``cond``.

    noise = DEFAULT_DEGRADATION[weather]; dropout =
    DEFAULT_DEGRADATION[time of day] + 0.2 * max(vehicle, pedestrian),
    at most 0.3 + 0.2 = 0.5.
    """
    density = max(cond.vehicle_density, cond.pedestrian_density)
    dropout = DEFAULT_DEGRADATION[cond.time_of_day] + DENSITY_DROPOUT_GAIN * density
    return DEFAULT_DEGRADATION[cond.weather], dropout
