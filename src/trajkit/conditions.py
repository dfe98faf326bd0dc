"""Environmental condition controls and their observation-degradation mapping.

Conditions (weather, time of day, traffic densities) never touch camera
poses; they only degrade what the synthetic capture backend observes.
The mapping is a small configurable table: a pixel-noise multiplier per
weather and an additive observation-dropout rate per time of day, plus a
fixed density coupling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping

from . import textio
from .errors import InputError, InvariantViolation


class Weather(enum.Enum):
    CLEAR = "clear"
    RAIN = "rain"
    SNOW = "snow"


class TimeOfDay(enum.Enum):
    DAY = "day"      # the 12:00 preset
    NIGHT = "night"  # the 23:00 preset


@dataclass(frozen=True)
class ConditionSet:
    """One environment setting; densities range 0 (none) to 1 (normal).

    A non-finite density raises ValueError, one outside [0, 1]
    InvariantViolation.
    """

    weather: Weather = Weather.CLEAR
    time_of_day: TimeOfDay = TimeOfDay.DAY
    vehicle_density: float = 0.0
    pedestrian_density: float = 0.0

    def __post_init__(self):
        for name in ("vehicle_density", "pedestrian_density"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if not 0.0 <= value <= 1.0:
                raise InvariantViolation(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class DegradationProfile:
    """How a condition set perturbs synthetic observations."""

    pixel_noise_multiplier: float
    dropout_rate: float


@dataclass(frozen=True)
class DegradationTable:
    """Weather noise multipliers and time-of-day dropout rates."""

    weather_noise: Mapping[Weather, float] = field(
        default_factory=lambda: {Weather.CLEAR: 1.0, Weather.RAIN: 1.5, Weather.SNOW: 2.0}
    )
    time_dropout: Mapping[TimeOfDay, float] = field(
        default_factory=lambda: {TimeOfDay.DAY: 0.0, TimeOfDay.NIGHT: 0.3}
    )


DEFAULT_DEGRADATION = DegradationTable()

# Extra dropout per unit of the dominant traffic density.
DENSITY_DROPOUT_GAIN = 0.2


def degradation(
    cond: ConditionSet, table: DegradationTable = DEFAULT_DEGRADATION
) -> DegradationProfile:
    """Look up the degradation profile for a condition set.

    dropout = clamp(time dropout + 0.2 * max(vehicle, pedestrian), 0, 1).
    """
    try:
        noise = table.weather_noise[cond.weather]
    except KeyError:
        raise InputError(f"no noise multiplier for weather {cond.weather.value!r}") from None
    try:
        base_dropout = table.time_dropout[cond.time_of_day]
    except KeyError:
        raise InputError(f"no dropout rate for time {cond.time_of_day.value!r}") from None
    dropout = base_dropout + DENSITY_DROPOUT_GAIN * max(
        cond.vehicle_density, cond.pedestrian_density
    )
    return DegradationProfile(
        pixel_noise_multiplier=noise, dropout_rate=min(max(dropout, 0.0), 1.0)
    )


def read_degradation_table(text: str) -> DegradationTable:
    """Parse a key/value degradation table.

    One ``name value`` pair per line, where name is a weather
    (clear/rain/snow) or time of day (day/night); ``#`` lines and blank
    lines are skipped. Entries omitted from the file are simply absent,
    and degradation() raises InputError if it needs them.
    """
    weather_noise: dict[Weather, float] = {}
    time_dropout: dict[TimeOfDay, float] = {}
    weather_names = {w.value: w for w in Weather}
    time_names = {t.value: t for t in TimeOfDay}
    recs, _ = textio.records(text)
    names, values = textio.table(recs, (str, float))
    for i, (token, value) in enumerate(zip(names, values.tolist())):
        name = token.lower()
        if name in weather_names:
            weather_noise[weather_names[name]] = value
        elif name in time_names:
            time_dropout[time_names[name]] = value
        else:
            raise textio.error(recs, i, 0, f"unknown table key {token!r}")
    return DegradationTable(weather_noise=weather_noise, time_dropout=time_dropout)
