"""Environmental condition controls and the degradation table.

Conditions (weather, time of day, traffic densities) never touch camera
poses; they only degrade what the synthetic capture backend observes.
The table maps each weather to a pixel-noise multiplier (finite, >= 0)
and each time of day to an observation-dropout rate (in [0, 1]); the
rate gets a fixed density coupling on top. :func:`degradation` alone
checks those rules.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
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


DEFAULT_DEGRADATION: Mapping[Weather | TimeOfDay, float] = MappingProxyType({
    Weather.CLEAR: 1.0, Weather.RAIN: 1.5, Weather.SNOW: 2.0,
    TimeOfDay.DAY: 0.0, TimeOfDay.NIGHT: 0.3,
})

# Extra dropout per unit of the dominant traffic density.
DENSITY_DROPOUT_GAIN = 0.2


def degradation(
    cond: ConditionSet, table: Mapping[Weather | TimeOfDay, float] = DEFAULT_DEGRADATION
) -> tuple[float, float]:
    """Check ``table``, then return (pixel-noise multiplier, dropout rate) for ``cond``.

    dropout = min(time dropout + 0.2 * max(vehicle, pedestrian), 1).
    An entry outside its range, used by ``cond`` or not, raises
    InvariantViolation; a missing entry that ``cond`` needs, InputError.
    """
    for key, value in table.items():
        if isinstance(key, Weather) and not 0 <= value < math.inf:
            raise InvariantViolation(
                f"noise multiplier for {key.value} must be finite and >= 0, got {value}"
            )
        if isinstance(key, TimeOfDay) and not 0 <= value <= 1:
            raise InvariantViolation(
                f"dropout rate for {key.value} must be within [0, 1], got {value}"
            )
    if cond.weather not in table:
        raise InputError(f"no noise multiplier for weather {cond.weather.value!r}")
    if cond.time_of_day not in table:
        raise InputError(f"no dropout rate for time {cond.time_of_day.value!r}")
    density = max(cond.vehicle_density, cond.pedestrian_density)
    dropout = table[cond.time_of_day] + DENSITY_DROPOUT_GAIN * density
    return table[cond.weather], min(dropout, 1.0)


def read_degradation_table(text: str) -> dict[Weather | TimeOfDay, float]:
    """Parse a key/value degradation table.

    One ``name value`` pair per line, where name is a weather
    (clear/rain/snow) or time of day (day/night); ``#`` lines and blank
    lines are skipped. Entries may be left out; degradation() checks the
    values and raises InputError for an absent entry it needs.
    """
    members = {member.value: member for member in (*Weather, *TimeOfDay)}
    (names, values), _ = textio.table(text, (str, float))
    table = {}
    for i, (token, value) in enumerate(zip(names, values.tolist())):
        member = members.get(token.lower())
        if member is None:
            raise textio.error(text, textio.record_line(text, i), 0, f"unknown table key {token!r}")
        table[member] = value
    return table
