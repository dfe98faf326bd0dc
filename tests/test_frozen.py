"""The freeze rule that every value type keeps: each array field is a read-only,
finite copy of a fixed shape (or an adopted read-only owner), made by
trajectory.frozen_array, each scalar field is checked by its rules, and each
other declared field is stored through its converter."""

from __future__ import annotations

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import trajkit as tk
from trajkit import simworld, trajectory
from trajkit.errors import InvariantViolation
from trajkit.trajectory import equal_by_value, frozen_array, value_type

from conftest import exactly

TRANSFORM = tk.SimilarityTransform.from_z_rotation(2.0, 30.0, (1.0, 2.0, 3.0))

# Per value type: a valid set of constructor arguments and its array fields.
VALUES = {
    tk.SparseTrajectory: (
        dict(vertices=[[0.0, 0.0], [1.0, 0.0]], orders=((1,), (2,))), ["vertices"],
    ),
    tk.DenseTrajectory: (
        dict(protagonist=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
             camera=[[0.0, 0.0, 0.75], [1.0, 0.0, 0.75]],
             rotation=[[0.0, 0.0, 0.0], [0.0, 0.0, 90.0]]),
        ["protagonist", "camera", "rotation"],
    ),
    tk.CaptureManifest: (
        dict(names=("a.png", "b.png"), camera=[[0.0, 0.0, 0.75], [1.0, 0.0, 0.75]],
             rotation=[[0.0, 0.0, 0.0], [0.0, 0.0, 90.0]]),
        ["camera", "rotation"],
    ),
    tk.ReconstructedSet: (
        dict(names=("a.png", "b.png"), positions=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        ["positions"],
    ),
    tk.Box: (dict(mins=[0.0, 0.0, 0.0], maxs=[1.0, 2.0, 3.0]), ["mins", "maxs"]),
    tk.World: (
        dict(landmarks=[[0.5, 0.5, 0.5], [0.25, 0.75, 0.5]], seed=0,
             bounds=tk.Box((0, 0, 0), (1, 1, 1))),
        ["landmarks"],
    ),
    tk.ObservationSet: (
        dict(frame=[0, 1], ids=[3, 4], uv=[[1.0, 2.0], [3.0, 4.0]], n_frames=2),
        ["frame", "ids", "uv"],
    ),
    tk.SimilarityTransform: (
        dict(scale=2.0, rotation=TRANSFORM.rotation, translation=[1.0, 2.0, 3.0]),
        ["rotation", "translation"],
    ),
    tk.AlignmentReport: (
        dict(transform=TRANSFORM, inlier_mask=[True, False], residuals_m=[0.1, 5.0],
             average_error_m=2.55, median_error_m=2.55, meters_per_unit=1.0,
             names=("a.png", "b.png")),
        ["inlier_mask", "residuals_m"],
    ),
    # The parameter sets: scalar fields only.
    tk.RansacParams: (dict(threshold=0.25, max_iterations=10, confidence=0.9, seed=3), []),
    tk.DensifyParams: (dict(speed=2.0, fps=30.0, eye_offset_z=1.5, ground_z=-1.0), []),
    tk.ConditionSet: (dict(weather=tk.Weather.RAIN, time_of_day=tk.TimeOfDay.NIGHT,
                           vehicle_density=0.5, pedestrian_density=1.0), []),
    tk.Intrinsics: (dict(focal=100.0, width=64, height=48, max_range=10.0), []),
}

FIELDS = [(cls, field) for cls, (_, fields) in VALUES.items() for field in fields]
FIELD_IDS = [f"{cls.__name__}.{field}" for cls, field in FIELDS]
# Fields of integer or boolean type cannot hold a non-finite value.
FLOAT_FIELDS = [case for case in FIELDS if case[1] not in ("frame", "ids", "inlier_mask")]
FLOAT_IDS = [f"{cls.__name__}.{field}" for cls, field in FLOAT_FIELDS]


def build(cls, field, value):
    """``cls`` from its valid arguments, with ``field`` replaced by ``value``."""
    return cls(**{**VALUES[cls][0], field: value})


def valid(cls, field) -> np.ndarray:
    return np.array(VALUES[cls][0][field])


def test_every_value_type_is_covered():
    assert len(VALUES) == 13
    for cls, (kwargs, _) in VALUES.items():
        cls(**kwargs)


def test_every_class_compared_by_value_is_listed():
    modules = [importlib.import_module(f"trajkit.{module.name}")
               for module in pkgutil.iter_modules(tk.__path__)]
    by_value = {cls for module in modules for cls in vars(module).values()
                if isinstance(cls, type) and cls.__eq__ is equal_by_value}
    assert by_value == set(VALUES)


@pytest.mark.parametrize("cls", VALUES, ids=[cls.__name__ for cls in VALUES])
def test_listed_fields_are_the_array_fields(cls):
    kwargs, fields = VALUES[cls]
    assert [name for name, v in vars(cls(**kwargs)).items() if isinstance(v, np.ndarray)] == fields


# Per value type whose columns are the rows of one table: the fields that must align.
ROWS = {
    tk.DenseTrajectory: "protagonist, camera and rotation",
    tk.CaptureManifest: "names, camera and rotation",
    tk.ReconstructedSet: "names and positions",
    tk.ObservationSet: "frame, ids and uv",
    tk.AlignmentReport: "names, inlier_mask and residuals_m",
}
ROW_FIELDS = [(cls, field) for cls, rows in ROWS.items() for field in re.split(", | and ", rows)]


@pytest.mark.parametrize("cls, field", ROW_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field in ROW_FIELDS])
def test_rows_of_unequal_length_rejected(cls, field):
    with pytest.raises(ValueError, match=f"^{ROWS[cls]} must have equal length$"):
        build(cls, field, VALUES[cls][0][field][:1])


@pytest.mark.parametrize("cls, field", FLOAT_FIELDS, ids=FLOAT_IDS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_rejected(cls, field, bad):
    value = valid(cls, field).astype(float)
    value.flat[0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        build(cls, field, value)


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_wrong_shape_rejected(cls, field):
    value = valid(cls, field)
    # One more leading or trailing axis, or one fewer.
    for wrong in (value[None], value[..., None], value.ravel() if value.ndim > 1 else value[0]):
        with pytest.raises(ValueError, match="must have shape"):
            build(cls, field, wrong)


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_stored_array_is_a_read_only_copy(cls, field):
    value = valid(cls, field)
    stored = getattr(build(cls, field, value), field)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[...] = stored
    # Changing the caller's array afterwards leaves the value as it was.
    value[...] = 7
    np.testing.assert_array_equal(stored, valid(cls, field))


def test_read_only_owner_adopted_and_read_only_view_copied():
    owner = np.array([[1.0, 2.0], [3.0, 4.0]])
    owner.setflags(write=False)
    assert frozen_array(owner, (-1, 2), name="uv") is owner
    assert tk.ObservationSet([0, 1], [3, 4], owner, 2).uv is owner
    # A read-only view of a writable base could change through the base; an
    # owner of another dtype must be converted: both are copied.
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    view = base[:]
    view.setflags(write=False)
    ints = np.array([[1, 2], [3, 4]])
    ints.setflags(write=False)
    copies = [frozen_array(given, (-1, 2), name="uv") for given in (view, ints)]
    for given, stored in zip((view, ints), copies):
        assert stored is not given and stored.dtype == np.float64 and not stored.flags.writeable
    base[0, 0] = 7.0
    assert copies[0][0, 0] == 1.0
    assert tk.ObservationSet([0, 1], [3, 4], view, 2).uv is not view
    # Adopted, it is still checked.
    nan = np.array([[np.nan, 0.0]])
    nan.setflags(write=False)
    with pytest.raises(ValueError, match="^uv must be finite$"):
        frozen_array(nan, (-1, 2), name="uv")
    with pytest.raises(ValueError, match="must have shape"):
        frozen_array(owner, (-1, 3), name="uv")


# A valid value of each array field that differs from the one in VALUES:
# reversed along its first axis, but for these three.
CHANGED = {
    (tk.Box, "mins"): [-1.0, 0.0, 0.0],
    (tk.ObservationSet, "frame"): [0, 0],
    (tk.SimilarityTransform, "rotation"): TRANSFORM.rotation.T,
}


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_compares_by_value(cls, field):
    value = build(cls, field, valid(cls, field))
    assert value == build(cls, field, valid(cls, field))
    assert not value != build(cls, field, valid(cls, field))
    changed = build(cls, field, CHANGED.get((cls, field), valid(cls, field)[::-1]))
    assert value != changed and not value == changed


# Per converter field: a value of another type, and the value stored.
CONVERTED = {
    (tk.CaptureManifest, "names"): (["a.png", "b.png"], ("a.png", "b.png")),
    (tk.ReconstructedSet, "names"): (["a.png", "b.png"], ("a.png", "b.png")),
    (tk.AlignmentReport, "names"): (["a.png", "b.png"], ("a.png", "b.png")),
    (tk.SparseTrajectory, "orders"): ([np.array([1], np.int32), [np.int64(2)]], ((1,), (2,))),
    (tk.ObservationSet, "n_frames"): (np.int64(2), 2),
    (tk.SimilarityTransform, "scale"): (np.float64(2.0), 2.0),
}


def kinds(value):
    """The type of ``value``, and of each of its items if it is a tuple."""
    return (tuple, tuple(map(kinds, value))) if isinstance(value, tuple) else type(value)


@pytest.mark.parametrize("cls, field", CONVERTED,
                         ids=[f"{cls.__name__}.{field}" for cls, field in CONVERTED])
def test_other_fields_stored_through_their_converter(cls, field):
    given, expected = CONVERTED[cls, field]
    stored = getattr(build(cls, field, given), field)
    assert stored == expected and kinds(stored) == kinds(expected)


@pytest.mark.parametrize("cls, array", [(tk.CaptureManifest, "camera"),
                                        (tk.ReconstructedSet, "positions")])
def test_bad_array_reported_before_bad_name(cls, array):
    # The arrays are declared before the names, so they are stored first.
    with pytest.raises(ValueError, match=f"^{array} must have shape"):
        cls(**{**VALUES[cls][0], "names": ("a b", "c"), array: [[0.0, 0.0]]})


# Per rule: values it rejects, its wording for a field or argument named "x", and its class.
# The variants that raise InvariantViolation are made as their users make them.
RULES = [
    ("positive and finite", trajectory.POSITIVE_FINITE, [math.nan, math.inf, -math.inf, 0.0, -1.0],
     "x must be positive and finite, got {}", ValueError),
    ("finite", trajectory.FINITE, [math.nan, math.inf, -math.inf],
     "x must be finite, got {}", ValueError),
    ("positive", trajectory.POSITIVE, [math.nan, -math.inf, 0.0, -1e-300],
     "x must be positive, got {}", ValueError),
    ("positive, exit 2", trajectory.POSITIVE._replace(error=InvariantViolation), [0.0, -1.0],
     "x must be positive, got {}", InvariantViolation),
    ("in (0, 1)", trajectory.IN_OPEN_UNIT, [math.nan, 0.0, 1.0, -1.0, math.inf],
     "x must lie in (0, 1), got {}", ValueError),
    ("within [0, 1]", trajectory.IN_UNIT, [math.nan, -1e-300, 1.5, math.inf],
     "x must be within [0, 1], got {}", ValueError),
    ("within [0, 1], exit 2", trajectory.IN_UNIT._replace(error=InvariantViolation), [-0.1, 2.0],
     "x must be within [0, 1], got {}", InvariantViolation),
    ("at least 1", trajectory.AT_LEAST_1, [0, -1, math.nan], "x must be at least 1", ValueError),
    ("largest draw finite", trajectory.SIGMA, [math.nan, math.inf, -1.0, 1e308],
     "x must be >= 0 and its largest draw must not overflow, got {}", ValueError),
    ("at most", trajectory.at_most(5, "widgets"), [6, 10 ** 20],
     "{} widgets exceed the limit of 5", InvariantViolation),
]
RULE_CASES = [(rule, bad, wording.format(bad), error)
              for _, rule, values, wording, error in RULES for bad in values]
RULE_IDS = [f"{name}-{bad}" for name, _, values, _, _ in RULES for bad in values]


@pytest.mark.parametrize("rule, bad, message, error", RULE_CASES, ids=RULE_IDS)
def test_rule_reports_alike_on_a_field_and_on_an_argument(rule, bad, message, error):
    @value_type(x=rule)
    class Probe:
        x: float

    for check in (Probe, lambda value: rule(value, "x")):
        with pytest.raises(error, match=exactly(message)) as caught:
            check(bad)
        assert type(caught.value) is error


@pytest.mark.parametrize("rule", [case[1] for case in RULES], ids=[case[0] for case in RULES])
def test_rule_passes_a_valid_value_unchanged(rule):
    value = 1 if rule is trajectory.AT_LEAST_1 else 0.5

    @value_type(x=rule)
    class Probe:
        x: float

    assert Probe(value).x is value and rule(value, "x") is value


MANIFEST = tk.CaptureManifest(("a.png",), [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]])

# Per field or argument checked by a rule: the call with a bad value, the rule and the name.
RULE_USES = [
    ("RansacParams.threshold", lambda v: tk.RansacParams(threshold=v),
     trajectory.POSITIVE_FINITE, "threshold"),
    ("DensifyParams.fps", lambda v: tk.DensifyParams(fps=v), trajectory.POSITIVE_FINITE, "fps"),
    ("Intrinsics.focal", lambda v: tk.Intrinsics(v, 64, 48, 10.0),
     trajectory.POSITIVE_FINITE, "focal"),
    ("evaluate meters_per_unit", lambda v: tk.evaluate(None, None, meters_per_unit=v),
     trajectory.POSITIVE_FINITE, "meters_per_unit"),
    ("calibrate_unit_scale stride_m", lambda v: tk.calibrate_unit_scale([], stride_m=v),
     trajectory.POSITIVE_FINITE, "stride_m"),
    ("SimilarityTransform.scale", lambda v: tk.SimilarityTransform(v, np.eye(3), np.zeros(3)),
     trajectory.FINITE, "scale"),
    ("ConditionSet.vehicle_density", lambda v: tk.ConditionSet(vehicle_density=v),
     trajectory.FINITE, "vehicle_density"),
    ("from_z_rotation yaw_deg", lambda v: tk.SimilarityTransform.from_z_rotation(1.0, v, (0, 0, 0)),
     trajectory.FINITE, "yaw_deg"),
    ("Intrinsics.max_range", lambda v: tk.Intrinsics(100.0, 64, 48, v),
     trajectory.POSITIVE, "max_range"),
    ("RansacParams.confidence", lambda v: tk.RansacParams(confidence=v),
     trajectory.IN_OPEN_UNIT, "confidence"),
    ("simulate_reconstruction outlier_fraction",
     lambda v: tk.simulate_reconstruction(MANIFEST, TRANSFORM, outlier_fraction=v),
     trajectory.IN_UNIT, "outlier_fraction"),
    ("RansacParams.max_iterations", lambda v: tk.RansacParams(max_iterations=v),
     trajectory.AT_LEAST_1, "max_iterations"),
    ("generate_world count", lambda v: tk.generate_world(0, v, tk.Box((0, 0, 0), (1, 1, 1))),
     trajectory.AT_LEAST_1, "count"),
    ("perturb pos_sigma", lambda v: tk.perturb(None, v, 0.0, 0), trajectory.SIGMA, "pos_sigma"),
    ("perturb yaw_sigma", lambda v: tk.perturb(None, 0.0, v, 0), trajectory.SIGMA, "yaw_sigma"),
    ("retrace_chunks base_pixel_sigma",
     lambda v: simworld.retrace_chunks(None, None, None, tk.ConditionSet(), v),
     trajectory.SIGMA, "base_pixel_sigma"),
    ("simulate_reconstruction noise_sigma",
     lambda v: tk.simulate_reconstruction(MANIFEST, TRANSFORM, noise_sigma=v),
     trajectory.SIGMA, "noise_sigma"),
]


@pytest.mark.parametrize("call, rule, name", [case[1:] for case in RULE_USES],
                         ids=[case[0] for case in RULE_USES])
def test_fields_and_arguments_report_through_their_rule(call, rule, name):
    bad = -1 if rule is trajectory.AT_LEAST_1 else math.nan
    with pytest.raises(rule.error, match=exactly(rule.wording.format(name=name, value=bad))):
        call(bad)

