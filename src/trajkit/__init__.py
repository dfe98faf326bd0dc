"""Virtual-world camera trajectory synthesis, capture and evaluation toolkit.

Pipeline stages, each a standalone module:

* :mod:`trajkit.trajectory` — sparse waypoint plans, dense 6DOF pose streams;
* :mod:`trajkit.textio` — the record grammar shared by every text reader;
* :mod:`trajkit.poseio` — plain-text pose file formats;
* :mod:`trajkit.conditions` — environment settings and their degradation;
* :mod:`trajkit.simworld` — synthetic capture backend and fake reconstruction;
* :mod:`trajkit.align` — robust similarity alignment and metric error reports;
* :mod:`trajkit.cli` — the ``trajkit`` command line.
"""

from .align import (
    DEFAULT_METERS_PER_UNIT,
    AlignmentReport,
    RansacParams,
    SimilarityTransform,
    calibrate_unit_scale,
    evaluate,
    ransac_align,
    umeyama,
)
from .conditions import (
    DEFAULT_DEGRADATION,
    ConditionSet,
    DegradationProfile,
    DegradationTable,
    TimeOfDay,
    Weather,
    degradation,
)
from .errors import InputError, InvariantViolation, TrajkitError
from .poseio import (
    CaptureManifest,
    ReconstructedSet,
    read_dense,
    read_manifest,
    read_reconstruction,
    read_sparse,
    write_dense,
    write_manifest,
    write_reconstruction,
    write_report,
)
from .simworld import (
    Box,
    Intrinsics,
    ObservationSet,
    World,
    default_intrinsics,
    generate_world,
    retrace,
    simulate_reconstruction,
)
from .trajectory import (
    DenseTrajectory,
    DensifyParams,
    EulerRotation,
    SparseTrajectory,
    densify,
    expand_visitation,
    path_polyline,
    perturb,
)

__version__ = "0.1.0"
