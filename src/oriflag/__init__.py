"""Partially oriented flag manifolds: volumes, geodesic distances, expectations.

The library works with the homogeneous spaces SO(n)/SG named by an ordered
integer partition and a set partition of its indices. It provides exact
volumes, Haar sampling of SO(n), the bi-invariant geodesic distance and its
quotient version, the quaternion double cover of SO(3) with its coordinate
systems, closed-form and quadrature expected distances, and reproducible
Monte Carlo estimation, all wired into the ``oriflag`` command-line tool.
"""

__version__ = "0.14.0"

from .analytic import (
    ClosedForm,
    QuadratureError,
    QuadratureResult,
    analytic_expected_distance,
    expected_distance_full_flag,
    expected_distance_partial_flag_integral,
    full_flag_integrand,
    numeric_volume,
)
from .flagspec import (
    FiniteIsotropy,
    FlagSpec,
    FlagSpecParseError,
    OrderedPartition,
    SetPartition,
    conjugate_partition,
    covering_multiplicity,
    flag_volume,
    isotropy_group,
    parse_flagspec,
    sphere_volume,
    sphere_volume_exact,
)
from .montecarlo import (
    Estimate,
    estimate_expected_distance,
    sample_distances,
    sphere_point,
)
from .orthogonal import (
    RngStream,
    Rotation,
    geodesic_distance,
    quotient_distance,
    random_special_orthogonal,
    rotation_angles,
    sample_rotation_matrices,
)
from .quatcover import (
    Hyperspherical,
    JoinCoords,
    UnitQuaternion,
    cartesian_to_hyperspherical,
    cartesian_to_join,
    hyperspherical_to_cartesian,
    join_to_cartesian,
    lifted_orbit,
    quaternion_to_rotation,
    rotate_vector,
    rotation_to_quaternion,
    sphere_distance,
)
from .spaces import (
    SPACE_ALIASES,
    UnsupportedSpaceError,
    classify,
    parse_space,
    space_label,
)
from .symbolic import PiExpression

__all__ = [
    "ClosedForm",
    "Estimate",
    "FiniteIsotropy",
    "FlagSpec",
    "FlagSpecParseError",
    "Hyperspherical",
    "JoinCoords",
    "OrderedPartition",
    "PiExpression",
    "QuadratureError",
    "QuadratureResult",
    "RngStream",
    "Rotation",
    "SPACE_ALIASES",
    "SetPartition",
    "UnitQuaternion",
    "UnsupportedSpaceError",
    "analytic_expected_distance",
    "cartesian_to_hyperspherical",
    "cartesian_to_join",
    "classify",
    "conjugate_partition",
    "covering_multiplicity",
    "estimate_expected_distance",
    "expected_distance_full_flag",
    "expected_distance_partial_flag_integral",
    "flag_volume",
    "full_flag_integrand",
    "geodesic_distance",
    "hyperspherical_to_cartesian",
    "isotropy_group",
    "join_to_cartesian",
    "lifted_orbit",
    "numeric_volume",
    "parse_flagspec",
    "parse_space",
    "quaternion_to_rotation",
    "quotient_distance",
    "random_special_orthogonal",
    "rotate_vector",
    "rotation_angles",
    "rotation_to_quaternion",
    "sample_distances",
    "sample_rotation_matrices",
    "space_label",
    "sphere_distance",
    "sphere_point",
    "sphere_volume",
    "sphere_volume_exact",
]
