"""cyclobox: exact trace-form geometry on cyclotomic hypercubes.

Exact integer/rational arithmetic for the trace-metric on Z[w], the
closed-form distance moments over boxes and their vertex sets, deterministic
parallel Monte Carlo checks of the concentration laws, lattice visibility,
and SVG/JSON/CSV reporting.
"""

from .core import (
    BoxSpec,
    CycloboxError,
    CyclotomicInt,
    DegenerateAngleError,
    FieldMismatchError,
    GuardError,
    TraceVector,
    alternating_point,
    cos_central_angle,
    dist_sq,
    east_pole,
    embed_complex,
    euclidean_diameter,
    inner_product,
    is_odd_prime,
    normalized_dist_sq,
    north_pole,
    north_pole_point,
)
from .moments import (
    CancellationCheck,
    MomentReport,
    avg_point_to_vertices,
    avg_vertex_pairs,
    fourth_moment_vertex_pairs,
    oracle_cancellation_sums,
    oracle_moments,
    second_moment_point_to_vertices,
    variance_vertex_pairs,
)
from .concentration import (
    ConcentrationReport,
    CounterStream,
    IntervalSpec,
    SamplerConfig,
    isosceles_report,
    polytope_report,
    pyramid_report,
    right_angle_report,
    sample_box_point,
    sample_vertex,
    theorem4_report,
    vertex_pair_report,
    within_sqrt_interval,
)
from .visibility import (
    VisibilityReport,
    box_pair_mean_report,
    is_visible,
    mean_box_pair_dist_sq,
    oracle_mean_box_pair_dist_sq,
    sample_self_visible_polytope,
    visibility_concentration_report,
)
from .render import SceneSpec, render_scene

__version__ = "0.1.0"
