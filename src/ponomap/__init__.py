"""Nested-cube homeomorphisms driven by Hausdorff gauge functions.

The package builds Ponomarev-type homeomorphisms of [-1,1]^n: a gauge
function picks the scale sequence of a nested Cantor construction, the
resulting map is evaluated and inverted at a certified truncation depth,
and every quantitative property (gluing, Jacobian positivity, Lebesgue and
Hausdorff cover measures, grand Lebesgue norms, coding-map pushforwards)
is computable and checkable at desk scale.
"""

from .cantor import (
    SequencePack,
    VertexWord,
    all_words,
    center,
    dyadic_cube,
    dyadic_preimage,
    geometric_sequence,
    harmonic_sequence,
)
from .errors import (
    ConstructionError,
    CoverageError,
    DepthError,
    DomainError,
    GaugeRangeError,
    HypothesisViolatedError,
    NoRootError,
    PonomapError,
    PrecisionError,
    RidgeSetError,
    ToleranceError,
)
from .gauge import (
    GaugeSpec,
    RawGauge,
    TauSpec,
    eval_h,
    finite_measure_sequence,
    null_measure_sequence,
    tau_root,
)
from .mapping import PonomarevMap, build
from .analysis import (
    Ball,
    CoverReport,
    GradientPower,
    LowerProbeReport,
    NormReport,
    PushforwardReport,
    canonical_cover,
    grand_norm_report,
    hausdorff_lower_probe,
    lebesgue_level,
    pushforward_check,
    random_cover,
    shell_integral,
    shell_integral_mc,
    sobolev_depth_profile,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "ConstructionError",
    "CoverReport",
    "CoverageError",
    "DepthError",
    "DomainError",
    "GaugeRangeError",
    "GaugeSpec",
    "GradientPower",
    "HypothesisViolatedError",
    "LowerProbeReport",
    "NoRootError",
    "NormReport",
    "PonomapError",
    "PonomarevMap",
    "PrecisionError",
    "PushforwardReport",
    "RawGauge",
    "RidgeSetError",
    "SequencePack",
    "TauSpec",
    "ToleranceError",
    "VertexWord",
    "all_words",
    "build",
    "canonical_cover",
    "center",
    "dyadic_cube",
    "dyadic_preimage",
    "eval_h",
    "finite_measure_sequence",
    "geometric_sequence",
    "grand_norm_report",
    "harmonic_sequence",
    "hausdorff_lower_probe",
    "lebesgue_level",
    "null_measure_sequence",
    "pushforward_check",
    "random_cover",
    "shell_integral",
    "shell_integral_mc",
    "sobolev_depth_profile",
    "tau_root",
]
