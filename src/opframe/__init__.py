"""opframe: numerical frame-type inequalities for operators on
finite-dimensional Hilbert-space models.

The toolkit models weighted inner-product spaces, sequence operators
(analysis / synthesis / frame operator), optimal frame-type bounds for
bounded and unbounded-style operators with explicit domains, constructive
dual sequences via minimum-norm factorizations, and a scenario CLI that
reproduces the worked examples with machine-checked reports.
"""

# first, so that a module importing it from the package finds it however early it loads
__version__ = "0.1.0"

from .errors import (
    DegenerateOperator,
    EmptySpan,
    FactorizationFailed,
    GridMismatch,
    GridTooCoarse,
    InvalidDimension,
    InvalidIndex,
    InvalidProbe,
    InvalidScenario,
    NotAFrame,
    NotBiorthogonal,
    NotSurjective,
    OpframeError,
    RangeNotIncluded,
    WindowOverflow,
)
from .hilbert import (
    HilbertModel,
    Subspace,
    interval_grid,
    l2_truncation,
    norm,
    orthonormalize,
    window_grid,
)
from .opmodel import (
    OperatorModel,
    block_multiplier,
    diagonal_operator,
    diff_operator,
    dirichlet_subspace,
)
from .seqops import (
    FrameBounds,
    FrameSequence,
    analysis,
    canonical_dual,
    frame_bounds,
    reconstruct,
    synthesis,
)
from .relframes import (
    a_dual_graph,
    aframe_bounds_graph,
    k_dual,
    kframe_bounds,
    range_inclusion,
)
from .weakframes import (
    DualSequence,
    interchange_dual,
    user_dual,
    verify_weak_duality,
    weak_a_dual,
    weak_aframe_bound,
)
from .constructions import (
    difference_sequence,
    exponential_system,
    gabor_system,
    pw_example,
    riesz_multiplier,
    wavelet_system,
)

__all__ = [
    "DegenerateOperator", "EmptySpan", "FactorizationFailed", "GridMismatch",
    "GridTooCoarse", "InvalidDimension", "InvalidIndex", "InvalidProbe",
    "InvalidScenario", "NotAFrame", "NotBiorthogonal", "NotSurjective",
    "OpframeError", "RangeNotIncluded", "WindowOverflow",
    "HilbertModel", "Subspace", "interval_grid", "l2_truncation", "norm",
    "orthonormalize", "window_grid",
    "OperatorModel", "block_multiplier", "diagonal_operator", "diff_operator",
    "dirichlet_subspace",
    "FrameBounds", "FrameSequence", "analysis", "canonical_dual", "frame_bounds",
    "reconstruct", "synthesis",
    "a_dual_graph", "aframe_bounds_graph", "k_dual", "kframe_bounds",
    "range_inclusion",
    "DualSequence", "interchange_dual", "user_dual",
    "verify_weak_duality", "weak_a_dual", "weak_aframe_bound",
    "difference_sequence", "exponential_system", "gabor_system", "pw_example",
    "riesz_multiplier", "wavelet_system",
]
