"""Discretized Wilson loop observables on a surface times a circle.

The package computes a gauge-theoretic state sum for colored ribbon links
and, independently, the corresponding shadow state sum on the surface, so
the two can be compared term by term and in aggregate.  It runs on the
standard library alone: the selfcheck's determinants, solves and
eigendecompositions come from the small pure-Python kernels in linalg.
"""

__version__ = "0.1.0"

from .complex import build_standard_surface, kernel_check_B0
from .lie import (fusion_coefficient, level_labels, lie_data, quantum_dim,
                  weight_multiplicities)
from .statesum import (ColoredRibbon, RibbonLink, compare_theorem,
                       embed_link, shadow_invariant, validate_link,
                       wlo_unnormalized)

__all__ = [
    "ColoredRibbon",
    "RibbonLink",
    "build_standard_surface",
    "compare_theorem",
    "embed_link",
    "fusion_coefficient",
    "kernel_check_B0",
    "level_labels",
    "lie_data",
    "quantum_dim",
    "shadow_invariant",
    "validate_link",
    "weight_multiplicities",
    "wlo_unnormalized",
]
