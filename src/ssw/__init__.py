"""Exact combinatorics of marked and scaled simplicial sets, with an
exhaustive lifting-problem engine."""

from .core import (
    EZ,
    CapError,
    SMap,
    SSet,
    SSetError,
    boundary,
    horn,
    join_sset,
    opposite,
    product,
    pushout_mono,
    standard_simplex,
)
from .decor import MarkedScaled, Scaled, core_thi, decorate, scale
from .fibration import Verdict
from .tensor import cone, gray_marked_n, gray_scaled, join_ms, thick_join

__version__ = "0.1.0"

__all__ = [
    "EZ",
    "CapError",
    "MarkedScaled",
    "SMap",
    "SSet",
    "SSetError",
    "Scaled",
    "Verdict",
    "boundary",
    "cone",
    "core_thi",
    "decorate",
    "gray_marked_n",
    "gray_scaled",
    "horn",
    "join_ms",
    "join_sset",
    "opposite",
    "product",
    "pushout_mono",
    "scale",
    "standard_simplex",
    "thick_join",
]
