"""Dissections of convex lattice polygons into lattice triangles of area 1.

The decision procedure colors lattice points by coordinate parity, reads a
polygon's corner colors as a cyclic word, and reduces that word by deleting
letters whose neighborhoods repeat a color; a dissection into area-1 lattice
triangles exists exactly when the word reduces below length 3.
"""

from .combi import Triangulation, good_dissection, sperner_check, validate_disk
from .dissect import Dissection, diagonal_dissection, refine_triangle, unit_dissection
from .geometry import (
    Color,
    ConvexLatticePolygon,
    LatticePoint,
    LatticeTriangle,
    boundary_word,
    color_of,
    signed_area2,
    validate_convex,
)
from .verify import poof, verify_dissection, witness_noninteger
from .words import CyclicWord, decide_contractible

__version__ = "0.1.0"

__all__ = [
    "Color", "ConvexLatticePolygon", "CyclicWord",
    "Dissection", "LatticePoint", "LatticeTriangle", "Triangulation",
    "boundary_word", "color_of", "decide_contractible",
    "diagonal_dissection", "good_dissection", "poof", "refine_triangle",
    "signed_area2", "sperner_check", "unit_dissection", "validate_convex",
    "validate_disk", "verify_dissection", "witness_noninteger",
]
