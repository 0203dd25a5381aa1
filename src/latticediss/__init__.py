"""Dissections of convex lattice polygons into lattice triangles of area 1.

The decision procedure colors lattice points by coordinate parity, reads a
polygon's corner colors as a cyclic word, and reduces that word by deleting
letters whose neighborhoods repeat a color; a dissection into area-1 lattice
triangles exists exactly when the word reduces below length 3.
"""

__version__ = "0.1.0"
