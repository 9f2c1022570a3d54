"""Exact one-dimensional cut-and-project toolkit.

Generates rotation-orbit / strip point patterns over a quadratic
irrational, measures their local discrepancy, decides boundedness
exactly (Kesten / Oren style certificates plus boundary-class rank
reports), computes acceptance domains of finite local patterns, and
builds bounded-displacement matchings against reference lattices.
"""

from .exactnum import (
    XiMismatchError,
    XiReal,
    XiSpec,
    decompose_Z_plus_Zxi,
    parse_xi,
    parse_xireal,
)
from .patterns import (
    PointPattern,
    RotationSystem,
    SingularOrbit,
    Window,
    local_discrepancy,
    orbit_hits,
    strip_points,
)

__version__ = "0.1.0"
