"""Affine operations on geometries (``ST_Affine``, ``ST_SwapXY``, ...).

These back two distinct users:

* the SQL registry, which exposes them as spatial functions (the paper's
  Listing 4 uses ``ST_SwapXY``), and
* Spatter's AEI construction (:mod:`repro.core.affine`), which applies a
  random integer mapping matrix to every geometry in the database.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from repro.geometry.model import Coordinate, Geometry, _to_ordinate

Numeric = Union[int, float, Fraction]


def affine_transform(
    geometry: Geometry,
    a: Numeric,
    b: Numeric,
    d: Numeric,
    e: Numeric,
    x_offset: Numeric = 0,
    y_offset: Numeric = 0,
) -> Geometry:
    """Apply the 2D affine map ``(x, y) -> (a x + b y + xoff, d x + e y + yoff)``.

    Parameter names follow PostGIS ``ST_Affine(geom, a, b, d, e, xoff, yoff)``.
    Parameters are normalised like ordinates, so an integer matrix maps
    ``int`` ordinates with ``int`` arithmetic.
    """
    a, b, d, e = _to_ordinate(a), _to_ordinate(b), _to_ordinate(d), _to_ordinate(e)
    x_offset, y_offset = _to_ordinate(x_offset), _to_ordinate(y_offset)

    def mapper(coordinate: Coordinate) -> Coordinate:
        return Coordinate(
            a * coordinate.x + b * coordinate.y + x_offset,
            d * coordinate.x + e * coordinate.y + y_offset,
        )

    return geometry.transform(mapper)


def apply_matrix(geometry: Geometry, matrix: Sequence[Sequence[Numeric]]) -> Geometry:
    """Apply a 3×3 homogeneous mapping matrix (the paper's Equation 4)."""
    rows = [list(row) for row in matrix]
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise ValueError("a homogeneous 2D mapping matrix must be 3x3")
    return affine_transform(
        geometry,
        rows[0][0],
        rows[0][1],
        rows[1][0],
        rows[1][1],
        rows[0][2],
        rows[1][2],
    )


def translate(geometry: Geometry, dx: Numeric, dy: Numeric) -> Geometry:
    """Translate a geometry by (dx, dy)."""
    return affine_transform(geometry, 1, 0, 0, 1, dx, dy)


def scale(geometry: Geometry, x_factor: Numeric, y_factor: Numeric) -> Geometry:
    """Scale a geometry about the origin."""
    return affine_transform(geometry, x_factor, 0, 0, y_factor)


def rotate_quarter_turns(geometry: Geometry, quarter_turns: int) -> Geometry:
    """Rotate about the origin by multiples of 90 degrees, exactly."""
    quarter_turns %= 4
    cos_sin = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}[quarter_turns]
    cos_value, sin_value = cos_sin
    return affine_transform(geometry, cos_value, -sin_value, sin_value, cos_value)


def rotate(geometry: Geometry, cos_value: Numeric, sin_value: Numeric) -> Geometry:
    """Rotate about the origin given exact cosine/sine values.

    The caller supplies cos/sin as rationals (for example from a Pythagorean
    triple such as 3/5, 4/5) so the transformation stays exact; Spatter never
    introduces irrational rotation angles, in line with the paper's decision
    to avoid floating-point matrices (Section 4.2).
    """
    return affine_transform(geometry, cos_value, -Fraction(sin_value), sin_value, cos_value)


def swap_xy(geometry: Geometry) -> Geometry:
    """Swap the X and Y ordinates of every coordinate (``ST_SwapXY``)."""

    def mapper(coordinate: Coordinate) -> Coordinate:
        return Coordinate(coordinate.y, coordinate.x)

    return geometry.transform(mapper)
