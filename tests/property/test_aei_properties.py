"""Property-based tests for the core AEI invariant (Proposition 3.3).

The heart of the paper is the claim that affine transformations preserve the
DE-9IM relationship between a geometry pair.  These tests check that claim
directly against the exact relate engine, along with the related invariants
Spatter relies on (canonicalization preserves topology, predicate dualities).
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.affine import AffineTransformation
from repro.core.canonical import canonicalize
from repro.topology import (
    contains,
    covered_by,
    covers,
    disjoint,
    equals,
    intersects,
    within,
)
from repro.topology.relate import relate

from tests.property.strategies import (
    affine_matrices,
    any_geometries,
    simple_geometries,
)

_SETTINGS = settings(max_examples=40, deadline=None)


class TestProposition33:
    @_SETTINGS
    @given(simple_geometries(), simple_geometries(), affine_matrices())
    def test_affine_transformation_preserves_de9im(self, g1, g2, transformation):
        original = str(relate(g1, g2))
        transformed = str(relate(transformation.apply(g1), transformation.apply(g2)))
        assert original == transformed

    @_SETTINGS
    @given(simple_geometries(), simple_geometries(), affine_matrices())
    def test_rational_inverse_preserves_de9im(self, g1, g2, transformation):
        # The inverse of an integer matrix has rational entries, so the
        # images carry Fraction ordinates while g1 and g2 carry ints: the
        # relate kernel must decide both representations identically.
        inverse = transformation.inverse()
        assert str(relate(g1, g2)) == str(relate(inverse.apply(g1), inverse.apply(g2)))

    @_SETTINGS
    @given(any_geometries(), any_geometries())
    def test_pure_translation_preserves_de9im(self, g1, g2):
        translation = AffineTransformation.from_parts(1, 0, 0, 1, 7, -4)
        assert str(relate(g1, g2)) == str(
            relate(translation.apply(g1), translation.apply(g2))
        )

    @_SETTINGS
    @given(simple_geometries(), simple_geometries(), affine_matrices())
    def test_named_predicates_are_invariant(self, g1, g2, transformation):
        transformed_pair = (transformation.apply(g1), transformation.apply(g2))
        assert intersects(g1, g2) == intersects(*transformed_pair)
        assert covers(g1, g2) == covers(*transformed_pair)
        assert within(g1, g2) == within(*transformed_pair)


class TestCanonicalizationInvariants:
    @_SETTINGS
    @given(any_geometries())
    def test_canonical_form_is_topologically_equal(self, geometry):
        canonical = canonicalize(geometry)
        if geometry.is_empty:
            assert canonical.is_empty
        else:
            assert equals(geometry, canonical)

    @_SETTINGS
    @given(any_geometries())
    def test_canonicalization_is_idempotent(self, geometry):
        once = canonicalize(geometry)
        assert canonicalize(once).wkt == once.wkt

    @_SETTINGS
    @given(any_geometries(), simple_geometries())
    def test_canonicalization_preserves_relationships_to_other_geometries(
        self, geometry, other
    ):
        assert str(relate(geometry, other)) == str(relate(canonicalize(geometry), other))


class TestMatrixInvariants:
    @_SETTINGS
    @given(simple_geometries(), simple_geometries())
    def test_relate_transposition_symmetry(self, g1, g2):
        assert str(relate(g2, g1)) == str(relate(g1, g2).transposed())

    @_SETTINGS
    @given(simple_geometries(), simple_geometries())
    def test_predicate_dualities(self, g1, g2):
        assert intersects(g1, g2) == (not disjoint(g1, g2))
        assert contains(g1, g2) == within(g2, g1)
        assert covers(g1, g2) == covered_by(g2, g1)

    @_SETTINGS
    @given(simple_geometries())
    def test_every_geometry_relates_to_itself_as_equal(self, geometry):
        assert equals(geometry, geometry)
        assert covers(geometry, geometry)
        assert not disjoint(geometry, geometry)

    @_SETTINGS
    @given(simple_geometries(), simple_geometries())
    def test_covers_follows_from_containment(self, g1, g2):
        if contains(g1, g2):
            assert covers(g1, g2)
        if within(g1, g2):
            assert covered_by(g1, g2)
