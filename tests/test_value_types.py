"""The hash/eq contract of the plain value classes.

Subspace and Partial1Map compare by value; each holds a dict, so neither is
hashable.  Every other value class compares by identity and keeps the
identity hash: no code compares two of them.  A class whose instances cache
a property keeps an instance __dict__; every other one has __slots__ and
no __dict__.
"""

from collections.abc import Hashable

import pytest

from agdeform import checks
from agdeform.curvature import nabla2_phi
from agdeform.deform import build_Phi
from agdeform.linalg import MatrixQ, rref, span_subspace
from agdeform.model import Chart, GenericFlow
from agdeform.reptheory import GradedAlgebraSpec, build_partial1, decomposition_dims

CHART = Chart(3)


#: A builder of one instance of each value class that compares by identity.
IDENTITY_VALUED = {
    "CheckReport": lambda: checks.CheckReport("stub", checks.PASS, checks.NUMERIC, ""),
    "RrefResult": lambda: rref(MatrixQ.identity(2)),
    "BundleActionMatrices": lambda: GenericFlow(CHART).actions,
    "DecompositionDims": lambda: decomposition_dims(3),
    "SecondDerivativeTensor": lambda: nabla2_phi(build_Phi(CHART)),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_VALUED))
def test_identity_valued_types_keep_the_object_contract(name):
    """== is identity and hash() the identity hash, so the two agree; the
    instance holds only its __slots__."""
    value = IDENTITY_VALUED[name]()
    cls = type(value)
    assert cls.__name__ == name
    assert cls.__eq__ is object.__eq__
    assert cls.__hash__ is object.__hash__
    assert value == value and hash(value) == hash(value)
    assert not hasattr(value, "__dict__")
    for slot in cls.__slots__:
        getattr(value, slot)


def test_partial1_compares_by_value_and_is_unhashable():
    """Two builds of the same map are ==, the cached image included or not;
    a map of another n is not.  The entries are a dict, so there is no
    hash to agree with ==."""
    p1 = build_partial1(GradedAlgebraSpec(3))
    fresh = build_partial1(GradedAlgebraSpec(3))
    p1.image
    assert p1 == fresh and not p1 != fresh
    assert p1 != build_partial1(GradedAlgebraSpec(2))
    assert p1 != p1.entries
    assert not isinstance(p1, Hashable)
    with pytest.raises(TypeError):
        hash(p1)


def test_partial1_image_is_built_once():
    p1 = build_partial1(GradedAlgebraSpec(3))
    image = p1.image
    assert p1.image is image
    assert vars(p1)["image"] is image


def test_subspace_functionals_are_built_once_and_take_no_part_in_eq():
    space = span_subspace([(1, 2, 0), (0, 1, 1)], 3)
    functionals = space.functionals
    assert space.functionals is functionals
    assert vars(space)["functionals"] is functionals
    assert space == span_subspace([(1, 2, 0), (0, 1, 1)], 3)
    assert space != space.basis
