"""The one generator rule against the per-field oracle, entry for entry."""

import numpy as np
import pytest

import algebra_oracle
from sectint.actions import ConjugationAction, DirectSumAction, algebra_split
from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec, algebra_basis, torus_basis

GROUPS = (
    [GroupSpec(Family.SO, n) for n in range(1, 7)]
    + [GroupSpec(Family.SU, n) for n in range(2, 7)]
    + [GroupSpec(Family.SP, n) for n in range(1, 6)]
)
DIRECT_SUMS = [DirectSumAction(f, n, k) for f in ScalarField for n in range(2, 6) for k in range(1, n)]


def assert_bases_equal(got, expect):
    assert len(got) == len(expect)
    for x, y in zip(got, expect):
        assert x.field is y.field
        assert x.data.dtype == y.data.dtype
        assert np.array_equal(x.data, y.data)


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_algebra_and_torus_bases_match_oracle(group):
    assert_bases_equal(algebra_basis(group), algebra_oracle.algebra_basis(group))
    assert_bases_equal(torus_basis(group), algebra_oracle.torus_basis(group))


@pytest.mark.parametrize(
    "action", DIRECT_SUMS + [ConjugationAction(g) for g in GROUPS if g.n > 1], ids=str
)
def test_algebra_split_matches_oracle(action):
    split = algebra_split(action)
    h, w, m = algebra_oracle.algebra_split(action)
    assert_bases_equal(split.h_basis, h)
    assert_bases_equal(split.w_basis, w)
    assert_bases_equal(split.m_basis, m)
