"""The one generator rule against the per-field oracle, entry for entry.

The program keeps every algebra basis as read-only flat rows (q, D); the
oracle builds matrices one at a time, and the tests require their rows
to be exactly equal.
"""

import json

import numpy as np
import pytest

import algebra_oracle
from sectint.actions import ConjugationAction, DirectSumAction, action_from_json, algebra_split
from sectint.fields import ScalarField
from sectint.groups import Family, GroupSpec, algebra_basis, torus_basis
from test_acceptance import TABLE
from test_cli import ACTION_TABLE

GROUPS = (
    [GroupSpec(Family.SO, n) for n in range(1, 7)]
    + [GroupSpec(Family.SU, n) for n in range(2, 7)]
    + [GroupSpec(Family.SP, n) for n in range(1, 6)]
)
DIRECT_SUMS = [DirectSumAction(f, n, k) for f in ScalarField for n in range(2, 6) for k in range(1, n)]
# with the actions of the acceptance tables: R(6, k) and Sp(1) conjugation are new here
ACTIONS = list(dict.fromkeys(
    DIRECT_SUMS + [ConjugationAction(g) for g in GROUPS if g.n > 1]
    + [DirectSumAction(*row) for row in TABLE] + [action_from_json(json.loads(a)) for a in ACTION_TABLE]
))


def assert_rows_equal(got, expect, group):
    """got is read-only flat rows, exactly equal to the rows of the oracle's matrices."""
    assert isinstance(got, np.ndarray) and got.dtype == float and not got.flags.writeable
    np.testing.assert_array_equal(got, algebra_oracle.as_rows(expect, group), strict=True)


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_algebra_and_torus_bases_match_oracle(group):
    assert_rows_equal(algebra_basis(group), algebra_oracle.algebra_basis(group), group)
    assert_rows_equal(torus_basis(group), algebra_oracle.torus_basis(group), group)


@pytest.mark.parametrize("action", ACTIONS, ids=str)
def test_algebra_split_matches_oracle(action):
    split = algebra_split(action)
    h, w, m = algebra_oracle.algebra_split(action)
    assert_rows_equal(split.h_rows, h, action.group)
    assert_rows_equal(split.w_rows, w, action.group)
    assert_rows_equal(split.m_rows, m, action.group)
    for stack in (split.rows, split.data, split.operators):
        assert not stack.flags.writeable
