import json

import numpy as np
import pytest

from sectint.fields import ScalarField
from sectint.matrices import MatK, eye, gaussian, mat, side, to_real_vector, zeros
from sectint.groups import Family, GroupSpec, haar_sample, haar_sample_batch, torus_point
from algebra_oracle import matrices
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    RegularityClass,
    act,
    action_from_json,
    algebra_split,
    canonical_angles,
    classify_point,
    embed_section,
    isotropy_algebra,
    killing_field,
    normalizer_sample,
    orbit_normal,
    orbit_tangent,
    random_regular_section_point,
    reduce_to_section,
    section_coordinate,
    section_frame,
)
from schur_reduction import reduce_with_witness, torus_angles

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION


def section_residual(action, x):
    """Distance of x from the section (coordinate-wise, not orbit-wise)."""
    if isinstance(action, DirectSumAction):
        top = side(action.field) * action.k
        r = float(np.linalg.norm(x.data[top:]))
        if action.k == 1:
            # the k = 1 section is the real line through the first basis vector
            v = to_real_vector(MatK(action.field, x.data[:top]))
            r = float(np.hypot(r, np.linalg.norm(v[1:])))
        return r
    angles = torus_angles(action, x, strict=False)
    return (x - torus_point(action.group, angles)).norm()


TABLE_ACTIONS = [
    DirectSumAction(R, 3, 2),
    DirectSumAction(R, 5, 3),
    DirectSumAction(C, 3, 2),
    DirectSumAction(C, 4, 3),
    DirectSumAction(H, 3, 2),
]
POLAR_ACTIONS = [DirectSumAction(R, 4, 1), DirectSumAction(C, 3, 1), DirectSumAction(H, 2, 1)]
CONJ_ACTIONS = [
    ConjugationAction(GroupSpec(Family.SU, 2)),
    ConjugationAction(GroupSpec(Family.SU, 3)),
    ConjugationAction(GroupSpec(Family.SO, 4)),
    ConjugationAction(GroupSpec(Family.SO, 5)),
    ConjugationAction(GroupSpec(Family.SP, 2)),
]


def test_table_dimensions():
    for a in TABLE_ACTIONS:
        d, k = a.field.dim, a.k
        copol = {1: k * (k - 1) // 2, 2: k * k, 4: k * (2 * k + 1)}[d]
        cohom = {1: k * (k + 1) // 2, 2: k * k, 4: k * (2 * k - 1)}[d]
        assert a.copolarity == copol
        assert a.cohomogeneity == cohom
        assert a.section_dim == d * k * k
        split = algebra_split(a)
        assert len(split.w_rows) == copol
        assert len(split.m_rows) == d * k * (a.n - a.k)
        assert len(split.h_rows) == GroupSpec(a.group.family, a.n - a.k).algebra_dim


def test_polar_case_dimensions():
    for a in POLAR_ACTIONS:
        assert a.copolarity == 0 and a.section_dim == 1
        split = algebra_split(a)
        assert not len(split.w_rows)
        assert len(split.m_rows) == a.field.dim * a.n - 1


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DirectSumAction(R, 3, 3)
    with pytest.raises(ValueError):
        DirectSumAction(R, 3, 0)


def test_json_round_trip():
    for a in TABLE_ACTIONS + POLAR_ACTIONS + CONJ_ACTIONS:
        assert action_from_json(json.loads(json.dumps(a.to_json()))) == a
    with pytest.raises(ValueError):
        action_from_json({"kind": "nonsense"})


def test_split_orthonormal_all():
    for a in TABLE_ACTIONS + POLAR_ACTIONS + CONJ_ACTIONS:
        split = algebra_split(a)
        rows = np.concatenate([split.h_rows, split.w_rows, split.m_rows])
        np.testing.assert_array_equal(rows, split.rows)
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(rows)), atol=1e-10)
        assert len(rows) == a.group.algebra_dim


def test_stabilizer_killing_fields_vanish_on_section():
    rng = np.random.default_rng(0)
    for a in TABLE_ACTIONS:
        split = algebra_split(a)
        s = random_regular_section_point(a, rng)
        for b in matrices(a.group, split.h_rows):
            assert killing_field(a, b, s).norm() < 1e-12


def test_killing_block_image():
    # the perpendicular-part generator with a single elementary slot maps
    # a section point with coordinate B to (0; E B / sqrt(2))
    a = DirectSumAction(R, 3, 2)
    split = algebra_split(a)
    b = mat(R, [[1.0, 2.0], [3.0, 4.0]])
    s = embed_section(a, b)
    # m_rows is ordered by (row, column); element 0 hits ambient row 2, col 0
    img = killing_field(a, matrices(a.group, split.m_rows[:1])[0], s)
    expect = np.zeros((3, 2))
    expect[2] = b.data[0] / np.sqrt(2.0)
    np.testing.assert_allclose(img.data, expect, atol=1e-14)


def test_conjugation_killing_vanishes_at_identity():
    a = ConjugationAction(GroupSpec(Family.SU, 2))
    for b in matrices(a.group, np.concatenate([algebra_split(a).m_rows, algebra_split(a).h_rows])):
        assert killing_field(a, b, eye(C, 2)).norm() < 1e-15


def test_orbit_tangent_dimensions():
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, np.eye(2))
    assert orbit_tangent(a, s).shape[0] == 3
    assert orbit_tangent(a, zeros(R, 3, 2)).shape[0] == 0
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    rng = np.random.default_rng(1)
    s = random_regular_section_point(c, rng)
    assert orbit_tangent(c, s).shape[0] == 2


@pytest.mark.parametrize("scale", [1e-10, 1e-7, 1.0])
def test_orbit_ranks_follow_the_isotropy_rule_at_any_scale(scale):
    # one rank rule on the SVD: the orbit rank is q minus the isotropy
    # directions, so a tiny regular point has the full orbit tangent its class says
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, scale * np.array([[1.0, 0.3], [0.0, 2.0]]))
    assert classify_point(a, s) is RegularityClass.REGULAR
    assert orbit_tangent(a, s).shape == (3, 6) and orbit_normal(a, s).shape == (3, 6)


def test_orbit_normal_inside_section_tangent():
    # orbit normal spaces at regular section points sit inside the section
    # tangent with codimension equal to the copolarity
    rng = np.random.default_rng(2)
    for a in TABLE_ACTIONS + CONJ_ACTIONS[:2]:
        for _ in range(5):
            s = random_regular_section_point(a, rng)
            frame = section_frame(a, s)
            normal = orbit_normal(a, s)
            proj = normal @ frame.tangent.T
            lost = np.abs(np.linalg.norm(normal, axis=1) ** 2 - np.linalg.norm(proj, axis=1) ** 2)
            assert lost.max() < 1e-10
            assert frame.tangent.shape[0] - normal.shape[0] == a.copolarity


def test_classification():
    a = DirectSumAction(R, 3, 2)
    assert classify_point(a, embed_section(a, np.eye(2))) is RegularityClass.REGULAR
    assert classify_point(a, zeros(R, 3, 2)) is RegularityClass.SINGULAR
    assert classify_point(a, embed_section(a, [[1.0, 0.0], [0.0, 0.0]])) is RegularityClass.SINGULAR
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    assert classify_point(c, eye(C, 2)) is RegularityClass.SINGULAR
    from sectint.groups import torus_point

    assert classify_point(c, torus_point(c.group, [1.0])) is RegularityClass.REGULAR
    # one rule for both families: isotropy of the dimension of the section's stabilizer algebra
    for field in (C, H):
        b = gaussian(field, 2, 2, np.random.default_rng(17))
        b.data.reshape(2, side(field), -1)[1] = b.data[: side(field)]  # both rows equal
        a = DirectSumAction(field, 3, 2)
        assert classify_point(a, embed_section(a, b)) is RegularityClass.SINGULAR
        assert classify_point(a, embed_section(a, eye(field, 2))) is RegularityClass.REGULAR
        polar = DirectSumAction(field, 3, 1)
        assert classify_point(polar, embed_section(polar, eye(field, 1))) is RegularityClass.REGULAR
        assert classify_point(polar, zeros(field, 3, 1)) is RegularityClass.SINGULAR


def test_isotropy_constancy_along_regular_section():
    rng = np.random.default_rng(3)
    for a in TABLE_ACTIONS[:3]:
        split = algebra_split(a)
        h_rows = split.h_rows
        for _ in range(5):
            s = random_regular_section_point(a, rng)
            rows = isotropy_algebra(a, s)
            assert rows.shape == h_rows.shape
            resid = rows - (rows @ h_rows.T) @ h_rows
            assert np.abs(resid).max(initial=0.0) < 1e-8


def test_reduce_to_section_properties():
    # the oracle's witness g moves x onto its section point s
    rng = np.random.default_rng(4)
    for a in TABLE_ACTIONS + POLAR_ACTIONS + CONJ_ACTIONS:
        for raw in a.random_ambient_points(rng, 5):
            x = MatK(a.field, raw)
            s, g = reduce_with_witness(a, x)
            assert (act(a, g, x) - s).norm() < 1e-8 * max(1.0, x.norm())
            assert section_residual(a, s) < 1e-8


def _rank_deficient_point():
    x = zeros(R, 5, 2)
    x.data[:, 0] = [1.0, 2.0, 0.0, 1.0, -1.0]
    x.data[:, 1] = 2.0 * x.data[:, 0]
    return DirectSumAction(R, 5, 2), x


def test_reduce_rank_deficient():
    a, x = _rank_deficient_point()
    s, g = reduce_with_witness(a, x)
    assert (act(a, g, x) - s).norm() < 1e-10
    assert np.abs(s.data[2:]).max() < 1e-12
    assert classify_point(a, s) is RegularityClass.SINGULAR


def test_reduction_lands_in_same_weyl_orbit():
    rng = np.random.default_rng(5)
    for a in TABLE_ACTIONS + CONJ_ACTIONS[:3]:
        for raw in a.random_ambient_points(rng, 5):
            x = MatK(a.field, raw)
            h = haar_sample(a.group, rng)
            s1 = reduce_to_section(a, x)
            s2 = reduce_to_section(a, act(a, h, x))
            assert (s1 - s2).norm() < 1e-8 * max(1.0, s1.norm())


def _singular_conjugation_points():
    """Points with eigenvalue +-1 clusters, which exercise the block pairing."""
    so4 = ConjugationAction(GroupSpec(Family.SO, 4))
    so5 = ConjugationAction(GroupSpec(Family.SO, 5))
    su3 = ConjugationAction(GroupSpec(Family.SU, 3))
    points = [(so4, torus_point(so4.group, np.array(ang))) for ang in ([np.pi, np.pi], [0.0, np.pi], [0.0, 0.0])]
    return points + [(so5, torus_point(so5.group, np.array([np.pi, 0.0]))), (su3, eye(C, 3))]


def _oracle_cases():
    """(action, point) pairs: random ones on every test action, then the singular ones."""
    rng = np.random.default_rng(15)
    cases = [(a, MatK(a.field, raw)) for a in TABLE_ACTIONS + POLAR_ACTIONS + CONJ_ACTIONS
             for raw in a.random_ambient_points(rng, 5)]
    so2 = ConjugationAction(GroupSpec(Family.SO, 2))
    cases += [(so2, torus_point(so2.group, [th])) for th in (-0.5, 0.5, 3.0, np.pi)]
    cases += [_rank_deficient_point()] + _singular_conjugation_points()
    return [pytest.param(a, x, id=f"{a}#{i}") for i, (a, x) in enumerate(cases)]


@pytest.mark.parametrize("action, x", _oracle_cases())
def test_reduce_to_section_matches_oracle(action, x):
    s, _ = reduce_with_witness(action, x)
    assert (reduce_to_section(action, x) - s).norm() <= 1e-12 * max(1.0, s.norm())


def test_normalizer_maps_section_to_section():
    rng = np.random.default_rng(6)
    for a in TABLE_ACTIONS + POLAR_ACTIONS + CONJ_ACTIONS:
        s = random_regular_section_point(a, rng)
        for _ in range(5):
            w = normalizer_sample(a, rng)
            m = w.matrix
            assert ((m.h @ m) - eye(a.field, m.rows)).norm() < 1e-10
            if a.group.family is not Family.SP:
                assert abs(np.linalg.det(np.asarray(m.data)) - 1.0) < 1e-10
            assert section_residual(a, act(a, w, s)) < 1e-8


def test_reduce_conjugation_singular_points():
    for action, p in _singular_conjugation_points():
        s, g = reduce_with_witness(action, p)
        assert (act(action, g, p) - s).norm() < 1e-10


def test_su3_conjugates_of_an_eigenvalue_one_reduce_to_one_point():
    # the eigenvalue 1 has phase 0 or 2 pi - eps by rounding; the canonical
    # angles sum to 0 and are sorted in descending order, so both give (0.5, 0, -0.5)
    su3 = ConjugationAction(GroupSpec(Family.SU, 3))
    g = haar_sample_batch(su3.group, np.random.default_rng(16), 200)
    d = np.diag(np.exp(1j * np.array([0.0, 0.5, -0.5])))
    pts = su3.reduce(su3.act_data(g, d))
    assert np.abs(pts - pts[0]).max() <= 1e-12
    np.testing.assert_allclose(canonical_angles(su3.group, d[None])[0], [0.5, 0.0, -0.5], rtol=0, atol=1e-12)


def test_reduce_abelian_conjugation_is_identity():
    # SO(2) is abelian: conjugation moves nothing, so the canonical
    # representative must be the point itself even for negative angles
    so2 = ConjugationAction(GroupSpec(Family.SO, 2))
    for th in (-0.5, 0.5, 3.0, np.pi):
        p = torus_point(so2.group, [th])
        s, g = reduce_with_witness(so2, p)
        assert (act(so2, g, p) - s).norm() < 1e-12
        assert (s - p).norm() < 1e-12


def test_reduce_sp1_conjugation():
    sp1 = ConjugationAction(GroupSpec(Family.SP, 1))
    rng = np.random.default_rng(14)
    for raw in sp1.random_ambient_points(rng, 20):
        x = MatK(sp1.field, raw)
        s, g = reduce_with_witness(sp1, x)
        assert (act(sp1, g, x) - s).norm() < 1e-12


def test_perpendicular_killing_fields_on_all_of_section():
    # complement Killing fields are perpendicular to the section at every
    # section point, regular or not
    rng = np.random.default_rng(12)
    from killing_oracle import random_section_point

    for a in [DirectSumAction(ScalarField.REAL, 3, 2), DirectSumAction(ScalarField.QUATERNION, 3, 2)]:
        split = algebra_split(a)
        for _ in range(50):
            s = random_section_point(a, rng)
            frame = section_frame(a, s)
            for b in matrices(a.group, split.m_rows):
                img = to_real_vector(killing_field(a, b, s))
                assert np.abs(frame.tangent @ img).max() < 1e-10 * max(1.0, np.linalg.norm(img))


def test_property_c_fifty_points():
    rng = np.random.default_rng(13)
    a = DirectSumAction(ScalarField.REAL, 3, 2)
    for _ in range(50):
        s = random_regular_section_point(a, rng)
        frame = section_frame(a, s)
        normal = orbit_normal(a, s)
        proj = normal @ frame.tangent.T
        lost = np.abs(np.linalg.norm(normal, axis=1) ** 2 - np.linalg.norm(proj, axis=1) ** 2)
        assert lost.max() < 1e-10
        assert frame.tangent.shape[0] - normal.shape[0] == a.copolarity


def test_torus_angles_strictness():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    rng = np.random.default_rng(7)
    g = haar_sample(c.group, rng).matrix
    with pytest.raises(ValueError):
        torus_angles(c, g)


def test_section_coordinate_round_trip():
    a = DirectSumAction(H, 3, 2)
    rng = np.random.default_rng(8)
    s = random_regular_section_point(a, rng)
    b = section_coordinate(a, s)
    np.testing.assert_allclose(embed_section(a, b).data, s.data, atol=1e-15)
