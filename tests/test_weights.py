import numpy as np
import pytest

from algebra_oracle import matrices
from sectint.fields import ScalarField
from sectint.matrices import eye, gaussian, mat, side, to_real_vector, zeros
from sectint.groups import Family, GroupSpec, torus_angles, torus_point, torus_points
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    RegularityClass,
    act,
    algebra_split,
    classify_point,
    embed_section,
    killing_field,
    normalizer_sample,
    random_regular_section_point,
    section_coordinate,
)
from sectint.checks import run_action_checks
from sectint.weights import (
    delta_d,
    delta_e_batch,
    delta_e_closed_form,
    delta_e_generic,
    orbit_map_differential,
    orbit_volume,
    section_weight_batch,
    torus_weight_batch,
    weight_value,
)

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION

ALL_COMBOS = (
    [(R, n, k) for n in range(3, 7) for k in range(2, n)]
    + [(C, n, k) for n in range(3, 5) for k in range(2, n)]
    + [(H, 3, 2)]
)


def test_worked_example_real():
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, np.eye(2))
    assert delta_e_generic(a, s) == pytest.approx(0.5, abs=1e-12)
    assert delta_e_closed_form(R, 3, 2, np.eye(2)) == pytest.approx(0.5, abs=1e-15)


def test_worked_example_complex():
    assert delta_e_closed_form(C, 3, 2, np.diag([2.0, 1.0]).astype(complex)) == pytest.approx(1.0)


def test_closed_form_rejects_polar_and_out_of_range():
    # the polar section is the real line: a non-real coordinate is off it
    with pytest.raises(ValueError):
        delta_e_closed_form(C, 3, 1, np.array([[0.6 + 0.8j]]))
    with pytest.raises(ValueError):
        delta_e_closed_form(R, 3, 3, np.eye(3))
    with pytest.raises(ValueError):
        delta_e_closed_form(R, 3, 2, np.eye(3))


def test_generic_matches_closed_form_sampled():
    rng = np.random.default_rng(0)
    for (f, n, k) in ALL_COMBOS:
        a = DirectSumAction(f, n, k)
        for _ in range(10):
            s = random_regular_section_point(a, rng)
            closed = delta_e_closed_form(f, n, k, section_coordinate(a, s))
            generic = delta_e_generic(a, s)
            assert abs(generic - closed) <= 1e-8 * (1.0 + closed)


@pytest.mark.parametrize("field", [R, C, H])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polar_closed_form_matches_generic(field, n):
    # 2^(-d(n-1)/2) |t|^(dn-1), times sqrt((n-1)/n) over C
    a = DirectSumAction(field, n, 1)
    t = np.random.default_rng(n).standard_normal(20) * 2.0
    pts = a.section_points(t[:, None])
    closed = section_weight_batch(a, t[:, None])
    np.testing.assert_allclose(closed, delta_e_batch(a, pts), rtol=1e-13, atol=0)
    unit = delta_e_batch(a, pts[:1] / t[0])[0]
    assert delta_e_closed_form(field, n, 1, eye(field, 1)) == pytest.approx(unit, rel=1e-13)


def test_closed_form_is_exactly_zero_at_rank_deficient_coordinates():
    # the Gram difference leaves about eps |B|^4 when the rows of B are equal; gram_det reads it as 0
    rng = np.random.default_rng(4)
    for field, n, k in [(R, 3, 2), (R, 4, 3), (C, 4, 2), (H, 3, 2)]:
        a = DirectSumAction(field, n, k)
        z = rng.standard_normal((200, k, k * field.dim))
        z[:, -1] = z[:, 0]
        assert np.all(section_weight_batch(a, z.reshape(200, -1)) == 0.0)


def test_singular_weight_is_exactly_zero():
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, [[1.0, 0.0], [0.0, 0.0]])
    assert delta_e_generic(a, s) == 0.0
    wv = weight_value(a, s)
    assert wv.delta_e == 0.0 and wv.regularity is RegularityClass.SINGULAR
    assert delta_e_generic(a, zeros(R, 3, 2)) == 0.0


def test_weight_continuous_and_monotone_into_singular_set():
    # along B(t) = diag(t, 1) the weight decreases monotonically to 0
    a = DirectSumAction(R, 3, 2)
    ts = np.linspace(0.0, 0.4, 30)
    vals = [delta_e_generic(a, embed_section(a, np.diag([t, 1.0]))) for t in ts]
    assert vals[0] == 0.0
    assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 0


def test_weight_weyl_invariance():
    rng = np.random.default_rng(1)
    for a in [DirectSumAction(R, 3, 2), DirectSumAction(H, 3, 2), ConjugationAction(GroupSpec(Family.SU, 2))]:
        s = random_regular_section_point(a, rng)
        base = delta_e_generic(a, s)
        for _ in range(20):
            w = normalizer_sample(a, rng)
            moved = delta_e_generic(a, act(a, w, s))
            assert abs(moved - base) <= 1e-9 * (1.0 + base)


def test_block_structure_and_factorization():
    rng = np.random.default_rng(2)
    for a in [DirectSumAction(R, 3, 2), DirectSumAction(C, 4, 2), DirectSumAction(H, 3, 2)]:
        for _ in range(10):
            s = random_regular_section_point(a, rng)
            d = orbit_map_differential(a, s)
            assert d.off_block_residual() <= 1e-10 * max(np.abs(d.matrix).max(), 1e-300)
            total, de, dd = d.total_det(), delta_e_batch(a, to_real_vector(s)[None])[0], d.delta_d()
            assert abs(total - de * dd) <= 1e-8 * max(1.0, total)


def test_differential_block_matches_coordinate_multiplication():
    # per ambient row below the section, the normal block is the
    # realification of u -> u^t (B / sqrt(2))
    a = DirectSumAction(R, 4, 2)
    b = mat(R, [[1.0, -2.0], [0.5, 3.0]])
    s = embed_section(a, b)
    d = orbit_map_differential(a, s)
    blk = d.matrix[d.n_tan :, d.n_w :]
    n_rows = a.n - a.k
    size = a.field.dim * a.k
    expect_block = b.data.T / np.sqrt(2.0)
    for i in range(n_rows):
        for j in range(n_rows):
            sub = blk[i * size : (i + 1) * size, j * size : (j + 1) * size]
            if i == j:
                np.testing.assert_allclose(sub, expect_block, atol=1e-14)
            else:
                assert np.abs(sub).max() < 1e-14


def test_su2_block_determinant_is_sin_squared():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    for theta in np.linspace(0.2, np.pi - 0.2, 9):
        s = torus_point(c.group, [theta])
        assert delta_e_generic(c, s) == pytest.approx(4.0 * np.sin(theta) ** 2, rel=1e-10)


def test_su2_weight_over_sin_squared_constant():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    grid = np.linspace(0.1, np.pi - 0.1, 100)
    vals = np.array(
        [delta_e_generic(c, torus_point(c.group, [t])) / np.sin(t) ** 2 for t in grid]
    )
    assert np.abs(vals - vals[0]).max() <= 1e-6 * abs(vals[0])


def test_delta_d_polar_convention_and_value():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    assert delta_d(c, torus_point(c.group, [0.9])) == 1.0
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, np.eye(2))
    # at the identity coordinate the single Weyl direction has unit speed
    assert delta_d(a, s) == pytest.approx(1.0, abs=1e-12)
    assert delta_d(a, zeros(R, 3, 2)) == 0.0


def test_differential_vanishes_at_origin():
    a = DirectSumAction(R, 3, 2)
    d = orbit_map_differential(a, zeros(R, 3, 2))
    assert np.abs(d.matrix).max() == 0.0


def test_orbit_volume_arithmetic_contract():
    # total |det| at the identity coordinate is delta_d * delta_e = 0.5
    a = DirectSumAction(R, 3, 2)
    s = embed_section(a, np.eye(2))
    assert orbit_volume(a, s, 10.0) == pytest.approx(5.0, rel=1e-12)


def test_orbit_volume_su2_spheres():
    # conjugacy orbits of SU(2) are round 2-spheres of radius sqrt(2) sin(theta)
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    from sectint.volumes import vol_gh_estimate

    gh = vol_gh_estimate(c)
    for theta in (np.pi / 2, 0.8):
        s = torus_point(c.group, [theta])
        expect = 4.0 * np.pi * 2.0 * np.sin(theta) ** 2
        assert orbit_volume(c, s, gh) == pytest.approx(expect, rel=1e-12)


def test_orbit_volume_rejects_singular():
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    with pytest.raises(ValueError):
        orbit_volume(c, eye(C, 2), 1.0)


def test_so3_rotation_by_pi_has_an_exceptional_orbit():
    # the orbit is RP^2, the image of n -> 2 n n^t - I on S^2, with |dR|^2 = 8 |dn|^2:
    # area 8 * 4 pi / 2 = 16 pi; G/H, the unit sphere bundle, covers it twice
    c = ConjugationAction(GroupSpec(Family.SO, 3))
    from sectint.volumes import vol_gh_estimate

    s = torus_point(c.group, [np.pi])
    assert classify_point(c, s) is RegularityClass.EXCEPTIONAL
    assert weight_value(c, s).regularity is RegularityClass.EXCEPTIONAL
    assert orbit_volume(c, s, vol_gh_estimate(c)) == pytest.approx(16 * np.pi, rel=1e-12)


@pytest.mark.parametrize("n, angles", [(4, [np.pi, 0.0]), (5, [np.pi, 0.7])])
def test_exceptional_orbit_has_half_the_nearby_volume(n, angles):
    c = ConjugationAction(GroupSpec(Family.SO, n))
    s, near = torus_point(c.group, angles), torus_point(c.group, np.asarray(angles) - 1e-7)
    assert classify_point(c, s) is RegularityClass.EXCEPTIONAL
    assert classify_point(c, near) is RegularityClass.REGULAR
    assert orbit_volume(c, s, 1.0) == pytest.approx(orbit_volume(c, near, 1.0) / 2, rel=1e-6)


@pytest.mark.parametrize("family, n", [(Family.SU, 3), (Family.SP, 2)])
def test_simply_connected_groups_have_no_exceptional_points(family, n):
    # angles at 0, pi and generic values, in every combination the torus takes
    c = ConjugationAction(GroupSpec(family, n))
    values = (0.0, np.pi / 2, np.pi, 0.7, -2.1)
    classes = {classify_point(c, torus_point(c.group, [a, b])) for a in values for b in values}
    assert RegularityClass.EXCEPTIONAL not in classes and RegularityClass.REGULAR in classes


def w_orbit_length(b: np.ndarray, n_grid: int = 4000) -> float:
    """Independent quadrature of the O(2) orbit length through B."""
    total = 0.0
    phis = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    for phi in phis:
        c, s = np.cos(phi), np.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        speed = np.linalg.norm(gen @ rot @ b)
        total += speed * (2 * np.pi / n_grid)
    return 2.0 * total  # two components of O(2)


def orbit_volume_ratio(action, s, vol_gh, vol_w, vol_ws):
    """(vol(orbit)/vol(G/H)) / (vol(Weyl orbit)/vol(W)); 0 at singular points."""
    if classify_point(action, s) is RegularityClass.SINGULAR:
        return 0.0
    if min(vol_gh, vol_w, vol_ws) <= 0:
        raise ValueError("volumes must be positive")
    return (orbit_volume(action, s, vol_gh) / vol_gh) / (vol_ws / vol_w)


def test_volume_scaling_ratio_recovers_weight():
    # (vol(orbit)/vol(G/H)) / (vol(W orbit)/vol(W)) equals the weight,
    # with the Weyl orbit volume from an independent curve quadrature
    from sectint.volumes import vol_gh_estimate, w_group_volume

    a = DirectSumAction(R, 3, 2)
    rng = np.random.default_rng(3)
    gh = vol_gh_estimate(a)
    w = w_group_volume(a)
    for b in (np.eye(2), rng.standard_normal((2, 2))):
        s = embed_section(a, b)
        ratio = orbit_volume_ratio(a, s, gh, w, w_orbit_length(np.asarray(b, dtype=float)))
        assert ratio == pytest.approx(delta_e_generic(a, s), rel=1e-12)


def test_volume_scaling_ratio_singular_is_zero():
    a = DirectSumAction(R, 3, 2)
    assert orbit_volume_ratio(a, zeros(R, 3, 2), 1.0, 1.0, 1.0) == 0.0


def test_polar_direct_sum_weight_value():
    # SO(n) on R^n: the weight at t e_1 is (t / sqrt(2))^(n-1), since the
    # n-1 perpendicular generators map e_1 to orthogonal vectors of norm
    # 1/sqrt(2); same scaling with d n - 1 factors over C and H
    for n in (3, 4, 5):
        a = DirectSumAction(R, n, 1)
        for t in (1.0, 2.5):
            s = embed_section(a, [[t]])
            assert delta_e_generic(a, s) == pytest.approx((t / np.sqrt(2.0)) ** (n - 1), rel=1e-12)
    a = DirectSumAction(C, 2, 1)
    s = embed_section(a, np.array([[2.0]], dtype=complex))
    assert delta_e_generic(a, s) == pytest.approx((2.0 / np.sqrt(2.0)) ** 3, rel=1e-10)


def test_polar_scaling_reduces_to_orbit_volume_fraction():
    # for the polar conjugation action the weight equals
    # vol(orbit)/vol(G/H) (analytic sphere areas over 2 pi)
    c = ConjugationAction(GroupSpec(Family.SU, 2))
    for theta in (0.6, 1.3):
        s = torus_point(c.group, [theta])
        expect = (4.0 * np.pi * 2.0 * np.sin(theta) ** 2) / (2.0 * np.pi)
        assert delta_e_generic(c, s) == pytest.approx(expect, rel=1e-9)


# --- the batched Killing-operator kernel against independent references ----------

ACTION_TABLE = (
    DirectSumAction(R, 3, 2),
    DirectSumAction(C, 4, 2),
    DirectSumAction(H, 3, 2),
    DirectSumAction(R, 4, 1),
) + tuple(
    ConjugationAction(GroupSpec(fam, n))
    for fam, n in ((Family.SU, 2), (Family.SU, 3), (Family.SO, 3), (Family.SO, 4), (Family.SP, 1), (Family.SP, 2))
)


def gram_weight(action, s):
    """Per-point reference: sqrt det Gram of the complementary Killing images."""
    basis = matrices(action.group, algebra_split(action).m_rows)
    images = np.stack([to_real_vector(killing_field(action, b, s)) for b in basis])
    return float(np.sqrt(np.linalg.det(images @ images.T)))


def singular_points(action, rng):
    if isinstance(action, ConjugationAction):
        rank = action.group.rank
        angles = [np.zeros(rank)]
        if rank >= 2:  # a repeated angle is a repeated eigenvalue
            angles.append(np.full(rank, rng.uniform(0.0, 2 * np.pi)))
        return [torus_point(action.group, a) for a in angles]
    points = [zeros(action.field, action.n, action.k)]
    if action.k >= 2:
        b = gaussian(action.field, action.k, action.k, rng)
        b.data.reshape(action.k, side(action.field), -1)[1:] = b.data[: side(action.field)]  # all rows equal
        points.append(embed_section(action, b))
    return points


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_batch_matches_gram_reference_at_regular_points(action):
    rng = np.random.default_rng(11)
    points = [random_regular_section_point(action, rng) for _ in range(25)]
    got = delta_e_batch(action, np.stack([to_real_vector(s) for s in points]))
    ref = np.array([gram_weight(action, s) for s in points])
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("action", ACTION_TABLE, ids=str)
def test_batch_is_exactly_zero_at_singular_points(action):
    points = singular_points(action, np.random.default_rng(12))
    got = delta_e_batch(action, np.stack([to_real_vector(s) for s in points]))
    assert np.all(got == 0.0)


@pytest.mark.parametrize("field, n", [(R, 3), (C, 4), (H, 3)])
def test_rank_deficient_points_weigh_exactly_zero(field, n):
    # both rows of B equal: sqrt det Gram returned about 1e-8 at some of these
    a = DirectSumAction(field, n, 2)
    rng = np.random.default_rng(13)
    pts = []
    for _ in range(200):
        b = gaussian(field, 2, 2, rng)
        b.data.reshape(2, side(field), -1)[1] = b.data[: side(field)]  # both rows equal
        pts.append(to_real_vector(embed_section(a, b)))
    assert np.all(delta_e_batch(a, np.stack(pts)) == 0.0)


# --- the singular cutoff is scale-free --------------------------------------------
# A direct sum's Killing images are linear in the point, and abs_det_between
# floors each image's norm at 1e-6 times the point's: small regular points
# keep their homogeneous determinants, and the conjugation identity, where
# every image is 0, still weighs exactly 0.

@pytest.mark.parametrize("t", [1e-10, 1e-6, 1.0])
def test_small_regular_points_factorize(t):
    a = DirectSumAction(R, 3, 2)
    b = t * np.array([[1.0, 0.3], [-0.2, 0.8]])
    s = embed_section(a, b)
    diff = orbit_map_differential(a, s)
    total, generic = float(diff.total_det()), delta_e_generic(a, s)
    assert total > 0.0
    assert total == pytest.approx(float(diff.delta_d()) * generic, rel=1e-8, abs=0.0)
    assert generic == pytest.approx(delta_e_closed_form(R, 3, 2, b), rel=1e-8, abs=0.0)


def test_small_complex_point_matches_closed_form():
    # 2^-4 |det B|^4 = 4.1e-62 at B = diag(3e-8)
    a, b = DirectSumAction(C, 4, 2), np.diag([3e-8, 3e-8]).astype(complex)
    closed = delta_e_closed_form(C, 4, 2, b)
    assert closed == pytest.approx(2.0 ** -4 * 3e-8 ** 8, rel=1e-12)
    assert delta_e_generic(a, embed_section(a, b)) == pytest.approx(closed, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("family, n", [(Family.SO, 3), (Family.SU, 3), (Family.SP, 2)])
def test_conjugation_identity_still_weighs_exactly_zero(family, n):
    action = ConjugationAction(GroupSpec(family, n))
    checks = {c.name: c for c in run_action_checks(action, seed=1, n_points=3)}
    assert checks["weight_singular_vanishing"].value == 0.0
    assert delta_e_generic(action, eye(action.field, n)) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_torus_weight_is_weyl_density(n):
    # prod_{i<j} |e^{i a_i} - e^{i a_j}|^2 with the dependent last angle
    group = GroupSpec(Family.SU, n)
    angles = np.random.default_rng(14).uniform(0.0, 2 * np.pi, size=(300, n - 1))
    full = np.concatenate([angles, -angles.sum(axis=1, keepdims=True)], axis=1)
    i, j = np.triu_indices(n, 1)
    weyl = np.prod(np.abs(2.0 * np.sin((full[:, i] - full[:, j]) / 2.0)) ** 2, axis=1)
    got = delta_e_batch(ConjugationAction(group), torus_points(group, angles))
    np.testing.assert_allclose(got, weyl, rtol=1e-10, atol=1e-13)


def test_custom_split_is_used_and_not_cached(corrupt_metric):
    # the kernel reads the split of the action, and the split cached before
    # the metric changed is not read after it
    c = ConjugationAction(GroupSpec(Family.SU, 3))
    n_m = len(algebra_split(c).m_rows)
    pts = torus_points(c.group, np.random.default_rng(15).uniform(0.0, 2 * np.pi, size=(20, 2)))
    plain = delta_e_batch(c, pts)
    corrupt_metric(c, 1.1)
    np.testing.assert_allclose(delta_e_batch(c, pts), 1.1 ** n_m * plain, rtol=1e-12)
    assert not all(r.passed for r in run_action_checks(c, seed=1, n_points=4))


#: SU(2)-SU(4), SO(2)-SO(6) and Sp(1)-Sp(3)
TORUS_GROUPS = (
    [GroupSpec(Family.SU, n) for n in range(2, 5)]
    + [GroupSpec(Family.SO, n) for n in range(2, 7)]
    + [GroupSpec(Family.SP, n) for n in range(1, 4)]
)


@pytest.mark.parametrize("group", TORUS_GROUPS, ids=str)
def test_weyl_closed_form_equals_the_generic_kernel(group):
    # Weyl's integration formula: the conjugation weight is the product of
    # 4 sin^2(alpha / 2) over the positive roots, with constant 1
    angles = np.random.default_rng(17).uniform(0.0, 2 * np.pi, (2000, group.rank))
    pts = torus_points(group, angles)
    closed, generic = torus_weight_batch(group, angles), delta_e_batch(ConjugationAction(group), pts)
    # the generic kernel reports a weight below its cutoff as exactly 0
    cut = generic == 0.0
    assert np.sum(cut) <= 2 and np.all(closed[cut] < 1e-10)
    np.testing.assert_allclose(closed[~cut], generic[~cut], rtol=1e-10)
    # the angles read back from the points give the same points and weights
    back = torus_angles(group, pts)
    np.testing.assert_allclose(torus_points(group, back), pts, rtol=0, atol=1e-14)
    np.testing.assert_allclose(torus_weight_batch(group, back), closed, rtol=1e-10)


@pytest.mark.parametrize("group, angles", [
    (GroupSpec(Family.SU, 3), [0.7, 0.7]),          # theta_1 = theta_2
    (GroupSpec(Family.SU, 3), [0.7, -1.4]),         # theta_1 = theta_3 = -(theta_1 + theta_2)
    (GroupSpec(Family.SU, 4), [2.1, 0.3, 2.1, -4.5]),
    (GroupSpec(Family.SO, 5), [0.0, 1.3]),          # root theta_1
    (GroupSpec(Family.SO, 6), [1.3, -1.3, 0.4]),    # root theta_1 + theta_2
    (GroupSpec(Family.SP, 2), [0.9, 0.0]),          # root 2 theta_2
], ids=str)
def test_weyl_closed_form_vanishes_exactly_on_root_hyperplanes(group, angles):
    assert torus_weight_batch(group, np.array([angles]))[0] == 0.0


def test_weyl_closed_form_is_one_without_roots():
    np.testing.assert_array_equal(torus_weight_batch(GroupSpec(Family.SO, 2), np.linspace(0, 6, 7)[:, None]), 1.0)
