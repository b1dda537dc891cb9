import numpy as np
import pytest
import scipy.linalg
from scipy import stats as sps

from algebra_oracle import matrices as basis_matrices
from matrix_oracles import det_modulus, gram_schmidt_qr
from sectint.fields import ScalarField
from sectint import matrices
from sectint.matrices import (
    MatK,
    eye,
    gaussian_batch,
    householder_q,
    inner,
    mat,
    to_real_vector,
    zeros,
)
from sectint.groups import (
    Family,
    GroupElement,
    GroupSpec,
    adjoint,
    algebra_basis,
    haar_sample,
    haar_sample_batch,
    root_data,
    torus_basis,
    torus_point,
    torus_points,
    torus_weight_batch,
)

ALL_GROUPS = [GroupSpec(f, n) for f in Family for n in range(2, 7)]


def torus_grid(rank: int, grid: int) -> np.ndarray:
    """Angle rows (grid^rank, rank) of the uniform grid with grid nodes per angle, the last angle fastest."""
    axes = [np.arange(grid) * (2 * np.pi / grid) for _ in range(rank)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def unitarity_residual(g):
    m = g.matrix
    return (m.h @ m - eye(m.field, m.rows)).norm()


def det_residual(g):
    """Deviation of the determinant from 1 (classical det for SO/SU)."""
    m = g.matrix
    if g.group.family is Family.SP:
        return abs(det_modulus(m) - 1.0)
    return float(abs(np.linalg.det(np.asarray(m.data)) - 1.0))


def skewness_residual(x):
    return (x.h + x).norm()


def random_algebra_element(group, rng, scale=1.0):
    basis = basis_matrices(group, algebra_basis(group))
    coeff = rng.standard_normal(len(basis)) * scale
    out = zeros(group.field, group.n, group.n)
    for c, b in zip(coeff, basis):
        out = out + c * b
    return out


def test_algebra_dimension_table():
    for g in ALL_GROUPS:
        n = g.n
        expect = {
            Family.SO: n * (n - 1) // 2,
            Family.SU: n * n - 1,
            Family.SP: n * (2 * n + 1),
        }[g.family]
        assert g.algebra_dim == expect
        assert len(algebra_basis(g)) == expect


def test_small_dims_match_spot_values():
    assert GroupSpec(Family.SO, 3).algebra_dim == 3
    assert GroupSpec(Family.SU, 2).algebra_dim == 3
    assert GroupSpec(Family.SP, 2).algebra_dim == 10


def test_basis_orthonormal_and_skew():
    for g in [GroupSpec(Family.SO, 4), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)]:
        rows = algebra_basis(g)
        basis = basis_matrices(g, rows)
        np.testing.assert_allclose(rows @ rows.T, np.eye(len(basis)), atol=1e-12)
        for b in basis:
            assert skewness_residual(b) < 1e-14
            assert abs(inner(b, b) - 1.0) < 1e-14
            if g.family is Family.SU:
                assert abs(np.trace(b.data)) < 1e-14


def test_bracket_closure_sp2():
    g = GroupSpec(Family.SP, 2)
    rows = algebra_basis(g)
    basis = basis_matrices(g, rows)
    worst = 0.0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = basis[i] @ basis[j] - basis[j] @ basis[i]
            v = to_real_vector(br)
            worst = max(worst, np.linalg.norm(v - rows.T @ (rows @ v)))
    assert worst < 1e-10


def exp_map(group, x):
    """Matrix exponential of an algebra element."""
    # over H, exp commutes with the adjoint matrix that stores x
    return GroupElement(group, MatK(x.field, scipy.linalg.expm(x.data)))


def test_exp_zero_and_inverse():
    rng = np.random.default_rng(0)
    for g in [GroupSpec(Family.SO, 3), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)]:
        e = exp_map(g, 0.0 * random_algebra_element(g, rng))
        assert (e.matrix - eye(g.field, g.n)).norm() < 1e-14
        x = random_algebra_element(g, rng)
        a, b = exp_map(g, x), exp_map(g, -1.0 * x)
        assert ((a.matrix @ b.matrix) - eye(g.field, g.n)).norm() < 1e-10
        assert unitarity_residual(a) < 1e-12
        assert det_residual(a) < 1e-12


def test_exp_rotation_closed_form():
    g = GroupSpec(Family.SO, 3)
    gen = np.zeros((3, 3))
    gen[0, 1], gen[1, 0] = -1.0, 1.0
    theta = np.pi / 3
    e = exp_map(g, mat(ScalarField.REAL, theta * gen)).matrix.data
    expect = np.eye(3)
    expect[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    np.testing.assert_allclose(e, expect, atol=1e-13)


def test_exp_matches_finite_differences():
    rng = np.random.default_rng(4)
    eps = 1e-5
    for g in [GroupSpec(Family.SO, 3), GroupSpec(Family.SU, 2), GroupSpec(Family.SP, 2)]:
        for x in basis_matrices(g, algebra_basis(g)[:3]):
            plus = exp_map(g, eps * x).matrix
            minus = exp_map(g, -eps * x).matrix
            diff = (1.0 / (2 * eps)) * (plus - minus)
            assert (diff - x).norm() < 1e-6


def test_haar_sample_in_group():
    rng = np.random.default_rng(1)
    for g in ALL_GROUPS:
        h = haar_sample(g, rng)
        assert unitarity_residual(h) < 1e-10
        assert det_residual(h) < 1e-10


@pytest.mark.parametrize(
    "group",
    [GroupSpec(f, n) for f, ns in [(Family.SO, (3, 4, 5)), (Family.SU, (2, 3, 4)), (Family.SP, (1, 2, 3))] for n in ns],
    ids=str,
)
def test_haar_character_second_moment(group):
    # the stored complex matrices (adjoint matrices on Sp) form an
    # irreducible representation, so Haar measure gives E|tr g|^2 = 1
    # (Schur orthogonality)
    batch = haar_sample_batch(group, np.random.default_rng(11), 20_000)
    tr2 = np.abs(np.trace(batch, axis1=1, axis2=2)) ** 2
    assert abs(tr2.mean() - 1.0) <= 5.0 * tr2.std(ddof=1) / np.sqrt(tr2.size)


def test_haar_entry_mean_vanishes():
    # Haar symmetry makes every matrix entry mean-zero
    g = GroupSpec(Family.SO, 4)
    rng = np.random.default_rng(8)
    batch = haar_sample_batch(g, rng, 100_000)
    m = batch[:, 0, 0].mean()
    assert abs(m) < 4.0 / np.sqrt(batch.shape[0])


def test_haar_left_invariance_ks():
    # marginals of h.g match marginals of g at the 1 percent level
    g = GroupSpec(Family.SO, 4)
    rng = np.random.default_rng(9)
    a = haar_sample_batch(g, rng, 100_000)
    b = haar_sample_batch(g, rng, 100_000)
    h = haar_sample(g, np.random.default_rng(123)).matrix.data
    hb = np.einsum("ij,mjk->mik", h, b)
    stat = sps.ks_2samp(a[:, 0, 0], hb[:, 0, 0])
    assert stat.pvalue > 0.01


def test_su2_trace_matches_weight_density():
    # the angle distribution of Haar SU(2) follows the weight function
    # computed by the weights module
    from sectint.actions import ConjugationAction
    from sectint.weights import delta_e_generic

    group = GroupSpec(Family.SU, 2)
    action = ConjugationAction(group)
    rng = np.random.default_rng(10)
    batch = haar_sample_batch(group, rng, 100_000)
    theta = np.arccos(np.clip(np.einsum("mii->m", batch).real / 2.0, -1, 1))
    bins = 40
    edges = np.linspace(0, np.pi, bins + 1)
    masses = np.empty(bins)
    for i in range(bins):
        grid = np.linspace(edges[i], edges[i + 1], 64, endpoint=False)
        grid += 0.5 * (edges[i + 1] - edges[i]) / 64
        masses[i] = np.mean([delta_e_generic(action, torus_point(group, [t])) for t in grid])
        masses[i] *= edges[i + 1] - edges[i]
    masses /= masses.sum()
    counts, _ = np.histogram(theta, bins=edges)
    chi2 = np.sum((counts - len(theta) * masses) ** 2 / (len(theta) * masses))
    p = sps.chi2.sf(chi2, bins - 1)
    assert p > 0.01


# --- the Householder kernel of the Haar draws ---------------------------------

# SO(1-5), SU(1-4) and Sp(1-3): the groups and the normalizer blocks of the
# direct sums, whose O(k) / U(k) / Sp(k) blocks start at 1 x 1
KERNEL_CASES = [(ScalarField.REAL, m) for m in range(1, 6)] + [(ScalarField.COMPLEX, m) for m in range(1, 5)] + [
    (ScalarField.QUATERNION, m) for m in range(1, 4)
]


@pytest.mark.parametrize("field, m", KERNEL_CASES, ids=lambda v: getattr(v, "value", v))
def test_householder_q_is_the_q_of_qr(field, m):
    # q is unique once diag(r) > 0, so the reflections and the Gram-Schmidt
    # oracle agree to rounding; det q is det of the (complex adjoint matrix of) q
    x = gaussian_batch(field, m, m, np.random.default_rng(m), 400)
    q, det = householder_q(x)
    size = np.sqrt(np.sum(np.abs(x) ** 2, axis=tuple(range(1, x.ndim))))
    gap = [np.max(np.abs(qi - gram_schmidt_qr(MatK(field, xi))[0].data)) for qi, xi in zip(q, x)]
    assert np.all(np.array(gap) <= 1e-13 * size)
    assert np.max(np.abs(det - np.linalg.det(q))) <= 1e-13


@pytest.mark.parametrize("field, m", KERNEL_CASES, ids=lambda v: getattr(v, "value", v))
def test_householder_q_is_batch_invariant(field, m):
    # a draw's q does not depend on its batch: each q and det q is the
    # same, bit for bit, in a stack of one, of a few, or of all
    x = gaussian_batch(field, m, m, np.random.default_rng(10 + m), 9)
    q, det = householder_q(x)
    for lo, hi in [(0, 1), (1, 3), (3, 9), (8, 9)]:
        part_q, part_det = householder_q(x[lo:hi])
        assert np.array_equal(part_q, q[lo:hi]) and np.array_equal(part_det, det[lo:hi])


@pytest.mark.parametrize("field", list(ScalarField), ids=lambda f: f.value)
def test_householder_q_of_an_empty_stack(field):
    # a batch of no draws is an empty stack
    x = gaussian_batch(field, 3, 3, np.random.default_rng(0), 0)
    q, det = householder_q(x)
    assert q.shape == x.shape and det.shape == (0,)


@pytest.mark.parametrize(
    "group", [GroupSpec(Family.SO, n) for n in range(2, 6)] + [GroupSpec(Family.SU, n) for n in range(2, 5)], ids=str
)
def test_haar_draws_have_det_one(group):
    batch = haar_sample_batch(group, np.random.default_rng(12), 500)
    assert np.max(np.abs(np.linalg.det(batch) - 1.0)) <= 1e-13


def test_haar_draws_take_no_lapack_factorization(monkeypatch):
    # q and its determinant both come from the reflections
    from sectint.actions import DirectSumAction

    def refuse(*args, **kwargs):
        raise AssertionError("a Haar draw called a LAPACK factorization or determinant")

    for module, name in [(np.linalg, "qr"), (np.linalg, "det"), (matrices, "qr")]:
        monkeypatch.setattr(module, name, refuse)
    rng = np.random.default_rng(3)
    for g in [GroupSpec(f, n) for f in Family for n in (1, 2, 3)]:
        haar_sample_batch(g, rng, 7)
        householder_q(gaussian_batch(g.field, g.n, g.n, rng, 7))
    for field in ScalarField:
        for n, k in [(3, 1), (3, 2), (4, 2)]:
            DirectSumAction(field, n, k).normalizer_samples(rng, 7)


def test_adjoint_isometry_and_closure():
    rng = np.random.default_rng(2)
    for g in [GroupSpec(Family.SO, 4), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)]:
        x, y = random_algebra_element(g, rng), random_algebra_element(g, rng)
        h = haar_sample(g, rng)
        assert (adjoint(GroupSpecIdentity(g), x) - x).norm() < 1e-14
        assert abs(inner(adjoint(h, x), adjoint(h, y)) - inner(x, y)) < 1e-10
        assert skewness_residual(adjoint(h, x)) < 1e-12


def GroupSpecIdentity(g):
    from sectint.groups import GroupElement

    return GroupElement(g, eye(g.field, g.n))


def test_torus_basis_and_point():
    for g in [GroupSpec(Family.SO, 5), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)]:
        rows = torus_basis(g)
        assert rows.shape == (g.rank, g.field.dim * g.n ** 2)
        np.testing.assert_allclose(rows @ rows.T, np.eye(g.rank), atol=1e-13)
    tp = torus_point(GroupSpec(Family.SU, 2), [0.7])
    np.testing.assert_allclose(tp.data, np.diag([np.exp(0.7j), np.exp(-0.7j)]), atol=1e-15)


def test_torus_points_match_explicit_matrices():
    rng = np.random.default_rng(4)
    for g in [GroupSpec(Family.SO, 5), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)]:
        angles = rng.uniform(0.0, 2 * np.pi, size=(6, g.rank))
        flat = torus_points(g, angles)
        for row, a in zip(flat, angles):
            if g.family is Family.SO:
                m = np.eye(g.n)
                for i, t in enumerate(a):
                    m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
                expect = mat(ScalarField.REAL, m)
            elif g.family is Family.SU:
                expect = mat(ScalarField.COMPLEX, np.diag(np.exp(1j * np.append(a, -a.sum()))))
            else:
                comp = np.zeros((g.n, g.n, 4))
                comp[np.arange(g.n), np.arange(g.n), 0] = np.cos(a)
                comp[np.arange(g.n), np.arange(g.n), 1] = np.sin(a)
                expect = mat(ScalarField.QUATERNION, comp)
            np.testing.assert_allclose(row, to_real_vector(expect), atol=1e-15)
            np.testing.assert_allclose(to_real_vector(torus_point(g, a)), row, atol=0.0)


WEYL_TABLE = [GroupSpec(Family.SO, n) for n in range(2, 8)] + [GroupSpec(Family.SU, n) for n in range(2, 6)] \
    + [GroupSpec(Family.SP, n) for n in range(1, 4)]


@pytest.mark.parametrize("group", WEYL_TABLE, ids=str)
def test_weyl_order_is_the_mean_of_the_root_weight(group):
    # Weyl's integration formula at f = 1: the uniform-torus mean of the
    # weight is |W|.  The weight is a trigonometric polynomial of the
    # record's degree per angle, so degree + 1 trapezoid nodes are exact:
    # the roots, their degree and |W| must agree with one another
    data = root_data(group)
    mean = np.mean(torus_weight_batch(group, torus_grid(group.rank, data.degree + 1)))
    assert mean == pytest.approx(data.weyl_order, rel=1e-13, abs=0)
    assert type(data.multiplicity) is int and type(data.weyl_order) is int
