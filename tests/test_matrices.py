import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectint.fields import ScalarField
from sectint.matrices import (
    DimensionError,
    MatK,
    abs_det_between,
    batch_to_real,
    det_modulus,
    eye,
    from_real_vector,
    gaussian,
    gram_det,
    inner,
    mat,
    qr,
    side,
    to_real_vector,
    zeros,
)

from matrix_oracles import entries, gram_schmidt_qr, quat_components, realified_det

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION
FIELDS = (R, C, H)


def cofactor_det(a: np.ndarray) -> complex:
    """Independent recursive determinant for the complex oracle."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


# --- inner product ------------------------------------------------------------

def test_inner_identity():
    assert inner(eye(R, 2), eye(R, 2)) == 2.0


def test_inner_complex_unit():
    x = mat(C, [[1j]])
    assert abs(inner(x, x) - 1.0) < 1e-15


def test_inner_matches_realification_dot():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = gaussian(H, 3, 2, rng), gaussian(H, 3, 2, rng)
        assert abs(inner(x, y) - to_real_vector(x) @ to_real_vector(y)) < 1e-12


def test_inner_shape_mismatch():
    with pytest.raises(DimensionError):
        inner(eye(R, 2), eye(R, 3))
    with pytest.raises(DimensionError):
        inner(eye(R, 2), eye(C, 2))


def test_realification_roundtrip_isometric():
    rng = np.random.default_rng(1)
    for field in FIELDS:
        x = gaussian(field, 4, 3, rng)
        v = to_real_vector(x)
        assert v.size == field.dim * 12
        assert abs(v @ v - inner(x, x)) < 1e-12
        np.testing.assert_allclose(from_real_vector(field, 4, 3, v).data, x.data, atol=1e-15)


def test_batch_to_real_matches_single():
    rng = np.random.default_rng(2)
    for field in FIELDS:
        xs = [gaussian(field, 3, 3, rng) for _ in range(4)]
        batch = np.stack([x.data for x in xs])
        flat = batch_to_real(field, batch)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(flat[i], to_real_vector(x), atol=1e-15)


# --- the quaternion layout -------------------------------------------------------

def layout_gap(e: np.ndarray) -> float:
    """Largest departure of a stack of H data from the adjoint-matrix layout,
    e[2i+1, 2j+1] = conj(e[2i, 2j]) and e[2i+1, 2j] = -conj(e[2i, 2j+1]),
    relative to its largest entry."""
    e = np.asarray(e)
    assert e.dtype == complex and e.shape[-2] % 2 == 0 and e.shape[-1] % 2 == 0
    diag = np.abs(e[..., 1::2, 1::2] - e[..., ::2, ::2].conj())
    off = np.abs(e[..., 1::2, ::2] + e[..., ::2, 1::2].conj())
    return max(diag.max(initial=0.0), off.max(initial=0.0)) / max(np.abs(e).max(initial=0.0), 1e-300)


def test_every_h_array_handed_out_is_an_adjoint_matrix():
    # arrays built from components keep the layout exactly, computed ones to rounding
    from sectint.actions import ConjugationAction, DirectSumAction, algebra_split
    from sectint.groups import Family, GroupSpec, haar_sample_batch
    from sectint.matrices import conj_transpose, gaussian_batch, householder_q

    rng = np.random.default_rng(60)
    a, b = gaussian_batch(H, 3, 4, rng, 20), gaussian_batch(H, 4, 2, rng, 20)
    deficient = gaussian_batch(H, 4, 3, rng, 20)
    deficient[:, :, 4:] = deficient[:, :, :2]  # the last column repeats the first
    exact = [a, conj_transpose(a), algebra_split(DirectSumAction(H, 3, 2)).data,
             algebra_split(ConjugationAction(GroupSpec(Family.SP, 2))).data]
    rounded = [a @ b, *qr(H, conj_transpose(a)), *qr(H, deficient),
               householder_q(gaussian_batch(H, 3, 3, rng, 20))[0],
               haar_sample_batch(GroupSpec(Family.SP, 2), rng, 20)]
    assert all(layout_gap(e) == 0.0 for e in exact)
    assert all(layout_gap(e) <= 1e-14 for e in rounded)


def test_realification_keeps_the_component_order():
    # c1.re, c1.im, c2.re, c2.im per entry, row by row: bases, frames and the
    # algebra split are built in these coordinates
    comps = np.random.default_rng(61).standard_normal((3, 2, 4))
    assert np.array_equal(to_real_vector(mat(H, comps)), comps.ravel())
    assert np.array_equal(batch_to_real(H, mat(H, comps).data[None])[0], comps.ravel())


# --- adjoint and products -------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adjoint_involution_and_product_rule(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        a, b = gaussian(field, 3, 4, rng), gaussian(field, 4, 2, rng)
        np.testing.assert_allclose(a.h.h.data, a.data, atol=1e-15)
        np.testing.assert_allclose((a @ b).h.data, (b.h @ a.h).data, atol=1e-12)


# --- QR -------------------------------------------------------------------------

def test_qr_identity():
    q, r = qr(R, np.eye(3))
    np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(r, np.eye(3), atol=1e-15)


def test_qr_rank_deficient_zero_diagonal():
    q, r = qr(R, [[1.0, 2.0], [2.0, 4.0]])
    assert r[1, 1] == 0.0
    np.testing.assert_allclose(q @ r, [[1, 2], [2, 4]], atol=1e-12)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-13)


def test_qr_orthonormality_bulk():
    # 1000 Gaussian 4x4 real samples stay orthonormal to 1e-10 in max norm
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        q, _ = qr(R, gaussian(R, 4, 4, rng).data)
        worst = max(worst, np.abs(q.T @ q - np.eye(4)).max())
    assert worst < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_qr_reconstruction_all_fields(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        x = gaussian(field, 5, 3, rng)
        q, r = (MatK(field, a) for a in qr(field, x.data))
        assert ((q @ r) - x).norm() <= 1e-10 * x.norm()
        assert ((q.h @ q) - eye(field, 3)).norm() < 1e-12
        diag = entries(r)[np.arange(3), np.arange(3)]
        if field is H:
            assert np.abs(diag[:, 1]).max() < 1e-15 and np.abs(diag[:, 0].imag).max() < 1e-15
            assert np.all(diag[:, 0].real >= 0)
        else:
            assert np.abs(np.imag(diag)).max() < 1e-15 if field is C else True
            assert np.all(np.real(diag) >= 0)


def test_qr_requires_tall_matrix():
    with pytest.raises(DimensionError):
        qr(R, zeros(R, 2, 3).data)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("shape", [(3, 2), (5, 3), (4, 1), (6, 2), (4, 4), (1, 1)])
def test_qr_matches_gram_schmidt_oracle(field, shape):
    rng = np.random.default_rng(30 + 7 * shape[0] + shape[1] + field.dim)
    xs = [gaussian(field, *shape, rng) for _ in range(50)]
    q, r = qr(field, np.stack([x.data for x in xs]))
    for i, x in enumerate(xs):
        gq, gr = gram_schmidt_qr(x)
        assert np.abs(q[i] - gq.data).max() <= 1e-13 * x.norm()
        assert np.abs(r[i] - gr.data).max() <= 1e-13 * x.norm()
        # a batch factors each matrix as a batch of one does
        qi, ri = qr(field, x.data)
        np.testing.assert_array_equal(q[i], qi)
        np.testing.assert_array_equal(r[i], ri)


def _rank_deficient(field, rng):
    """n x k matrices (n = 4) with dependent columns: zero, repeated, and
    multiplied by a field scalar from the right, ahead of free columns."""
    g = lambda k: gaussian(field, 4, k, rng)
    scalar = lambda: gaussian(field, 1, 1, rng)
    v = g(1)
    vs = v @ scalar()
    comps = np.zeros((4, 1, field.dim))
    comps[1, 0, ::2] = 1.0  # 1, or 1 + j over H
    unit = from_real_vector(field, 4, 1, comps.ravel())
    cat = lambda *cols: MatK(field, np.concatenate([c.data for c in cols], axis=1))
    return [
        zeros(field, 4, 3),
        cat(zeros(field, 4, 1), g(1)),
        cat(zeros(field, 4, 1), unit),
        cat(g(1), zeros(field, 4, 1), g(1)),
        cat(v, vs),
        cat(v, vs, g(1)),
        cat(v, vs, v @ scalar(), g(1)),
        cat(g(1), v, zeros(field, 4, 1), vs),
        cat(v, g(1), vs),
    ]


@pytest.mark.parametrize("field", FIELDS)
def test_qr_rank_deficient_is_orthonormal_and_exact(field):
    rng = np.random.default_rng(40 + field.dim)
    xs = _rank_deficient(field, rng)
    for x in xs:
        k = x.cols
        q, r = (MatK(field, a) for a in qr(field, x.data))
        assert ((q.h @ q) - eye(field, k)).norm() < 1e-13
        assert ((q @ r) - x).norm() <= 1e-13 * max(1.0, x.norm())
        i, j = np.tril_indices(k, -1)
        assert np.all(entries(r)[i, j] == 0.0)
        diag = entries(r)[np.arange(k), np.arange(k)]
        rank = np.linalg.matrix_rank(x.data) // side(field)
        assert np.count_nonzero(diag) == rank
    # the same matrices as one batch, where they are padded to 3 columns
    batch = np.stack([np.concatenate([x.data, zeros(field, 4, 3 - x.cols).data], axis=1) for x in xs if x.cols <= 3])
    q, r = qr(field, batch)
    for qi, ri, xi in zip(q, r, batch):
        assert ((MatK(field, qi).h @ MatK(field, qi)) - eye(field, 3)).norm() < 1e-13
        assert ((MatK(field, qi) @ MatK(field, ri)) - MatK(field, xi)).norm() <= 1e-13 * max(1.0, np.linalg.norm(xi))


@pytest.mark.parametrize("field", FIELDS)
def test_qr_takes_no_lapack_factorization(monkeypatch, field):
    # q and r of full-rank and rank-deficient stacks both come from the reflections
    def refuse(*args, **kwargs):
        raise AssertionError("qr called a LAPACK factorization")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    rng = np.random.default_rng(50 + field.dim)
    for shape in [(3, 2), (4, 4), (1, 1)]:
        qr(field, np.stack([gaussian(field, *shape, rng).data for _ in range(5)]))
    for x in _rank_deficient(field, rng):
        qr(field, x.data)


@pytest.mark.parametrize("field", FIELDS)
def test_qr_of_an_empty_stack(field):
    # an empty batch gives empty factors
    s = side(field)
    q, r = qr(field, np.zeros((0, 3 * s, 2 * s)))
    assert q.shape == (0, 3 * s, 2 * s) and r.shape == (0, 2 * s, 2 * s)


# --- determinants -----------------------------------------------------------------

def test_det_modulus_1x1_quaternion_is_norm():
    q = np.array([[[0.5, -1.0, 2.0, 0.25]]])
    x = mat(H, q)
    assert abs(det_modulus(x) - np.linalg.norm(q)) < 1e-12


def test_det_modulus_diagonal_multiplicative():
    q1 = np.array([1.0, 2.0, -1.0, 0.5])
    q2 = np.array([0.0, 1.0, 1.0, -1.0])
    d = np.zeros((2, 2, 4))
    d[0, 0], d[1, 1] = q1, q2
    assert abs(det_modulus(mat(H, d)) - np.linalg.norm(q1) * np.linalg.norm(q2)) < 1e-12


def test_det_modulus_complex_vs_cofactor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(det_modulus(mat(C, a)) - abs(cofactor_det(a))) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_det_modulus_multiplicative(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        a, b = gaussian(field, 3, 3, rng), gaussian(field, 3, 3, rng)
        lhs = det_modulus(a @ b)
        rhs = det_modulus(a) * det_modulus(b)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


def test_det_modulus_requires_square():
    with pytest.raises(DimensionError):
        det_modulus(zeros(R, 2, 3))


def test_quaternion_transpose_changes_determinant():
    # B = [[1, i], [j, k]] is invertible but its plain transpose is singular
    comp = np.zeros((2, 2, 4))
    comp[0, 0, 0] = comp[0, 1, 1] = comp[1, 0, 2] = comp[1, 1, 3] = 1.0
    b = mat(H, comp)
    bt = mat(H, quat_components(b).transpose(1, 0, 2))
    assert abs(det_modulus(b) - 2.0) < 1e-12
    assert det_modulus(bt) < 1e-12


# --- realified determinant ----------------------------------------------------------

def test_realified_rotation_and_scaling():
    assert abs(realified_det(mat(C, [[1j]])) - 1.0) < 1e-14
    assert abs(realified_det(2.0 * eye(R, 2)) - 4.0) < 1e-14


def test_realified_equals_det_modulus_power():
    rng = np.random.default_rng(5)
    for field in FIELDS:
        for _ in range(25):
            x = gaussian(field, 2, 2, rng)
            lhs, rhs = realified_det(x), det_modulus(x) ** field.dim
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, rhs)


# --- generalized map determinant ------------------------------------------------------

def test_abs_det_between_identity():
    assert abs_det_between(np.eye(3), 3) == pytest.approx(1.0)


def test_abs_det_between_dimension_mismatch_is_zero():
    assert abs_det_between(np.eye(3)[:2], 3) == 0.0


def test_abs_det_between_diagonal_scaling():
    images = np.diag([1.5, -0.25])
    assert abs_det_between(images, 2) == pytest.approx(1.5 * 0.25)


def test_abs_det_between_empty_map_is_one():
    assert abs_det_between(np.zeros((0, 0)), 0) == 1.0


def test_abs_det_between_codomain_frame_independent():
    rng = np.random.default_rng(9)
    images = rng.standard_normal((4, 7))
    q = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    a = abs_det_between(images, 4)
    b = abs_det_between(images @ q, 4)
    assert abs(a - b) < 1e-10 * max(1.0, a)


# --- Gram determinant -------------------------------------------------------------

def gram_det_oracle(field, comps: np.ndarray) -> np.ndarray:
    """Per matrix, LAPACK |det| of the Gram matrix of the stored complex
    matrix; its square root for H, where that is the square of the Moore
    determinant."""
    out = []
    for c in comps:
        n, k, _ = c.shape
        e = from_real_vector(field, n, k, c.ravel()).data.astype(complex)
        det = abs(np.linalg.det(e.conj().T @ e))
        out.append(np.sqrt(det) if field is H else det)
    return np.array(out)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_det_matches_lapack_oracle(field, k):
    rng = np.random.default_rng(10 * k + field.dim)
    comps = rng.standard_normal((100, 4, k, field.dim))
    np.testing.assert_allclose(gram_det(field, comps), gram_det_oracle(field, comps), rtol=1e-12, atol=0)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_det_rank_deficient_is_small_and_nonnegative(field, k):
    # a zero column for k = 1; otherwise the last column repeats the first,
    # or is the first times a field scalar from the right
    rng = np.random.default_rng(20 + k)
    rows = []
    for i in range(200):
        x, s = gaussian(field, 4, k, rng), side(field)
        if k == 1:
            x = zeros(field, 4, 1)
        else:
            col = x.data[:, :s]
            if i % 2:
                col = (MatK(field, col) @ gaussian(field, 1, 1, rng)).data
            x.data[:, -s:] = col
        rows.append(to_real_vector(x).reshape(4, k, field.dim))
    comps = np.array(rows)
    dets = gram_det(field, comps)
    scale = np.sum(comps ** 2, axis=(1, 2, 3)) ** k  # |x|^(2k), the degree of det(x^* x)
    assert not np.any(np.isnan(dets))
    assert np.all(dets >= 0.0)
    assert np.all(dets <= 1e-12 * scale)
    if k > 1:  # the Gram difference left about eps * scale here; qr reads it as 0
        assert np.all(dets == 0.0)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("k", [2, 3])
def test_gram_det_is_accurate_near_rank_deficiency(field, k):
    # the last column is the first plus 1e-8 times a Gaussian column: |det x| is
    # right to within qr's rank cutoff, about 1e-12 of the Hadamard bound prod |x_j|,
    # where sqrt of the Gram difference is off by up to sqrt(eps), about 1e-8, of it
    rng = np.random.default_rng(30 + k)
    for _ in range(10):
        x, s = gaussian(field, k, k, rng), side(field)
        x.data[:, -s:] = x.data[:, :s] + 1e-8 * gaussian(field, k, 1, rng).data
        comps = to_real_vector(x).reshape(1, k, k, field.dim)
        hadamard = np.sqrt(np.prod(np.sum(comps ** 2, axis=(1, 3))))
        assert abs(np.sqrt(gram_det(field, comps)[0]) - det_modulus(x)) <= 1e-11 * hadamard


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("k", [2, 3])
def test_gram_det_keeps_relative_accuracy_near_rank_deficiency(field, k):
    # the last column is the first plus 1e-5 times a Gaussian column: |det x|
    # is about 1e-5 of its Hadamard bound, where the Gram difference keeps only
    # about eps / 1e-10 relative and the QR diagonal keeps the digits
    rng = np.random.default_rng(40 + k)
    for _ in range(50):
        x, s = gaussian(field, k, k, rng), side(field)
        x.data[:, -s:] = x.data[:, :s] + 1e-5 * gaussian(field, k, 1, rng).data
        comps = to_real_vector(x).reshape(1, k, k, field.dim)
        assert np.sqrt(gram_det(field, comps)[0]) == pytest.approx(det_modulus(x), rel=1e-8, abs=0)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("k", [2, 3])
def test_gram_det_is_batch_invariant_with_its_qr_branch(field, k, monkeypatch):
    # a matrix's det does not depend on the stack it is evaluated in; every
    # third matrix is near rank deficiency, so qr factors a subset of each
    # stack, and each det is the same, bit for bit, in the whole stack and in
    # its parts, parts of one matrix included
    import sectint.matrices as matrices

    rng = np.random.default_rng(50 + k)
    comps = rng.standard_normal((12, 4, k, field.dim))
    comps[::3, :, -1] = comps[::3, :, 0] + 1e-8 * rng.standard_normal((4, 4, field.dim))
    factored, qr_of = [], matrices.qr
    monkeypatch.setattr(matrices, "qr", lambda fld, data: factored.append(len(data)) or qr_of(fld, data))
    full = gram_det(field, comps)
    assert factored == [12 if k == 3 else 4]
    parts = [gram_det(field, comps[lo:hi]) for lo, hi in [(0, 5), (5, 6), (6, 7), (7, 12)]]
    assert np.array_equal(full, np.concatenate(parts))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_gaussian_batch_is_its_generators_flat_normals(field):
    # on every field a matrix's real coordinates are its generator's flat
    # standard normals, in the realification order, bit for bit, one-draw
    # and empty batches included
    from sectint.matrices import gaussian_batch, real_dim

    for size in (0, 1, 11):
        data = gaussian_batch(field, 3, 2, np.random.default_rng(9), size)
        normals = np.random.default_rng(9).standard_normal((size, real_dim(field, 3, 2)))
        assert data.shape[0] == size and batch_to_real(field, data).tobytes() == normals.tobytes()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_direct_sums_read_the_one_gaussian_stream(field):
    # a direct sum's ambient points, section coordinates and ensemble draws
    # are the flat standard normals of their generators
    from sectint.actions import DirectSumAction
    from sectint.ensembles import EnsembleSpec
    action = DirectSumAction(field, 3, 2)
    points = action.random_ambient_points(np.random.default_rng(4), 6)
    assert batch_to_real(field, points).tobytes() == np.random.default_rng(4).standard_normal((6, action.ambient_dim)).tobytes()
    coords = action.section_coords(np.random.default_rng(4), 6)
    assert coords.tobytes() == np.random.default_rng(4).standard_normal((6, action.section_dim)).tobytes()
    spec = EnsembleSpec(action, 1.5, "coordinate_norm")
    norms = np.linalg.norm(1.5 * np.random.default_rng(9).standard_normal((11, action.ambient_dim)), axis=1)
    assert action.ensemble_statistics(spec, np.random.default_rng(9), 11).tobytes() == norms.tobytes()
