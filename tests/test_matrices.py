import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectint.fields import ScalarField
from sectint.matrices import (
    DimensionError,
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
    quat_components,
    realified_det,
    to_real_vector,
    zeros,
)

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
    f = qr(eye(R, 3))
    np.testing.assert_allclose(f.q.data, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(f.r.data, np.eye(3), atol=1e-15)


def test_qr_rank_deficient_zero_diagonal():
    f = qr(mat(R, [[1.0, 2.0], [2.0, 4.0]]))
    assert f.r.data[1, 1] == 0.0
    np.testing.assert_allclose((f.q @ f.r).data, [[1, 2], [2, 4]], atol=1e-12)
    np.testing.assert_allclose((f.q.h @ f.q).data, np.eye(2), atol=1e-13)


def test_qr_orthonormality_bulk():
    # 1000 Gaussian 4x4 real samples stay orthonormal to 1e-10 in max norm
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        f = qr(gaussian(R, 4, 4, rng))
        worst = max(worst, np.abs((f.q.h @ f.q).data - np.eye(4)).max())
    assert worst < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_qr_reconstruction_all_fields(seed):
    rng = np.random.default_rng(seed)
    for field in FIELDS:
        x = gaussian(field, 5, 3, rng)
        f = qr(x)
        assert ((f.q @ f.r) - x).norm() <= 1e-10 * x.norm()
        assert ((f.q.h @ f.q) - eye(field, 3)).norm() < 1e-12
        diag = f.r.data[np.arange(3), np.arange(3)]
        if field is H:
            assert np.abs(diag[:, 1]).max() < 1e-15 and np.abs(diag[:, 0].imag).max() < 1e-15
            assert np.all(diag[:, 0].real >= 0)
        else:
            assert np.abs(np.imag(diag)).max() < 1e-15 if field is C else True
            assert np.all(np.real(diag) >= 0)


def test_qr_requires_tall_matrix():
    with pytest.raises(DimensionError):
        qr(zeros(R, 2, 3))


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
    """Per matrix, LAPACK |det| of the Gram matrix of the complex embedding;
    its square root for H, where that is the square of the Moore determinant."""
    out = []
    for c in comps:
        n, k, _ = c.shape
        x = from_real_vector(field, n, k, c.ravel())
        if field is H:
            c1, c2 = x.data[..., 0], x.data[..., 1]
            e = np.block([[c1, -c2], [c2.conj(), c1.conj()]])
        else:
            e = x.data.astype(complex)
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
        x = gaussian(field, 4, k, rng)
        if k == 1:
            x = zeros(field, 4, 1)
        else:
            col = x.data[:, :1]
            if i % 2:
                col = (mat(field, col) @ gaussian(field, 1, 1, rng)).data
            x.data[:, -1:] = col
        rows.append(to_real_vector(x).reshape(4, k, field.dim))
    comps = np.array(rows)
    dets = gram_det(field, comps)
    scale = np.sum(comps ** 2, axis=(1, 2, 3)) ** k  # |x|^(2k), the degree of det(x^* x)
    assert not np.any(np.isnan(dets))
    assert np.all(dets >= 0.0)
    assert np.all(dets <= 1e-12 * scale)
