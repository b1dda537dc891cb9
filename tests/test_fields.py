import numpy as np
from hypothesis import given, settings, strategies as st

from sectint.fields import ScalarField, quat_to_pair

from matrix_oracles import pair_to_quat

ONE, I, J, K = np.eye(4)  # quaternion components (w, x, y, z) of 1, i, j, k


def quat_mul(p, q):
    """Hamilton product of component arrays with shape (..., 4)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    qw, qx, qy, qz = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy - px * qz + py * qw + pz * qx,
            pw * qz + px * qy - py * qx + pz * qw,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_abs(q):
    q = np.asarray(q, dtype=float)
    return np.sqrt(np.sum(q * q, axis=-1))


def test_field_dimensions():
    assert ScalarField.REAL.dim == 1
    assert ScalarField.COMPLEX.dim == 2
    assert ScalarField.QUATERNION.dim == 4
    assert ScalarField.parse("h") is ScalarField.QUATERNION


def test_basis_products():
    # i^2 = j^2 = k^2 = ijk = -1
    for u in (I, J, K):
        np.testing.assert_allclose(quat_mul(u, u), -ONE, atol=1e-15)
    ijk = quat_mul(quat_mul(I, J), K)
    np.testing.assert_allclose(ijk, -ONE, atol=1e-15)
    np.testing.assert_allclose(quat_mul(I, J), K, atol=1e-15)
    np.testing.assert_allclose(quat_mul(J, I), -K, atol=1e-15)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_norm_multiplicative(seed):
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal(4), rng.standard_normal(4)
    assert abs(quat_abs(quat_mul(p, q)) - quat_abs(p) * quat_abs(q)) < 1e-12 * max(
        1.0, quat_abs(p) * quat_abs(q)
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_associativity_and_conjugation(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal(4) for _ in range(3))
    np.testing.assert_allclose(
        quat_mul(quat_mul(a, b), c), quat_mul(a, quat_mul(b, c)), atol=1e-12
    )
    # (ab)* = b* a*
    np.testing.assert_allclose(
        quat_conj(quat_mul(a, b)), quat_mul(quat_conj(b), quat_conj(a)), atol=1e-13
    )


def test_pair_roundtrip():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((5, 7, 4))
    np.testing.assert_allclose(pair_to_quat(quat_to_pair(q)), q, atol=1e-15)
