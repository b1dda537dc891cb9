"""Per-point references for the batched Killing-field kernels, for the tests.

The program evaluates Killing fields through the operator stack
``AlgebraSplit.operators`` and reads frames, ranks and determinants from
batched LAPACK calls over a stack of points.  The functions here do the
same one point at a time: one ``killing_field`` product per basis
element, a frame built entry by entry, Gram-Schmidt for the orbit
frames, the oracle's algebra basis (``algebra_oracle``) for the isotropy algebra, and
singular values for the determinants.  They share no code path with the
kernels they check beyond ``killing_field`` and the algebra split.
"""

from __future__ import annotations

import numpy as np

from algebra_oracle import algebra_basis, matrices
from sectint.actions import DirectSumAction, algebra_split, killing_field
from sectint.matrices import MatK, from_real_vector, to_real_vector


def random_section_point(action, rng: np.random.Generator) -> MatK:
    """Section point with Gaussian coordinate B (direct sums) or uniform torus angles (conjugation)."""
    return from_real_vector(action.field, *action.shape, action.section_points(action.section_coords(rng, 1))[0])


def section_frame_rows(action, s):
    """(tangent, normal) frames at s: unit vectors of the section's entries
    for direct sums, the algebra split translated to s for conjugation."""
    if isinstance(action, DirectSumAction):
        d, k = action.field.dim, action.k
        unit = np.eye(action.ambient_dim)
        if k == 1:
            return unit[:1], unit[1:]
        on_section = [(a * k + b) * d + c for a in range(k) for b in range(k) for c in range(d)]
        off_section = [i for i in range(action.ambient_dim) if i not in on_section]
        return unit[on_section], unit[off_section]
    split = algebra_split(action)
    tangent = np.stack([to_real_vector(h @ s) for h in matrices(action.group, split.h_rows)])
    normal = np.stack([to_real_vector(x @ s) for x in matrices(action.group, split.m_rows)])
    return tangent, normal


def differential(action, s, split=None):
    """Orbit-map differential at s: frame components of the w + m fields."""
    split = split or algebra_split(action)
    tangent, normal = section_frame_rows(action, s)
    codomain = np.concatenate([tangent, normal], axis=0)
    basis = matrices(action.group, split.rows[len(split.h_rows) :])
    cols = [codomain @ to_real_vector(killing_field(action, b, s)) for b in basis]
    return np.stack(cols, axis=1)


def _volume_factor(columns):
    """|det| of the map taking an orthonormal basis to these columns: the
    product of their singular values."""
    return float(np.prod(np.linalg.svd(columns, compute_uv=False)))


def determinants(action, matrix, split=None):
    """(total_det, delta_e, delta_d) of one differential matrix."""
    split = split or algebra_split(action)
    n_w, n_tan = len(split.w_rows), action.section_dim
    m_block = matrix[n_tan:, n_w:]
    delta_e = abs(np.linalg.det(m_block)) if m_block.shape[0] == m_block.shape[1] else 0.0
    return _volume_factor(matrix), delta_e, _volume_factor(matrix[:n_tan, :n_w])


def isotropy_rows(action, p, tol=1e-8):
    """Orthonormal flat basis of the isotropy algebra of p, from the SVD of
    the fields of the group's algebra basis."""
    basis = algebra_basis(action.group)
    cols = np.stack([to_real_vector(killing_field(action, b, p)) for b in basis], axis=1)
    _, sv, vh = np.linalg.svd(cols)
    scale = sv[0] if sv.size and sv[0] > 0 else 1.0
    null = [vh[i] for i in range(len(basis)) if i >= len(sv) or sv[i] <= tol * scale]
    rows = np.stack([to_real_vector(b) for b in basis])
    return np.array([c @ rows for c in null]).reshape(len(null), rows.shape[1])


def _orthonormalize(rows, tol):
    kept = []
    for v in rows:
        w = np.array(v, dtype=float)
        for _ in range(2):
            for u in kept:
                w -= (u @ w) * u
        if np.linalg.norm(w) > tol:
            kept.append(w / np.linalg.norm(w))
    return np.array(kept).reshape(len(kept), len(rows[0]))


def orbit_normal_rows(action, p):
    """Orthonormal basis of the orbit normal in T_p M, by Gram-Schmidt."""
    basis = algebra_basis(action.group)
    tangent = _orthonormalize([to_real_vector(killing_field(action, b, p)) for b in basis], 1e-8 * max(p.norm(), 1.0))
    if isinstance(action, DirectSumAction):
        ambient = np.eye(action.ambient_dim)
    else:
        split = algebra_split(action)
        basis = matrices(action.group, np.concatenate([split.h_rows, split.m_rows]))
        ambient = np.stack([to_real_vector(b @ p) for b in basis])
    rows = [v - tangent.T @ (tangent @ v) if tangent.size else v for v in ambient]
    return _orthonormalize(rows, 1e-8)

