"""Reduction to the section with a witness, for the tests.

``reduce_with_witness(action, x)`` returns the canonical section point
s together with a group element g such that g . x = s.  Direct sums
take a square Gram-Schmidt QR (``matrix_oracles``) with a determinant
fix on its last column; conjugation takes a Schur form (scipy.linalg)
and orders its blocks into the standard torus.  It is built
independently of ``actions.reduce_to_section`` (batched QR and
eigensolve, no g) and serves as its oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from sectint.actions import ActionSpec, ConjugationAction, DirectSumAction
from sectint.groups import Family, GroupElement, torus_point
from sectint.matrices import COMPLEX, REAL, MatK, eye, side, zeros

from matrix_oracles import from_pair, gram_schmidt_qr


def reduce_with_witness(action: ActionSpec, x: MatK) -> tuple[MatK, GroupElement]:
    """Section point s and group element g with g . x = s."""
    if isinstance(action, DirectSumAction):
        return _reduce_direct_sum(action, x)
    fam = action.group.family
    if fam is Family.SU:
        return _reduce_conj_su(action, x)
    if fam is Family.SO:
        return _reduce_conj_so(action, x)
    return _reduce_conj_sp(action, x)


def _reduce_direct_sum(action: DirectSumAction, x: MatK) -> tuple[MatK, GroupElement]:
    # QR of the square [x | e_1 .. e_(n-k)]: its q is unitary, and since
    # Gram-Schmidt runs column by column, the first k columns of r are x's
    n, k = action.n, action.k
    units = eye(x.field, n).data[:, : side(x.field) * (n - k)]
    qmat, r = gram_schmidt_qr(MatK(x.field, np.concatenate([x.data, units], axis=1)))
    # the last column of q meets only the last row of r, zero in x's columns
    if action.group.family is Family.SO:
        if np.linalg.det(qmat.data) < 0:
            qmat.data[:, -1] *= -1.0
    elif action.group.family is Family.SU:
        qmat.data[:, -1] *= np.conj(np.linalg.det(qmat.data))
    s, a = zeros(action.field, n, k), side(action.field) * k
    s.data[:a] = r.data[:a, :a]
    return s, GroupElement(action.group, qmat.h)


def _reduce_conj_su(action: ConjugationAction, x: MatK) -> tuple[MatK, GroupElement]:
    group = action.group
    t, q = scipy.linalg.schur(x.data, output="complex")
    ang = su_alcove_angles(np.angle(np.diag(t)))
    order = np.argsort(-ang, kind="stable")
    q = q[:, order]
    ang = ang[order]
    det = np.linalg.det(q)
    q[:, 0] *= np.conj(det)
    gmat = MatK(COMPLEX, q.conj().T.copy())
    return torus_point(group, ang), GroupElement(group, gmat)


def su_alcove_angles(ang: np.ndarray) -> np.ndarray:
    """Eigenphases of an SU(n) element lifted to sum 0: each phase in
    [0, 2 pi), then 2 pi off the round(sum / 2 pi) largest, one at a time."""
    ang = np.mod(np.asarray(ang, dtype=float), 2 * np.pi)
    for _ in range(int(round(ang.sum() / (2 * np.pi)))):
        ang[np.argmax(ang)] -= 2 * np.pi
    return ang


def _reduce_conj_so(action: ConjugationAction, x: MatK) -> tuple[MatK, GroupElement]:
    group = action.group
    n = group.n
    t, q = scipy.linalg.schur(x.data, output="real")
    blocks: list[tuple[float, list[int]]] = []
    minus, plus = [], []
    i = 0
    while i < n:
        if i + 1 < n and abs(t[i + 1, i]) > 1e-10:
            theta = float(np.arctan2(t[i + 1, i], t[i, i]))
            blocks.append((theta, [i, i + 1]))
            i += 2
        else:
            (minus if t[i, i] < 0 else plus).append(i)
            i += 1
    # pair the +-1 eigenvalues into angle 0 / pi rotation blocks; det = 1
    # forces an even count of -1 eigenvalues
    if len(minus) % 2 == 1:
        raise np.linalg.LinAlgError("orthogonal input does not have determinant 1")
    for a in range(0, len(minus), 2):
        blocks.append((np.pi, [minus[a], minus[a + 1]]))
    for a in range(0, len(plus) // 2 * 2, 2):
        blocks.append((0.0, [plus[a], plus[a + 1]]))
    spare = [plus[-1]] if len(plus) % 2 == 1 else []

    cols, angles = [], []
    for theta, idx in sorted(blocks, key=lambda b: abs(b[0])):
        if theta < 0:
            idx = [idx[1], idx[0]]  # column swap flips the angle sign
            theta = -theta
        angles.append(theta)
        cols.extend(idx)
    cols.extend(spare)
    qn = q[:, cols]
    if np.linalg.det(qn) < 0:
        if spare:
            qn[:, -1] *= -1.0
        elif not _flip_one_block(qn, angles):
            angles[0] = -angles[0]
            qn[:, [0, 1]] = qn[:, [1, 0]]
    g = GroupElement(group, MatK(REAL, qn.T.copy()))
    return torus_point(group, np.array(angles)), g


def _flip_one_block(qn: np.ndarray, angles: list[float]) -> bool:
    """Swap columns inside an angle 0 / pi block; fixes det at no cost."""
    for a, theta in enumerate(angles):
        if abs(theta) < 1e-12 or abs(theta - np.pi) < 1e-12:
            qn[:, [2 * a, 2 * a + 1]] = qn[:, [2 * a + 1, 2 * a]]
            return True
    return False


def _reduce_conj_sp(action: ConjugationAction, x: MatK) -> tuple[MatK, GroupElement]:
    group = action.group
    n = group.n
    t, q = scipy.linalg.schur(x.data, output="complex")  # the adjoint matrix, rows interleaved
    ang = np.angle(np.diag(t))
    order = np.argsort(np.abs(ang), kind="stable")
    # quaternionic eigencolumns: w = v_even + conj(v_odd) j; the plus and
    # minus angle partners span the same quaternionic line, so a
    # quaternionic Gram-Schmidt pass keeps exactly n of them
    kept_cols: list[np.ndarray] = []
    kept_ang: list[float] = []
    for idx in order:
        v = q[:, idx]
        w = np.stack([v[::2], v[1::2].conj()], axis=-1)  # (n, 2) pair column
        if ang[idx] < 0:
            # right multiplication by j moves to the +theta eigenvector
            # on the same quaternionic line
            w = np.stack([-w[:, 1], w[:, 0]], axis=-1)
        for _ in range(2):
            for u in kept_cols:
                w = _pair_col_sub(u, w)
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            kept_cols.append(w / nw)
            kept_ang.append(abs(float(ang[idx])))
        if len(kept_cols) == n:
            break
    if len(kept_cols) != n:
        raise np.linalg.LinAlgError("quaternionic eigenbasis extraction failed")
    order2 = np.argsort(kept_ang, kind="stable")
    u = np.stack([kept_cols[i] for i in order2], axis=1)  # (n, n, 2)
    g = GroupElement(group, from_pair(u).h)
    return torus_point(group, np.array([kept_ang[i] for i in order2])), g


def _pair_col_sub(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w -= u <u, w> for quaternionic pair columns (n, 2)."""
    u1, u2, w1, w2 = u[:, 0], u[:, 1], w[:, 0], w[:, 1]
    c1 = np.sum(u1.conj() * w1 + u2 * w2.conj())
    c2 = np.sum(u1.conj() * w2 - u2 * w1.conj())
    p1 = u1 * c1 - u2 * np.conj(c2)
    p2 = u1 * c2 + u2 * np.conj(c1)
    return np.stack([w1 - p1, w2 - p2], axis=-1)


def torus_angles(action: ConjugationAction, s: MatK, strict: bool = True) -> np.ndarray:
    """Angle coordinates of a point of the standard maximal torus."""
    fam, n = action.group.family, action.group.n
    d = s.data
    if fam is Family.SO:
        ang = np.array([np.arctan2(d[2 * a + 1, 2 * a], d[2 * a, 2 * a]) for a in range(n // 2)])
    elif fam is Family.SU:
        ang = np.angle(np.diag(d))
    else:
        ang = np.angle(np.diag(d)[::2])
    if strict and (s - torus_point(action.group, ang)).norm() > 1e-8 * max(1.0, s.norm()):
        raise ValueError("point is not on the standard maximal torus")
    return ang
