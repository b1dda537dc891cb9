"""Per-field oracle of the Lie algebra bases and of the reductive split.

Each field's generators are written out by their own loop, the torus
generators by a second set of loops, and a direct sum's h and w bases
by copying a smaller group's basis into a diagonal block, so that none
of it shares the one generator rule of ``groups.block_algebra_basis``.
"""

from __future__ import annotations

import numpy as np

from sectint.actions import ConjugationAction, _mixed_trace_generator, _orthonormalize
from sectint.groups import Family, GroupSpec
from sectint.matrices import COMPLEX, QUATERNION, REAL, from_real_vector, mat, to_real_vector, zeros

SQ2 = np.sqrt(2.0)
FAMILY = {REAL: Family.SO, COMPLEX: Family.SU, QUATERNION: Family.SP}


def _q_unit(axis):
    e = np.zeros(4)
    e[axis] = 1.0
    return e


def _su_diagonal(n, l):
    diag = np.zeros(n, dtype=complex)
    diag[:l] = 1j
    diag[l] = -1j * l
    return mat(COMPLEX, np.diag(diag / np.sqrt(l * (l + 1))))


def algebra_basis(group):
    n, field, out = group.n, group.field, []
    if field is REAL:
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n))
                m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
                out.append(mat(REAL, m))
    elif field is COMPLEX:
        for a in range(n):
            for b in range(a + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
                out.append(mat(COMPLEX, m))
                m = np.zeros((n, n), dtype=complex)
                m[a, b] = m[b, a] = 1j / SQ2
                out.append(mat(COMPLEX, m))
        out += [_su_diagonal(n, l) for l in range(1, n)]
    else:
        for a in range(n):
            for b in range(a + 1, n):
                for axis in range(4):
                    q = _q_unit(axis)
                    qc = np.array([q[0], -q[1], -q[2], -q[3]])
                    m = np.zeros((n, n, 4))
                    m[a, b], m[b, a] = -qc / SQ2, q / SQ2
                    out.append(mat(QUATERNION, m))
        for a in range(n):
            for axis in range(1, 4):
                m = np.zeros((n, n, 4))
                m[a, a] = _q_unit(axis)
                out.append(mat(QUATERNION, m))
    return tuple(out)


def torus_basis(group):
    n, out = group.n, []
    if group.family is Family.SO:
        for a in range(n // 2):
            m = np.zeros((n, n))
            m[2 * a, 2 * a + 1], m[2 * a + 1, 2 * a] = -1.0 / SQ2, 1.0 / SQ2
            out.append(mat(REAL, m))
    elif group.family is Family.SU:
        out += [_su_diagonal(n, l) for l in range(1, n)]
    else:
        for a in range(n):
            m = np.zeros((n, n, 4))
            m[a, a] = _q_unit(1)
            out.append(mat(QUATERNION, m))
    return tuple(out)


def embedded_block_algebra(field, n, offset, size):
    """The algebra basis of the group on rows and columns [offset, offset + size)."""
    out = []
    for b in algebra_basis(GroupSpec(FAMILY[field], size)):
        m = zeros(field, n, n)
        m.data[offset : offset + size, offset : offset + size] = b.data
        out.append(m)
    return tuple(out)


def matrices(group, rows):
    """One matrix per flat row (q, D) of a basis of the algebra of group."""
    return tuple(from_real_vector(group.field, group.n, group.n, r) for r in rows)


def as_rows(basis, group):
    """The flat rows (q, D) of a tuple of matrices in the algebra of group."""
    return np.array([to_real_vector(b) for b in basis]).reshape(len(basis), group.field.dim * group.n ** 2)


def algebra_split(action):
    """(h, w, m) of ``actions.algebra_split`` from the oracle bases, as matrices."""
    group = action.group
    if isinstance(action, ConjugationAction):
        h, w = torus_basis(group), ()
    else:
        field, n, k = action.field, action.n, action.k
        h, w = embedded_block_algebra(field, n, k, n - k), ()
        if k > 1:
            w = embedded_block_algebra(field, n, 0, k)
            w += matrices(group, _mixed_trace_generator(n, k)) if field is COMPLEX else ()
    sub = [to_real_vector(b) for b in h + w]
    rows = _orthonormalize(np.array(sub + [to_real_vector(b) for b in algebra_basis(group)]))[len(sub) :]
    m = list(matrices(group, rows))
    if not isinstance(action, ConjugationAction):
        m.sort(key=lambda x: np.flatnonzero(to_real_vector(x))[-1])
    return h, w, tuple(m)
