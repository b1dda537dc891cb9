"""Per-field oracle of the Lie algebra bases and of the reductive split.

Each field's pair generators are written out by their own branch, the
diagonal and torus generators by their own loops, and a direct sum's h
and w bases by copying a smaller group's basis into a diagonal block, so
that none of it shares the one generator rule of
``groups.pair_generators``.  The split's m is built one matrix at a time
by the same rule as the program's, with no Gram-Schmidt.
"""

from __future__ import annotations

import numpy as np

from sectint.actions import ConjugationAction
from sectint.groups import Family, GroupSpec
from sectint.matrices import COMPLEX, QUATERNION, REAL, from_real_vector, mat, side, to_real_vector, zeros

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


def _pair_generators(field, n, a, b):
    """The generators on the pair a < b, one per unit of the field."""
    out = []
    if field is REAL:
        m = np.zeros((n, n))
        m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
        out.append(mat(REAL, m))
    elif field is COMPLEX:
        m = np.zeros((n, n), dtype=complex)
        m[a, b], m[b, a] = -1.0 / SQ2, 1.0 / SQ2
        out.append(mat(COMPLEX, m))
        m = np.zeros((n, n), dtype=complex)
        m[a, b] = m[b, a] = 1j / SQ2
        out.append(mat(COMPLEX, m))
    else:
        for axis in range(4):
            q = _q_unit(axis)
            qc = np.array([q[0], -q[1], -q[2], -q[3]])
            m = np.zeros((n, n, 4))
            m[a, b], m[b, a] = -qc / SQ2, q / SQ2
            out.append(mat(QUATERNION, m))
    return tuple(out)


def algebra_basis(group):
    n, field = group.n, group.field
    out = [g for a in range(n) for b in range(a + 1, n) for g in _pair_generators(field, n, a, b)]
    if field is COMPLEX:
        out += [_su_diagonal(n, l) for l in range(1, n)]
    elif field is QUATERNION:
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
    out, lo, hi = [], side(field) * offset, side(field) * (offset + size)
    for b in algebra_basis(GroupSpec(FAMILY[field], size)):
        m = zeros(field, n, n)
        m.data[lo:hi, lo:hi] = b.data
        out.append(m)
    return tuple(out)


def matrices(group, rows):
    """One matrix per flat row (q, D) of a basis of the algebra of group."""
    return tuple(from_real_vector(group.field, group.n, group.n, r) for r in rows)


def as_rows(basis, group):
    """The flat rows (q, D) of a tuple of matrices in the algebra of group."""
    return np.array([to_real_vector(b) for b in basis]).reshape(len(basis), group.field.dim * group.n ** 2)


def _trace_generator(n, k):
    """The unit traceless imaginary diagonal, i on the first k entries, orthogonal to su(k) + su(n - k)."""
    v = np.diag([1j] * k + [-1j * k / (n - k)] * (n - k))
    return mat(COMPLEX, v * (1.0 / np.linalg.norm(v)))


def algebra_split(action):
    """(h, w, m) of ``actions.algebra_split`` from the oracle bases, as matrices.

    Conjugation: h is the torus and m the rest of the algebra basis.
    Direct sums: h is the block on the normal rows [k, n), w the block on
    the section rows [0, k) with the trace generator between them (SU),
    and m the pair generators between the two blocks, by row, column and
    unit of their entry below the diagonal; at k = 1 the section block's
    directions (Sp's units at (0, 0), the trace generator) go to m.
    """
    group = action.group
    if isinstance(action, ConjugationAction):
        h = torus_basis(group)
        return h, (), tuple(x for x in algebra_basis(group) if not any(np.array_equal(x.data, t.data) for t in h))
    field, n, k = action.field, action.n, action.k
    h, line = embedded_block_algebra(field, n, k, n - k), embedded_block_algebra(field, n, 0, k)
    trace = (_trace_generator(n, k),) if field is COMPLEX else ()
    cross = tuple(g for b in range(k, n) for a in range(k) for g in _pair_generators(field, n, a, b))
    return (h, (), line + cross + trace) if k == 1 else (h, line + trace, cross)
