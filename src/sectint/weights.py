"""The weight function of the reduced integration formula.

For a section point s the orbit map sends a group coset to its image
g . s on the orbit.  Its differential at the identity coset splits into
two blocks: the Weyl part, mapping the normalizer directions onto the
tangent of the Weyl orbit inside the section, and the complementary
part, mapping onto the normal space of the section.  The absolute
determinant of the second block is the weight by which section
integrals reproduce ambient integrals; the first block's determinant
scales Weyl orbit volumes.  The differential is
``actions.OrbitMapDifferential``: ``delta_d``, ``weight_value`` and
``orbit_volume`` each read one evaluation of it at their point.

The weight has a generic kernel and a closed form per kind of action;
the closed forms live with the kind they serve (``groups`` for the
torus, ``actions`` for the direct sums) and are served from here too.
The generic kernel ``delta_e_batch`` serves every action: the
complementary Killing fields at a batch of points are one contraction
with the m slice of the split's operator stack, and their |det| one
batched QR by ``matrices.abs_det_between``.  Its one singular cutoff
reads rounding noise at a singular point as exactly 0, here as in
``delta_d`` and the total determinant of the differential.  Two closed
forms are one kernel over a ``groups.RootData`` record, the product of
|f(alpha(x))| ** m over its positive roots alpha: Weyl's formula
``torus_weight_batch`` for conjugation, f(x) = 2 sin(x/2) and m = 2 over
``groups.root_data`` (1 on SO(2), which has no roots), and the polar line
t e_1 (k = 1) of ``section_weight_batch``, one root t of m = d n - 1
(``actions.polar_root_data``) times 2 ** (-d (n - 1) / 2), and
sqrt((n - 1) / n) over C, where the imaginary unit at the first entry
lies in su(n) only with a traceless correction.  For 2 <= k <= n-1 it is

    2 ** (-d k (n - k) / 2) * |det B| ** (d (n - k))

with B the top k x k section coordinate and |det B| = sqrt(gram_det(B))
(the Dieudonne modulus over H), taken by QR wherever the Gram closed
form would lose digits.
The quadrature rules and the ensemble references use the closed forms;
``checks.pointwise_checks`` compares each (the kind's ``closed_weight``)
with the generic kernel for ``verify`` and ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .groups import torus_weight_batch  # noqa: F401  the closed forms are served from here too
from .matrices import MatK, abs_det_between, mat, to_real_vector
from .actions import (
    ActionSpec,
    DirectSumAction,
    RegularityClass,
    algebra_split,
    embed_section,
    orbit_map_differential,
    section_weight_batch,
)


def delta_e_batch(action: ActionSpec, pts: np.ndarray) -> np.ndarray:
    """Weights at the section points with flat coordinates pts (m, D).

    The images of the complementary Killing fields are perpendicular to
    the section all along it, so |det| of the images onto the normal
    space needs no frame; abs_det_between reads a singular one as 0.
    """
    ops, pts = algebra_split(action).m_operators, np.atleast_2d(np.asarray(pts, dtype=float))
    images = np.einsum("bij,mj->mbi", ops, pts)
    return abs_det_between(images, action.normal_dim, np.linalg.norm(pts, axis=1))


def delta_e_generic(action: ActionSpec, s: MatK) -> float:
    """Weight at one section point; delta_e_batch on a single row."""
    return float(delta_e_batch(action, to_real_vector(s)[None])[0])


def delta_e_closed_form(field: ScalarField, n: int, k: int, b: MatK | np.ndarray) -> float:
    """section_weight_batch at one section coordinate B, checked: a k x k
    matrix over field, real when k = 1."""
    action = DirectSumAction(field, n, k)
    if not isinstance(b, MatK):
        b = mat(field, b)
    if b.shape != (k, k) or b.field is not field:
        raise ValueError(f"section coordinate must be a {k} x {k} matrix over {field.value}")
    z = to_real_vector(embed_section(action, b))[None, : action.section_dim]
    return float(section_weight_batch(action, z)[0])


def delta_d(action: ActionSpec, s: MatK) -> float:
    """Weyl-block determinant at one point, as ``sectint delta`` reports it:
    0 where the block itself is singular, and 1 on polar actions, whose
    Weyl block is empty (abs_det_between's empty product)."""
    return float(orbit_map_differential(action, s).delta_d())


@dataclass(frozen=True)
class WeightValue:
    delta_e: float
    delta_d: float
    regularity: RegularityClass


def weight_value(action: ActionSpec, s: MatK) -> WeightValue:
    diff = orbit_map_differential(action, s)
    return WeightValue(delta_e_generic(action, s), float(diff.delta_d()), diff.regularity())


def orbit_volume(action: ActionSpec, s: MatK, vol_gh: float) -> float:
    """Volume of the orbit through a non-singular section point.

    vol(orbit) = vol(G/H) |det d(orbit map)| / c: G/H covers the orbit c
    times, c the order of the point's stabilizer in the Weyl group (2 at
    the exceptional points of SO(n) conjugation, where the orbit of a
    rotation by pi in SO(3) is RP^2, and 1 elsewhere).  Singular orbits
    are fiber bundles rather than quotients and are not supported.
    """
    diff = orbit_map_differential(action, s)
    if diff.regularity() is RegularityClass.SINGULAR:
        raise ValueError("orbit volume through a singular point is not supported")
    return vol_gh * diff.total_det() / int(diff.weyl_stabilizer_order())
