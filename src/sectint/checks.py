"""Structural verification suite for a configured action.

Each check measures one identity the construction is supposed to
satisfy: orthonormality of the algebra split, the reductive bracket and
adjoint invariances, perpendicularity of the complementary Killing
fields, block diagonality and factorization of the orbit-map
differential, agreement of the generic weight kernel with the closed
forms (Weyl's integration formula on conjugation), Weyl invariance,
and the vanishing locus of the weight.  Results carry a measured value, a
threshold and a verdict, so the suite is also a machine-readable report.
The weights are compared relatively, so that a wrong weight fails at any
scale: two values that are both 0 agree, else their gap is
|a - b| / max(|a|, |b|).

Every check runs on a batch.  The points of one kind are drawn at once
(section points, normalizer elements, ambient points and Haar
elements).  The regular section points come with their
``OrbitMapDifferential``, the one evaluation of the Killing fields that
the draw made: the differential, isotropy and orbit checks all read it,
the determinants by one batched QR and the rest from its one SVD.  The
weight they compare with comes from the separate kernel
``delta_e_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import batch_from_real, batch_to_real, conj_transpose, from_real_vector
from .groups import brackets, haar_sample_batch
from .actions import (
    ActionSpec,
    OrbitMapDifferential,
    algebra_split,
    random_regular_section_points,
)
from .weights import delta_e_batch, delta_e_generic

CUT_COPIES = 32  # translated copies of each cut point in reduction_translation_invariance


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def _result(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value <= threshold))


def _largest(values: np.ndarray) -> float:
    """Largest absolute entry; 0 for no entries."""
    return float(np.max(np.abs(values), initial=0.0))


def _relative_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|) per entry, 0 where both are 0."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.divide(np.abs(a - b), scale, out=np.zeros_like(scale), where=scale > 0)


def pointwise_checks(
    diff: OrbitMapDifferential, tol_rel: float = 1e-8, tol_abs: float = 1e-10
) -> tuple[list[CheckResult], dict[str, np.ndarray]]:
    """The checks of the orbit-map differentials at a batch of section points and of the weight there.

    block_diagonality, differential_factorization and
    weight_closed_vs_generic, each the worst over the points.  Also
    returns the values they compare, one per point and named as
    ``sectint delta`` reports them.  The weight comes from the generic
    kernel delta_e_batch, independent of diff; the closed form it is
    compared with is the kind's closed_weight: section_weight_batch on
    direct sums and Weyl's torus_weight_batch, at the angles read back
    from the points, on conjugation.  The closed forms know nothing of
    the metric of m, so a wrong one fails the comparison.
    """
    action, pts = diff.action, diff.pts
    scale = np.maximum(np.max(np.abs(diff.matrix), axis=(1, 2), initial=0.0), 1e-300)
    values = {
        "block_residual": diff.off_block_residual() / scale,
        "det_total": diff.total_det(),
        "delta_d": diff.delta_d(),
        "delta_generic": delta_e_batch(action, pts),
    }
    total, dd, generic = values["det_total"], values["delta_d"], values["delta_generic"]
    checks = [
        _result("block_diagonality", np.max(values["block_residual"]), tol_abs),
        _result("differential_factorization", np.max(_relative_gap(total, dd * generic)), tol_rel),
    ]
    closed = values["delta_closed_form"] = action.closed_weight(pts)
    checks.append(_result("weight_closed_vs_generic", np.max(_relative_gap(generic, closed)), tol_rel))
    return checks, values


def run_action_checks(
    action: ActionSpec,
    seed: int = 0,
    n_points: int = 20,
    tol_rel: float = 1e-8,
    tol_abs: float = 1e-10,
) -> list[CheckResult]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    split = algebra_split(action)
    field, nh, nw = action.field, len(split.h_rows), len(split.w_rows)
    out: list[CheckResult] = []

    # orthonormality of the split
    rows = split.rows
    out.append(_result("algebra_split_orthonormal", np.abs(rows @ rows.T - np.eye(len(rows))).max(), 1e-10))

    # reductive bracket: [normalizer, complement] stays in the complement
    # (complement here means stabilizer + perpendicular part)
    x, y = split.data[: nh + nw, None], split.data[None, nh + nw :]
    out.append(_result("reductive_bracket", _largest(brackets(field, x, y) @ split.w_rows.T), tol_rel))

    # adjoint invariance of the complement under the normalizer
    g = action.normalizer_samples(rng, 20)[:, None]
    moved = batch_to_real(field, g @ y @ conj_transpose(g))
    out.append(_result("ad_normalizer_invariance", _largest(moved @ rows[: nh + nw].T), tol_rel))

    # pointwise structure at random regular section points, whose orbit
    # maps the draws evaluated once
    draws = random_regular_section_points(action, rng, n_points)
    checks, values = pointwise_checks(draws, tol_rel, tol_abs)
    out += checks
    # complementary fields in the section frames, whose section-tangent rows come first
    perp = draws.matrix[..., nw:]
    norms = np.maximum(1.0, np.linalg.norm(perp, axis=1))[:, None]
    out.append(_result("complement_killing_perpendicular", _largest(perp[:, : action.section_dim] / norms), tol_abs))

    # isotropy and orbits, from the draws' SVD
    u, _, vh = draws.svd
    null = draws.isotropy_mask()
    if np.any(np.sum(null, axis=1) != nh):
        iso_worst = np.inf
    else:  # isotropy directions in split-basis coordinates, outside h
        iso_worst = _largest(vh[null][:, nh:] @ split.rows[nh:])
    out.append(_result("isotropy_constancy", iso_worst, tol_rel))

    # orbit normal spaces lie inside the section tangent with the right codim
    ranks = draws.orbit_ranks()
    normal = np.swapaxes(u, 1, 2)  # rows [rank:] span the orbit normal, in section-frame coordinates
    lost = np.abs(np.sum(normal ** 2, axis=2) - np.sum(normal[..., : action.section_dim] ** 2, axis=2))
    in_normal = np.arange(normal.shape[1]) >= ranks[:, None]
    out.append(_result("orbit_normal_in_section", _largest(lost[in_normal]), tol_abs))
    codim_ok = np.all(action.section_dim - (normal.shape[1] - ranks) == action.copolarity)
    out.append(_result("copolarity_dimension", 0.0 if codim_ok else 1.0, 0.5))

    # Weyl invariance of the weight
    w = action.normalizer_samples(rng, n_points)
    moved = batch_to_real(field, action.act_data(w, batch_from_real(field, *action.shape, draws.pts)))
    de, dew = values["delta_generic"], delta_e_batch(action, moved)
    out.append(_result("weight_weyl_invariance", np.max(_relative_gap(de, dew)), 1e-9))

    # vanishing at the singular section point of coordinate 0, the origin or
    # the identity; with m empty (SO(2)) the weight is 1 everywhere
    if len(split.m_rows):
        sing = from_real_vector(field, *action.shape, action.section_points(np.zeros((1, action.section_dim)))[0])
        out.append(_result("weight_singular_vanishing", delta_e_generic(action, sing), 0.0))

    # canonical reduction is translation independent, also at the kind's cut
    # points (a torus point with an angle at 0, the cut of the SU(n) phases):
    # each of CUT_COPIES copies of a cut point gets its own translate, so a
    # reduction with a jump at the cut passes only if every translate rounds
    # the angle to the side of the untranslated point
    cut = action.cut_points()
    x = np.concatenate([action.random_ambient_points(rng, 5),
                        np.repeat(batch_from_real(field, *action.shape, cut), CUT_COPIES, axis=0)])
    h = haar_sample_batch(action.group, rng, len(x))
    s1, s2 = np.split(action.reduce(np.concatenate([x, action.act_data(h, x)])), 2)
    worst = np.max(np.linalg.norm(s1 - s2, axis=1) / np.maximum(1.0, np.linalg.norm(s1, axis=1)))
    out.append(_result("reduction_translation_invariance", worst, tol_rel))
    return out
