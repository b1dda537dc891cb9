"""Structural verification suite for a configured action.

Each check measures one identity the construction is supposed to
satisfy: orthonormality of the algebra split, the reductive bracket and
adjoint invariances, perpendicularity of the complementary Killing
fields, block diagonality and factorization of the orbit-map
differential, agreement of weight evaluators, Weyl invariance, and the
vanishing locus of the weight.  Results carry a measured value, a
threshold and a verdict, so the suite doubles as a machine-readable
report and a negative-control harness (a corrupted metric must fail).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import MatK, eye, to_real_vector, zeros
from .groups import adjoint, haar_sample
from .actions import (
    ActionSpec,
    AlgebraSplit,
    DirectSumAction,
    act,
    algebra_split,
    bracket,
    isotropy_algebra,
    killing_field,
    normalizer_sample,
    orbit_normal,
    random_ambient_point,
    random_regular_section_point,
    reduce_to_section,
    section_coordinate,
    section_frame,
)
from .weights import delta_e_closed_form, delta_e_generic, orbit_map_differential


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


def _corrupted_split(action: ActionSpec, factor: float) -> AlgebraSplit:
    base = algebra_split(action)
    if factor == 1.0:
        return base
    return AlgebraSplit(action, base.h_basis, base.w_basis, tuple(factor * m for m in base.m_basis))


def run_action_checks(
    action: ActionSpec,
    seed: int = 0,
    n_points: int = 20,
    tol_rel: float = 1e-8,
    tol_abs: float = 1e-10,
    corrupt_metric: float = 1.0,
) -> list[CheckResult]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    split = _corrupted_split(action, corrupt_metric)
    out: list[CheckResult] = []
    allb = split.h_basis + split.w_basis + split.m_basis

    # orthonormality of the split
    rows = np.stack([to_real_vector(b) for b in allb])
    gram_res = np.abs(rows @ rows.T - np.eye(len(allb))).max()
    out.append(_result("algebra_split_orthonormal", gram_res, 1e-10))

    # reductive bracket: [normalizer, complement] stays in the complement
    # (complement here means stabilizer + perpendicular part)
    perp_rows = split.w_rows
    worst = 0.0
    for x in split.h_basis + split.w_basis:
        for y in split.m_basis:
            br = to_real_vector(bracket(x, y))
            if perp_rows.size:
                worst = max(worst, np.abs(perp_rows @ br).max())
    out.append(_result("reductive_bracket", worst, tol_rel))

    # adjoint invariance of the complement under the normalizer
    worst = 0.0
    for _ in range(20):
        g = normalizer_sample(action, rng)
        for y in split.m_basis:
            v = to_real_vector(adjoint(g, y))
            if perp_rows.size:
                worst = max(worst, np.abs(perp_rows @ v).max())
            if split.h_rows.size:
                worst = max(worst, np.abs(split.h_rows @ v).max())
    out.append(_result("ad_normalizer_invariance", worst, tol_rel))

    # pointwise structure at random regular section points
    block_worst, fact_worst, closed_worst, perp_worst, iso_worst = 0.0, 0.0, 0.0, 0.0, 0.0
    for _ in range(n_points):
        s = random_regular_section_point(action, rng)
        frame = section_frame(action, s)
        diff = orbit_map_differential(action, s, frame, split)
        scale = max(np.abs(diff.matrix).max(), 1e-300)
        block_worst = max(block_worst, diff.off_block_residual() / scale)
        total, de, dd = diff.total_det(), diff.delta_e(), diff.delta_d()
        fact_worst = max(fact_worst, abs(total - de * dd) / max(1.0, total))
        if isinstance(action, DirectSumAction) and action.k >= 2:
            closed = delta_e_closed_form(
                action.field, action.n, action.k, section_coordinate(action, s)
            )
            generic = delta_e_generic(action, s, split)
            closed_worst = max(closed_worst, abs(generic - closed) / (1.0 + closed))
        for y in split.m_basis:
            img = to_real_vector(killing_field(action, y, s))
            perp_worst = max(perp_worst, np.abs(frame.tangent @ img).max() / max(1.0, np.linalg.norm(img)))
        iso = isotropy_algebra(action, s)
        if len(iso) != len(split.h_basis):
            iso_worst = np.inf
        elif iso:
            h_rows = algebra_split(action).h_rows
            mat_rows = np.stack([to_real_vector(b) for b in iso])
            resid = mat_rows - (mat_rows @ h_rows.T) @ h_rows
            iso_worst = max(iso_worst, np.abs(resid).max())
    out.append(_result("block_diagonality", block_worst, tol_abs))
    out.append(_result("differential_factorization", fact_worst, tol_rel))
    if isinstance(action, DirectSumAction) and action.k >= 2:
        out.append(_result("weight_closed_vs_generic", closed_worst, tol_rel))
    out.append(_result("complement_killing_perpendicular", perp_worst, tol_abs))
    out.append(_result("isotropy_constancy", iso_worst, tol_rel))

    # orbit normal spaces lie inside the section tangent with the right codim
    worst = 0.0
    codim_ok = True
    for _ in range(5):
        s = random_regular_section_point(action, rng)
        frame = section_frame(action, s)
        normal = orbit_normal(action, s)
        proj = normal @ frame.tangent.T
        worst = max(worst, np.abs(np.linalg.norm(normal, axis=1) ** 2 - np.linalg.norm(proj, axis=1) ** 2).max())
        codim_ok = codim_ok and (frame.tangent.shape[0] - normal.shape[0] == action.copolarity)
    out.append(_result("orbit_normal_in_section", worst, tol_abs))
    out.append(_result("copolarity_dimension", 0.0 if codim_ok else 1.0, 0.5))

    # Weyl invariance of the weight
    worst = 0.0
    for _ in range(n_points):
        s = random_regular_section_point(action, rng)
        w = normalizer_sample(action, rng)
        de = delta_e_generic(action, s, split)
        dew = delta_e_generic(action, act(action, w, s), split)
        worst = max(worst, abs(de - dew) / (1.0 + de))
    out.append(_result("weight_weyl_invariance", worst, 1e-9))

    # vanishing at singular points
    sing = _singular_point(action)
    out.append(_result("weight_singular_vanishing", delta_e_generic(action, sing, split), 0.0))

    # canonical reduction is translation independent
    worst = 0.0
    for _ in range(5):
        x = random_ambient_point(action, rng)
        h = haar_sample(action.group, rng)
        s1 = reduce_to_section(action, x)
        s2 = reduce_to_section(action, act(action, h, x))
        worst = max(worst, (s1 - s2).norm() / max(1.0, s1.norm()))
    out.append(_result("reduction_translation_invariance", worst, tol_rel))
    return out


def _singular_point(action: ActionSpec) -> MatK:
    if isinstance(action, DirectSumAction):
        return zeros(action.field, action.n, action.k)
    return eye(action.field, action.group.n)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
