"""The action kinds: one class per kind, and no kind branches elsewhere.

Every operation that differs between a direct sum and a conjugation
action is a method of the kind's class.  The conformance test calls each
of them once on every kind and checks the shapes of what they return;
the guard test keeps the rest of the package from testing which kind it
holds.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from sectint.actions import ConjugationAction, DirectSumAction, action_from_json, killing_images
from sectint.ensembles import EnsembleSpec, reference_bins
from sectint.fields import ScalarField
from sectint.actions import _coordinate_statistics, canonical_angles
from sectint.groups import Family, GroupSpec, haar_sample_batch
from sectint.integrate import make_test_function
from sectint.matrices import batch_from_real, batch_to_real, from_real_vector, to_real_vector
from sectint.volumes import group_volume, torus_volume, vol_gh_estimate, w_group_volume
from sectint.weights import delta_e_batch

SRC = Path(__file__).resolve().parents[1] / "src" / "sectint"
KINDS = {"DirectSumAction", "ConjugationAction"}
#: the one declared kind check: an integrand family's contract, read off _FAMILIES
ALLOWED = {("integrate.py", "_require_integrable")}

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION
ROWS = [DirectSumAction(f, n, k) for f, n, k in [(R, 3, 2), (R, 4, 1), (C, 4, 2), (C, 3, 1), (H, 3, 2), (H, 2, 1)]] + [
    ConjugationAction(GroupSpec(fam, n))
    for fam, n in [(Family.SO, 2), (Family.SO, 3), (Family.SO, 4), (Family.SU, 2), (Family.SU, 3), (Family.SP, 1),
                   (Family.SP, 2)]
]


# --- the guard against kind branches ----------------------------------------------

def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _is_type_call(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"


def kind_branches(source: str) -> list[str]:
    """Names of the functions (or "<module>") holding an isinstance or
    issubclass test, a type(...) is / == comparison, or a match class
    pattern that names an action kind."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name
        called = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id
        if called in ("isinstance", "issubclass"):
            if KINDS & set().union(*map(_names, node.args[1:])):
                found.append(where)
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                                                   for op in node.ops):
            sides = [node.left, *node.comparators]
            if any(_is_type_call(side) for side in sides) and KINDS & set().union(*map(_names, sides)):
                found.append(where)
        elif isinstance(node, ast.MatchClass) and KINDS & _names(node.cls):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("snippet", [
    "def f(a):\n    return isinstance(a, DirectSumAction)",
    "def f(a):\n    return isinstance(a, (int, actions.ConjugationAction))",
    "def f(a):\n    return type(a) is ConjugationAction",
    "def f(a):\n    return DirectSumAction == type(a)",
    "def f(a):\n    match a:\n        case DirectSumAction():\n            return 1",
])
def test_guard_sees_a_kind_branch(snippet):
    assert kind_branches(snippet) == ["f"]


def test_guard_passes_kind_free_code():
    assert kind_branches("def f(a, kind):\n    return isinstance(a, kind) or type(a) is int") == []


def test_no_kind_branches_outside_the_kinds():
    # a new kind is one new class: the package never asks which kind it holds,
    # except where an integrand family declares the kind it needs
    found = {(path.name, where) for path in sorted(SRC.glob("*.py")) for where in kind_branches(path.read_text())}
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_kinds_import_no_engine():
    # integrands and ensemble specs reach a kind as arguments and callbacks
    tree = ast.parse((SRC / "actions.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert imported.isdisjoint({"integrate", "ensembles", "cli", "checks", "weights"}), imported


def test_no_module_imports_a_private_name_of_another():
    # an underscore name is its module's own; another module reaching for
    # it means the name is shared, and so public
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("sectint")):
                private += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                            if a.name.startswith("_") and not a.name.startswith("__")]
    assert not private, private


# --- one conformance test for every kind --------------------------------------------

def _json_point(action, coord):
    """The JSON form of a section coordinate that parse_point reads."""
    if isinstance(coord, np.ndarray):  # torus angles
        return json.loads(json.dumps(coord.tolist()))
    comps = to_real_vector(coord).reshape(action.k, action.k, action.field.dim)
    return json.loads(json.dumps((comps[..., 0] if action.field.dim == 1 else comps).tolist()))


@pytest.mark.parametrize("action", ROWS, ids=str)
def test_every_kind_operation(action):
    rng = np.random.default_rng(7)
    field, shape, dim = action.field, action.shape, action.ambient_dim
    n_alg = field.dim * action.group.n ** 2
    assert action_from_json(action.to_json()) == action
    assert action.cohomogeneity == action.section_dim - action.copolarity

    # points, sections and the group action
    x = action.random_ambient_points(rng, 5)
    assert batch_to_real(field, x).shape == (5, dim)
    g = action.normalizer_samples(rng, 5)
    assert g.shape[0] == 5 and g.shape[1] == g.shape[2] == x.shape[1]
    assert action.act_data(g, x).shape == x.shape
    canon = action.reduce(x)
    assert canon.shape == (5, dim)
    np.testing.assert_allclose(action.reduce(batch_from_real(field, *shape, canon)), canon, rtol=0, atol=1e-10)
    pts = action.section_points(action.section_coords(rng, 5))
    assert pts.shape == (5, dim)
    s = from_real_vector(field, *shape, pts[0])
    coord = action.section_coordinate(s)
    np.testing.assert_allclose(to_real_vector(action.embed_section(coord)), pts[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(to_real_vector(action.parse_point(_json_point(action, coord))), pts[0], rtol=0,
                               atol=1e-12)
    frames = action.section_frames(pts)  # section-tangent rows, then normal rows
    assert frames.shape == (5, action.section_dim + action.normal_dim, dim)
    images = killing_images(action, pts)
    assert images.shape == (5, dim, action.group.algebra_dim)
    assert action.weyl_stabilizer_order(pts).shape == (5,)
    h, w, m = action.split_rows()
    assert len(h) + len(w) + len(m) == action.group.algebra_dim
    assert h.shape[1] == w.shape[1] == m.shape[1] == n_alg
    n = action.group.n
    assert action.killing_data(batch_from_real(field, n, n, np.concatenate([h, w, m])[:1]), x).shape == x.shape

    # weights and volumes
    closed = action.closed_weight(pts)
    assert closed.shape == (5,)
    np.testing.assert_allclose(delta_e_batch(action, pts), closed, rtol=1e-8, atol=1e-8)
    cut = action.cut_points()
    assert cut.shape[1:] == (dim,) and len(cut) <= 1
    assert action.weyl_volume() > 0 and action.stabilizer_volume() > 0

    # integration
    fs = [make_test_function(name, **params) for name, params in action.default_integrands]
    assert len(fs) == 2
    sample, vol = action.direct_sampler(lambda p, norms_sq: np.ones((1, len(p))))
    assert sample(np.random.default_rng(0), 7).shape == (1, 7) and vol.mean > 0
    assert action.divergence("gaussian_radial", lambda key: 1.0) is None
    fine, coarse = action.rule_sizes(None)
    assert fine > coarse >= 1 and action.rule_sizes(2)[0] >= 1
    axes, weight, const = action.section_axes(1.0, coarse)  # one 1-D rule per orbit-space dimension
    assert len(axes) == action.cohomogeneity and const > 0
    columns = [col for col, _, _ in axes]
    assert len(set(columns)) == len(columns) and all(0 <= col < action.section_dim for col in columns)
    assert all(x.shape == wx.shape == (coarse,) for _, x, wx in axes)
    z = np.zeros((3, action.section_dim))
    z[:, columns] = [[x[(i + j) % coarse] for j, (_, x, _) in enumerate(axes)] for i in range(3)]
    np.testing.assert_allclose(weight(z), action.closed_weight(action.section_points(z)), rtol=1e-9, atol=1e-12)
    [total] = action.section_rule(lambda p: np.exp(-0.5 * np.sum(p * p, axis=1))[None], 1.0, coarse)
    assert total > 0

    # ensembles
    spec = EnsembleSpec(action)
    assert spec.statistic == action.statistics[0] and action.statistic_columns(spec.statistic) >= 1
    stats = action.ensemble_statistics(spec, rng, 50)
    assert stats.shape == (50,)
    reference, _, n_eff = action.ensemble_reference(spec, 50, 1)
    if isinstance(reference, tuple):  # weighted points
        ref_stats, weights = reference
        assert ref_stats.ndim == 1 and (weights is None or (weights.shape == ref_stats.shape and np.all(weights >= 0)))
        assert n_eff is None or 1.0 <= n_eff <= len(ref_stats)
    else:  # an exact law: its CDF rises from about 0 to about 1 across its grid
        cdf = reference.cdf(reference.grid)
        assert n_eff is None and np.all(np.diff(reference.grid) > 0) and np.all(np.diff(cdf) >= -1e-15)
        assert cdf[0] < 1e-4 and cdf[-1] > 1.0 - 1e-4
    edges, freq = reference_bins(stats, reference, 5)
    assert edges.shape == (6,) and freq.shape == (5,) and abs(np.sum(freq) - 1.0) < 1e-12


# --- a batch draws what its generator draws ------------------------------------------

BATCH_SIZES = [1, 11]  # a one-draw batch and a larger one


def _batch_draws(action, rng, size):
    """One batch's direct-side draws: flat standard normals, or Haar samples."""
    if isinstance(action, ConjugationAction):
        return batch_to_real(action.field, haar_sample_batch(action.group, rng, size))
    return rng.standard_normal((size, action.ambient_dim))


def _batch_statistic(spec, rng, size):
    """One batch's ensemble statistic, as its own draws give it."""
    action = spec.action
    if isinstance(action, ConjugationAction):
        return canonical_angles(action.group, haar_sample_batch(action.group, rng, size))[:, spec.stat_index]
    comps = rng.standard_normal((size, action.n, action.k, action.field.dim))
    return _coordinate_statistics(spec, action.field, comps)


@pytest.mark.parametrize("action", ROWS, ids=str)
def test_volumes_are_plain_floats(action):
    # group_volume returned an McEstimate, torus_volume a numpy float
    volumes = [group_volume(action.group), torus_volume(action.group), w_group_volume(action), vol_gh_estimate(action)]
    assert [type(v) for v in volumes] == [float] * 4 and min(volumes) > 0


@pytest.mark.parametrize("action", ROWS, ids=str)
def test_a_batch_is_drawn_from_its_generator(action):
    drawn = []
    sample, _ = action.direct_sampler(lambda pts, norms_sq: drawn.append(pts) or np.ones((1, len(pts))))
    for size in BATCH_SIZES:
        sample(np.random.default_rng(5), size)
        assert drawn[-1].tobytes() == _batch_draws(action, np.random.default_rng(5), size).tobytes()


@pytest.mark.parametrize("action", ROWS, ids=str)
def test_ensemble_statistics_of_a_batch_are_its_draws_statistics(action):
    # every statistic and column; the kind's batch call against the batch's
    # own draws and kernels, bit for bit
    for statistic in action.statistics:
        for index in range(action.statistic_columns(statistic)):
            spec = EnsembleSpec(action, statistic, index)
            for size in BATCH_SIZES:
                batch = action.ensemble_statistics(spec, np.random.default_rng(5), size)
                alone = _batch_statistic(spec, np.random.default_rng(5), size)
                assert batch.tobytes() == alone.tobytes(), (statistic, index, size)
