import contextlib
import io
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sectint.fields import ScalarField
from sectint.matrices import MatK, data_from_components
from sectint.groups import Family, GroupSpec, torus_point, torus_points
from sectint.actions import (
    REF_GRID,
    _ROW_BLOCK,
    ConjugationAction,
    DirectSumAction,
    act,
    canonical_angles,
    normalizer_sample,
    random_regular_section_point,
    reduce_to_section,
    section_coordinate,
    _bartlett_axes,
    _coordinate_statistics,
    bartlett_draws,
    section_weight_batch,
    torus_canonical_angles,
    weight_log_ratio,
)
from sectint.ensembles import (
    EnsembleSpec,
    _merge_small_bins,
    chi2_tail,
    compare_densities,
    reference_bins,
    sample_ensemble,
)
from sectint.mc import BATCH_DRAWS, subseed
from bin_merge_oracle import merge_small_bins_rescanning
from mc_oracle import oracle_batches
from matrix_oracles import det_modulus, gram_schmidt_qr
from schur_reduction import reduce_with_witness, su_alcove_angles, torus_angles
from test_groups import torus_grid
from test_kinds import ROWS as KIND_ROWS

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION
SO3K2 = DirectSumAction(R, 3, 2)
SU2CONJ = ConjugationAction(GroupSpec(Family.SU, 2))


def reference_sample(spec, seed, n_ref):
    """The spec's statistic of the n_ref reference_draws of seed, block by block."""
    action = spec.action
    return np.concatenate([action._draw_statistics(spec, z) for z in action.reference_draws(seed, n_ref)])


def _stat_from_coordinate(spec, b):
    """Statistic of one section coordinate b, computed per matrix."""
    if spec.statistic == "coordinate_det":
        return det_modulus(b)
    if spec.statistic == "coordinate_norm":
        return b.norm()
    if spec.statistic == "singular_value":
        sv = np.linalg.svd(b.data, compute_uv=False)
        sv = sv[::2] if b.field is H else sv  # the adjoint matrix doubles each value
        return float(sv[spec.stat_index])
    raise ValueError(f"statistic {spec.statistic!r} not defined for direct sums")


def test_empty_stream():
    assert sample_ensemble(EnsembleSpec(SO3K2), seed=0, n=0).size == 0


@pytest.mark.parametrize("n", [20, 3 * BATCH_DRAWS + 5, 2 * BATCH_DRAWS + 2])
def test_sample_ensemble_passes_one_batch_at_a_time(monkeypatch, n):
    # each call gets one batch of at most BATCH_DRAWS draws, and the joined
    # statistics are each batch's own
    action, calls = DirectSumAction(R, 4, 1), []
    spec = EnsembleSpec(action)
    per_batch = DirectSumAction.ensemble_statistics

    def spy(self, spec, rng, size):
        calls.append(size)
        return per_batch(self, spec, rng, size)

    monkeypatch.setattr(DirectSumAction, "ensemble_statistics", spy)
    stats = sample_ensemble(spec, 3, n)
    assert sum(calls) == n and max(calls) <= BATCH_DRAWS
    assert len(calls) == {20: 1, 3 * BATCH_DRAWS + 5: 4, 2 * BATCH_DRAWS + 2: 3}[n]
    alone = [per_batch(action, spec, rng, size) for rng, size in oracle_batches(3, n)]
    assert stats.tobytes() == np.concatenate(alone).tobytes()


def test_reduction_preserves_norm():
    # the section representative of each sample keeps the ambient norm
    rng = np.random.default_rng(0)
    for action in [SO3K2, DirectSumAction(H, 3, 2)]:
        for raw in action.random_ambient_points(rng, 50):
            x = MatK(action.field, raw)
            s = reduce_to_section(action, x)
            assert abs(s.norm() - x.norm()) <= 1e-10 * max(1.0, x.norm())


def test_norm_statistic_equals_ambient_norm():
    spec = EnsembleSpec(SO3K2, "coordinate_norm")
    stats = sample_ensemble(spec, seed=5, n=2000)
    # redo the sampling stream to recover the ambient samples
    norms = []
    for rng, size in oracle_batches(5, 2000):
        x = rng.standard_normal((size, 3, 2))
        norms.append(np.linalg.norm(x.reshape(size, -1), axis=1))
    norms = np.concatenate(norms)
    np.testing.assert_allclose(stats, norms, atol=1e-10)


def test_statistics_weyl_invariant():
    rng = np.random.default_rng(1)
    for action, stat in [(SO3K2, "coordinate_det"), (SO3K2, "coordinate_norm")]:
        spec = EnsembleSpec(action, stat)
        s = random_regular_section_point(action, rng)
        base = _stat_from_coordinate(spec, section_coordinate(action, s))
        for _ in range(10):
            w = normalizer_sample(action, rng)
            moved = _stat_from_coordinate(spec, section_coordinate(action, act(action, w, s)))
            assert abs(moved - base) <= 1e-10 * (1.0 + abs(base))


@pytest.mark.parametrize(
    "action", [SO3K2, DirectSumAction(ScalarField.COMPLEX, 4, 2), DirectSumAction(H, 3, 2)], ids=str
)
@pytest.mark.parametrize("stat", ["coordinate_det", "coordinate_norm", "singular_value"])
def test_batched_statistics_match_per_sample_reduction(action, stat):
    # replay the sampling stream one matrix at a time, reduce each draw to
    # the section and read the statistic off its coordinate
    from sectint.matrices import gaussian

    spec = EnsembleSpec(action, stat, stat_index=1 if stat == "singular_value" else 0)
    oracle = []
    for rng, size in oracle_batches(8, 50):
        for _ in range(size):
            s = reduce_to_section(action, gaussian(action.field, action.n, action.k, rng))
            oracle.append(_stat_from_coordinate(spec, section_coordinate(action, s)))
    np.testing.assert_allclose(sample_ensemble(spec, seed=8, n=50), oracle, rtol=1e-10, atol=0)


CONJ_REPLAY = [ConjugationAction(GroupSpec(f, n)) for f, n in
               [(Family.SO, 3), (Family.SO, 4), (Family.SP, 1), (Family.SP, 2), (Family.SU, 3)]]


def _per_point_angles(action, g):
    """Canonical angles of one group element by Schur reduction to the torus."""
    s, _ = reduce_with_witness(action, g)
    ang = torus_angles(action, s)
    # torus_angles gives SU angles in (-pi, pi]; canonical ones sum to 0, in descending order
    return np.sort(su_alcove_angles(ang))[::-1] if action.group.family is Family.SU else ang


@pytest.mark.parametrize("action", CONJ_REPLAY, ids=str)
def test_conjugation_samples_match_per_draw_reduction(action):
    # replay the sampling stream one Haar draw at a time: Gram-Schmidt QR
    # of a Gaussian matrix, the SO/SU determinant fix, then reduction
    from sectint.matrices import gaussian

    group = action.group
    oracle = []
    for rng, size in oracle_batches(8, 60):
        for _ in range(size):
            q, _ = gram_schmidt_qr(gaussian(group.field, group.n, group.n, rng))
            if group.family is Family.SO and np.linalg.det(q.data) < 0:
                q.data[:, -1] *= -1.0
            elif group.family is Family.SU:
                q.data[:, -1] *= np.conj(np.linalg.det(q.data))
            oracle.append(_per_point_angles(action, q))
    oracle = np.array(oracle)
    for i in range(oracle.shape[1]):
        stats = sample_ensemble(EnsembleSpec(action, "torus_angle", i), seed=8, n=60)
        np.testing.assert_allclose(stats, oracle[:, i], rtol=0, atol=1e-12)


@pytest.mark.parametrize("action", [CONJ_REPLAY[1], ConjugationAction(GroupSpec(Family.SO, 5)),
                                    CONJ_REPLAY[3], CONJ_REPLAY[4]], ids=str)
def test_canonical_angles_match_reduction_on_reference_grid(action):
    # every node of a 96-node torus grid, nodes at angle 0 and pi included
    group = action.group
    points = [torus_point(group, a) for a in torus_grid(group.rank, 96)]
    oracle = np.array([_per_point_angles(action, p) for p in points])
    data = np.stack([p.data for p in points])
    np.testing.assert_allclose(canonical_angles(group, data), oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("group", [GroupSpec(f, n) for f, n in
                                   [(Family.SU, 2), (Family.SU, 3), (Family.SU, 4), (Family.SP, 1), (Family.SP, 2),
                                    (Family.SO, 3), (Family.SO, 4), (Family.SO, 5), (Family.SO, 6)]], ids=str)
def test_torus_grid_angles_match_eigensolve(group):
    # the grid's canonical angles come from the Weyl group, with no
    # eigensolve: bitwise those of the eigenphases on SU and Sp, whose torus
    # points are diagonal; on SO the rotation blocks' eigenvalues are
    # rounded once more, and the SO(2m) orientation is the same.  The grid
    # has nodes at 0 and pi; 0.7 * arange puts an SU phase at the cut
    angles = np.concatenate([torus_grid(group.rank, 96 if group.rank <= 2 else 12),
                             0.7 * np.arange(group.rank)[None]])
    pts = torus_points(group, angles)
    data = data_from_components(group.field, pts.reshape(len(pts), group.n, group.n, group.field.dim))
    grid, eig = torus_canonical_angles(group, angles), canonical_angles(group, data)
    if group.family is Family.SO:
        np.testing.assert_array_equal(np.signbit(grid), np.signbit(eig))
        assert np.all(np.abs(grid - eig) <= 4 * np.spacing(np.abs(eig)))
    else:
        np.testing.assert_array_equal(grid, eig)


def test_det_second_moment_two_sided():
    spec = EnsembleSpec(SO3K2, "coordinate_det")
    stats = sample_ensemble(spec, seed=3, n=50_000)
    m_mean = np.mean(stats ** 2)
    m_se = np.std(stats ** 2, ddof=1) / np.sqrt(stats.size)
    rs = reference_sample(spec, 4, 2_000_000)
    s_mean = np.mean(rs ** 2)
    assert abs(m_mean - s_mean) <= 4 * m_se


@pytest.mark.parametrize("field, n", [(ScalarField.COMPLEX, 3), (H, 2)])
def test_polar_reference_det_second_moment(field, n):
    # k = 1: |det| of the real section coordinate is |x|, whose second
    # moment under the standard Gaussian on K^n is the real dimension d n
    spec = EnsembleSpec(DirectSumAction(field, n, 1), "coordinate_det")
    rs = reference_sample(spec, 0, 200_000)
    assert np.mean(rs ** 2) == pytest.approx(field.dim * n, rel=0.05)  # about 5 sigma


DIRECT_ROWS = [SO3K2] + [DirectSumAction(f, n, k) for f, n, k in
                          [(C, 4, 2), (H, 3, 2), (C, 6, 4), (R, 7, 5), (R, 4, 1), (C, 3, 1), (H, 3, 1)]]


@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_reference_draws_follow_the_weighted_density(action):
    # the weight ratio of the 100k reference draws is one constant, and the
    # second moment of |det| is the product of the chi axes' ones, d(n - i + 1)
    spec = EnsembleSpec(action, "coordinate_det")
    z = np.concatenate(list(action.reference_draws(5, 100_000)))
    assert np.expm1(np.ptp(weight_log_ratio(action, z))) <= 1e-10
    rs = reference_sample(spec, 5, 100_000)
    d, n, k = action.field.dim, action.n, action.k
    exact = np.prod([d * (n - i) for i in range(k)])
    stderr = np.std(rs ** 2, ddof=1) / np.sqrt(rs.size)
    assert abs(np.mean(rs ** 2) - exact) <= 4 * stderr


@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_bartlett_draws_are_triangular_with_a_positive_diagonal(action):
    # the draws are the Weyl-reduced R: zero below the diagonal, a real
    # positive diagonal, and t > 0 on the polar line, which drew a sign
    k, below = action.k, np.tril(np.ones((action.k, action.k), dtype=bool), -1)
    z = bartlett_draws(action, np.random.default_rng(11), 205)
    assert z.shape == (205, action.section_dim)
    comps = z.reshape(len(z), k, k, action.section_dim // (k * k))
    assert np.all(comps[:, below] == 0.0)
    assert np.all(comps[:, range(k), range(k), 0] > 0.0) and np.all(comps[:, range(k), range(k), 1:] == 0.0)


@pytest.mark.parametrize("action, seed", [(SO3K2, 0), (SO3K2, 1), (SO3K2, 2)] + [
    (DirectSumAction(f, n, k), 22) for f, n, k in [(C, 4, 2), (H, 3, 2), (C, 6, 4), (R, 7, 5)]], ids=str)
def test_section_weight_ratio_is_one_constant_over_three_million_draws(action, seed):
    # 3e6 draws from the reference seeds of the README's R(3,2) run at seeds
    # 0, 1 and 2 and of criterion 8's direct sums at seed 22; some have nearly
    # dependent columns, where gram_det in the weight takes the det by QR, so
    # weight / |det R|^p stays one constant to rounding level (the closed form
    # alone fails on R(3,2) at seed 2)
    rng, lo, hi = np.random.default_rng(subseed(seed, 1)), np.inf, -np.inf
    for _ in range(0, 3_000_000, 1 << 16):
        log_ratio = weight_log_ratio(action, bartlett_draws(action, rng, 1 << 16))
        lo, hi = min(lo, log_ratio.min()), max(hi, log_ratio.max())
    assert np.expm1(hi - lo) <= 1e-10


@pytest.mark.parametrize("s", [1e-3, 0.5, 2.0, 1e3])
@pytest.mark.parametrize("action", [a for a in KIND_ROWS if isinstance(a, DirectSumAction)], ids=str)
def test_section_weight_is_homogeneous_of_its_degree(action, s):
    # a Gaussian ensemble of scale s is the standard one pushed forward by
    # x -> s x, so its test is the standard one's: the weight carries s^deg,
    # deg = d k (n - k), the degree of |det B|^(d(n - k)), or dn - 1 of |t|^(dn - 1)
    # on the polar line, and the weight check reads one constant at s z too
    d, n, k = action.field.dim, action.n, action.k
    deg = d * n - 1 if k == 1 else d * k * (n - k)
    z = bartlett_draws(action, np.random.default_rng(subseed(23, 1)), _ROW_BLOCK)
    np.testing.assert_allclose(section_weight_batch(action, s * z), s ** deg * section_weight_batch(action, z),
                               rtol=1e-12, atol=0)
    assert np.expm1(np.ptp(weight_log_ratio(action, s * z))) <= 1e-10


@pytest.mark.parametrize("scale", [-2.0, 0.5, 10.0])
@pytest.mark.parametrize("statistic", DirectSumAction.statistics)
@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_statistics_are_homogeneous_in_the_gaussian_scale(action, statistic, scale):
    # under x -> s x each statistic of an ambient sample carries |s|^p, p = k
    # on the det of k factors and 1 on the norm and the singular values, as
    # the chi factors of its law each carry |s|: samples and reference move
    # alike, so the chi2 verdict of a scaled Gaussian is the standard one's
    spec = EnsembleSpec(action, statistic, stat_index=action.k - 1 if statistic == "singular_value" else 0)
    comps = np.random.default_rng(subseed(24, 1)).standard_normal((500, action.n, action.k, action.field.dim))
    p = action.k if statistic == "coordinate_det" else 1
    np.testing.assert_allclose(_coordinate_statistics(spec, action.field, scale * comps),
                               abs(scale) ** p * _coordinate_statistics(spec, action.field, comps), rtol=1e-12, atol=0)


def _bartlett_statistics(action, count, seed, block=1 << 16):
    """coordinate_det and coordinate_norm of count bartlett_draws, keyed by
    statistic: the product of R's diagonal and R's norm, drawn block by
    block from one generator."""
    diagonal = [col for col, b in _bartlett_axes(action)[0] if b is not None]
    rng, stats = np.random.default_rng(seed), {}
    for start in range(0, count, block):
        z = bartlett_draws(action, rng, min(block, count - start))
        stats.setdefault("coordinate_det", []).append(np.prod(z[:, diagonal], axis=1))
        stats.setdefault("coordinate_norm", []).append(np.linalg.norm(z, axis=1))
    return {key: np.concatenate(parts) for key, parts in stats.items()}


@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_exact_masses_match_two_million_bartlett_draws(action):
    # the exact law's bin masses hold the draws of the section density that
    # the weight check reads: every bin's count is within 4.5 binomial
    # standard errors of its mass
    count = 2_000_000
    for statistic, stats in _bartlett_statistics(action, count, 17).items():
        law, _, n_eff = action.ensemble_reference(EnsembleSpec(action, statistic), 1000, 1)
        assert n_eff is None
        edges, masses = reference_bins(stats, law, 30)
        assert abs(masses.sum() - 1.0) <= 1e-14 and np.all(masses > 0.02)
        counts = np.histogram(stats, bins=edges)[0]
        z = (counts - count * masses) / np.sqrt(count * masses * (1.0 - masses))
        assert np.max(np.abs(z)) <= 4.5, (statistic, z)


#: (action, statistic, nu) of every single-chi law: |B| ~ chi_(dnk), and t ~ chi_(dn) on the polar line
SINGLE_CHI = [(DirectSumAction(R, 3, 1), "coordinate_det", 3), (DirectSumAction(R, 4, 1), "coordinate_det", 4),
              (DirectSumAction(C, 3, 1), "coordinate_det", 6), (DirectSumAction(H, 3, 1), "coordinate_det", 12),
              (SO3K2, "coordinate_norm", 6), (DirectSumAction(R, 7, 5), "coordinate_norm", 35),
              (DirectSumAction(H, 3, 2), "coordinate_norm", 24), (DirectSumAction(C, 6, 4), "coordinate_norm", 48)]


@pytest.mark.parametrize("action, statistic, nu", SINGLE_CHI, ids=str)
def test_single_chi_masses_match_scipy(action, statistic, nu):
    # odd and even nu: the masses are differences of scipy's chi CDF at the edges
    from scipy import stats

    law, _, _ = action.ensemble_reference(EnsembleSpec(action, statistic), 1000, 1)
    edges, masses = reference_bins(np.array([1e-3]), law, 40)
    cdf = stats.chi.cdf(edges[1:-1], nu)
    np.testing.assert_allclose(masses, np.diff(np.concatenate([[0.0], cdf, [1.0]])), rtol=0, atol=1e-10)


@pytest.mark.parametrize("action", [SO3K2, DirectSumAction(C, 4, 2), DirectSumAction(H, 3, 2)], ids=str)
def test_chi_product_masses_match_quadrature(action):
    # k = 2: P(r_11 r_22 <= y) = integral of chi_(dn) pdf(r) chi_(d(n-1))
    # cdf(y / r), by scipy's adaptive quadrature
    from scipy import integrate, stats

    d, n = action.field.dim, action.n
    law, _, _ = action.ensemble_reference(EnsembleSpec(action, "coordinate_det"), 1000, 1)
    edges, masses = reference_bins(np.array([1e-3]), law, 30)

    def cdf(y):
        f = lambda r: stats.chi.pdf(r, d * n) * stats.chi.cdf(y / r, d * (n - 1))
        return integrate.quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)[0]

    oracle = np.diff(np.concatenate([[0.0], [cdf(y) for y in edges[1:-1]], [1.0]]))
    np.testing.assert_allclose(masses, oracle, rtol=0, atol=1e-10)


def test_reference_blocks_extend_the_stream():
    # the row blocks draw from one generator in turn, so a longer reference
    # keeps the whole row blocks of the shorter one as its prefix
    spec = EnsembleSpec(DirectSumAction(H, 3, 2), "coordinate_norm")
    short = reference_sample(spec, 7, _ROW_BLOCK + 10)
    long = reference_sample(spec, 7, 2 * _ROW_BLOCK + 3)
    assert long.shape == (2 * _ROW_BLOCK + 3,)
    np.testing.assert_array_equal(long[:_ROW_BLOCK], short[:_ROW_BLOCK])


@pytest.mark.parametrize("stat", ["coordinate_det", "coordinate_norm", "singular_value"])
@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_reference_statistics_match_per_draw_coordinates(action, stat):
    # the batched statistics of the draws equal those of each coordinate R read as a matrix
    from sectint.matrices import from_real_vector

    spec = EnsembleSpec(action, stat)
    rs = reference_sample(spec, 3, 40)
    draws = bartlett_draws(action, np.random.default_rng(3), 40)
    oracle = [_stat_from_coordinate(spec, section_coordinate(action, from_real_vector(action.field, *action.shape, p)))
              for p in action.section_points(draws)]
    np.testing.assert_allclose(rs, oracle, rtol=1e-10, atol=0)


@pytest.mark.parametrize("group", [GroupSpec(Family.SU, 2), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)], ids=str)
def test_conjugation_references_use_the_closed_form(monkeypatch, group):
    # the reference grid at rank one and the reference draws above it are
    # weighted by Weyl's closed form, never by the generic kernel
    import sectint.actions
    import sectint.weights

    def refuse(*args, **kwargs):
        raise AssertionError("generic weight kernel called")

    generic = sectint.weights.delta_e_batch
    for name, module in list(sys.modules.items()):
        if name.startswith("sectint") and getattr(module, "delta_e_batch", None) is generic:
            monkeypatch.setattr(module, "delta_e_batch", refuse)
    calls = []
    original = sectint.actions.torus_weight_batch
    monkeypatch.setattr(sectint.actions, "torus_weight_batch", lambda *a: calls.append(1) or original(*a))
    cmp_ = compare_densities(EnsembleSpec(ConjugationAction(group), "torus_angle"), seed=5, n=2000, bins=10)
    assert len(calls) == 1 and 0.0 <= cmp_.p_value <= 1.0


def test_chi2_direct_sum_det():
    cmp_ = compare_densities(EnsembleSpec(SO3K2, "coordinate_det"), seed=22, n=50_000, bins=30)
    assert abs(cmp_.empirical.sum() - 1.0) < 1e-12
    assert abs(cmp_.reference.sum() - 1.0) < 1e-12
    assert cmp_.p_value >= 0.01


def test_chi2_su2_angle():
    cmp_ = compare_densities(EnsembleSpec(SU2CONJ, "torus_angle"), seed=22, n=50_000, bins=30)
    assert cmp_.p_value >= 0.01


@pytest.mark.parametrize("group", [GroupSpec(Family.SO, 2), GroupSpec(Family.SO, 3), GroupSpec(Family.SP, 1)], ids=str)
def test_chi2_rank_one_angle(group):
    # the bins span the reference grid's canonical angles: SO(2)'s Weyl group
    # is trivial, so its angle ranges over (-pi, pi], the others' over [0, pi]
    cmp_ = compare_densities(EnsembleSpec(ConjugationAction(group)), seed=22, n=50_000, bins=30)
    assert cmp_.spec.statistic == "torus_angle"
    if group.n == 2:
        assert -np.pi <= cmp_.edges[0] <= -np.pi + 2 * np.pi / REF_GRID
    else:
        assert cmp_.edges[0] == 0.0
    assert cmp_.edges[-1] == np.pi + 1e-12 * np.pi
    assert cmp_.p_value >= 0.01


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_su2_second_angle_is_binned_on_its_own_range(seed):
    # SU(2)'s angles are (theta, -theta): the second one's reference points are
    # minus the first's, so its bins cover [-pi, 0] as the first's cover [0, pi].
    # Both cut the same grid by cumulative weight, from opposite ends, so the
    # inner edges mirror to within half a grid step
    specs = [EnsembleSpec(SU2CONJ, "torus_angle", index) for index in (0, 1)]
    ref_first, ref_second = (SU2CONJ.ensemble_reference(spec, 2000, subseed(seed, 1))[0][0] for spec in specs)
    np.testing.assert_allclose(ref_second, -ref_first, rtol=0, atol=4e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = (compare_densities(spec, seed, 2000, 20) for spec in specs)
    assert (first.edges[0], second.edges[-1]) == (0.0, 1e-12)
    assert first.edges[-1] == pytest.approx(np.pi, abs=1e-11) and second.edges[0] == pytest.approx(-np.pi, abs=1e-14)
    np.testing.assert_allclose(second.edges[1:-1], -first.edges[-2:0:-1], rtol=0, atol=np.pi / REF_GRID + 1e-12)
    assert min(first.p_value, second.p_value) >= 0.01


@pytest.mark.parametrize(
    "action, statistic",
    [
        (SO3K2, "coordinate_det"),
        (DirectSumAction(ScalarField.COMPLEX, 4, 2), "coordinate_det"),
        (ConjugationAction(GroupSpec(Family.SU, 3)), "torus_angle"),
    ],
)
def test_p_value_is_chi2_survival(action, statistic):
    from scipy import stats

    cmp_ = compare_densities(EnsembleSpec(action, statistic), seed=5, n=2000, bins=20)
    # the closed-form tail agrees with scipy's to rounding level
    assert cmp_.p_value == chi2_tail(cmp_.dof, cmp_.chi2)
    assert cmp_.p_value == pytest.approx(float(stats.chi2.sf(cmp_.chi2, cmp_.dof)), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "action, statistic, n",
    [
        (SO3K2, "coordinate_det", 2000),
        (DirectSumAction(ScalarField.COMPLEX, 4, 2), "coordinate_det", 3000),
        (DirectSumAction(H, 3, 1), "coordinate_norm", 1000),
        (DirectSumAction(H, 3, 2), "singular_value", 1000),
        (ConjugationAction(GroupSpec(Family.SU, 3)), "torus_angle", 2000),
    ],
    ids=str,
)
def test_chi2_statistic_from_the_returned_frequencies(action, statistic, n):
    # drawn reference points add about n / n_eff to each bin's variance, so
    # the statistic is the plain one over 1 + n / n_eff: n_eff = n_ref =
    # max(30 n, 60000) for the equal direct-sum draws, and Kish's effective
    # size (sum w)^2 / sum w^2 for the weighted torus draws above rank one;
    # exact masses have no n_eff and no divisor
    spec = EnsembleSpec(action, statistic)
    cmp_ = compare_densities(spec, seed=7, n=n, bins=20)
    reference, _, n_eff = action.ensemble_reference(spec, n, subseed(7, 1))
    if not isinstance(reference, tuple):
        assert n_eff is None
    elif reference[1] is None:
        assert n_eff == max(30 * n, 60_000)
    else:
        weights = reference[1]
        assert n_eff == pytest.approx(np.sum(weights) ** 2 / np.sum(weights ** 2), rel=1e-12)
    obs, exp = _merge_small_bins(np.rint(cmp_.empirical * n), n * cmp_.reference)
    plain = float(np.sum((obs - exp) ** 2 / exp))
    scale = 1.0 + n / n_eff if n_eff else 1.0
    assert cmp_.chi2_divisor == scale and cmp_.reference_n_eff == n_eff
    assert cmp_.dof == len(obs) - 1
    assert cmp_.chi2 == pytest.approx(plain / scale, rel=1e-12, abs=0)
    assert cmp_.p_value == chi2_tail(cmp_.dof, cmp_.chi2)


#: (observed, expected) counts per bin, with the threshold's neighbours;
#: negative expected counts make a small last group fold more than once
_BINS = st.lists(st.tuples(st.integers(0, 20), st.one_of(st.floats(-3.0, 12.0),
                                                         st.sampled_from([0.0, 4.999999999999999, 5.0]))),
                 max_size=40)


@given(_BINS)
@settings(max_examples=300, deadline=None)
def test_merge_small_bins_matches_the_rescanning_loop(bins):
    # one pass merges the same bins as the loop that rescanned from bin 0
    # after each merge, with the same sums in the same association
    obs, exp = np.array([float(o) for o, _ in bins]), np.array([e for _, e in bins])
    for got, want in zip(_merge_small_bins(obs, exp), merge_small_bins_rescanning(obs, exp)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_merge_small_bins_is_linear_in_the_bins():
    # the rescanning loop took about 1 s at 10 000 bins, and its time grew as their square
    exp = np.full(100_000, 0.25)
    obs, merged = _merge_small_bins(np.ones_like(exp), exp)
    assert len(merged) == 5_000 and np.all(merged == 5.0) and np.all(obs == 20.0)


@pytest.mark.parametrize("bins", [2, 20, 100_000])
@pytest.mark.parametrize("n_ref", [1, 2, 7, 60_000, 90_000])
def test_equal_draw_bins_hold_equal_draw_counts(n_ref, bins):
    # at equal weights every bin holds n_ref // bins or n_ref // bins + 1 of
    # the draws, also where bins outnumber draws and the edges of the empty
    # bins repeat; np.histogram of the draws over the edges counts them there.
    # The bins run from the smallest statistic of either side to just past
    # the largest
    spec = EnsembleSpec(DirectSumAction(C, 4, 2))
    ref_stats = reference_sample(spec, 2, n_ref)
    lo, top = ref_stats.min() - 0.5, ref_stats.max()
    edges, masses = reference_bins(np.array([lo]), (ref_stats, None), bins)
    counts = np.rint(masses * n_ref)
    assert edges.shape == (bins + 1,) and (edges[0], edges[-1]) == (lo, top + 1e-12 * max(1.0, top))
    assert np.all(np.diff(edges) >= 0)
    np.testing.assert_array_equal(masses, counts / n_ref)
    assert set(np.unique(counts)) <= {n_ref // bins, n_ref // bins + 1} and counts.sum() == n_ref
    np.testing.assert_array_equal(np.histogram(ref_stats, bins=edges)[0], counts)
    # unit weights, given, take the weighted path to the same bins
    weighted = reference_bins(np.array([lo]), (ref_stats, np.ones(n_ref)), bins)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(weighted, (edges, masses)))


@pytest.mark.parametrize("bins", [2, 20, 5_000])
def test_weighted_bins_close_at_their_share_of_the_weight(bins):
    # bin j closes at the last point whose cumulative weight is at most
    # (j + 1) / bins of the total, so the mass up to it falls short of that by
    # less than the next point's weight; a bin's mass is the weight of the
    # points between its edges
    rng = np.random.default_rng(3)
    ref_stats, weights = rng.standard_normal(4000), rng.exponential(size=4000)
    edges, masses = reference_bins(rng.standard_normal(50), (ref_stats, weights), bins)
    share = (np.arange(1, bins + 1) / bins)[:-1] - np.cumsum(masses)[:-1]
    assert np.all(share >= -1e-12) and np.all(share < weights.max() / weights.sum() + 1e-12)
    np.testing.assert_allclose(np.histogram(ref_stats, bins=edges, weights=weights)[0] / weights.sum(), masses,
                               rtol=1e-9, atol=1e-15)


CALIBRATION_SEEDS = 30


def _most_low_p_values(seeds: int, alpha: float = 1e-4) -> int:
    """The count of p-values below 0.01 that a sound test exceeds with
    probability at most alpha: the smallest c with P(K > c) <= alpha, K ~
    Binomial(seeds, 0.01)."""
    def tail(c):
        return sum(math.comb(seeds, k) * 0.01 ** k * 0.99 ** (seeds - k) for k in range(c + 1, seeds + 1))
    return next(c for c in range(seeds + 1) if tail(c) <= alpha)


MOST_LOW_P_VALUES = _most_low_p_values(CALIBRATION_SEEDS)  # 4 of 30


CALIBRATION_SPECS = [EnsembleSpec(action) for action in KIND_ROWS] + [
    EnsembleSpec(ConjugationAction(GroupSpec(family, n)), "torus_angle", 1)
    for family, n in [(Family.SO, 4), (Family.SU, 3)]] + [
    EnsembleSpec(DirectSumAction(R, 7, 5), "coordinate_norm")]


@pytest.mark.parametrize("spec", CALIBRATION_SPECS, ids=lambda spec: f"{spec.action}[{spec.stat_index}]")
def test_p_values_are_calibrated_over_seeds(spec):
    # a sound reference gives p < 0.01 on about 1 % of seeds; the 96^2 and
    # 24^3 angle grids above rank one read their nodes' canonical angles as
    # exact, and failed on 27-30 of these 30 seeds at n = 2000
    p_values = [compare_densities(spec, seed, 2000, 20).p_value for seed in range(CALIBRATION_SEEDS)]
    assert sum(p < 0.01 for p in p_values) <= MOST_LOW_P_VALUES, p_values


def test_rank_one_reference_memory_does_not_grow_with_the_bins():
    # midpoint masses of 200 nodes per bin held a (bins, 200) array: 128 MB
    # traced at 20 000 bins; the grid's 2048 weighted points do not grow
    from sectint.cli import main

    argv = ["ensemble", "--action", '{"kind": "conjugation", "family": "SO", "n": 3}', "--bins", "20000", "--n", "1000"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 20e6, peak


@pytest.mark.parametrize("action, statistic", [(DirectSumAction(R, 7, 5), "coordinate_det"),
                                               (DirectSumAction(H, 3, 2), "coordinate_det"),
                                               (DirectSumAction(R, 7, 5), "coordinate_norm")], ids=str)
def test_exact_reference_memory_does_not_grow_with_the_bins(action, statistic):
    # the chi-product CDF evaluates its edges in blocks, so 20 000 bins hold
    # no (bins, lattice) array; the odd chi_35 goes point by point
    from sectint.cli import main

    argv = ["ensemble", "--action", json.dumps(action.to_json()), "--statistic", statistic,
            "--bins", "20000", "--n", "1000"]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0 and peak < 20e6, peak


def test_chi2_tail_matches_scipy():
    # Abramowitz and Stegun 26.4.4-26.4.5 against scipy's incomplete gamma
    from scipy.special import chdtrc

    for dof in range(1, 60):
        for x in np.geomspace(0.01, 400.0, 120):
            assert chi2_tail(dof, float(x)) == pytest.approx(chdtrc(dof, x), rel=1e-12, abs=0)


@pytest.mark.parametrize("dofs", [range(1351, 1501), [2999, 18332]], ids=["1351-1500", "2999,18332"])
def test_chi2_tail_above_a_thousand_dof_matches_scipy(dofs):
    # the terms started at e^(-x/2), which is 0 past x = 1490, so the tail
    # read 0.0 from about 1400 dof on, however well a histogram fitted
    from scipy import stats

    for dof in dofs:
        for tail in (1e-8, 1e-4, 0.01, 0.5, 0.99, 1 - 1e-6):
            x = float(stats.chi2.isf(tail, dof))
            assert chi2_tail(dof, x) == pytest.approx(float(stats.chi2.sf(x, dof)), rel=1e-9, abs=0)
    assert chi2_tail(1500, 1500.0) == pytest.approx(0.49514419333577, rel=1e-12)


@pytest.mark.parametrize("dof", [1, 2, 7, 30, 59])
def test_chi2_tail_of_a_huge_statistic_is_zero(dof):
    # the terms start at e^(-x/2) = 0, so no term is 0 * inf
    assert chi2_tail(dof, 1e12) == 0.0
    assert chi2_tail(dof, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_constant_statistic_gives_p_one():
    # a constant statistic puts every sample in one bin, where a chi-square
    # test says nothing, so it is not a statistic of the ensembles
    with pytest.raises(ValueError, match="statistic 'constant' not defined for direct sums"):
        compare_densities(EnsembleSpec(SO3K2, "constant"), seed=1, n=2000, bins=10)


@pytest.mark.parametrize("action, statistic", [(SU2CONJ, "coordinate_det"), (SO3K2, "torus_angle")], ids=str)
def test_statistic_refused_when_the_spec_is_built(action, statistic):
    # the kind's statistic table is read before any draw
    with pytest.raises(ValueError, match=f"statistic {statistic!r} not defined"):
        EnsembleSpec(action, statistic)


@pytest.mark.parametrize("n", [1, 5])
def test_too_few_samples_for_two_bins_rejected(n):
    # fewer than 10 samples cannot fill two bins with an expected count of 5
    with pytest.raises(ValueError, match="at least 2 bins, got 1 after merging"):
        compare_densities(EnsembleSpec(SO3K2), seed=1, n=n, bins=20)


def test_histograms_seed_reproducible():
    a = compare_densities(EnsembleSpec(SO3K2, "coordinate_det"), seed=9, n=5000, bins=12)
    b = compare_densities(EnsembleSpec(SO3K2, "coordinate_det"), seed=9, n=5000, bins=12)
    np.testing.assert_array_equal(a.empirical, b.empirical)
    np.testing.assert_array_equal(a.reference, b.reference)
    assert a.chi2 == b.chi2


def test_csv_output(tmp_path):
    cmp_ = compare_densities(EnsembleSpec(SO3K2, "coordinate_det"), seed=2, n=4000, bins=8)
    path = tmp_path / "hist.csv"
    cmp_.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,empirical,reference"
    assert len(lines) == 9
    row = lines[1].split(",")
    assert len(row) == 4
    float(row[0]), float(row[3])


def test_singular_value_statistic():
    spec = EnsembleSpec(DirectSumAction(H, 3, 2), "singular_value", stat_index=0)
    stats = sample_ensemble(spec, seed=7, n=200)
    assert np.all(stats > 0)
    # largest quaternionic singular value bounded by the ambient norm
    assert np.all(stats <= 10.0)
