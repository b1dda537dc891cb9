import sys
import warnings

import numpy as np
import pytest

from sectint.fields import ScalarField
from sectint.matrices import MatK, data_from_components, det_modulus
from sectint.groups import Family, GroupSpec, _torus_grid, torus_point, torus_points
from sectint.actions import (
    ConjugationAction,
    DirectSumAction,
    act,
    canonical_angles,
    normalizer_sample,
    random_regular_section_point,
    reduce_to_section,
    section_coordinate,
    bartlett_draws,
    torus_canonical_angles,
)
from sectint.ensembles import (
    EnsembleSpec,
    _merge_small_bins,
    chi2_tail,
    compare_densities,
    sample_ensemble,
)
from sectint.mc import _subseed
from bartlett_oracle import bartlett_reference_unblocked
from matrix_oracles import gram_schmidt_qr
from schur_reduction import reduce_with_witness, su_alcove_angles, torus_angles

R, C, H = ScalarField.REAL, ScalarField.COMPLEX, ScalarField.QUATERNION
SO3K2 = DirectSumAction(R, 3, 2)
SU2CONJ = ConjugationAction(GroupSpec(Family.SU, 2))


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


def test_reduction_preserves_norm():
    # the section representative of each sample keeps the ambient norm
    rng = np.random.default_rng(0)
    for action in [SO3K2, DirectSumAction(H, 3, 2)]:
        for raw in action.random_ambient_points(rng, 50):
            x = MatK(action.field, raw)
            s = reduce_to_section(action, x)
            assert abs(s.norm() - x.norm()) <= 1e-10 * max(1.0, x.norm())


def test_norm_statistic_equals_ambient_norm():
    spec = EnsembleSpec(SO3K2, 1.0, "coordinate_norm")
    stats = sample_ensemble(spec, seed=5, n=2000)
    # redo the sampling stream to recover the ambient samples
    from sectint.mc import chunk_rngs, chunk_sizes

    rngs, sizes = chunk_rngs(5, 16), chunk_sizes(2000, 16)
    norms = []
    for rng, size in zip(rngs, sizes):
        x = rng.standard_normal((size, 3, 2))
        norms.append(np.linalg.norm(x.reshape(size, -1), axis=1))
    norms = np.concatenate(norms)
    np.testing.assert_allclose(stats, norms, atol=1e-10)


def test_statistics_weyl_invariant():
    rng = np.random.default_rng(1)
    for action, stat in [(SO3K2, "coordinate_det"), (SO3K2, "coordinate_norm")]:
        spec = EnsembleSpec(action, 1.0, stat)
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
    from sectint.mc import chunk_rngs, chunk_sizes

    spec = EnsembleSpec(action, 1.5, stat, stat_index=1 if stat == "singular_value" else 0)
    oracle = []
    for rng, size in zip(chunk_rngs(8, 16), chunk_sizes(50, 16)):
        for _ in range(size):
            s = reduce_to_section(action, 1.5 * gaussian(action.field, action.n, action.k, rng))
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
    from sectint.mc import chunk_rngs, chunk_sizes

    group = action.group
    oracle = []
    for rng, size in zip(chunk_rngs(8, 16), chunk_sizes(60, 16)):
        for _ in range(size):
            q, _ = gram_schmidt_qr(gaussian(group.field, group.n, group.n, rng))
            if group.family is Family.SO and np.linalg.det(q.data) < 0:
                q.data[:, -1] *= -1.0
            elif group.family is Family.SU:
                q.data[:, -1] *= np.conj(np.linalg.det(q.data))
            oracle.append(_per_point_angles(action, q))
    oracle = np.array(oracle)
    for i in range(oracle.shape[1]):
        stats = sample_ensemble(EnsembleSpec(action, 1.0, "torus_angle", i), seed=8, n=60)
        np.testing.assert_allclose(stats, oracle[:, i], rtol=0, atol=1e-12)


@pytest.mark.parametrize("action", [CONJ_REPLAY[1], ConjugationAction(GroupSpec(Family.SO, 5)),
                                    CONJ_REPLAY[3], CONJ_REPLAY[4]], ids=str)
def test_canonical_angles_match_reduction_on_reference_grid(action):
    # every node of the reference grid, nodes at angle 0 and pi included
    group = action.group
    points = [torus_point(group, a) for a in _torus_grid(group.rank, 96)]
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
    angles = np.concatenate([_torus_grid(group.rank, 96 if group.rank <= 2 else 12),
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
    spec = EnsembleSpec(SO3K2, 1.0, "coordinate_det")
    stats = sample_ensemble(spec, seed=3, n=50_000)
    m_mean = np.mean(stats ** 2)
    m_se = np.std(stats ** 2, ddof=1) / np.sqrt(stats.size)
    rs, rw, _ = spec.action.reference_sample(spec, 4, 2_000_000)
    s_mean = np.sum(rw * rs ** 2)
    assert abs(m_mean - s_mean) <= 4 * m_se


@pytest.mark.parametrize("field, n", [(ScalarField.COMPLEX, 3), (H, 2)])
def test_polar_reference_det_second_moment(field, n):
    # k = 1: |det| of the real section coordinate is |x|, whose second
    # moment under the standard Gaussian on K^n is the real dimension d n
    spec = EnsembleSpec(DirectSumAction(field, n, 1), 1.0, "coordinate_det")
    rs, rw, _ = spec.action.reference_sample(spec, 0, 200_000)
    assert np.sum(rw * rs ** 2) == pytest.approx(field.dim * n, rel=0.05)  # about 5 sigma


def test_reference_weights_normalized():
    for spec in [EnsembleSpec(SO3K2, 1.0, "coordinate_det"), EnsembleSpec(SU2CONJ, 1.0, "torus_angle")]:
        _, w, _ = spec.action.reference_sample(spec, 0, 10_000)
        assert abs(w.sum() - 1.0) < 1e-12
    # the direct-sum draws are exact: each weighs 1 / n_ref, and the
    # effective sample size is their count
    spec = EnsembleSpec(SO3K2, 1.0, "coordinate_det")
    _, w, _ = spec.action.reference_sample(spec, 0, 10_000)
    assert np.all(w == 1.0 / 10_000)
    assert 1.0 / np.sum(w * w) == pytest.approx(10_000, rel=1e-12)


DIRECT_ROWS = [SO3K2] + [DirectSumAction(f, n, k) for f, n, k in
                          [(C, 4, 2), (H, 3, 2), (C, 6, 4), (R, 7, 5), (R, 4, 1), (C, 3, 1), (H, 3, 1)]]


@pytest.mark.parametrize("scale", [1.0, -2.0, 0.5])
@pytest.mark.parametrize("action", DIRECT_ROWS, ids=str)
def test_reference_draws_follow_the_weighted_density(action, scale):
    # the weight ratio of every draw is one constant, and the second moment
    # of |det| is the product of the chi axes' ones, scale^2 d(n - i + 1)
    spec = EnsembleSpec(action, scale, "coordinate_det")
    rs, rw, spread = action.reference_sample(spec, 5, 100_000)
    assert spread <= 1e-10
    d, n, k = action.field.dim, action.n, action.k
    exact = scale ** (2 * k) * np.prod([d * (n - i) for i in range(k)])
    stderr = np.std(rs ** 2, ddof=1) / np.sqrt(rs.size)
    assert abs(np.sum(rw * rs ** 2) - exact) <= 4 * stderr


def test_reference_blocks_extend_the_stream():
    # each block of draws has its own seed, so a longer reference keeps the shorter one as its prefix
    from sectint.actions import REF_BLOCK

    spec = EnsembleSpec(DirectSumAction(H, 3, 2), 1.0, "coordinate_norm")
    short, _, _ = spec.action.reference_sample(spec, 7, REF_BLOCK + 10)
    long, w, _ = spec.action.reference_sample(spec, 7, 2 * REF_BLOCK + 3)
    assert long.shape == w.shape == (2 * REF_BLOCK + 3,)
    np.testing.assert_array_equal(long[:REF_BLOCK], short[:REF_BLOCK])


@pytest.mark.parametrize("stat", ["coordinate_det", "coordinate_norm", "singular_value"])
@pytest.mark.parametrize("action", [DirectSumAction(f, n, k) for f, n, k in
                                    [(R, 3, 2), (C, 4, 2), (H, 3, 2), (R, 4, 1), (C, 3, 1), (H, 3, 1)]], ids=str)
def test_blocked_reference_matches_unblocked_oracle(action, stat):
    # the draws evaluated a row block at a time give the bits of one pass
    # over each seed block: 60000 draws end in a partial row block, the
    # longer references in a partial seed block too
    from sectint.actions import REF_BLOCK

    spec = EnsembleSpec(action, -2.5, stat)
    for n_ref in (60_000, REF_BLOCK + 10, 2 * REF_BLOCK + 3):
        stats, w, spread = spec.action.reference_sample(spec, 9, n_ref)
        o_stats, o_w, o_spread = bartlett_reference_unblocked(spec, 9, n_ref)
        np.testing.assert_array_equal(stats, o_stats)
        np.testing.assert_array_equal(w, o_w)
        assert spread == o_spread


@pytest.mark.parametrize("stat", ["coordinate_det", "coordinate_norm", "singular_value"])
@pytest.mark.parametrize("action", [DirectSumAction(H, 3, 2), DirectSumAction(C, 3, 1)], ids=str)
def test_reference_statistics_match_per_draw_coordinates(action, stat):
    # the batched statistics of the draws equal those of each coordinate R read as a matrix
    from sectint.matrices import from_real_vector

    spec = EnsembleSpec(action, 1.5, stat)
    rs, _, _ = spec.action.reference_sample(spec, 3, 40)
    draws = np.concatenate([z for z, _ in bartlett_draws(action, np.random.default_rng(_subseed(3, 0)), 40)])
    oracle = [_stat_from_coordinate(spec, section_coordinate(action, from_real_vector(action.field, *action.shape, p)))
              for p in action.section_points(1.5 * draws)]
    np.testing.assert_allclose(rs, oracle, rtol=1e-10, atol=0)


@pytest.mark.parametrize("group", [GroupSpec(Family.SU, 2), GroupSpec(Family.SU, 3), GroupSpec(Family.SP, 2)], ids=str)
def test_conjugation_references_use_the_closed_form(monkeypatch, group):
    # rank one bins its masses, higher ranks weigh a reference grid: both with
    # Weyl's closed form, never the generic kernel
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
    cmp_ = compare_densities(EnsembleSpec(ConjugationAction(group), 1.0, "torus_angle"), seed=5, n=2000, bins=10)
    assert len(calls) == 1 and 0.0 <= cmp_.p_value <= 1.0


def test_chi2_direct_sum_det():
    cmp_ = compare_densities(EnsembleSpec(SO3K2, 1.0, "coordinate_det"), seed=22, n=50_000, bins=30)
    assert abs(cmp_.empirical.sum() - 1.0) < 1e-12
    assert abs(cmp_.reference.sum() - 1.0) < 1e-12
    assert cmp_.p_value >= 0.01


def test_chi2_su2_angle():
    cmp_ = compare_densities(EnsembleSpec(SU2CONJ, 1.0, "torus_angle"), seed=22, n=50_000, bins=30)
    assert cmp_.p_value >= 0.01


@pytest.mark.parametrize("group", [GroupSpec(Family.SO, 2), GroupSpec(Family.SO, 3), GroupSpec(Family.SP, 1)], ids=str)
def test_chi2_rank_one_angle(group):
    # SO(2)'s Weyl group is trivial, so its angle and its bins range over [-pi, pi]
    cmp_ = compare_densities(EnsembleSpec(ConjugationAction(group)), seed=22, n=50_000, bins=30)
    assert cmp_.spec.statistic == "torus_angle"
    assert (cmp_.edges[0], cmp_.edges[-1]) == (-np.pi if group.n == 2 else 0.0, np.pi)
    assert cmp_.p_value >= 0.01


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_su2_second_angle_is_binned_on_its_own_range(seed):
    # SU(2)'s angles are (theta, -theta): the second one's test mirrors the first's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = (
            compare_densities(EnsembleSpec(SU2CONJ, 1.0, "torus_angle", index), seed, 2000, 20) for index in (0, 1)
        )
    np.testing.assert_allclose(second.edges, -first.edges[::-1], rtol=0, atol=1e-15)
    np.testing.assert_allclose(second.reference, first.reference[::-1], rtol=1e-12)
    assert second.p_value == pytest.approx(first.p_value, rel=1e-9, abs=0)


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

    cmp_ = compare_densities(EnsembleSpec(action, 1.0, statistic), seed=5, n=2000, bins=20, n_ref=60_000)
    # the closed-form tail agrees with scipy's to rounding level
    assert cmp_.p_value == chi2_tail(cmp_.dof, cmp_.chi2)
    assert cmp_.p_value == pytest.approx(float(stats.chi2.sf(cmp_.chi2, cmp_.dof)), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "action, statistic, n_ref",
    [
        (SO3K2, "coordinate_det", 60_000),
        (DirectSumAction(ScalarField.COMPLEX, 4, 2), "coordinate_det", 6_000),
        (DirectSumAction(H, 3, 1), "coordinate_norm", 10_000),
        (ConjugationAction(GroupSpec(Family.SU, 3)), "torus_angle", None),
    ],
    ids=str,
)
def test_chi2_statistic_from_the_returned_frequencies(action, statistic, n_ref):
    # n_ref equal reference draws add n / n_ref to each bin's variance, so
    # the direct-sum statistic is the plain one over 1 + n / n_ref; the
    # torus grid's masses carry no such noise and keep the plain statistic
    n = 2000
    cmp_ = compare_densities(EnsembleSpec(action, 1.0, statistic), seed=7, n=n, bins=20, n_ref=n_ref)
    obs, exp = _merge_small_bins(np.rint(cmp_.empirical * n), n * cmp_.reference)
    plain = float(np.sum((obs - exp) ** 2 / exp))
    scale = 1.0 + n / n_ref if isinstance(action, DirectSumAction) else 1.0
    assert cmp_.dof == len(obs) - 1
    assert cmp_.chi2 == pytest.approx(plain / scale, rel=1e-12, abs=0)
    assert cmp_.p_value == chi2_tail(cmp_.dof, cmp_.chi2)


@pytest.mark.parametrize("n_ref", [1, 2, 7, 60_000, 90_000])
def test_one_sort_bins_match_quantile_and_histogram(n_ref):
    # the edges are np.quantile's and the masses np.histogram's bit for bit
    # up to its 65536-draw block (n_ref = 90000 is --n 3000's); past it
    # np.histogram adds one cumulative sum per block, and the two sums of
    # n_ref equal weights each round by up to about n_ref eps
    from sectint.actions import _equal_draw_bins

    spec = EnsembleSpec(DirectSumAction(C, 4, 2))
    ref_stats, ref_w, _ = spec.action.reference_sample(spec, 2, n_ref)
    lo, hi = ref_stats.min() - 0.5, ref_stats.max() + 1e-12
    edges, masses = _equal_draw_bins(ref_stats, ref_w, 20, lo, hi)
    oracle = np.quantile(ref_stats, np.linspace(0.0, 1.0, 21))
    oracle[0], oracle[-1] = lo, hi
    oracle_masses, _ = np.histogram(ref_stats, bins=oracle, weights=ref_w)
    np.testing.assert_array_equal(edges, oracle)
    if n_ref <= 65_536:
        np.testing.assert_array_equal(masses, oracle_masses)
    else:
        np.testing.assert_allclose(masses, oracle_masses, rtol=0, atol=n_ref * np.finfo(float).eps)


def test_chi2_tail_matches_scipy():
    # Abramowitz and Stegun 26.4.4-26.4.5 against scipy's incomplete gamma
    from scipy.special import chdtrc

    for dof in range(1, 60):
        for x in np.geomspace(0.01, 400.0, 120):
            assert chi2_tail(dof, float(x)) == pytest.approx(chdtrc(dof, x), rel=1e-12, abs=0)


@pytest.mark.parametrize("dof", [1, 2, 7, 30, 59])
def test_chi2_tail_of_a_huge_statistic_is_zero(dof):
    # the terms start at e^(-x/2) = 0, so no term is 0 * inf
    assert chi2_tail(dof, 1e12) == 0.0
    assert chi2_tail(dof, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_constant_statistic_gives_p_one():
    # a constant statistic puts every sample in one bin, where a chi-square
    # test says nothing, so it is not a statistic of the ensembles
    with pytest.raises(ValueError, match="statistic 'constant' not defined for direct sums"):
        compare_densities(EnsembleSpec(SO3K2, 1.0, "constant"), seed=1, n=2000, bins=10)


@pytest.mark.parametrize("action, statistic", [(SU2CONJ, "coordinate_det"), (SO3K2, "torus_angle")], ids=str)
def test_statistic_refused_when_the_spec_is_built(action, statistic):
    # the kind's statistic table is read before any draw
    with pytest.raises(ValueError, match=f"statistic {statistic!r} not defined"):
        EnsembleSpec(action, 1.0, statistic)


@pytest.mark.parametrize("scale", [7.0, -1.0, 0.5])
def test_conjugation_refuses_a_scale(scale):
    # a scale was ignored on conjugation, whose density is Haar measure
    with pytest.raises(ValueError, match="Haar"):
        EnsembleSpec(SU2CONJ, scale)
    assert EnsembleSpec(SU2CONJ, 1.0).scale == 1.0


@pytest.mark.parametrize("n", [1, 5])
def test_too_few_samples_for_two_bins_rejected(n):
    # fewer than 10 samples cannot fill two bins with an expected count of 5
    with pytest.raises(ValueError, match="at least 2 bins, got 1 after merging"):
        compare_densities(EnsembleSpec(SO3K2), seed=1, n=n, bins=20)


def test_histograms_seed_reproducible():
    a = compare_densities(EnsembleSpec(SO3K2, 1.0, "coordinate_det"), seed=9, n=5000, bins=12)
    b = compare_densities(EnsembleSpec(SO3K2, 1.0, "coordinate_det"), seed=9, n=5000, bins=12)
    np.testing.assert_array_equal(a.empirical, b.empirical)
    np.testing.assert_array_equal(a.reference, b.reference)
    assert a.chi2 == b.chi2


def test_csv_output(tmp_path):
    cmp_ = compare_densities(EnsembleSpec(SO3K2, 1.0, "coordinate_det"), seed=2, n=4000, bins=8)
    path = tmp_path / "hist.csv"
    cmp_.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,empirical,reference"
    assert len(lines) == 9
    row = lines[1].split(",")
    assert len(row) == 4
    float(row[0]), float(row[3])


def test_singular_value_statistic():
    spec = EnsembleSpec(DirectSumAction(H, 3, 2), 1.0, "singular_value", stat_index=0)
    stats = sample_ensemble(spec, seed=7, n=200)
    assert np.all(stats > 0)
    # largest quaternionic singular value bounded by the ambient norm
    assert np.all(stats <= 10.0)
