import numpy as np
import pytest

from scipy.spatial.distance import cdist

from fieldalign.covariance import MATERN, CovarianceModel, gram_matrix, kernel_value
from fieldalign.geometry import rmsd
from fieldalign.kriging import build_field
from fieldalign.similarity import partial_carbo
from fieldalign.simulation import (
    DEFAULT_REFERENCE_COORDS,
    GenerationError,
    Sim2DConfig,
    Sim3DConfig,
    generate_pair_2d,
    generate_pair_3d,
    grid_coords_2d,
    run_success_study,
    sample_grf,
    sim2d_hyper,
    sim3d_hyper,
    write_records,
)


class TestSampleGrf:
    def test_single_point_standard_normal(self):
        model = CovarianceModel(MATERN, rho=1.0, nu=0.5)
        rng = np.random.default_rng(0)
        draws = np.array(
            [sample_grf(model, [[0.0, 0.0]], rng)[0] for _ in range(4000)]
        )
        assert abs(draws.mean()) < 3 * draws.std() / np.sqrt(len(draws)) + 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_covariance_law(self):
        model = CovarianceModel(MATERN, rho=0.5, nu=1.0)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (5, 2))
        sigma = gram_matrix(model, pts)
        draws = np.array([sample_grf(model, pts, rng) for _ in range(10_000)])
        emp = np.cov(draws.T)
        assert np.max(np.abs(emp - sigma)) < 0.05 * np.max(np.abs(sigma))

    def test_mean_zero(self):
        model = CovarianceModel(MATERN, rho=0.5, nu=1.0)
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (5, 2))
        draws = np.array([sample_grf(model, pts, rng) for _ in range(5000)])
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) < 3.5 * se)

    def test_lattice_draw_matches_plain_cholesky(self):
        # the generating field of the 2D study, against the full-matrix path
        model = Sim2DConfig().gen_model
        grid = grid_coords_2d()
        chol = np.linalg.cholesky(kernel_value(model, cdist(grid, grid)))
        z = np.random.default_rng(123).standard_normal(grid.shape[0])
        assert np.array_equal(sample_grf(model, grid, np.random.default_rng(123)), chol @ z)

    def test_seeded_determinism(self):
        model = CovarianceModel(MATERN, rho=0.5, nu=1.0)
        pts = np.random.default_rng(3).uniform(0, 1, (8, 2))
        z1 = sample_grf(model, pts, np.random.default_rng(77))
        z2 = sample_grf(model, pts, np.random.default_rng(77))
        assert np.array_equal(z1, z2)

    def test_permutation_consistency(self):
        # permuting the points permutes the draw when the generator state
        # matches and the Cholesky is applied to permuted coordinates
        model = CovarianceModel(MATERN, rho=0.4, nu=0.5)
        pts = np.random.default_rng(4).uniform(0, 1, (6, 2))
        z = sample_grf(model, pts, np.random.default_rng(5))
        sigma = gram_matrix(model, pts)
        # law check instead of pathwise: quadratic form has expectation k
        val = z @ np.linalg.solve(sigma, z)
        assert 0.05 < val < 30.0


class TestGrid2D:
    def test_unit_square_lattice(self):
        grid = grid_coords_2d()
        assert grid.shape == (961, 2)
        assert grid.min() == 0.0 and grid.max() == 1.0
        # regular spacing 1/30
        xs = np.unique(grid[:, 0])
        assert len(xs) == 31
        assert np.allclose(np.diff(xs), 1.0 / 30.0)


class TestGeneratePair2D:
    def test_shapes_and_mask_layout(self):
        config = Sim2DConfig(k_true=80, contamination_fraction=0.05, kappa=1)
        rng = np.random.default_rng(6)
        pair = generate_pair_2d(config, rng)
        assert pair.set_a.k == 84 and pair.set_b.k == 84
        assert pair.true_mask_a[:80].all() and not pair.true_mask_a[80:].any()

    def test_contamination_mark_range(self):
        config = Sim2DConfig(k_true=40, contamination_fraction=0.15, kappa=4)
        rng = np.random.default_rng(7)
        pair = generate_pair_2d(config, rng)
        cont = pair.set_b.marks[40:]
        assert len(cont) == 6
        assert np.all(np.abs(cont) <= 7.0)

    @pytest.mark.parametrize("kappa", [0, 1, 4])
    def test_neighborhood_union_matches_box_loop(self, kappa):
        from fieldalign.simulation import GRID_N, _neighborhood_union

        def box_loop(node_indices, n=GRID_N):
            hits = set()
            for idx in node_indices:
                i, j = divmod(int(idx), n)
                for ii in range(max(0, i - kappa), min(n - 1, i + kappa) + 1):
                    for jj in range(max(0, j - kappa), min(n - 1, j + kappa) + 1):
                        hits.add(ii * n + jj)
            return np.array(sorted(hits), dtype=int)

        last = GRID_N - 1
        corners = [0, last, last * GRID_N, GRID_N * GRID_N - 1]
        edges = [7, 3 * GRID_N, 5 * GRID_N + last, last * GRID_N + 20]
        rng = np.random.default_rng(kappa)
        for nodes in ([0], corners, edges, corners + edges + [15 * GRID_N + 15],
                      rng.choice(GRID_N * GRID_N, 60, replace=False)):
            np.testing.assert_array_equal(_neighborhood_union(nodes, kappa), box_loop(nodes))

    def test_kappa_one_box_counts(self):
        # an interior grid node has a full 3x3 neighborhood under kappa = 1
        from fieldalign.simulation import _neighborhood_union

        interior = np.array([15 * 31 + 15])
        box = _neighborhood_union(interior, kappa=1)
        assert box.shape[0] == 9
        corner = np.array([0])
        assert _neighborhood_union(corner, kappa=1).shape[0] == 4

    def test_true_masks_score_better_than_full(self):
        # at the true relative position, masking contamination improves the
        # Carbo similarity for most draws
        model = CovarianceModel(MATERN, rho=0.2, nu=1.0)
        config = Sim2DConfig(k_true=40, contamination_fraction=0.15, kappa=1)
        grid = grid_coords_2d()
        rng = np.random.default_rng(10)
        wins = 0
        trials = 30
        for _ in range(trials):
            z = sample_grf(config.gen_model, grid, rng)
            pair = generate_pair_2d(config, rng, field_values=z)
            fa_true = build_field(pair.set_a, mask=pair.true_mask_a, model=model)
            fb_true = build_field(pair.set_b, mask=pair.true_mask_b, model=model)
            fa_full = build_field(pair.set_a, model=model)
            fb_full = build_field(pair.set_b, model=model)
            s_true = partial_carbo(fa_true, fb_true).similarity
            s_full = partial_carbo(fa_full, fb_full).similarity
            wins += s_true > s_full
        assert wins >= 0.9 * trials

    def test_validation_of_benchmark_sets(self):
        with pytest.raises(ValueError):
            Sim2DConfig(k_true=55)
        with pytest.raises(ValueError):
            Sim2DConfig(contamination_fraction=0.2)

    def test_seeded_determinism(self):
        config = Sim2DConfig()
        p1 = generate_pair_2d(config, np.random.default_rng(42))
        p2 = generate_pair_2d(config, np.random.default_rng(42))
        assert np.array_equal(p1.set_a.coords, p2.set_a.coords)
        assert np.array_equal(p1.set_b.marks, p2.set_b.marks)


class TestGeneratePair3D:
    def test_shapes_and_truth(self):
        config = Sim3DConfig()
        rng = np.random.default_rng(11)
        pair = generate_pair_3d(config, DEFAULT_REFERENCE_COORDS, rng)
        assert pair.set_a.k == 25 and pair.set_b.k == 25
        assert pair.truth_b.shape == (25, 3)
        assert rmsd(pair.truth_b[:20], pair.truth_b[:20]) == 0.0

    def test_marks_match_before_contamination(self):
        config = Sim3DConfig(n_contaminated=0)
        rng = np.random.default_rng(12)
        pair = generate_pair_3d(config, DEFAULT_REFERENCE_COORDS, rng)
        # paired points are 0.01 apart; a rho=5 exponential field is almost
        # perfectly correlated at that distance
        assert np.max(np.abs(pair.set_a.marks - pair.set_b.marks)) < 0.35
        assert np.corrcoef(pair.set_a.marks, pair.set_b.marks)[0, 1] > 0.98

    def test_truth_aligns_with_set_a_frame(self):
        # uncontaminated A atoms should sit within a whisker of truth_b
        config = Sim3DConfig()
        rng = np.random.default_rng(13)
        pair = generate_pair_3d(config, DEFAULT_REFERENCE_COORDS, rng)
        dev = rmsd(pair.set_a.coords[:20], pair.truth_b[:20])
        # A was centered on its contaminated centroid, so the frames differ
        # by that centroid shift only
        assert dev < 3.0

    def test_centered_sets(self):
        config = Sim3DConfig()
        rng = np.random.default_rng(14)
        pair = generate_pair_3d(config, DEFAULT_REFERENCE_COORDS, rng)
        assert np.max(np.abs(pair.set_a.coords.mean(axis=0))) < 1e-10
        assert np.max(np.abs(pair.set_b.coords.mean(axis=0))) < 1e-10

    def test_uniform_rotation_covers_sphere(self):
        # images of a fixed unit vector should spread over the sphere: the
        # resultant length of n uniform directions is ~ sqrt(n), far below n
        from fieldalign.geometry import random_rotation

        rng = np.random.default_rng(15)
        v = np.array([1.0, 0.0, 0.0])
        images = np.array([random_rotation(rng, 3) @ v for _ in range(1000)])
        resultant = np.linalg.norm(images.sum(axis=0))
        assert resultant < 3.0 * np.sqrt(1000)
        # and each octant is visited
        signs = {tuple(np.sign(im).astype(int)) for im in images}
        assert len(signs) == 8

    def test_insufficient_reference(self):
        config = Sim3DConfig()
        rng = np.random.default_rng(16)
        with pytest.raises(GenerationError):
            generate_pair_3d(config, DEFAULT_REFERENCE_COORDS[:10], rng)


class TestHyperProfiles:
    def test_sim2d_profile_values(self):
        h = sim2d_hyper(50.0)
        assert h.alpha == 200.0 and h.beta == 0.05
        assert abs(h.proposal_sd_rotation - np.radians(0.75)) < 1e-12
        assert h.proposal_sd_translation == 0.01
        assert h.n_iterations == 50_000
        assert h.restart_check_iter == 7_500
        assert h.restart_threshold == 0.3
        assert h.escape_period == 125
        assert h.range_schedule.start == 0.6 and h.range_schedule.end == 0.2
        assert h.range_schedule.n_iterations == 1_000

    def test_sim3d_profile_values(self):
        h = sim3d_hyper(0.04, 70.0)
        assert h.alpha == 31.0
        assert h.restart_check_iter == 1_000 and h.max_restarts == 30
        assert h.restart_threshold == 0.1
        assert h.range_schedule.start == 20.0 and h.range_schedule.end == 5.0
        assert h.n_iterations == 2_000

    def test_smoke_scaling(self):
        h = sim2d_hyper(10.0, n_iterations=500)
        assert h.n_iterations == 500
        assert h.restart_check_iter == 75


class TestStudyDriver:
    def test_smoke_3d_study_records(self, tmp_path):
        recs = run_success_study(
            "sim3d",
            replications=2,
            hyper_grid=[(0.04, 50.0)],
            rng_seed=5,
            workers=1,
            n_iterations=60,
        )
        assert len(recs) == 2
        for r in recs:
            assert set(r) >= {
                "rmsd",
                "success",
                "n_restarts",
                "failed",
                "unmasked_a_final",
                "unmasked_b_final",
            }
        write_records(tmp_path / "records.tsv", recs)
        text = (tmp_path / "records.tsv").read_text().splitlines()
        assert len(text) == 3

    def test_smoke_2d_study_deterministic_and_worker_invariant(self):
        kw = dict(
            replications=1,
            hyper_grid=[10.0],
            rng_seed=9,
            n_iterations=50,
            n_fields=1,
            cells=[(40, 0.05, 1)],
        )
        r1 = run_success_study("setting1", workers=1, **kw)
        r2 = run_success_study("setting1", workers=2, **kw)
        assert len(r1) == 1
        strip = lambda recs: [
            {k: v for k, v in r.items() if k != "field"} for r in recs
        ]
        assert strip(r1) == strip(r2)

    def test_3d_pairing_shares_data_across_cells(self):
        r = run_success_study(
            "sim3d",
            replications=2,
            hyper_grid=[(0.04, 10.0), (0.04, 70.0)],
            rng_seed=11,
            workers=1,
            n_iterations=40,
        )
        # same replication index -> same generated pair; the rmsd of the
        # start differs only through the chain, but the data seed is shared,
        # which we can observe through identical truth-independent fields:
        # check record keys and counts instead (data identity is internal)
        reps = {(rec["zeta"], rec["replication"]) for rec in r}
        assert reps == {(10.0, 0), (10.0, 1), (70.0, 0), (70.0, 1)}
