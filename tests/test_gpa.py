import numpy as np
import pytest

from fieldalign.covariance import MATERN, CovarianceModel
from fieldalign.geometry import (
    MarkedPointSet,
    RigidTransform,
    apply_transform,
    wrap_angles,
)
from fieldalign.kriging import EmptyFieldError, build_field
from fieldalign.mcmc import Hyperparameters, InitSpec
from fieldalign.similarity import partial_carbo
from fieldalign import gpa
from fieldalign.gpa import (
    GpaConfig,
    group_mean_field,
    leave_one_out_similarity,
    mean_field_excluding,
    multi_carbo,
    run_field_gpa,
)

MODEL = CovarianceModel(MATERN, rho=0.5, nu=0.5)


def random_instance(rng, n=4, k=7, m=2):
    sets = []
    transforms = []
    masks = []
    for _ in range(n):
        coords = rng.uniform(0, 1, (k, m))
        sets.append(MarkedPointSet(coords, rng.standard_normal(k)))
        transforms.append(
            RigidTransform(
                wrap_angles(rng.uniform(-np.pi, np.pi, m * (m - 1) // 2)),
                rng.normal(size=m) * 0.3,
            )
        )
        mask = rng.random(k) < 0.75
        if not mask.any():
            mask[0] = True
        masks.append(mask)
    return sets, transforms, masks


def placed_fields(sets, transforms, masks):
    return [
        build_field(ps, mask=mask, model=MODEL).transformed(t)
        for ps, t, mask in zip(sets, transforms, masks)
    ]


class TestMultiCarbo:
    def test_two_sets_equals_pairwise_similarity(self):
        rng = np.random.default_rng(0)
        sets, transforms, masks = random_instance(rng, n=2)
        c = multi_carbo(sets, transforms, masks, MODEL)
        fa = build_field(
            sets[0].with_coords(transforms[0].apply(sets[0].coords)),
            mask=masks[0],
            model=MODEL,
        )
        fb = build_field(
            sets[1].with_coords(transforms[1].apply(sets[1].coords)),
            mask=masks[1],
            model=MODEL,
        )
        assert abs(c - partial_carbo(fa, fb).similarity) < 1e-10

    def test_identical_sets_score_n_choose_2(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 1, (6, 2))
        marks = rng.standard_normal(6)
        n = 4
        sets = [MarkedPointSet(coords, marks) for _ in range(n)]
        transforms = [RigidTransform.identity(2) for _ in range(n)]
        masks = [np.ones(6, bool) for _ in range(n)]
        c = multi_carbo(sets, transforms, masks, MODEL)
        assert abs(c - n * (n - 1) / 2) < 1e-9

    def test_invariant_under_common_rigid_motion(self):
        rng = np.random.default_rng(2)
        sets, transforms, masks = random_instance(rng, n=3, m=3)
        base = multi_carbo(sets, transforms, masks, MODEL)
        common = RigidTransform(
            wrap_angles(rng.uniform(-np.pi, np.pi, 3)), rng.normal(size=3)
        )
        moved = [common.compose(t) for t in transforms]
        assert abs(multi_carbo(sets, moved, masks, MODEL) - base) < 1e-9

    def test_empty_mask_rejected(self):
        rng = np.random.default_rng(3)
        sets, transforms, masks = random_instance(rng, n=3)
        masks[1] = np.zeros(sets[1].k, bool)
        with pytest.raises(EmptyFieldError):
            multi_carbo(sets, transforms, masks, MODEL)

    def test_needs_two_sets(self):
        rng = np.random.default_rng(4)
        sets, transforms, masks = random_instance(rng, n=1)
        with pytest.raises(ValueError):
            multi_carbo(sets, transforms, masks, MODEL)


class TestLeaveOneOut:
    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 5, 6):
            sets, transforms, masks = random_instance(rng, n=n)
            c = multi_carbo(sets, transforms, masks, MODEL)
            total = sum(
                leave_one_out_similarity(i, sets, transforms, masks, MODEL)
                for i in range(n)
            )
            assert abs(total - 2.0 * c / (n - 1)) < 1e-9

    def test_two_sets_both_sides_equal_pairwise(self):
        rng = np.random.default_rng(6)
        sets, transforms, masks = random_instance(rng, n=2)
        c0 = leave_one_out_similarity(0, sets, transforms, masks, MODEL)
        c1 = leave_one_out_similarity(1, sets, transforms, masks, MODEL)
        pair = multi_carbo(sets, transforms, masks, MODEL)
        assert abs(c0 - pair) < 1e-10
        assert abs(c1 - pair) < 1e-10

    def test_single_point_mask_reduces_to_row_sum(self):
        rng = np.random.default_rng(7)
        sets, transforms, masks = random_instance(rng, n=3)
        masks[0] = np.zeros(sets[0].k, bool)
        masks[0][2] = True
        c = leave_one_out_similarity(0, sets, transforms, masks, MODEL)
        # brute force: normalized single-point field dotted with the mean field
        mf = mean_field_excluding(0, placed_fields(sets, transforms, masks))
        x = transforms[0].apply(sets[0].coords[2])
        sign = np.sign(sets[0].marks[2])
        assert abs(c - sign * mf.evaluate(x)) < 1e-10

    def test_mean_field_evaluation_matches_stacked_form(self):
        rng = np.random.default_rng(8)
        sets, transforms, masks = random_instance(rng, n=4)
        mf = mean_field_excluding(1, placed_fields(sets, transforms, masks))
        pts = rng.uniform(0, 1, (6, 2))
        direct = np.zeros(6)
        for j in (0, 2, 3):
            f = build_field(sets[j], mask=masks[j], model=MODEL)
            moved = f.transformed(transforms[j])
            direct += moved.predict(pts) / moved.norm
        direct /= 3.0
        assert np.max(np.abs(mf.evaluate(pts) - direct)) < 1e-12


class TestGroupMeanField:
    def test_singleton_group_is_normalized_member(self):
        rng = np.random.default_rng(9)
        sets, transforms, masks = random_instance(rng, n=3)
        mf = group_mean_field(sets, transforms, masks, MODEL, [1])
        f = build_field(sets[1], mask=masks[1], model=MODEL).transformed(transforms[1])
        pts = rng.uniform(0, 1, (5, 2))
        assert np.max(np.abs(mf.evaluate(pts) - f.predict(pts) / f.norm)) < 1e-12

    def test_identical_members_average_to_same(self):
        rng = np.random.default_rng(10)
        coords = rng.uniform(0, 1, (5, 2))
        marks = rng.standard_normal(5)
        sets = [MarkedPointSet(coords, marks)] * 2
        transforms = [RigidTransform.identity(2)] * 2
        masks = [np.ones(5, bool)] * 2
        pair = group_mean_field(sets, transforms, masks, MODEL, [0, 1])
        single = group_mean_field(sets, transforms, masks, MODEL, [0])
        pts = rng.uniform(0, 1, (5, 2))
        assert np.max(np.abs(pair.evaluate(pts) - single.evaluate(pts))) < 1e-12

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(11)
        sets, transforms, masks = random_instance(rng, n=3)
        with pytest.raises(ValueError):
            group_mean_field(sets, transforms, masks, MODEL, [])


def quick_gpa_config(tol=1e-3, max_passes=6, iterations=600):
    step1 = Hyperparameters(
        alpha=200.0,
        beta=0.02,
        zeta=50.0,
        proposal_sd_rotation=0.03,
        proposal_sd_translation=0.01,
        n_iterations=1500,
        burn_in=300,
    )
    refine = Hyperparameters(
        alpha=300.0,
        beta=0.005,
        zeta=50.0,
        proposal_sd_rotation=0.02,
        proposal_sd_translation=0.005,
        n_iterations=iterations,
        burn_in=iterations // 5,
        escape_period=None,
    )
    init = InitSpec(rotation_range=0.3, translation_range=0.1, mask_p=1.0)
    return GpaConfig(
        step1_hyper=step1, step1_init=init, refine_hyper=refine,
        tol=tol, max_passes=max_passes,
    )


class TestRunFieldGpa:
    def test_two_identical_sets_converge_to_full_similarity(self):
        rng = np.random.default_rng(12)
        coords = rng.uniform(0, 1, (8, 2))
        marks = rng.standard_normal(8)
        set_a = MarkedPointSet(coords, marks)
        t = RigidTransform([0.3], [0.1, -0.1])
        set_b = MarkedPointSet(apply_transform(t, coords), marks)
        # high-precision profile, full masks held: step 1 solves the pair
        # almost exactly and the leave-one-out pass confirms convergence
        step1 = Hyperparameters(
            alpha=1000.0, beta=0.01,
            proposal_sd_rotation=np.radians(0.2), proposal_sd_translation=5e-4,
            n_iterations=10_000, zeta=1e6, update_masks=False,
            escape_period=250, escape_scale=10.0,
        )
        refine = Hyperparameters(
            alpha=1000.0, beta=0.01,
            proposal_sd_rotation=np.radians(0.1), proposal_sd_translation=3e-4,
            n_iterations=600, zeta=1e6, update_masks=False, escape_period=None,
        )
        config = GpaConfig(
            step1_hyper=step1,
            step1_init=InitSpec(rotation_range=np.radians(25), translation_range=0.12, mask_p=1.0),
            refine_hyper=refine,
            tol=1e-3,
            max_passes=4,
        )
        state, results = run_field_gpa([set_a, set_b], MODEL, config, 3)
        assert state.multi_carbo > 1.0 - 1e-3
        assert len(results) == 2
        assert state.iteration <= 2

    def test_tol_infinite_runs_single_pass(self):
        rng = np.random.default_rng(13)
        sets, _transforms, _masks = random_instance(rng, n=3, k=6)
        config = quick_gpa_config(tol=np.inf, iterations=150)
        state, _ = run_field_gpa(list(sets), MODEL, config, 5)
        assert state.iteration == 1
        assert state.converged

    def test_criterion_history_mostly_non_decreasing(self):
        # the stochastic optimizer should improve the criterion pass over pass
        rng = np.random.default_rng(14)
        coords = rng.uniform(0, 1, (7, 2))
        marks = rng.standard_normal(7)
        sets = []
        for _ in range(3):
            t = RigidTransform(
                wrap_angles(rng.uniform(-0.5, 0.5, 1)), rng.normal(size=2) * 0.1
            )
            noisy = marks + 0.05 * rng.standard_normal(7)
            sets.append(MarkedPointSet(apply_transform(t, coords), noisy))
        improved = 0
        total = 0
        for seed in range(3):
            state, _ = run_field_gpa(sets, MODEL, quick_gpa_config(max_passes=3, tol=1e-6), seed)
            h = state.criterion_history
            total += len(h) - 1
            improved += sum(1 for a, b in zip(h, h[1:]) if b >= a - 1e-6)
        assert improved / total >= 0.65

    def test_each_chain_rekrigs_only_its_own_field(self, monkeypatch):
        # n fields after step 1, then one rebuild per chain: n + n * passes
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return build_field(*args, **kwargs)

        monkeypatch.setattr(gpa, "build_field", counting)
        rng = np.random.default_rng(16)
        sets, _transforms, _masks = random_instance(rng, n=4, k=6)
        config = quick_gpa_config(tol=0.0, max_passes=3, iterations=60)
        state, _ = run_field_gpa(sets, MODEL, config, 2)
        assert state.iteration == 3
        assert len(calls) == 4 + 4 * 3

    def test_smallest_set_is_reference(self):
        rng = np.random.default_rng(15)
        coords_small = rng.uniform(0, 1, (4, 2))
        marks_small = rng.standard_normal(4)
        small = MarkedPointSet(coords_small, marks_small)
        big_coords = np.vstack([coords_small, rng.uniform(0, 1, (4, 2))])
        big_marks = np.concatenate([marks_small, rng.standard_normal(4)])
        big = MarkedPointSet(big_coords, big_marks)
        config = quick_gpa_config(tol=np.inf, iterations=150)
        state, _ = run_field_gpa([big, small, big], MODEL, config, 9)
        # the reference (index 1, smallest) keeps roughly the identity frame
        # through step 1
        assert len(state.transforms) == 3
