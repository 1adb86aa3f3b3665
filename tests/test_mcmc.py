import math

import numpy as np
import pytest

from fieldalign import mcmc
from fieldalign.covariance import MATERN, CovarianceModel
from fieldalign.geometry import (
    MarkedPointSet,
    RigidTransform,
    apply_transform,
    rmsd,
)
from fieldalign.kriging import build_field
from fieldalign.mcmc import (
    EXPONENTIAL,
    HALF_NORMAL,
    ConfigurationError,
    Hyperparameters,
    InitSpec,
    LinearSchedule,
    PairEngine,
    gibbs_update_tau,
    log_likelihood,
    mask_log_prior,
    run_pairwise_alignment,
    run_reference_alignment,
)
from fieldalign.similarity import CarboScore, partial_carbo

MODEL = CovarianceModel(MATERN, rho=0.5, nu=0.5)


def small_pair(seed=7, k=10, m=2):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 1, (k, m))
    marks = rng.standard_normal(k)
    set_a = MarkedPointSet(coords, marks)
    t = RigidTransform([0.3], [0.1, -0.05]) if m == 2 else RigidTransform(
        [0.3, 0.2, -0.4], [0.1, -0.05, 0.2]
    )
    set_b = MarkedPointSet(apply_transform(t, coords), marks)
    return set_a, set_b


def quick_hyper(**kw):
    base = dict(
        alpha=10.0,
        beta=0.1,
        proposal_sd_rotation=0.05,
        proposal_sd_translation=0.02,
        n_iterations=100,
        escape_period=None,
    )
    base.update(kw)
    return Hyperparameters(**base)


class TestLogLikelihood:
    def test_exponential_values(self):
        assert log_likelihood(0.0, 1.0, EXPONENTIAL) == 0.0
        assert abs(log_likelihood(0.5, 2.0, EXPONENTIAL) - (np.log(2.0) - 1.0)) < 1e-12

    def test_half_normal_value(self):
        assert abs(log_likelihood(0.5, 4.0, HALF_NORMAL) - (0.5 * np.log(4.0) - 1.0)) < 1e-12

    def test_infinite_dissimilarity(self):
        assert log_likelihood(np.inf, 3.0, EXPONENTIAL) == -np.inf

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            log_likelihood(0.1, 0.0)


class TestMaskLogPrior:
    def test_flat_when_both_params_one(self):
        coords = np.random.default_rng(0).uniform(0, 1, (4, 2))
        for mask in ([1, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0]):
            v = mask_log_prior(
                np.array(mask, bool), np.array(mask, bool), coords, coords, 1.0, 1.0, 0.5
            )
            assert abs(v - np.log(2.0)) < 1e-12

    def test_penalty_term(self):
        coords = np.zeros((3, 2))
        mask_a = np.array([1, 1, 0], bool)
        mask_b = np.array([1, 0, 0], bool)
        # total unmasked 3; zeta = 2, zeta_i = 1 -> log(2^3 + 1) = log 9
        v = mask_log_prior(mask_a, mask_b, coords, coords, 2.0, 1.0, 0.0)
        assert abs(v - np.log(9.0)) < 1e-12

    def test_zero_zeta_zero_masks_convention(self):
        coords = np.zeros((2, 2))
        zero = np.zeros(2, bool)
        v = mask_log_prior(zero, zero, coords, coords, 0.0, 1.0, 0.5)
        assert abs(v - np.log(2.0)) < 1e-12

    def test_interaction_counts_neighbor_disagreements(self):
        coords = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        mask_a = np.array([1, 0, 1], bool)
        # neighbors: only points 0 and 1 (distance 0.1 < 0.5); they disagree
        v = mask_log_prior(mask_a, None, coords, None, 0.0, 3.0, 0.5)
        # zeta = 0 with 2 unmasked -> first term 0; 3^1 = 3
        assert abs(v - np.log(3.0)) < 1e-12

    def test_large_values_stay_finite(self):
        coords = np.zeros((60, 2))
        ones = np.ones(60, bool)
        v = mask_log_prior(ones, ones, coords, coords, 90.0, 1.0, 0.5)
        assert np.isfinite(v)
        assert abs(v - 120 * np.log(90.0)) < 1e-6

    def test_scalar_logaddexp_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-800.0, 800.0, 200_000)
        y = x + rng.choice([1.0, 1e-12, 30.0, 1e3], x.size) * rng.standard_normal(x.size)
        y[::7] = x[::7]  # equal arguments
        x[::11] = -np.inf
        y[::13] = -np.inf
        x[::17], y[::17] = np.inf, -np.inf
        x[::19] = y[::19] = np.inf
        got = np.array([mcmc._logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
        want = np.array([np.logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert math.isnan(mcmc._logaddexp(math.nan, 1.0))


class TestGibbsTau:
    def test_conjugate_means_quick(self):
        rng = np.random.default_rng(1)
        draws = np.array(
            [gibbs_update_tau(0.02, 31.0, 0.04, rng) for _ in range(20_000)]
        )
        assert abs(draws.mean() - 32.0 / 0.06) / (32.0 / 0.06) < 0.05
        draws = np.array(
            [gibbs_update_tau(0.0, 200.0, 0.05, rng) for _ in range(20_000)]
        )
        assert abs(draws.mean() - 201.0 / 0.05) / (201.0 / 0.05) < 0.05

    def test_positive_always(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            assert gibbs_update_tau(rng.uniform(0, 5), 2.0, 0.5, rng) > 0

    def test_infinite_distance_no_update(self):
        rng = np.random.default_rng(3)
        assert gibbs_update_tau(np.inf, 31.0, 0.04, rng) is None

    def test_half_normal_rate_uses_square(self):
        rng = np.random.default_rng(4)
        draws = np.array(
            [gibbs_update_tau(0.5, 10.0, 0.05, rng, kind=HALF_NORMAL) for _ in range(40_000)]
        )
        expect = 10.5 / 0.3  # shape alpha + 1/2, rate D^2 + beta
        assert abs(draws.mean() - expect) / expect < 0.05


def test_random_draws_the_stream_of_uniform():
    # PairEngine._accept draws rng.random(), the cheaper spelling of
    # rng.uniform(): same values, same generator state afterwards
    a, b = np.random.default_rng(42), np.random.default_rng(42)
    for _ in range(10_000):
        ua, ub = a.uniform(), b.random()
        assert ua == ub and math.copysign(1.0, ua) == math.copysign(1.0, ub)
        assert a.standard_normal() == b.standard_normal()
    assert a.bit_generator.state == b.bit_generator.state


class TestAnnealedTarget:
    """The engine samples the posterior itself, untempered (T = 1): a move
    that changes the log target by delta is accepted when log(u) < delta."""

    def test_identity_at_one(self):
        set_a, set_b = small_pair()
        engine = PairEngine.for_pair(set_a, set_b, MODEL, quick_hyper())
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        got = [engine._accept(rng, -0.7) for _ in range(2_000)]
        want = [math.log(ref.uniform()) < -0.7 for _ in range(2_000)]
        assert got == want


class TestLinearSchedule:
    def test_interpolation_and_settle(self):
        s = LinearSchedule(0.6, 0.2, 1000)
        assert abs(s.value(0) - 0.6) < 1e-15
        assert abs(s.value(500) - 0.4) < 1e-12
        assert s.value(1000) == 0.2
        assert s.value(5000) == 0.2

    def test_weight_schedule_formula(self):
        # w_Q = (N_I - i) / N_I over the initial phase
        s = LinearSchedule(1.0, 0.0, 1500)
        for i in (1, 100, 1499, 1500, 2000):
            assert abs(s.value(i) - max(0.0, (1500 - i) / 1500)) < 1e-12


class TestMhSteps:
    def test_zero_sd_proposal_always_accepted(self):
        set_a, set_b = small_pair()
        hyper = quick_hyper(proposal_sd_rotation=0.0, proposal_sd_translation=0.0)
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        rng = np.random.default_rng(0)
        engine.install_state(
            RigidTransform.identity(2),
            np.ones(set_a.k, bool),
            np.ones(set_b.k, bool),
            tau=5.0,
        )
        state = engine.snapshot()
        for block in ("rotation", "translation"):
            assert engine.step_rigid(rng, block)
            assert abs(engine.snapshot().log_posterior - state.log_posterior) < 1e-9
        assert engine.counters["rotation"][0] == 1  # accepted

    def test_flip_to_empty_mask_rejected(self):
        set_a = MarkedPointSet([[0.0, 0.0]], [1.0])
        set_b = MarkedPointSet([[0.1, 0.0]], [0.9])
        hyper = quick_hyper()
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        rng = np.random.default_rng(1)
        engine.install_state(
            RigidTransform.identity(2), np.ones(1, bool), np.ones(1, bool), tau=2.0
        )
        assert not engine.step_mask(rng, "b")
        assert engine.snapshot().mask_b.any()
        assert engine.counters["mask_b"] == [0, 1]

    def test_uphill_flip_accepted(self):
        # huge zeta: turning a point on raises the prior enormously
        rng = np.random.default_rng(2)
        coords = rng.uniform(0, 1, (2, 2))
        marks = np.array([1.0, 0.8])
        ps = MarkedPointSet(coords, marks)
        hyper = quick_hyper(zeta=1e8, alpha=2.0, beta=1.0)
        engine = PairEngine.for_pair(ps, ps, MODEL, hyper)
        mask = np.array([True, False])
        engine.install_state(RigidTransform.identity(2), mask, mask.copy(), tau=1.0)
        flipped = 0
        for _ in range(20):
            engine.step_mask(rng, "a")
            flipped = max(flipped, engine.snapshot().n_unmasked_a)
        assert flipped == 2

    def test_state_recomputation_consistency(self):
        set_a, set_b = small_pair(seed=11, m=3)
        hyper = quick_hyper(n_iterations=200, burn_in=20)
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.3, translation_range=0.1), 5
        )
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        for state in (res.map_state, res.final_state):
            engine.install_state(state.transform, state.mask_a, state.mask_b, state.tau)
            redo = engine.snapshot()
            assert abs(redo.log_posterior - state.log_posterior) < 1e-9
            assert abs(redo.carbo.dissimilarity - state.carbo.dissimilarity) < 1e-12

    def test_engine_matches_direct_partial_carbo(self):
        set_a, set_b = small_pair(seed=13, m=3)
        hyper = quick_hyper()
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        rng = np.random.default_rng(3)
        mask_a = rng.random(set_a.k) < 0.7
        mask_b = rng.random(set_b.k) < 0.7
        mask_a[0] = mask_b[0] = True
        t = RigidTransform([0.2, -0.1, 0.4], [0.05, 0.0, -0.1])
        engine.install_state(t, mask_a, mask_b, tau=3.0)
        state = engine.snapshot()
        fa = build_field(set_a, mask=mask_a, model=MODEL)
        fb = build_field(set_b, mask=mask_b, model=MODEL)
        direct = partial_carbo(fa, fb, t)
        assert abs(state.carbo.similarity - direct.similarity) < 1e-10
        assert abs(state.carbo.dissimilarity - direct.dissimilarity) < 1e-10


class TestMaskStationaryUniform:
    def test_uniform_over_nonempty_masks_under_flat_posterior(self):
        # degenerate geometry: movable points mutually distant (Gram ~ I),
        # equal marks, reference a single far point -> D barely depends on
        # the mask; with zeta = zeta_i = 1 the stationary mask law is
        # uniform over the 15 nonempty masks of k = 4
        coords_b = np.array(
            [[0.0, 0.0], [50.0, 0.0], [0.0, 50.0], [50.0, 50.0]]
        )
        set_b = MarkedPointSet(coords_b, np.ones(4))
        set_a = MarkedPointSet([[500.0, 500.0]], [1.0])
        hyper = quick_hyper(zeta=1.0, zeta_i=1.0, update_tau=False, tau_init=2.0)
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        rng = np.random.default_rng(9)
        engine.install_state(
            RigidTransform.identity(2), np.ones(1, bool), np.ones(4, bool), tau=2.0
        )
        counts = {}
        sweeps = 60_000
        for _ in range(sweeps):
            engine.step_mask(rng, "b")
            key = tuple(engine.mask_b)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 15
        freqs = np.array([counts[k] for k in sorted(counts)]) / sweeps
        # chi-square against uniform
        expected = sweeps / 15
        chi2 = float(
            sum((c - expected) ** 2 / expected for c in counts.values())
        )
        # 14 dof; generous bound accounts for chain autocorrelation
        assert chi2 / sweeps < 0.01
        assert np.max(np.abs(freqs - 1 / 15)) < 0.01


class TestRunPairwiseAlignment:
    def test_seeded_determinism(self):
        set_a, set_b = small_pair(seed=21)
        hyper = quick_hyper(n_iterations=300, burn_in=30, thin=10)
        init = InitSpec(rotation_range=0.3, translation_range=0.1)
        r1 = run_pairwise_alignment(set_a, set_b, MODEL, hyper, init, 42)
        r2 = run_pairwise_alignment(set_a, set_b, MODEL, hyper, init, 42)
        assert np.array_equal(r1.traces, r2.traces)
        assert r1.plug_in_distance == r2.plug_in_distance
        r3 = run_pairwise_alignment(set_a, set_b, MODEL, hyper, init, 43)
        assert not np.array_equal(r1.traces, r3.traces)

    def test_self_alignment_oracle(self):
        rng0 = np.random.default_rng(7)
        coords = rng0.uniform(0, 1, (12, 2))
        marks = rng0.standard_normal(12)
        set_a = MarkedPointSet(coords, marks)
        t_true = RigidTransform([0.4], [0.15, -0.1])
        set_b = MarkedPointSet(apply_transform(t_true, coords), marks)
        hyper = Hyperparameters(
            alpha=1000.0,
            beta=0.01,
            proposal_sd_rotation=np.radians(0.2),
            proposal_sd_translation=5e-4,
            n_iterations=10_000,
            zeta=1e6,
            update_masks=False,
            escape_period=250,
            escape_scale=10.0,
        )
        init = InitSpec(rotation_range=np.radians(5), translation_range=0.02, mask_p=1.0)
        ok = 0
        for seed in range(6):
            res = run_pairwise_alignment(set_a, set_b, MODEL, hyper, init, seed)
            mapped = apply_transform(res.map_state.transform, set_b.coords)
            if res.plug_in_distance < 1e-3 and rmsd(coords, mapped) < 0.05:
                ok += 1
        assert ok >= 5

    def test_plug_in_distance_matches_map_state(self):
        set_a, set_b = small_pair(seed=23)
        hyper = quick_hyper(n_iterations=200, burn_in=20)
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.2, translation_range=0.05), 1
        )
        assert res.plug_in_distance == res.map_state.carbo.dissimilarity

    def test_map_state_dominates_traces(self):
        set_a, set_b = small_pair(seed=29)
        hyper = quick_hyper(n_iterations=400, burn_in=50, thin=7)
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.2, translation_range=0.05), 2
        )
        cols = list(res.trace_columns)
        it = res.traces[:, cols.index("iteration")]
        lp = res.traces[:, cols.index("log_posterior")]
        post = lp[it > 50]
        assert res.map_state.log_posterior >= post.max() - 1e-9

    def test_restart_exhaustion_flags_failure(self):
        set_a, set_b = small_pair(seed=31)
        hyper = quick_hyper(
            n_iterations=120,
            burn_in=10,
            restart_threshold=-1.0,  # impossible: D >= 0 > -1 always triggers
            restart_check_iter=50,
            max_restarts=2,
        )
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.2, translation_range=0.05), 3
        )
        assert res.failed
        assert res.n_restarts == 2
        # the exhausted last attempt still sweeps to n: a MAP past burn-in
        # and posterior means exist
        assert res.traces[-1, 0] == 120
        assert res.map_state.iteration > 10
        assert np.isfinite(res.mean_tau)

    def test_no_restart_when_threshold_loose(self):
        set_a, set_b = small_pair(seed=37)
        hyper = quick_hyper(
            n_iterations=120,
            burn_in=10,
            restart_threshold=1e9,
            restart_check_iter=50,
            max_restarts=5,
        )
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.2, translation_range=0.05), 3
        )
        assert not res.failed
        assert res.n_restarts == 0

    def test_acceptance_rates_reported(self):
        set_a, set_b = small_pair(seed=41)
        hyper = quick_hyper(n_iterations=150, burn_in=10)
        res = run_pairwise_alignment(
            set_a, set_b, MODEL, hyper, InitSpec(rotation_range=0.2, translation_range=0.05), 4
        )
        for block in ("rotation", "translation", "mask_a", "mask_b"):
            assert 0.0 <= res.acceptance_rates[block] <= 1.0

    def test_two_channel_run_with_weight_schedule(self):
        rng = np.random.default_rng(43)
        coords = rng.uniform(0, 1, (8, 3))
        charge = rng.standard_normal(8)
        radius = rng.uniform(1.0, 2.0, 8)
        a_q = MarkedPointSet(coords, charge)
        a_s = MarkedPointSet(coords, radius)
        t = RigidTransform([0.1, 0.05, -0.1], [0.02, 0.0, 0.01])
        moved = apply_transform(t, coords)
        b_q = MarkedPointSet(moved, charge)
        b_s = MarkedPointSet(moved, radius)
        models = (CovarianceModel(MATERN, rho=1.0, nu=0.5), CovarianceModel(MATERN, rho=0.5, nu=0.5))
        hyper = quick_hyper(
            n_iterations=300,
            burn_in=None,
            weight_schedule=LinearSchedule(1.0, 0.0, 60),
        )
        res = run_pairwise_alignment(
            (a_q, a_s), (b_q, b_s), models, hyper,
            InitSpec(rotation_range=0.2, translation_range=0.05), 6,
        )
        assert np.isfinite(res.plug_in_distance)
        # two channels carry only the combined score, not one inner product
        carbo = res.map_state.carbo
        assert isinstance(carbo, CarboScore)
        assert np.isnan(carbo.inner) and np.isfinite(carbo.dissimilarity)

    def test_reference_field_alignment(self):
        rng = np.random.default_rng(47)
        coords = rng.uniform(0, 1, (8, 2))
        marks = rng.standard_normal(8)
        ref_field = build_field(MarkedPointSet(coords, marks), model=MODEL)
        movable = MarkedPointSet(apply_transform(RigidTransform([0.2], [0.05, 0.0]), coords), marks)
        hyper = quick_hyper(n_iterations=4000, burn_in=400, alpha=100.0, beta=0.2,
                            proposal_sd_rotation=0.02, proposal_sd_translation=0.005)
        res = run_reference_alignment(
            ref_field.active_coords,
            ref_field.normalized_weights,
            movable,
            MODEL,
            hyper,
            RigidTransform.identity(2),
            np.ones(8, bool),
            101,
        )
        assert res.map_state.mask_a is None
        # the movable normalized field can overlap the reference almost fully
        assert res.map_state.carbo.similarity > 0.97

    def test_half_normal_likelihood_run(self):
        set_a, set_b = small_pair(seed=61)
        hyper = quick_hyper(
            n_iterations=300, burn_in=50, likelihood_kind=HALF_NORMAL
        )
        init = InitSpec(rotation_range=0.2, translation_range=0.05)
        res = run_pairwise_alignment(set_a, set_b, MODEL, hyper, init, 12)
        assert np.isfinite(res.plug_in_distance)
        # recomputation consistency holds under the alternative likelihood
        engine = PairEngine.for_pair(set_a, set_b, MODEL, hyper)
        engine.install_state(
            res.map_state.transform,
            res.map_state.mask_a,
            res.map_state.mask_b,
            res.map_state.tau,
        )
        assert abs(engine.snapshot().log_posterior - res.map_state.log_posterior) < 1e-9

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Hyperparameters(
                alpha=0.0, beta=1.0, proposal_sd_rotation=0.1,
                proposal_sd_translation=0.1, n_iterations=10,
            )
        with pytest.raises(ConfigurationError):
            quick_hyper(restart_check_iter=50)  # threshold missing
        with pytest.raises(ConfigurationError):
            quick_hyper(update_tau=False)  # tau_init missing
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"alpha": nan}, {"beta": inf}, {"zeta": nan}, {"zeta_i": inf},
            {"proposal_sd_rotation": nan}, {"proposal_sd_translation": inf},
            {"proposal_sd_translation": -0.1}, {"escape_scale": nan},
            {"escape_scale": 0.0}, {"max_restarts": -3},
            {"restart_check_iter": 50, "restart_threshold": nan},
            {"neighbor_delta": nan}, {"neighbor_delta": -1.0}, {"neighbor_delta": inf},
            {"escape_period": -3}, {"escape_period": 0},
        ):
            with pytest.raises(ConfigurationError):
                quick_hyper(**bad)
        for bad in (
            {"rotation_range": nan}, {"rotation_range": -0.1},
            {"translation_range": inf}, {"mask_p": nan}, {"mask_p": 1.5},
        ):
            with pytest.raises(ConfigurationError):
                InitSpec(**bad)
        # the edges stay valid
        quick_hyper(proposal_sd_rotation=0.0, zeta=0.0, max_restarts=0,
                    neighbor_delta=0.0, escape_period=1)
        InitSpec(rotation_range=0.0, translation_range=0.0, mask_p=1.0)
