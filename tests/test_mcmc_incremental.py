"""The engine's incremental mask-flip kriging against fresh full solves.

After every move the padded state of each channel and side (weights, RKHS
norm, inverse of the active Gram block, Carbo inner product) must equal
what `build_field` computes from scratch on the gathered active set.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from fieldalign import kriging, mcmc
from fieldalign.covariance import (
    GAUSSIAN,
    MATERN,
    CovarianceModel,
    gram_cholesky,
    gram_matrix,
    kernel_cross,
)
from fieldalign.geometry import MarkedPointSet, RigidTransform, apply_transform
from fieldalign.kriging import build_field, kriging_solve
from fieldalign.mcmc import Hyperparameters, PairEngine

MODELS = (CovarianceModel(MATERN, rho=0.3, nu=0.5), CovarianceModel(MATERN, rho=0.5, nu=0.5))
TOL = 1e-10


def hyper(**kw):
    base = dict(alpha=10.0, beta=0.1, proposal_sd_rotation=0.1,
                proposal_sd_translation=0.05, n_iterations=100, escape_period=None)
    base.update(kw)
    return Hyperparameters(**base)


def spread_coords(rng, k, m):
    # jittered distinct lattice nodes: no two points closer than 0.15
    axes = np.meshgrid(*[np.arange(5) * 0.25] * m, indexing="ij")
    nodes = np.column_stack([a.ravel() for a in axes])
    return nodes[rng.permutation(len(nodes))[:k]] + rng.uniform(-0.05, 0.05, (k, m))


def random_marks(rng, k, zeros):
    marks = rng.standard_normal(k)
    if zeros:
        marks[rng.random(k) < 0.3] = 0.0
    return marks


def start_mask(rng, k, single):
    if single:
        mask = np.zeros(k, bool)
        mask[rng.integers(k)] = True
        return mask
    mask = rng.random(k) < 0.6
    mask[rng.integers(k)] = True
    return mask


def assert_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=TOL, atol=TOL * scale)


def assert_matches_fresh(engine, sets, ref=None):
    """sets[side][c] is channel c's MarkedPointSet on that side; ref is
    (coords, coeffs) of a frozen reference field."""
    for c, ch in enumerate(engine.channels):
        fields = {}
        for side, mask in (("a", engine.mask_a), ("b", engine.mask_b)):
            if mask is None:
                continue
            kriged = ch.kriged[side]
            assert kriged.pending is None
            fresh = build_field(sets[side][c], mask=mask, model=ch.model)
            fields[side] = fresh
            assert np.all(kriged.w[~mask] == 0.0)
            assert_close(kriged.w[mask], fresh.weights)
            assert_close(kriged.norm, fresh.norm)
            assert_close(ch.coeff[side][mask], fresh.normalized_weights)
            act = np.flatnonzero(mask)
            inv = kriged.inv
            assert np.all(inv[~mask] == 0.0) and np.all(inv[:, ~mask] == 0.0)
            gram = kernel_cross(ch.model, fresh.active_coords, fresh.active_coords)
            assert_close(inv[np.ix_(act, act)], np.linalg.inv(gram))
        moved = apply_transform(
            RigidTransform(engine.euler, engine.translation), fields["b"].active_coords
        )
        if ref is None:
            fa = fields["a"]
            cross = kernel_cross(ch.model, fa.active_coords, moved)
            inner = fa.normalized_weights @ cross @ fields["b"].normalized_weights
        else:
            cross = kernel_cross(ch.model, ref[0], moved)
            inner = ref[1] @ cross @ fields["b"].normalized_weights
        assert_close(ch.inner, inner)
        assert ch.similarity == min(max(ch.inner, -1.0), 1.0)
    h = engine.hyper
    lp_mask = mcmc.mask_log_prior(engine.mask_a, engine.mask_b, engine.coords_a,
                                  engine.coords_b, h.zeta, h.zeta_i, engine.neighbor_delta)
    assert_close(engine.lp_mask, lp_mask)


def accept_all(engine):
    """Accept every proposal whose log-target change is finite (or +inf from
    an infinite current D); the uniform is still drawn, as the engine's own
    rule draws it."""

    def accept(rng, delta):
        rng.uniform()
        return delta > -np.inf

    engine._accept = accept


def drive(engine, rng, n_steps, sides, check):
    """Random flips (all accepted unless degenerate) mixed with rigid moves."""
    accept_all(engine)
    for step in range(n_steps):
        if step % 7 == 3:
            engine.step_rigid(rng, "rotation" if step % 2 else "translation")
        else:
            engine.step_mask(rng, sides[step % len(sides)])
        check()


@st.composite
def problems(draw):
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        m=draw(st.sampled_from([2, 3])),
        k_a=draw(st.integers(1, 12)),
        k_b=draw(st.integers(1, 12)),
        n_channels=draw(st.sampled_from([1, 2])),
        single=draw(st.booleans()),
        zeros=draw(st.booleans()),
    )


@given(problems())
def test_pairwise_flips_match_fresh_solves(p):
    rng = np.random.default_rng(p["seed"])
    m = p["m"]
    coords = {"a": spread_coords(rng, p["k_a"], m), "b": spread_coords(rng, p["k_b"], m)}
    sets = {
        side: [MarkedPointSet(xy, random_marks(rng, len(xy), p["zeros"]))
               for _ in range(p["n_channels"])]
        for side, xy in coords.items()
    }
    models = MODELS[: p["n_channels"]]
    engine = PairEngine.for_pair(sets["a"], sets["b"], models, hyper())
    masks = {side: start_mask(rng, len(xy), p["single"]) for side, xy in coords.items()}
    for _ in range(100):
        try:
            engine.install_state(
                RigidTransform(rng.uniform(-0.3, 0.3, 1 if m == 2 else 3),
                               rng.uniform(-0.1, 0.1, m)),
                masks["a"], masks["b"], tau=1.0,
            )
            break
        except mcmc.DegenerateFieldError:
            masks = {side: start_mask(rng, len(xy), False) for side, xy in coords.items()}
    else:
        return  # every tried start has only zero marks
    assert_matches_fresh(engine, sets)
    drive(engine, rng, 40, ("a", "b"), lambda: assert_matches_fresh(engine, sets))


@given(problems())
def test_frozen_field_flips_match_fresh_solves(p):
    rng = np.random.default_rng(p["seed"])
    m = p["m"]
    ref_coords = spread_coords(rng, p["k_a"], m)
    ref_coeffs = rng.standard_normal(p["k_a"])
    movable = MarkedPointSet(spread_coords(rng, p["k_b"], m), rng.standard_normal(p["k_b"]))
    engine = PairEngine.for_reference_field(ref_coords, ref_coeffs, movable, MODELS[0], hyper())
    engine.install_state(
        RigidTransform.identity(m), None, start_mask(rng, p["k_b"], p["single"]), tau=1.0
    )
    sets = {"b": [movable]}

    def check():
        assert_matches_fresh(engine, sets, ref=(ref_coords, ref_coeffs))

    check()
    drive(engine, rng, 40, ("b",), check)


def test_long_run_crosses_scheduled_rebuilds(monkeypatch):
    calls = []
    real = mcmc._factor_side

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # the engine's factorizations all go through _factor_side (build_field,
    # which the checks call, shares only kriging_solve with it)
    monkeypatch.setattr(mcmc, "_factor_side", counted)
    rng = np.random.default_rng(5)
    sets = {side: [MarkedPointSet(spread_coords(rng, 24, 2), rng.standard_normal(24))]
            for side in "ab"}
    engine = PairEngine.for_pair(sets["a"], sets["b"], MODELS[0], hyper())
    engine.install_state(RigidTransform.identity(2), None, np.ones(24, bool), tau=1.0)
    drive(engine, rng, 700, ("a", "b"), lambda: assert_matches_fresh(engine, sets))
    accepted = sum(engine.counters[f"mask_{s}"][0] for s in "ab")
    rebuilds = len(calls) - 2  # install_state factorizes both sides once
    assert accepted > 4 * mcmc._REBUILD_PERIOD
    assert accepted // mcmc._REBUILD_PERIOD - 2 <= rebuilds <= accepted // mcmc._REBUILD_PERIOD + 2


def test_mask_prior_follows_flips_with_neighbor_term():
    # the prior's unmasked count is kept per side instead of re-summed
    rng = np.random.default_rng(8)
    sets = {side: [MarkedPointSet(spread_coords(rng, 10, 2), rng.standard_normal(10))]
            for side in "ab"}
    engine = PairEngine.for_pair(sets["a"], sets["b"], MODELS[0],
                                 hyper(zeta=3.0, zeta_i=0.5, neighbor_delta=0.4))
    engine.install_state(RigidTransform.identity(2), None, start_mask(rng, 10, True), tau=1.0)
    drive(engine, rng, 200, ("a", "b"), lambda: assert_matches_fresh(engine, sets))
    assert engine.counters["mask_b"][0] > 20


@pytest.mark.parametrize("n", [1, 11, 12, 13, 47, 84, 130])
def test_blockwise_cholesky_inverse_matches_one_solve(n):
    # solve_weights solves a block of columns at a time (several from n = 47)
    rng = np.random.default_rng(n)
    x = rng.uniform(0.0, 1.0, (n, 2))
    chol = np.linalg.cholesky(kernel_cross(MODELS[0], x, x) + 1e-8 * np.eye(n))
    want = cho_solve((chol, True), np.eye(n))
    np.testing.assert_allclose(kriging.solve_weights(chol, np.eye(n)), want,
                               rtol=1e-12, atol=1e-12 * np.abs(want).max())


def plain_factor_side(model, coords, gram, marks, mask):
    """The refactorization as separate solves: Cholesky with the jitter
    ladder, cho_solve for w, cho_solve on the identity a block of columns
    at a time, then the norm from float(w @ z)."""
    act = np.flatnonzero(mask)
    block = np.ix_(act, act)
    chol, jitter = gram_cholesky(model, coords[act], gram=gram[block])
    z = marks[act]
    w_act = cho_solve((chol, True), z)
    n = act.size
    eye = np.eye(n)
    inv_act = np.empty((n, n))
    step = max(1, kriging._SOLVE_BLOCK_ENTRIES // n)
    for i in range(0, n, step):
        inv_act[:, i:i + step] = cho_solve((chol, True), eye[:, i:i + step], check_finite=False)
    w = np.zeros(mask.size)
    w[act] = w_act
    inv = np.zeros((mask.size, mask.size))
    inv[block] = 0.5 * (inv_act + inv_act.T)
    return w, inv, float(w_act @ z), jitter


SOLVE_MODELS = {
    "exponential": CovarianceModel(MATERN, rho=0.3, nu=0.5),
    "matern32": CovarianceModel(MATERN, rho=0.3, nu=1.5),
    "gaussian": CovarianceModel(GAUSSIAN, rho=0.4),
}


@pytest.mark.parametrize("kernel", sorted(SOLVE_MODELS))
@pytest.mark.parametrize("full", [True, False], ids=["full", "partial"])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 47, 84, 130])
def test_one_solve_matches_separate_solves(n, full, kernel):
    # one dpotrs on [z | I], in blocks of at most _SOLVE_BLOCK_ENTRIES
    # entries (one block at n = 31, several above), bit for bit
    model = SOLVE_MODELS[kernel]
    rng = np.random.default_rng(n)
    k = n if full else n + 3
    coords = rng.uniform(0.0, 1.0, (k, 2))
    marks = rng.standard_normal(k)
    mask = np.ones(k, bool)
    if not full:
        mask[rng.permutation(k)[:3]] = False
    gram = gram_matrix(model, coords)
    got = mcmc._factor_side(model, coords, gram, marks, mask)
    w, inv, norm_sq, jitter = plain_factor_side(model, coords, gram, marks, mask)
    assert np.array_equal(got.w, w) and np.array_equal(got.inv, inv)
    assert got.norm == math.sqrt(norm_sq) and got.jitter == jitter
    assert got.inv.flags.c_contiguous
    # build_field's solve, without the inverse
    jitter_f, w_f, norm_sq_f, inv_f = kriging_solve(
        model, coords[mask], marks[mask], gram=gram[np.ix_(mask, mask)]
    )
    assert np.array_equal(w_f, w[mask]) and norm_sq_f == norm_sq
    assert jitter_f == jitter and inv_f is None


def test_one_solve_covers_the_jitter_ladder():
    # the Gaussian Gram at n = 130 needs a diagonal shift
    model = SOLVE_MODELS["gaussian"]
    coords = np.random.default_rng(130).uniform(0.0, 1.0, (130, 2))
    gram = gram_matrix(model, coords)
    assert mcmc._factor_side(model, coords, gram, np.ones(130), np.ones(130, bool)).jitter > 0


def rng_proposing(k, idx):
    """A generator whose next index draw over k points is idx, and the
    generator state right after that draw."""
    rng = np.random.default_rng(1)
    while True:
        start = rng.bit_generator.state
        if int(rng.integers(k)) == idx:
            after_index = rng.bit_generator.state
            rng.bit_generator.state = start
            return rng, after_index


def test_near_duplicate_point_is_refactorized():
    # adding a point 1e-11 from an active one leaves a Schur complement far
    # below the floor; the flip must fall back to a full factorization
    coords = np.array([[0.0, 0.0], [1e-11, 0.0], [0.7, 0.2]])
    ps = MarkedPointSet(coords, np.array([1.0, 1.0, -0.5]))
    engine = PairEngine.for_pair(ps, ps, MODELS[0], hyper())
    engine.install_state(
        RigidTransform.identity(2), np.ones(3, bool), np.array([True, False, True]), tau=1.0
    )
    ch = engine.channels[0]
    assert ch.kriged["b"].flipped(ch.gram["b"], ch.marks["b"], 1, True) is None
    accept_all(engine)
    rng, _ = rng_proposing(3, 1)
    assert engine.step_mask(rng, "b")
    assert engine.mask_b.all()
    fresh = mcmc._factor_side(ch.model, coords, ch.gram["b"], ch.marks["b"], engine.mask_b)
    np.testing.assert_array_equal(ch.kriged["b"].w, fresh.w)
    np.testing.assert_array_equal(ch.kriged["b"].inv, fresh.inv)


def test_flip_to_zero_norm_is_rejected_without_a_draw():
    ps = MarkedPointSet([[0.0, 0.0], [0.6, 0.0]], [1.0, 0.0])
    engine = PairEngine.for_pair(ps, ps, MODELS[0], hyper())
    engine.install_state(RigidTransform.identity(2), None, np.ones(2, bool), tau=1.0)
    ch = engine.channels[0]
    before = ch.kriged["b"].w.copy()
    with pytest.raises(mcmc.DegenerateFieldError):
        ch.kriged["b"].flipped(ch.gram["b"], ch.marks["b"], 0, False)
    rng, after_index = rng_proposing(2, 0)
    assert not engine.step_mask(rng, "b")
    assert rng.bit_generator.state == after_index  # no acceptance uniform drawn
    assert engine.mask_b.all()
    np.testing.assert_array_equal(ch.kriged["b"].w, before)
