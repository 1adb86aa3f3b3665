"""Property tests: rigid transform algebra, Carbo symmetry and bounds, and the
round trip of the configuration embedded in every CLI artifact."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fieldalign.cli import (
    _REQUIRED,
    _SCHEMAS,
    AUTO,
    _artifact_comments,
    build_config,
    load_config_file,
)
from fieldalign.covariance import GAUSSIAN, MATERN, CovarianceModel
from fieldalign.geometry import MarkedPointSet, RigidTransform, n_euler_angles
from fieldalign.kriging import build_field
from fieldalign.similarity import partial_carbo

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def transforms(draw, m):
    euler = draw(st.lists(st.floats(-np.pi, np.pi, **finite),
                          min_size=n_euler_angles(m), max_size=n_euler_angles(m)))
    translation = draw(st.lists(st.floats(-10, 10, **finite), min_size=m, max_size=m))
    return RigidTransform(euler, translation)


@st.composite
def transform_cases(draw):
    m = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    points = np.random.default_rng(seed).uniform(-5, 5, (4, m))
    return draw(transforms(m)), draw(transforms(m)), points


@given(transform_cases())
def test_inverse_round_trips(case):
    t, _, x = case
    np.testing.assert_allclose(t.inverse().apply(t.apply(x)), x, atol=1e-9)
    np.testing.assert_allclose(t.compose(t.inverse()).apply(x), x, atol=1e-9)
    np.testing.assert_allclose(t.inverse().inverse().apply(x), t.apply(x), atol=1e-9)


@given(transform_cases())
def test_compose_applies_other_first(case):
    t1, t2, x = case
    np.testing.assert_allclose(t1.compose(t2).apply(x), t1.apply(t2.apply(x)), atol=1e-9)
    np.testing.assert_allclose(
        t1.compose(t2).inverse().apply(x), t2.inverse().apply(t1.inverse().apply(x)), atol=1e-9
    )


@st.composite
def field_pairs(draw):
    m = draw(st.sampled_from([2, 3]))
    model = draw(st.sampled_from([CovarianceModel(MATERN, rho=0.4, nu=0.5),
                                  CovarianceModel(MATERN, rho=0.4, nu=1.5),
                                  CovarianceModel(GAUSSIAN, rho=0.3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for _ in range(2):
        k = int(rng.integers(1, 9))
        ps = MarkedPointSet(rng.uniform(0, 1, (k, m)), rng.standard_normal(k))
        mask = rng.random(k) < 0.7
        mask[rng.integers(k)] = True
        fields.append(build_field(ps, mask=mask, model=model))
    return fields[0], fields[1], draw(transforms(m))


@given(field_pairs())
def test_carbo_symmetric_under_inverse_and_bounded(case):
    fa, fb, t = case
    forward = partial_carbo(fa, fb, t)
    backward = partial_carbo(fb, fa, t.inverse())
    assert abs(forward.similarity - backward.similarity) < 1e-9
    for score in (forward, backward):
        assert -1.0 <= score.similarity <= 1.0
        # Cauchy-Schwarz before the clip to [-1, 1]
        assert abs(score.inner) <= score.norm_a * score.norm_b * (1 + 1e-9)


# values the config file format can carry: no '#' (comment), no line breaks,
# no surrounding blanks (stripped on reading)
_TEXT = st.text(alphabet="abcxyz0123456789/._-:,", min_size=1, max_size=12)


def _value(typ):
    if typ is bool:
        return st.booleans()
    if typ is int:
        return st.integers(-10**6, 10**6)
    if typ is float:
        return st.floats(-1e6, 1e6, **finite)
    return _TEXT


@st.composite
def configs(draw):
    subcommand = draw(st.sampled_from(sorted(_SCHEMAS)))
    overrides = {}
    for key, (typ, default) in _SCHEMAS[subcommand].items():
        if default is _REQUIRED or draw(st.booleans()):
            choices = [_value(typ)] + ([st.just(AUTO)] if default == AUTO else [])
            overrides[key] = str(draw(st.one_of(choices)))
    return subcommand, build_config(subcommand, {}, overrides, None)


@given(configs())
def test_embedded_config_rebuilds_the_config(tmp_path_factory, case):
    subcommand, config = case
    line = _artifact_comments(config)[0]
    embedded = json.loads(line.removeprefix("config: "))
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in embedded.items()))
    assert build_config(subcommand, load_config_file(path), {}, None) == config
