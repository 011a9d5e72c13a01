"""Property tests: config JSON and record files are derived from the dataclasses."""

import dataclasses
import json
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from lqminimax.harness import (
    ExperimentConfig,
    ExperimentRun,
    TrialRecord,
    config_hash,
    load_records,
    persist,
)
from lqminimax.linmodel import BallSpec, LossSpec

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6)

balls = st.one_of(
    st.builds(BallSpec, st.just(0.0), st.integers(1, 10)),
    st.builds(BallSpec, st.floats(0.0, 1.0).filter(lambda q: q > 0.0), positive),
)
losses = st.lists(
    st.one_of(st.builds(LossSpec, st.just("lp"), st.floats(1.0, 8.0)),
              st.just(LossSpec.prediction())),
    min_size=1, max_size=3,
).map(tuple)
estimators = st.fixed_dictionaries(
    {"kind": st.sampled_from(["l0", "l1", "lq", "lasso"])},
    optional={"s": st.integers(1, 8), "radius": positive, "lam": finite,
              "max_iter": st.integers(1, 10_000)},
)


@st.composite
def configs(draw):
    design_kind = draw(st.sampled_from(
        ["standard_gaussian", "correlated_gaussian", "identity_sequence"]))
    if design_kind == "identity_sequence":
        d_rule = ("proportional", 1.0)
    else:
        d_rule = draw(st.one_of(st.tuples(st.just("fixed"), st.integers(1, 500)),
                                st.tuples(st.just("proportional"), positive)))
    sigma_cov = None
    if design_kind == "correlated_gaussian":
        k = draw(st.integers(1, 3))
        sigma_cov = tuple(tuple(draw(finite) for _ in range(k)) for _ in range(k))
    n_grid = tuple(sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=6))))
    return ExperimentConfig(
        ball=draw(balls), sigma=draw(finite), n_grid=n_grid, estimator=draw(estimators),
        d_rule=d_rule, design_kind=design_kind, sigma_cov=sigma_cov,
        trials_per_cell=draw(st.integers(1, 100)), losses=draw(losses),
        seed_root=draw(st.integers(0, 2**63)),
        beta_pattern=draw(st.sampled_from(["random_support", "first_coordinates"])),
        beta_magnitude=draw(positive),
        beta_magnitude_rule=draw(st.sampled_from(["constant", "threshold_logd"])),
        kappa_exponent=draw(finite), enforce_scaling=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_config_json_round_trip(config):
    doc = json.loads(json.dumps(config.to_json_dict()))
    back = ExperimentConfig.from_json_dict(doc)
    assert back == config
    assert config_hash(back) == config_hash(config)


@settings(max_examples=50, deadline=None)
@given(balls, finite, st.integers(1, 10**6), estimators)
def test_required_keys_alone_give_the_defaults(ball, sigma, n, estimator):
    doc = {"ball": {"q": ball.q, "radius": ball.radius}, "sigma": sigma,
           "n_grid": [n], "estimator": estimator}
    config = ExperimentConfig.from_json_dict(doc)
    assert config == ExperimentConfig(ball=ball, sigma=sigma, n_grid=(n,), estimator=estimator)
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) == f.default, f.name


records = st.builds(
    TrialRecord,
    n=st.integers(1, 10**6), d=st.integers(1, 10**6), trial=st.integers(0, 1000),
    seed=st.integers(0, 2**64 - 1),
    losses=st.dictionaries(st.sampled_from(["l1", "l2", "l1.5", "pred"]),
                           finite, min_size=1),
    objective_ok=st.booleans(), wall_ms=st.floats(0.0, 1e6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(records, max_size=8), st.text("0123456789abcdef", min_size=16, max_size=16),
       st.integers(0, 2**63), st.lists(st.tuples(st.integers(1, 999), st.integers(1, 999))))
def test_records_persist_load_persist_byte_identical(recs, hash_value, seed_root, excluded):
    run = ExperimentRun(records=recs, excluded_cells=excluded, config_hash=hash_value,
                        seed_root=seed_root)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        persist(run, tmp / "a.json", format="json")
        back = load_records(tmp / "a.json")
        assert back.records == recs
        persist(back, tmp / "b.json", format="json")
        assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
        persist(run, tmp / "a.csv", format="csv")
        persist(back, tmp / "b.csv", format="csv")
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
