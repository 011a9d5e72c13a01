"""Property tests: config JSON and record files are derived from the dataclasses."""

import dataclasses
import json
import pathlib
import tempfile

import numpy as np
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
# admissible noise levels; threshold_logd scales the truth by sigma, so it needs sigma > 0
noise_levels = st.floats(min_value=0.0, allow_infinity=False)


def balls_within(d: int):
    """Balls a grid whose smallest dimension is d admits: a q = 0 budget is at most d."""
    return st.one_of(
        st.builds(BallSpec, st.just(0.0), st.integers(1, min(10, d))),
        st.builds(BallSpec, st.floats(0.0, 1.0).filter(lambda q: q > 0.0), positive),
    )


balls = balls_within(10)
losses = st.lists(
    st.one_of(st.builds(LossSpec, st.just("lp"), st.floats(1.0, 8.0)),
              st.just(LossSpec.prediction())),
    min_size=1, max_size=3,
).map(tuple)
# a config rejects an estimator dict without the key its kind reads, with a key its
# kind does not take (l0 takes no max_iter or tol), or with an inadmissible value:
# an l0 s outside [1, d], a radius <= 0, a negative lam or tol
required_keys = {"l0": ("s",), "l1": ("radius",), "lq": (), "lasso": ("lam",)}


def estimators_within(d: int):
    """Estimator dicts a grid whose smallest dimension is d admits."""
    keys = {"s": st.integers(1, min(8, d)), "radius": positive,
            "lam": st.floats(min_value=0.0, allow_infinity=False),
            "max_iter": st.integers(1, 10_000), "tol": st.floats(0.0, 1.0)}
    return st.sampled_from(sorted(required_keys)).flatmap(lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind), **{key: keys[key] for key in required_keys[kind]}},
        optional={key: keys[key] for key in ("max_iter", "tol") if kind != "l0"},
    ))


estimators = estimators_within(32)  # the default d_rule fixes d = 32


@st.composite
def configs(draw):
    design_kind = draw(st.sampled_from(["standard_gaussian", "correlated_gaussian"]))
    n_grid = tuple(sorted(draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=6))))
    sigma_cov = None
    # a config checks every grid dimension when it is built, so d_rule gives d >= 1
    # at the smallest n, d_min, and a q = 0 ball's budget is at most d_min
    if design_kind == "correlated_gaussian":
        # a config checks Sigma when it is built: PSD Sigma = A A^T, exactly
        # symmetric as each entry sums the same products, and d fixed at its size
        k = draw(st.integers(1, 3))
        a = [[draw(st.floats(-1e3, 1e3)) for _ in range(k)] for _ in range(k)]
        sigma_cov = tuple(tuple(sum(x * y for x, y in zip(a[i], a[j])) for j in range(k))
                          for i in range(k))
        d_rule = ("fixed", k)
        d_min = k
    else:
        d_rule = draw(st.one_of(
            st.tuples(st.just("fixed"), st.integers(1, 500)),
            st.tuples(st.just("proportional"), st.floats(1.0 / n_grid[0], 1e6))))
        kind, value = d_rule
        d_min = value if kind == "fixed" else int(round(value * n_grid[0]))
    rule = draw(st.sampled_from(["constant", "threshold_logd"]))
    sigma = draw(positive if rule == "threshold_logd" else noise_levels)
    return ExperimentConfig(
        ball=draw(balls_within(d_min)), sigma=sigma, n_grid=n_grid,
        estimator=draw(estimators_within(d_min)),
        d_rule=d_rule, design_kind=design_kind, sigma_cov=sigma_cov,
        trials_per_cell=draw(st.integers(1, 100)), losses=draw(losses),
        seed_root=draw(st.integers(0, 2**63)),
        beta_pattern=draw(st.sampled_from(["random_support", "first_coordinates"])),
        beta_magnitude=draw(positive),
        beta_magnitude_rule=rule,
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
@given(balls, noise_levels, st.integers(1, 10**6), estimators)
def test_required_keys_alone_give_the_defaults(ball, sigma, n, estimator):
    doc = {"ball": {"q": ball.q, "radius": ball.radius}, "sigma": sigma,
           "n_grid": [n], "estimator": estimator}
    config = ExperimentConfig.from_json_dict(doc)
    assert config == ExperimentConfig(ball=ball, sigma=sigma, n_grid=(n,), estimator=estimator)
    for f in dataclasses.fields(ExperimentConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) == f.default, f.name


@st.composite
def integral_configs(draw):
    """The numbers of an admissible config, every one an integer, and its names."""
    n_grid = sorted(draw(st.sets(st.integers(1, 10**4), min_size=1, max_size=4)))
    k = draw(st.integers(1, 4))
    rule, ratio = draw(st.sampled_from([("fixed", k), ("proportional", k)]))
    d_min = ratio if rule == "fixed" else ratio * n_grid[0]
    q = draw(st.sampled_from([0, 1]))
    radius = draw(st.integers(1, min(d_min, 10)) if q == 0 else st.integers(1, 100))
    estimator = {"kind": "l0", "s": radius} if q == 0 else {
        "kind": "l1", "radius": radius, "max_iter": draw(st.integers(1, 10**4)),
        "tol": draw(st.integers(0, 1))}
    correlated = rule == "fixed" and draw(st.booleans())
    return dict(
        q=q, radius=radius, sigma=draw(st.integers(0, 100)), n_grid=n_grid, estimator=estimator,
        d_rule=(rule, ratio),
        design_kind="correlated_gaussian" if correlated else "standard_gaussian",
        sigma_cov=[[draw(st.integers(1, 9)) * (i == j) for j in range(k)] for i in range(k)]
        if correlated else None,
        trials_per_cell=draw(st.integers(1, 100)), p=draw(st.integers(1, 8)),
        seed_root=draw(st.integers(0, 2**62)), beta_magnitude=draw(st.integers(1, 100)),
        kappa_exponent=draw(st.integers(-5, 5)), enforce_scaling=draw(st.booleans()))


def _config_of(v, real, whole, seq):
    """The config of ``integral_configs`` numbers ``v``, each number of a float field made
    by ``real``, of an int field by ``whole``, and each tuple by ``seq``."""
    rule, ratio = v["d_rule"]
    return ExperimentConfig(
        ball=BallSpec(real(v["q"]), real(v["radius"])), sigma=real(v["sigma"]),
        n_grid=seq(whole(n) for n in v["n_grid"]),
        estimator={key: value if key == "kind" else
                   (whole if key in ("s", "max_iter") else real)(value)
                   for key, value in v["estimator"].items()},
        d_rule=seq((rule, (whole if rule == "fixed" else real)(ratio))),
        design_kind=v["design_kind"], sigma_cov=None if v["sigma_cov"] is None
        else seq(seq(real(x) for x in row) for row in v["sigma_cov"]),
        trials_per_cell=whole(v["trials_per_cell"]),
        losses=seq((LossSpec("lp", real(v["p"])), LossSpec.prediction())),
        seed_root=whole(v["seed_root"]), beta_magnitude=real(v["beta_magnitude"]),
        kappa_exponent=real(v["kappa_exponent"]), enforce_scaling=v["enforce_scaling"])


@settings(max_examples=100, deadline=None)
@given(integral_configs())
def test_number_twins_and_their_json_round_trips_share_one_hash(v):
    # Python ints, integer-valued floats, numpy scalars, and lists in place of tuples
    twins = [_config_of(v, int, int, tuple), _config_of(v, float, int, tuple),
             _config_of(v, np.int64, np.int64, tuple), _config_of(v, np.float64, np.int64, list),
             _config_of(v, int, int, list)]
    twins += [ExperimentConfig.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
              for c in twins]
    assert all(c == twins[0] for c in twins)
    assert len({config_hash(c) for c in twins}) == 1


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
