import json
import math
import re
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqminimax import harness
from lqminimax.cli import main as cli_main
from lqminimax.bounds import RateQuery, minimax_rate
from lqminimax.errors import (ConsistencyError, CovarianceError, DimensionError,
                              EnumerationBudgetError, ParameterError)
from lqminimax.harness import (
    COUNTEREXAMPLE_X,
    ExperimentConfig,
    TrialRecord,
    config_hash,
    corollary1_experiment,
    counterexample_scenario,
    fit_rate_slope,
    load_records,
    min_l1_interpolant,
    persist,
    plot_fit_svg,
    run_risk_experiment,
)
from lqminimax.estimators import (
    l0_least_squares,
    l1_constrained_ls,
    lasso,
    lq_constrained_ls,
)
from lqminimax.linmodel import (
    BallSpec,
    DesignSpec,
    LossSpec,
    derive_seed,
    generate_design,
    generate_sparse_beta,
    loss,
    simulate,
)


def _tiny_config(**overrides):
    base = dict(
        ball=BallSpec(0.0, 1),
        sigma=0.5,
        n_grid=(10, 20, 40),
        estimator={"kind": "l0", "s": 1},
        d_rule=("fixed", 4),
        trials_per_cell=3,
        seed_root=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _synthetic_records(fn, n_grid=(100, 200, 400, 800)):
    return [
        TrialRecord(n=n, d=16, trial=t, seed=0,
                    losses={"l2": fn(n), "pred": fn(n)},
                    objective_ok=True, wall_ms=0.0)
        for n in n_grid for t in range(4)
    ]


class TestConfig:
    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            _tiny_config(n_grid=(20, 10))

    def test_hash_changes_with_any_field(self):
        base = config_hash(_tiny_config())
        assert config_hash(_tiny_config(sigma=0.6)) != base
        assert config_hash(_tiny_config(seed_root=6)) != base
        assert config_hash(_tiny_config(trials_per_cell=4)) != base
        assert config_hash(_tiny_config()) == base

    def test_scaling_gate_binds_only_for_positive_q(self):
        cfg0 = _tiny_config()
        assert cfg0.scaling_ok(10, 4)
        cfg1 = _tiny_config(ball=BallSpec(1.0, 4.0),
                            estimator={"kind": "l1", "radius": 4.0})
        assert not cfg1.scaling_ok(1600, 32)

    def test_json_round_trip(self):
        cfg = _tiny_config()
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert config_hash(back) == config_hash(cfg)

    def test_unknown_key_rejected(self):
        doc = _tiny_config().to_json_dict()
        doc["trials_per_cel"] = 40
        with pytest.raises(ParameterError, match="trials_per_cel"):
            ExperimentConfig.from_json_dict(doc)

    def test_misspelt_names_all_named(self):
        with pytest.raises(ParameterError) as err:
            _tiny_config(design_kind="gausian", beta_magnitude_rule="thresh",
                         estimator={"kind": "l00", "s": 1})
        for bad in ("design_kind 'gausian'", "beta_magnitude_rule 'thresh'",
                    "estimator kind 'l00'"):
            assert bad in str(err.value)

    @pytest.mark.parametrize("overrides, bad", [
        ({"design_kind": "explicit"}, "design_kind 'explicit'"),
        ({"beta_magnitude_rule": "Constant"}, "beta_magnitude_rule 'Constant'"),
        ({"estimator": {"s": 1}}, "estimator kind None"),
        ({"beta_pattern": "randm_support"}, "beta_pattern 'randm_support'"),
        ({"design_kind": "identity_sequence"}, "design_kind 'identity_sequence'"),
    ])
    def test_each_unknown_name_rejected(self, overrides, bad):
        with pytest.raises(ParameterError, match=bad):
            _tiny_config(**overrides)
        doc = _tiny_config().to_json_dict()
        doc.update(overrides)
        with pytest.raises(ParameterError, match=bad):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("overrides, expected", [
        ({}, "247e3104183cce0f"),
        ({"design_kind": "correlated_gaussian", "sigma_cov": ((1.0, 0.5), (0.5, 1.0)),
          "d_rule": ("fixed", 2)}, "e0434b86bbca109e"),
        ({"d_rule": ("proportional", 1.0), "beta_magnitude_rule": "threshold_logd"},
         "82b3654098ee8e74"),
        ({"ball": BallSpec(1.0, 2.0), "estimator": {"kind": "l1", "radius": 2.0}},
         "cef542eebabea7f9"),
        ({"ball": BallSpec(0.5, 2.0), "estimator": {"kind": "lq"}}, "467675f2fc774a56"),
        ({"estimator": {"kind": "lasso", "lam": 0.1}}, "f9d74994885ea97f"),
    ])
    def test_known_names_keep_their_hash(self, overrides, expected):
        assert config_hash(_tiny_config(**overrides)) == expected

    @pytest.mark.parametrize("overrides, bad", [
        ({"sigma": math.nan}, "sigma"),
        ({"sigma": math.inf}, "sigma"),
        ({"sigma": -0.5}, "sigma"),
        ({"sigma": 0.0, "beta_magnitude_rule": "threshold_logd"}, "sigma"),
        ({"beta_magnitude": 0.0}, "beta_magnitude"),
        ({"beta_magnitude": -1.0}, "beta_magnitude"),
        ({"beta_magnitude": math.nan}, "beta_magnitude"),
        # the config's other scalar fields, each checked under its own rule
        ({"kappa_exponent": math.nan}, "kappa_exponent"),
        ({"kappa_exponent": "0.5"}, "kappa_exponent"),
        ({"trials_per_cell": 0}, "trials_per_cell"),
        ({"trials_per_cell": 2.5}, "trials_per_cell"),
        ({"seed_root": -1}, "seed_root"),
        ({"seed_root": True}, "seed_root"),
        ({"d_rule": ("fixed", 4.5)}, "d_rule"),
        ({"d_rule": ("proportional", math.nan)}, "d_rule"),
        ({"ball": BallSpec(0.0, 1), "estimator": {"kind": "l0", "s": np.float64(1.0)}}, "s"),
    ])
    def test_bad_noise_or_truth_magnitude_rejected(self, overrides, bad):
        with pytest.raises(ParameterError, match=f"^'{bad}' must be"):
            _tiny_config(**overrides)

    def test_scalar_fields_at_their_bounds_accepted(self):
        config = _tiny_config(kappa_exponent=-2.0, seed_root=0, trials_per_cell=1,
                              d_rule=("proportional", 0.4))
        assert (config.kappa_exponent, config.seed_root, config.dim_at(10)) == (-2.0, 0, 4)

    def test_numpy_scalars_stored_as_python_numbers(self):
        # numpy registers its integers as numbers.Integral, so the rules take them
        plain = _tiny_config(estimator={"kind": "l0", "s": 1}, trials_per_cell=2,
                             d_rule=("fixed", 4), kappa_exponent=0.5)
        numpy = _tiny_config(estimator={"kind": "l0", "s": np.int64(1)},
                             trials_per_cell=np.int64(2), seed_root=np.int64(5),
                             sigma=np.float64(0.5), d_rule=("fixed", np.int64(4)),
                             kappa_exponent=np.float32(0.5))
        assert type(numpy.estimator["s"]) is int and type(numpy.d_rule[1]) is int
        assert type(numpy.trials_per_cell) is int and type(numpy.kappa_exponent) is float
        assert config_hash(numpy) == config_hash(plain)
        records = [[(r.n, r.d, r.trial, r.seed, r.losses, r.objective_ok)
                    for r in run_risk_experiment(config).records] for config in (plain, numpy)]
        assert records[0] == records[1]

    @pytest.mark.parametrize("key, value, message", [
        ("enforce_scaling", "false", "'enforce_scaling' must be a bool, got 'false'"),
        ("enforce_scaling", 0, "'enforce_scaling' must be a bool, got 0"),
        ("trials_per_cell", 2.5, "'trials_per_cell' must be an integer >= 1, got 2.5"),
        ("n_grid", [20.7, 40, 80], "'n_grid' must be an integer >= 0, got 20.7"),
        ("seed_root", 1.5, "'seed_root' must be an integer >= 0, got 1.5"),
        ("seed_root", True, "'seed_root' must be an integer >= 0, got True"),
        ("sigma", "1e0", "'sigma' must be a finite number >= 0, got '1e0'"),
        ("kappa_exponent", False, "'kappa_exponent' must be a finite number, got False"),
        ("ball", {"q": "0.5", "radius": 1.0}, "'q' must be a finite number, got '0.5'"),
        ("losses", [{"kind": "lp", "p": True}], "'p' must be a finite number, got True"),
    ])
    def test_json_value_of_another_type_rejected(self, key, value, message):
        doc = _tiny_config().to_json_dict()
        doc[key] = value
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_json_dict(doc)

    def test_json_int_widens_to_a_float_field(self):
        doc = _tiny_config().to_json_dict()
        doc.update(sigma=1, beta_magnitude=2, kappa_exponent=-1, ball={"q": 0, "radius": 1})
        config = ExperimentConfig.from_json_dict(doc)
        assert (config.sigma, config.beta_magnitude, config.kappa_exponent) == (1.0, 2.0, -1.0)
        assert type(config.sigma) is float and config.ball == BallSpec(0.0, 1.0)

    @pytest.mark.parametrize("overrides, twin", [
        ({"sigma": 1}, {"sigma": 1.0}),
        ({"ball": BallSpec(1.0, 4), "estimator": {"kind": "l1", "radius": 4}},
         {"ball": BallSpec(1.0, 4.0), "estimator": {"kind": "l1", "radius": 4.0}}),
        ({"d_rule": ("proportional", 1)}, {"d_rule": ("proportional", 1.0)}),
        ({"design_kind": "correlated_gaussian", "sigma_cov": ((1, 0), (0, 1)),
          "d_rule": ("fixed", 2)},
         {"design_kind": "correlated_gaussian", "sigma_cov": np.eye(2), "d_rule": ("fixed", 2)}),
        ({"losses": (LossSpec("lp", 1),)}, {"losses": [LossSpec("lp", 1.0)]}),
    ], ids=["sigma", "l1_radius", "d_rule", "sigma_cov", "loss_p"])
    def test_int_and_float_twins_share_one_hash(self, overrides, twin):
        configs = [_tiny_config(**overrides), _tiny_config(**twin)]
        configs += [ExperimentConfig.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
                    for c in configs]
        assert all(c == configs[0] for c in configs)
        assert len({config_hash(c) for c in configs}) == 1

    @pytest.mark.parametrize("build, message", [
        # values a constructor used to coerce or truncate
        (lambda: _tiny_config(n_grid=(20.7, 40, 80)), "'n_grid' must be an integer >= 0, got 20.7"),
        (lambda: _tiny_config(n_grid=(-10, 40)), "'n_grid' must be an integer >= 0, got -10"),
        (lambda: BallSpec(q=True, radius=1.0), "'q' must be a finite number, got True"),
        (lambda: BallSpec(q="0.5", radius=1.0), "'q' must be a finite number, got '0.5'"),
        (lambda: LossSpec("lp", p=True), "'p' must be a finite number, got True"),
        (lambda: _tiny_config(enforce_scaling=1), "'enforce_scaling' must be a bool, got 1"),
        (lambda: _tiny_config(d_rule=("fixed",)), "'d_rule' must be a pair, got ('fixed',)"),
        (lambda: _tiny_config(n_grid=10), "'n_grid' must be a list, got 10"),
        (lambda: _tiny_config(estimator=[("kind", "l0")]),
         "'estimator' must be a dict, got [('kind', 'l0')]"),
        (lambda: _tiny_config(ball=(0.0, 1)), "'ball' must be a BallSpec, got (0.0, 1)"),
        (lambda: _tiny_config(losses=("l2",)), "'losses' must hold LossSpecs, got ('l2',)"),
        # JSON values that were silently dropped or died with a bare error
        ({"losses": [{"kind": "lp", "pp": 3}]},
         "unknown LossSpec keys ['pp']; the keys are ['kind', 'p']"),
        ({"ball": {"q": 0, "radius": 1, "p": 2}},
         "unknown BallSpec keys ['p']; the keys are ['q', 'radius']"),
        ({"ball": {"radius": 1}}, "BallSpec is missing required keys ['q']"),
        ({"losses": [{"p": 2}]}, "LossSpec is missing required keys ['kind']"),
        ({"d_rule": ["fixed"]}, "'d_rule' must be a pair, got ('fixed',)"),
        ({"n_grid": 10}, "'n_grid' must be a list, got 10"),
        ({"ball": 1}, "'ball' must be a BallSpec, got 1"),
        ({"design_kind": "correlated_gaussian", "sigma_cov": [[1, "0"], [0, 1]],
          "d_rule": ["fixed", 2]}, "'sigma_cov' must be a finite number, got '0'"),
    ], ids=["n_grid_fraction", "n_grid_negative", "q_bool", "q_string", "p_bool",
            "enforce_scaling_int", "d_rule_single", "n_grid_scalar", "estimator_list",
            "ball_tuple", "loss_name", "json_loss_key", "json_ball_extra_key",
            "json_ball_without_q", "json_loss_without_kind", "json_d_rule_single",
            "json_n_grid_scalar", "json_ball_number", "json_covariance_string"])
    def test_coercion_or_bare_error_refused_by_name(self, build, message):
        if isinstance(build, dict):
            doc = {**_tiny_config().to_json_dict(), **build}
            build = lambda: ExperimentConfig.from_json_dict(doc)  # noqa: E731
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("overrides, message", [
        # asymmetric and indefinite, and 2 x 2 where d_rule gives d = 3
        ({"sigma_cov": ((1.0, 2.0), (0.0, -1.0)), "d_rule": ("fixed", 3)}, "not symmetric"),
        ({"sigma_cov": ((1.0, 2.0), (2.0, 1.0)), "d_rule": ("fixed", 2)}, "negative eigenvalue"),
        # a valid 2 x 2 Sigma where d_rule gives d = 4 (an earlier pinned-hash case)
        ({"sigma_cov": ((1.0, 0.5), (0.5, 1.0))}, r"2 x 2, but d_rule .* gives d in \[4\]"),
        ({"sigma_cov": ((1.0, 0.5), (0.5, 1.0)), "d_rule": ("proportional", 0.1)},
         r"gives d in \[1, 2, 4\]"),
    ], ids=["asymmetric_mis_sized", "indefinite", "mis_sized", "mis_sized_by_proportional_rule"])
    def test_covariance_checked_at_construction(self, overrides, message):
        with pytest.raises(CovarianceError, match=message):
            _tiny_config(design_kind="correlated_gaussian", **overrides)

    @pytest.mark.parametrize("estimator, key", [
        ({"kind": "l0"}, "s"),
        ({"kind": "l1", "max_iter": 10}, "radius"),
        ({"kind": "lasso", "tol": 1e-6}, "lam"),
    ])
    def test_estimator_without_its_key_rejected(self, estimator, key):
        message = rf"estimator kind '{estimator['kind']}' needs the keys \['{key}'\]"
        with pytest.raises(ParameterError, match=message):
            _tiny_config(estimator=estimator)
        doc = _tiny_config().to_json_dict()
        doc["estimator"] = estimator
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("estimator, message", [
        # the grid's d is 4 throughout
        ({"kind": "l0", "s": 5}, r"'s' must be at most d, got s=5, d=4 at n=10"),
        ({"kind": "l0", "s": 0}, r"'s' must be an integer >= 1, got 0"),
        ({"kind": "l0", "s": 2.5}, r"'s' must be an integer >= 1, got 2.5"),
        ({"kind": "l1", "radius": -1.0}, r"'radius' must be a finite number > 0, got -1.0"),
        ({"kind": "l1", "radius": math.inf}, r"'radius' must be a finite number > 0, got inf"),
        ({"kind": "l1", "radius": "4"}, r"'radius' must be a finite number > 0, got '4'"),
        ({"kind": "lasso", "lam": "abc"}, r"'lam' must be a finite number >= 0, got 'abc'"),
        ({"kind": "lasso", "lam": -0.5}, r"'lam' must be a finite number >= 0, got -0.5"),
        ({"kind": "lasso", "lam": math.nan}, r"'lam' must be a finite number >= 0, got nan"),
        ({"kind": "l1", "radius": 1.0, "max_iter": 0}, r"'max_iter' must be an integer >= 1, got 0"),
        ({"kind": "lq", "max_iter": 10.5}, r"'max_iter' must be an integer >= 1, got 10.5"),
        ({"kind": "lasso", "lam": 0.1, "tol": -1e-9}, r"'tol' must be a finite number >= 0"),
        ({"kind": "l1", "radius": 1.0, "tol": math.nan}, r"'tol' must be a finite number >= 0"),
    ], ids=["l0_s_above_d", "l0_s_zero", "l0_s_not_integer", "l1_radius_negative",
            "l1_radius_infinite", "l1_radius_string", "lasso_lam_string", "lasso_lam_negative",
            "lasso_lam_nan", "max_iter_zero", "max_iter_not_integer", "tol_negative", "tol_nan"])
    def test_estimator_value_rejected(self, estimator, message):
        with pytest.raises(ParameterError, match=message):
            _tiny_config(estimator=estimator)

    def test_estimator_values_at_their_bounds_accepted(self):
        for estimator in [{"kind": "l0", "s": 4}, {"kind": "lasso", "lam": 0, "tol": 0.0},
                          {"kind": "l1", "radius": 1e-9, "max_iter": 1}]:
            assert _tiny_config(estimator=estimator).estimator == estimator

    @pytest.mark.parametrize("overrides, error, message", [
        ({"d_rule": ("proportional", 0.01), "n_grid": (10,)}, DimensionError,
         r"d_rule \('proportional', 0.01\) gives n=10, d=0"),
        ({"n_grid": (0, 10)}, DimensionError, "gives n=0, d=4"),
        ({"ball": BallSpec(0.0, 5)}, ParameterError, r"support budget 5.0 not in \[1, 4\]"),
        # d = 1, 2, 4 on the grid: a budget of 2 fits only the larger cells
        ({"ball": BallSpec(0.0, 2), "estimator": {"kind": "l0", "s": 2},
          "d_rule": ("proportional", 0.1)}, ParameterError, r"support budget 2.0 not in \[1, 1\]"),
    ], ids=["d_zero", "n_zero", "budget_above_fixed_d", "budget_above_smallest_d"])
    def test_grid_dimensions_checked_at_construction(self, overrides, error, message):
        with pytest.raises(error, match=message):
            _tiny_config(**overrides)

    def test_zero_sigma_allowed_under_constant_magnitude(self):
        # noiseless y = X b, the truth scaled by beta_magnitude alone
        assert _tiny_config(sigma=0.0).sigma == 0.0

    def test_missing_required_key_rejected(self):
        doc = _tiny_config().to_json_dict()
        del doc["sigma"]
        with pytest.raises(ParameterError, match="sigma"):
            ExperimentConfig.from_json_dict(doc)


# each kind's solver called directly, with the estimator dict's keys as keywords
_DIRECT_SOLVERS = {
    "l0": lambda X, y, s: l0_least_squares(X, y, s),
    "l1": lambda X, y, radius, **opts: l1_constrained_ls(X, y, radius, **opts),
    "lq": lambda X, y, **opts: lq_constrained_ls(X, y, BallSpec(0.5, 1.0),
                                                 [np.zeros(X.shape[1])], **opts),
    "lasso": lambda X, y, lam, **opts: lasso(X, y, lam, **opts),
}
_REQUIRED_VALUES = {"l0": {"s": 1}, "l1": {"radius": 1.0}, "lq": {}, "lasso": {"lam": 0.1}}


class TestEstimatorContract:
    """Direct solver calls, configs and the CLI refuse the same estimator values."""

    @pytest.mark.parametrize("kind, key, value", [
        ("lasso", "lam", math.nan), ("lasso", "lam", math.inf), ("lasso", "lam", -1.0),
        ("l1", "tol", math.nan), ("lq", "tol", math.nan), ("lasso", "tol", math.nan),
        ("l1", "max_iter", 0), ("lq", "max_iter", 0), ("lasso", "max_iter", 0),
        ("l0", "s", 2.0), ("l0", "s", True), ("l1", "radius", math.nan),
    ])
    def test_solver_and_config_refuse_alike(self, kind, key, value):
        rng = np.random.default_rng(4)
        X, y = rng.standard_normal((10, 4)), rng.standard_normal(10)
        values = {**_REQUIRED_VALUES[kind], key: value}
        with pytest.raises(ParameterError) as direct:
            _DIRECT_SOLVERS[kind](X, y, **values)
        ball = BallSpec(0.5, 1.0) if kind == "lq" else BallSpec(0.0, 1)
        with pytest.raises(ParameterError) as config:
            _tiny_config(ball=ball, estimator={"kind": kind, **values})
        assert repr(key) in str(direct.value)
        assert str(direct.value) == str(config.value)

    def test_simulate_refuses_a_nan_lambda(self):
        with pytest.raises(ParameterError, match=r"'lam' must be a finite number >= 0, got nan"):
            cli_main(["simulate", "--n", "20", "--d", "8", "--q", "1", "--radius", "2",
                      "--estimator", "lasso", "--lambda", "nan"])

    @pytest.mark.parametrize("estimator, accepted", [
        ({"kind": "l1", "radius": 1.0, "maxiter": 10}, ["radius", "max_iter", "tol"]),
        ({"kind": "l0", "s": 1, "max_iter": 10}, ["s"]),
        ({"kind": "lasso", "lam": 0.1, "radius": 1.0}, ["lam", "max_iter", "tol"]),
    ], ids=["misspelt_max_iter", "l0_max_iter", "lasso_radius"])
    def test_config_refuses_a_key_its_kind_does_not_take(self, estimator, accepted):
        message = re.escape(f"takes only {accepted}")
        with pytest.raises(ParameterError, match=message):
            _tiny_config(estimator=estimator)
        doc = _tiny_config().to_json_dict()
        doc["estimator"] = estimator
        with pytest.raises(ParameterError, match=message):
            ExperimentConfig.from_json_dict(doc)


class TestRunRiskExperiment:
    def test_record_count_and_determinism(self):
        cfg = _tiny_config()
        run1 = run_risk_experiment(cfg)
        run2 = run_risk_experiment(cfg)
        assert len(run1.records) == 9
        for a, b in zip(run1.records, run2.records):
            assert a.losses == b.losses  # bit-identical
            assert a.seed == b.seed

    @pytest.mark.parametrize("n_workers", [0, -1, 2.5])
    def test_worker_count_checked(self, n_workers):
        with pytest.raises(ParameterError, match="'n_workers' must be an integer >= 1"):
            run_risk_experiment(_tiny_config(), n_workers=n_workers)

    def test_worker_count_does_not_change_results(self):
        cfg = _tiny_config()
        serial = run_risk_experiment(cfg, n_workers=1)
        parallel = run_risk_experiment(cfg, n_workers=2)
        for a, b in zip(serial.records, parallel.records):
            assert a.losses == b.losses
            assert (a.n, a.d, a.trial, a.seed) == (b.n, b.d, b.trial, b.seed)

    def test_noiseless_l0_recovers_exactly(self):
        cfg = _tiny_config(sigma=0.0, n_grid=(12,), trials_per_cell=5)
        run = run_risk_experiment(cfg)
        assert all(r.losses["l2"] <= 1e-20 for r in run.records)
        assert all(r.objective_ok for r in run.records)

    def test_scaling_gate_excludes_and_counts(self):
        cfg = _tiny_config(
            ball=BallSpec(1.0, 4.0),
            estimator={"kind": "l1", "radius": 4.0},
            n_grid=(100, 200),
            d_rule=("fixed", 8),
            enforce_scaling=True,
            trials_per_cell=1,
        )
        run = run_risk_experiment(cfg)
        assert run.excluded_cells == [(100, 8), (200, 8)]
        assert run.records == []

    def test_l0_objective_ok_is_hard_invariant(self):
        run = run_risk_experiment(_tiny_config())
        assert all(r.objective_ok for r in run.records)


    @pytest.mark.parametrize("kind, solve", [
        ("l1", lambda inst: l1_constrained_ls(inst.X, inst.y, 1.5, max_iter=1, tol=1e-3)),
        ("lq", lambda inst: lq_constrained_ls(inst.X, inst.y, inst.ball,
                                              [inst.beta_star, np.zeros(inst.d)],
                                              max_iter=1, tol=1e-3)),
        ("lasso", lambda inst: lasso(inst.X, inst.y, 0.05, max_iter=1, tol=1e-3)),
    ])
    def test_estimator_max_iter_and_tol_reach_the_solver(self, kind, solve):
        ball = BallSpec(0.5, 1.5)
        X = generate_design(DesignSpec("standard_gaussian", 20, 6, seed=1))
        inst = simulate(X, generate_sparse_beta(ball, 6, seed=2), 0.1, seed=3, ball=ball)
        est = {"kind": kind, **{"l1": {"radius": 1.5}, "lq": {}, "lasso": {"lam": 0.05}}[kind],
               "max_iter": 1, "tol": 1e-3}
        got = harness._run_estimator(est, inst)
        assert got.to_json_dict() == solve(inst).to_json_dict()
        del est["max_iter"], est["tol"]  # the solver's own defaults
        assert harness._run_estimator(est, inst).iterations > got.iterations


# AR(1) covariance 0.5^|i - j| at d = 6
COV6 = tuple(tuple(0.5 ** abs(i - j) for j in range(6)) for i in range(6))


class TestCorrelatedSweep:
    @staticmethod
    def _config():
        return ExperimentConfig(ball=BallSpec(1.0, 2.0), sigma=0.5, n_grid=(12, 24),
                                estimator={"kind": "l1", "radius": 2.0}, d_rule=("fixed", 6),
                                design_kind="correlated_gaussian", sigma_cov=COV6,
                                trials_per_cell=2, seed_root=11)

    def test_records_match_instances_built_by_hand(self):
        config = self._config()
        records = run_risk_experiment(config).records
        assert len(records) == 4
        for rec in records:
            seed = derive_seed(11, rec.n, rec.d, rec.trial)
            X = generate_design(DesignSpec("correlated_gaussian", rec.n, 6,
                                           seed=derive_seed(seed, 1), sigma_cov=np.array(COV6)))
            beta = generate_sparse_beta(config.ball, 6, seed=derive_seed(seed, 2))
            inst = simulate(X, beta, 0.5, seed=seed, ball=config.ball)
            beta_hat = l1_constrained_ls(inst.X, inst.y, 2.0).beta_hat
            assert rec.seed == seed
            assert rec.losses == {sp.name: loss(sp, X, beta_hat, beta) for sp in config.losses}

    def test_one_covariance_decomposition_per_sweep(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def decompose(*args, **kwargs):
                # the l1 solver's Lanczos bound takes its Ritz pairs from eigh too;
                # those are not covariance decompositions
                if sys._getframe(1).f_globals["__name__"] != "lqminimax.estimators":
                    calls.append(name)
                return real(*args, **kwargs)
            return decompose

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        run_risk_experiment(self._config())  # the config is built under the count too
        assert calls == ["eigh"]


class TestFitRateSlope:
    def test_exact_inverse_law(self):
        fit = fit_rate_slope(_synthetic_records(lambda n: 7.0 / n))
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.theoretical_slope == -1.0

    def test_exact_sqrt_law(self):
        fit = fit_rate_slope(_synthetic_records(lambda n: 3.0 / math.sqrt(n)), q=1.0)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.theoretical_slope == -0.5

    def test_guard_needs_three_cells(self):
        with pytest.raises(ParameterError):
            fit_rate_slope(_synthetic_records(lambda n: 1.0 / n, n_grid=(10, 20)))

    def test_zero_cells_excluded_and_flagged(self):
        recs = _synthetic_records(lambda n: 0.0 if n == 100 else 1.0 / n)
        fit = fit_rate_slope(recs)
        assert fit.excluded_zero_cells == 1
        assert fit.n_points == 3

    def test_unknown_loss_names_the_records_losses(self):
        with pytest.raises(ParameterError,
                           match=r"^the records carry no loss 'l1'; they carry \['l2', 'pred'\]$"):
            fit_rate_slope(_synthetic_records(lambda n: 1.0 / n), loss_kind="l1")

    def test_composite_predictor(self):
        recs = _synthetic_records(lambda n: 2 * math.log(16 / 2) * 2.0 / n)
        fit = fit_rate_slope(recs, predictor="s_logd_over_n", s=2)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.theoretical_slope == 1.0

    @pytest.mark.parametrize("predictor", sorted(harness.PREDICTORS))
    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_lp_theory_follows_p(self, predictor, p):
        # the p-th power loss decays as (log d / n)^{(p - q)/2}; every lp fit used
        # to state l2's slope
        name = LossSpec("lp", p).name
        recs = [TrialRecord(n=n, d=16, trial=0, seed=0, losses={name: 1.0 / n},
                            objective_ok=True, wall_ms=0.0) for n in (100, 200, 400)]
        for q in (0.0, 0.5, 1.0):
            exponent = (p - q) / 2.0
            want = {"n": -exponent, "two_logn_over_n": exponent}.get(predictor,
                                                                      exponent / (1.0 - q / 2.0))
            fit = fit_rate_slope(recs, name, predictor, q=q, s=2, radius=2.0)
            assert fit.theoretical_slope == pytest.approx(want, abs=1e-15)


class TestCounterexample:
    def test_all_checks_true(self):
        report = counterexample_scenario()
        assert report.kernel_ok
        assert report.cone_ok
        assert report.l0_recovery_ok
        assert report.l1_failure_ok
        assert report.all_ok

    def test_observation_arithmetic(self):
        y = COUNTEREXAMPLE_X @ np.array([1.0, 0.0, 0.0])
        assert np.array_equal(y, [1.0, 2.0])

    def test_min_l1_norm_value(self):
        report = counterexample_scenario()
        assert report.min_l1_norm == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert report.min_l1_norm < 1.0  # below the truth's norm

    def test_deterministic(self):
        a = counterexample_scenario()
        b = counterexample_scenario()
        assert a == b

    def test_interpolant_general_call(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 6))
        beta = np.zeros(6)
        beta[2] = 1.5
        out = min_l1_interpolant(X, X @ beta)
        assert np.allclose(X @ out, X @ beta, atol=1e-8)
        assert np.abs(out).sum() <= np.abs(beta).sum() + 1e-8

    def test_report_stores_python_floats(self):
        report = counterexample_scenario()
        for v in report.beta_l0 + report.beta_min_l1:
            assert type(v) is float

    def test_min_l1_beta_is_the_kernel_shift(self):
        beta = np.array(counterexample_scenario().beta_min_l1)
        assert np.max(np.abs(beta - [0.0, -1.0 / 3.0, -1.0 / 3.0])) <= 1e-12


def _basic_solutions(X, y):
    """Every b solving X b = y on rank(X) independent columns (the LP's vertices)."""
    r = np.linalg.matrix_rank(X)
    for S in combinations(range(X.shape[1]), r):
        if np.linalg.matrix_rank(X[:, S]) == r:
            b = np.zeros(X.shape[1])
            b[list(S)] = np.linalg.lstsq(X[:, S], y, rcond=None)[0]
            yield b


class TestMinL1Interpolant:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(m, 8))),
           st.data())
    def test_matches_highs(self, shape, data):
        # zero, duplicated (possibly rescaled) columns and a row that repeats
        # a combination of the others; y = X b0 with b0 sparse
        from scipy.optimize import linprog
        m, d = shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        X = rng.standard_normal((m, d))
        for j in range(d):
            defect = data.draw(st.sampled_from(["none", "zero", "duplicate"]))
            if defect == "zero":
                X[:, j] = 0.0
            elif defect == "duplicate":
                factor = data.draw(st.sampled_from([1.0, -2.0]))
                X[:, j] = factor * X[:, data.draw(st.integers(0, d - 1))]
        if m > 1 and data.draw(st.booleans(), label="dependent_row"):
            X[-1] = rng.standard_normal(m - 1) @ X[:-1]
        b0 = rng.standard_normal(d) * (rng.random(d) < 0.5)
        y = X @ b0
        b = min_l1_interpolant(X, y)
        ref = linprog(np.ones(2 * d), A_eq=np.hstack([X, -X]), b_eq=y, bounds=(0, None),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
        assert ref.success
        ref_b = ref.x[:d] - ref.x[d:]
        opt = np.abs(ref_b).sum()
        scale = 1.0 + np.abs(X).sum() * np.abs(b0).sum()
        assert abs(np.abs(b).sum() - opt) <= 1e-9 * max(opt, 1.0)
        assert np.linalg.norm(X @ b - y) <= 1e-10 * scale
        # the optimum is unique when every vertex within 1e-6 of it is one point
        near = [v for v in _basic_solutions(X, y) if np.abs(v).sum() <= opt + 1e-6 * max(opt, 1.0)]
        if all(np.max(np.abs(v - near[0])) <= 1e-8 for v in near):
            assert np.max(np.abs(b - ref_b)) <= 1e-8

    @pytest.mark.parametrize("X, y, error", [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), ParameterError),
        (np.eye(2), np.array([np.inf, 1.0]), ParameterError),
        (np.eye(2), np.ones(3), DimensionError),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]), ConsistencyError),
        (np.zeros((2, 3)), np.array([0.0, 1e-300]), ConsistencyError),
    ], ids=["nan_X", "inf_y", "short_y", "y_outside_range", "zero_X_nonzero_y"])
    def test_typed_refusals(self, X, y, error):
        with pytest.raises(error):
            min_l1_interpolant(X, y)

    def test_budget_refused_before_any_solve(self, monkeypatch):
        # rank 10 with d = 40: C(40, 10) supports, far over the budget
        X = np.random.default_rng(3).standard_normal((10, 40))
        lstsq, shapes = np.linalg.lstsq, []

        def recording_lstsq(A, *args, **kwargs):
            shapes.append(np.shape(A))
            return lstsq(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        with pytest.raises(EnumerationBudgetError):
            min_l1_interpolant(X, X[:, 0])
        assert shapes == [X.shape]  # the consistency check alone; no support solved

    def test_zero_design_gives_zero(self):
        out = min_l1_interpolant(np.zeros((2, 3)), np.zeros(2))
        assert np.array_equal(out, np.zeros(3))


class TestCorollary1:
    def test_tau_scaling_shifts_intercept_only(self):
        ball = BallSpec(0.0, 2)
        grid = (64, 128, 256)
        fit1 = corollary1_experiment(grid, 1.0, ball, trials_per_cell=10, seed_root=3)
        fit2 = corollary1_experiment(grid, 2.0, ball, trials_per_cell=10, seed_root=3)
        assert fit2.slope == pytest.approx(fit1.slope, abs=0.05)
        assert fit2.intercept - fit1.intercept == pytest.approx(2 * math.log(2), abs=0.1)

    def test_two_point_grid_rejected(self):
        with pytest.raises(ParameterError):
            corollary1_experiment((64, 128), 1.0, BallSpec(0.0, 2))

    def test_q_between_rejected(self):
        with pytest.raises(ParameterError):
            corollary1_experiment((64, 128, 256), 1.0, BallSpec(0.5, 2.0))

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tau_rejected_by_name(self, tau):
        with pytest.raises(ParameterError, match="^'tau' "):
            corollary1_experiment((64, 128, 256), tau, BallSpec(0.0, 2))

    @pytest.mark.parametrize("n_grid, ball, message", [
        ((64, 32, 128), BallSpec(0.0, 2), "strictly increasing"),
        ((0, 32, 64), BallSpec(0.0, 2), "'n_grid' must be an integer >= 1"),
        ((4, 8, 16), BallSpec(0.0, 5), r"support budget 5.0 not in \[1, 4\]"),
    ], ids=["decreasing", "zero", "s_above_n"])
    def test_grid_checked(self, n_grid, ball, message):
        with pytest.raises(ParameterError, match=message):
            corollary1_experiment(n_grid, 1.0, ball)

    @staticmethod
    def _top_s_and_exact_l0(y, s):
        """(support, objective) of the closed form and of exact l0 on sqrt(n) I."""
        X = math.sqrt(len(y)) * np.eye(len(y))
        beta = harness._sequence_estimate(y, BallSpec(0.0, s))
        r = y - X @ beta
        exact = l0_least_squares(X, y, s)
        assert float(r @ r) == pytest.approx(exact.objective, rel=1e-12, abs=1e-12)
        return tuple(np.flatnonzero(beta)), exact.support

    def test_top_s_matches_exact_l0(self):
        rng = np.random.default_rng(17)
        for n in range(1, 13):
            y = rng.standard_normal(n)
            for s in range(1, n + 1):
                top, exact = self._top_s_and_exact_l0(y, s)
                assert top == exact and len(top) == s

    def test_top_s_ties_match_exact_l0(self):
        # both give a tie to the smaller index, for equal |y_i| of either sign
        rng = np.random.default_rng(3)
        for n in range(1, 13):
            for y in (np.ones(n), rng.choice([-2.0, -1.0, 1.0, 2.0], n)):
                for s in range(1, n + 1):
                    top, exact = self._top_s_and_exact_l0(y, s)
                    assert top == exact
        assert self._top_s_and_exact_l0(np.ones(3), 1) == ((0,), (0,))

    def test_l1_projection_meets_the_l1_solver(self):
        # the projection is the exact optimum; FISTA stops within its duality gap of it
        rng = np.random.default_rng(5)
        for n in (1, 5, 12, 40):
            y = 2.0 * rng.standard_normal(n)
            X = math.sqrt(n) * np.eye(n)
            for radius in (0.3, 1.0, 1e3):
                beta = harness._sequence_estimate(y, BallSpec(1.0, radius))
                res = l1_constrained_ls(X, y, radius)
                r = y - X @ beta
                assert np.abs(beta).sum() <= radius * (1 + 1e-12)
                assert res.converged
                assert -1e-9 <= res.objective - float(r @ r) <= res.info["duality_gap"] + 1e-9


class TestSequenceModelConfig:
    """The sequence model as ``corollary1_experiment`` sets it up: d = n and
    X = sqrt(n) I in sequence form, solved by projection."""

    @staticmethod
    def _run(monkeypatch, ball, estimate=None):
        """(records, y per trial) of a 3-cell, 2-trial run at tau 1.5 and seed 11."""
        records, ys = [], []
        fit, solve = harness.fit_rate_slope, estimate or harness._sequence_estimate
        with monkeypatch.context() as patch:
            patch.setattr(harness, "fit_rate_slope",
                          lambda recs, *a, **k: records.extend(recs) or fit(recs, *a, **k))
            patch.setattr(harness, "_sequence_estimate",
                          lambda y, ball: ys.append(y) or solve(y, ball))
            corollary1_experiment((16, 32, 64), 1.5, ball, trials_per_cell=2, seed_root=11)
        return records, ys

    def test_record_reproduces_generic_pipeline(self, monkeypatch):
        # y is the regression a d = n sweep draws on sqrt(n) I, bit for bit, and the
        # loss is exact l0's on it
        ball = BallSpec(0.0, 2)
        records, ys = self._run(monkeypatch, ball)
        assert [(r.n, r.d, r.trial) for r in records] == [
            (n, n, t) for n in (16, 32, 64) for t in (0, 1)]
        for rec, y in zip(records, ys):
            n = rec.n
            assert rec.seed == derive_seed(11, n, n, rec.trial)
            X = math.sqrt(n) * np.eye(n)
            beta = generate_sparse_beta(ball, n, seed=derive_seed(rec.seed, 2),
                                        magnitude=1.5 * math.sqrt(2.0 * math.log(n) / n))
            ref = simulate(X, beta, 1.5, seed=rec.seed, ball=ball)
            assert np.array_equal(y, ref.y)
            assert np.count_nonzero(beta) == 2
            exact = l0_least_squares(X, y, 2)
            assert rec.losses["l2"] == pytest.approx(
                loss(LossSpec.l2(), None, exact.beta_hat, beta), rel=1e-12)

    def test_objective_ok_and_wall_ms_are_measured(self, monkeypatch):
        for ball in (BallSpec(0.0, 2), BallSpec(1.0, 2.0)):
            records, _ = self._run(monkeypatch, ball)
            assert all(rec.objective_ok is True for rec in records)
        # an estimate the truth beats fails the basic inequality
        records, _ = self._run(monkeypatch, BallSpec(0.0, 2),
                               lambda y, ball: np.full(len(y), 10.0))
        assert len(records) == 6
        assert all(rec.objective_ok is False for rec in records)
        assert all(rec.wall_ms > 0.0 for rec in records)

    def test_predictor_table(self):
        recs = _synthetic_records(lambda n: 1.0 / n)
        assert fit_rate_slope(recs, predictor="rq_logd_n_pow", q=0.5,
                              radius=2.0).theoretical_slope == 1.0
        with pytest.raises(ParameterError, match="needs s"):
            fit_rate_slope(recs, predictor="s_logd_over_n")
        with pytest.raises(ParameterError, match="needs the ball radius"):
            fit_rate_slope(recs, predictor="rq_logd_n_pow", q=1.0)
        with pytest.raises(ParameterError, match="unknown predictor"):
            fit_rate_slope(recs, predictor="log_n")
        with pytest.raises(ParameterError, match=r"^q must lie in \[0, 1\], got 2.0$"):
            fit_rate_slope(recs, q=2.0)

    def test_two_logn_over_n_predictor(self):
        recs = _synthetic_records(lambda n: 2.0 * math.log(n) / n)
        fit = fit_rate_slope(recs, predictor="two_logn_over_n", q=1.0)
        assert fit.theoretical_slope == 0.5
        assert fit.slope == pytest.approx(1.0)
        assert fit.cells[0][2] == 2.0 * math.log(100) / 100


class TestPersist:
    def test_csv_schema_and_header(self, tmp_path):
        run = run_risk_experiment(_tiny_config())
        path = tmp_path / "records.csv"
        persist(run, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == f"# config={run.config_hash} seed_root=5"
        assert lines[1] == "n,d,trial,seed,loss_l2,loss_pred,objective_ok,wall_ms"
        assert len(lines) == 2 + len(run.records)

    def test_csv_loss_columns_follow_the_losses(self, tmp_path):
        run = run_risk_experiment(_tiny_config(losses=(LossSpec.l2(), LossSpec("lp", 1.0))))
        persist(run, tmp_path / "records.csv", format="csv")
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[1] == "n,d,trial,seed,loss_l1,loss_l2,objective_ok,wall_ms"
        rec = run.records[0]
        assert lines[2] == (f"{rec.n},{rec.d},{rec.trial},{rec.seed},{rec.losses['l1']!r},"
                            f"{rec.losses['l2']!r},{rec.objective_ok},{rec.wall_ms!r}")

    def test_json_round_trip_byte_identical(self, tmp_path):
        run = run_risk_experiment(_tiny_config())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persist(run, p1, format="json")
        persist(load_records(p1), p2, format="json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_fit_persist(self, tmp_path):
        fit = fit_rate_slope(_synthetic_records(lambda n: 1.0 / n))
        persist(fit, tmp_path / "fit.json", format="json")
        doc = json.loads((tmp_path / "fit.json").read_text())
        assert doc["slope"] == pytest.approx(-1.0)

    def test_fit_csv_rejected(self, tmp_path):
        fit = fit_rate_slope(_synthetic_records(lambda n: 1.0 / n))
        with pytest.raises(ParameterError, match="JSON only"):
            persist(fit, tmp_path / "fit.csv", format="csv")
        assert not (tmp_path / "fit.csv").exists()

    def test_diagnostics_persist(self, tmp_path):
        from lqminimax.conditions import diagnose

        diag = diagnose(COUNTEREXAMPLE_X, s=1, c0=1.0)
        persist(diag, tmp_path / "diag.json", format="json")
        doc = json.loads((tmp_path / "diag.json").read_text())
        assert doc["kernel_trivial"] is True
        assert set(doc) == {"kappa_c", "kappa_l", "kappa_u", "re_constant", "re_method",
                            "kernel_trivial", "diam2_estimate"}

    def test_svg_plot(self, tmp_path):
        fit = fit_rate_slope(_synthetic_records(lambda n: 1.0 / n))
        plot_fit_svg(fit, tmp_path / "fit.svg")
        text = (tmp_path / "fit.svg").read_text()
        assert text.startswith("<svg") and "circle" in text


class TestCli:
    def test_counterexample_exit_zero(self, capsys):
        assert cli_main(["counterexample"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_ok"] is True

    def test_rates_t4b(self, capsys):
        code = cli_main(["rates", "--theorem", "T4b",
                         "--params", "n=100,d=8,s=2,sigma=1,q=0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(81 * 2 * math.log(4) / 100, rel=1e-12)
        assert "formula" in doc

    @pytest.mark.parametrize("params, theorem, expected", [
        ("n=100,d=8,s=2,sigma=3", "T4b", 81 * 9 * 2 * math.log(4) / 100),
        ("n=100,d=8,radius=2,tau=3", "T4b", 81 * 9 * 2 * math.log(4) / 100),
        ("n=100,d=8,Rq=2,q=0,c=5", "T4b", 81 * 2 * math.log(4) / 100),
        ("n=100,tau=2,q=0,c=5", "Cor1", 5 * 2 * 4 * math.log(100) / 100),
    ])
    def test_rates_aliases(self, capsys, params, theorem, expected):
        assert cli_main(["rates", "--theorem", theorem, "--params", params]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("theorem, params, used", [
        ("T2a", "n=100,d=64,q=1,Rq=1,kappa_c=1,kappa_l=1,c=5", {}),
        ("T1a", "n=100,d=64,q=1,Rq=1,kappa_c=1,c=5", {"c": 5.0}),
        ("Cor1", "n=100,c=2", {"c": 2.0}),
        ("T4b", "n=100,d=8,s=2", {}),
    ])
    def test_rates_reports_only_constants_used(self, capsys, theorem, params, used):
        assert cli_main(["rates", "--theorem", theorem, "--params", params]) == 0
        assert json.loads(capsys.readouterr().out)["constants_used"] == used

    def test_rates_takes_d_as_given_and_refuses_a_fractional_n(self, capsys):
        def value(params):
            assert cli_main(["rates", "--theorem", "T4b", "--params", params]) == 0
            return json.loads(capsys.readouterr().out)["value"]

        assert value("n=100,d=32.9,s=2") == minimax_rate(RateQuery("T4b", n=100, d=32.9, radius=2))
        assert value("n=100,d=32.9,s=2") != value("n=100,d=32,s=2")
        assert value("n=100.0,d=32,s=2") == value("n=100,d=32,s=2")
        with pytest.raises(ParameterError, match="'n' must be an integer >= 1, got 100.7"):
            cli_main(["rates", "--theorem", "T4b", "--params", "n=100.7,d=32.9,s=2"])

    @pytest.mark.parametrize("params, message", [
        ("n=100,d=8,s=2,sigmaa=3", r"unknown --params keys \['sigmaa'\]; the keys are \['n'"),
        ("n=100,d=64,q=1,Rq=1,kappa_c=1,kappa_l=1,c_U=3", r"unknown --params keys \['c_U'\]"),
        ("n=100,d=8,s=2,radius=3", "--params sets radius twice"),
        ("d=8,s=2", "--params needs n"),
        ("n=100,d,s=2", "--params 'd' is not key=number"),
        ("n=100,d=eight", "--params 'd=eight' is not key=number"),
    ])
    def test_rates_bad_params_rejected(self, params, message):
        with pytest.raises(ParameterError, match=message):
            cli_main(["rates", "--theorem", "T2a", "--params", params])

    def test_simulate_with_estimator(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = cli_main([
            "simulate", "--n", "20", "--d", "6", "--q", "0", "--radius", "2",
            "--sigma", "0.1", "--seed", "3", "--estimator", "l0", "--s", "2",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective_ok"] is True
        saved = json.loads(out.read_text())
        assert saved["n"] == 20 and len(saved["X"]) == 120

        # every --estimator kind emits exactly what a direct solver call gives
        cases = {
            "l0": (0.0, 2.0, lambda inst: l0_least_squares(inst.X, inst.y, 2)),
            "l1": (1.0, 2.0, lambda inst: l1_constrained_ls(inst.X, inst.y, 2.0)),
            "lq": (0.5, 1.5, lambda inst: lq_constrained_ls(
                inst.X, inst.y, inst.ball, [inst.beta_star, np.zeros(inst.d)])),
            "lasso": (0.0, 2.0, lambda inst: lasso(inst.X, inst.y, 0.05)),
        }
        for kind, (q, radius, solve) in cases.items():
            code = cli_main([
                "simulate", "--n", "20", "--d", "6", "--q", str(q),
                "--radius", str(radius), "--sigma", "0.1", "--seed", "3",
                "--estimator", kind, "--lambda", "0.05",
            ])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            # --seed is a trial seed: design, truth and noise streams as in the harness
            ball = BallSpec(q, radius)
            X = generate_design(DesignSpec("standard_gaussian", 20, 6, seed=derive_seed(3, 1)))
            beta = generate_sparse_beta(ball, 6, magnitude=1.0, seed=derive_seed(3, 2))
            inst = simulate(X, beta, 0.1, seed=3, ball=ball)
            assert doc["beta_support"] == np.flatnonzero(beta).tolist(), kind
            expected = json.loads(json.dumps(solve(inst).to_json_dict()))
            assert doc["estimate"] == expected, kind

    def test_check_design_csv(self, tmp_path, capsys):
        path = tmp_path / "X.csv"
        np.savetxt(path, np.vstack([COUNTEREXAMPLE_X, COUNTEREXAMPLE_X]), delimiter=",")
        code = cli_main(["check-design", "--input", str(path), "--s", "1",
                         "--c0", "1.0", "--require-kernel-trivial"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kernel_trivial"] is True

    def test_check_design_exit_code_on_failure(self, tmp_path, capsys):
        col = np.arange(1.0, 5.0)
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.column_stack([col, col, col]), delimiter=",")
        code = cli_main(["check-design", "--input", str(path), "--s", "1",
                         "--require-kernel-trivial"])
        assert code == 1

    @pytest.mark.parametrize("delta", ["-0.5", "0", "nan", "inf"])
    def test_pack_rejects_a_bad_rescale(self, delta):
        with pytest.raises(ParameterError, match="'delta_n' must be a finite number > 0"):
            cli_main(["pack", "--d", "6", "--s", "2", "--rescale", delta])

    def test_pack_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "pack.csv"
        code = cli_main(["pack", "--d", "6", "--s", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cardinality"] >= doc["guaranteed_cardinality"]
        assert out.exists() and (tmp_path / "pack.csv.json").exists()

    def test_fit_rate_from_config_file(self, tmp_path, capsys):
        cfg = _tiny_config(n_grid=(10, 20, 40), trials_per_cell=4)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        records = tmp_path / "records.csv"
        plot = tmp_path / "fit.svg"
        code = cli_main(["fit-rate", "--config", str(cfg_path),
                         "--out-records", str(records), "--plot", str(plot)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_points"] == 3
        assert records.exists() and plot.exists()

    def test_fit_rate_rejects_an_unknown_loss_before_the_sweep(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fit-rate ran the sweep for a loss the config does not define")

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(_tiny_config(n_grid=(10, 20, 40)).to_json_dict()))
        monkeypatch.setattr(harness, "run_risk_experiment", refuse)
        with pytest.raises(ParameterError,
                           match=r"the records carry no loss 'l1'; they carry \['l2', 'pred'\]"):
            cli_main(["fit-rate", "--config", str(cfg_path), "--loss", "l1"])

    def test_simulate_without_estimator_builds_none(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate --estimator none built a config or ran a solver")

        monkeypatch.setattr(ExperimentConfig, "__post_init__", refuse)
        monkeypatch.setattr(harness, "_run_estimator", refuse)
        assert cli_main(["simulate", "--n", "20", "--d", "6", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "estimate" not in doc and doc["beta_support"]

    def test_simulate_l0_s_defaults_to_the_ball(self, capsys):
        argv = ["simulate", "--n", "20", "--d", "6", "--q", "0", "--radius", "2",
                "--sigma", "0.1", "--estimator", "l0"]
        assert cli_main(argv) == 0
        assert np.count_nonzero(json.loads(capsys.readouterr().out)["estimate"]["beta_hat"]) == 2
        assert cli_main(argv + ["--s", "1"]) == 0
        assert np.count_nonzero(json.loads(capsys.readouterr().out)["estimate"]["beta_hat"]) == 1
        # --s 0 is an explicit budget, not a missing one
        with pytest.raises(ParameterError, match="'s' must be an integer >= 1, got 0"):
            cli_main(argv + ["--s", "0"])
        with pytest.raises(ParameterError, match="needs --s"):
            cli_main(["simulate", "--n", "20", "--d", "6", "--q", "0.5", "--radius", "2",
                      "--estimator", "l0"])

    def test_simulate_rejects_an_infinite_radius(self):
        with pytest.raises(ParameterError, match="'radius' must be a finite number > 0"):
            cli_main(["simulate", "--n", "20", "--d", "6", "--q", "0.5", "--radius", "inf"])

    def test_simulate_has_no_design_option(self, capsys):
        # simulate draws standard Gaussian designs only
        with pytest.raises(SystemExit):
            cli_main(["simulate", "--design", "identity_sequence", "--n", "4", "--d", "4"])
        assert "unrecognized arguments: --design" in capsys.readouterr().err

    def test_simulate_pattern_choices(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "--n", "5", "--d", "5", "--pattern", "explicit"])
        assert "first_coordinates" in capsys.readouterr().err

    def test_fit_rate_two_logn_over_n_matches_corollary1(self, tmp_path, capsys):
        # a d = n sweep fitted against 2 log n / n states the sequence model's theory
        # slope at the sequence model's points, and fits as fit_rate_slope does
        cfg = _tiny_config(d_rule=("proportional", 1.0), beta_magnitude_rule="threshold_logd")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        code = cli_main(["fit-rate", "--config", str(cfg_path),
                         "--predictor", "two_logn_over_n"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        fit = fit_rate_slope(run_risk_experiment(cfg).records, predictor="two_logn_over_n")
        seq = corollary1_experiment((10, 20, 40), 0.5, BallSpec(0.0, 1), trials_per_cell=3,
                                    seed_root=5)
        assert doc["slope"] == fit.slope
        assert doc["theoretical_slope"] == seq.theoretical_slope == 1.0
        assert [c[:3] for c in doc["cells"]] == [list(c[:3]) for c in seq.cells]

    def _tiny_l0_config(self, tmp_path):
        """The tiny l0 config file that the tier1 workflow's fit-rate step runs."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"ball": {"q": 0, "radius": 1},
                                    "estimator": {"kind": "l0", "s": 1},
                                    "d_rule": ["fixed", 4], "n_grid": [10, 20, 40], "sigma": 1}))
        return str(path)

    def test_fit_rate_unknown_loss_names_the_losses(self, tmp_path):
        with pytest.raises(ParameterError, match=r"carry no loss 'l1'; they carry \['l2', 'pred'\]"):
            cli_main(["fit-rate", "--config", self._tiny_l0_config(tmp_path), "--loss", "l1"])

    def test_fit_rate_refuses_zero_workers(self, tmp_path):
        with pytest.raises(ParameterError, match="'n_workers' must be an integer >= 1, got 0"):
            cli_main(["fit-rate", "--config", self._tiny_l0_config(tmp_path), "--workers", "0"])
