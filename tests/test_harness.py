import json
import math

import numpy as np
import pytest

from lqminimax import harness
from lqminimax.cli import main as cli_main
from lqminimax.errors import DimensionError, ParameterError
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
    BasicInequalityCheck,
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
    sequence_model_instance,
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
        ({"design_kind": "correlated_gaussian", "sigma_cov": ((1.0, 0.5), (0.5, 1.0))},
         "89a581e460b8d624"),
        ({"design_kind": "identity_sequence", "d_rule": ("proportional", 1.0),
          "beta_magnitude_rule": "threshold_logd"}, "e26f667ebb06901a"),
        ({"ball": BallSpec(1.0, 2.0), "estimator": {"kind": "l1", "radius": 2.0}},
         "cef542eebabea7f9"),
        ({"ball": BallSpec(0.5, 2.0), "estimator": {"kind": "lq"}}, "467675f2fc774a56"),
        ({"estimator": {"kind": "lasso", "lam": 0.1}}, "f9d74994885ea97f"),
    ])
    def test_known_names_keep_their_hash(self, overrides, expected):
        assert config_hash(_tiny_config(**overrides)) == expected

    def test_missing_required_key_rejected(self):
        doc = _tiny_config().to_json_dict()
        del doc["sigma"]
        with pytest.raises(ParameterError, match="sigma"):
            ExperimentConfig.from_json_dict(doc)


class TestRunRiskExperiment:
    def test_record_count_and_determinism(self):
        cfg = _tiny_config()
        run1 = run_risk_experiment(cfg)
        run2 = run_risk_experiment(cfg)
        assert len(run1) == 9
        for a, b in zip(run1.records, run2.records):
            assert a.losses == b.losses  # bit-identical
            assert a.seed == b.seed

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
        est = {"kind": kind, "radius": 1.5, "lam": 0.05, "max_iter": 1, "tol": 1e-3}
        got = harness._run_estimator(est, inst)
        assert got.to_json_dict() == solve(inst).to_json_dict()
        del est["max_iter"], est["tol"]  # the solver's own defaults
        assert harness._run_estimator(est, inst).iterations > got.iterations


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

    def test_composite_predictor(self):
        recs = _synthetic_records(lambda n: 2 * math.log(16 / 2) * 2.0 / n)
        fit = fit_rate_slope(recs, predictor="s_logd_over_n", s=2)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.theoretical_slope == 1.0


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


class TestSequenceModelConfig:
    @staticmethod
    def _config(**overrides):
        base = dict(ball=BallSpec(0.0, 2), sigma=1.5, n_grid=(16, 32, 64),
                    estimator={"kind": "l0", "s": 2}, d_rule=("proportional", 1.0),
                    design_kind="identity_sequence", trials_per_cell=2,
                    losses=(LossSpec.l2(),), seed_root=11,
                    beta_magnitude_rule="threshold_logd")
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_record_reproduces_sequence_model_instance(self, monkeypatch):
        seen = []
        real = harness._run_estimator

        def spy(est, inst):
            seen.append(inst)
            return real(est, inst)

        monkeypatch.setattr(harness, "_run_estimator", spy)
        config = self._config()
        records = run_risk_experiment(config).records
        assert len(seen) == len(records) == 6
        for rec, inst in zip(records, seen):
            n = rec.n
            assert rec.d == inst.d == n
            ref = sequence_model_instance(n, 1.5, config.ball, seed=rec.seed,
                                          magnitude=1.5 * math.sqrt(2.0 * math.log(n) / n))
            assert np.array_equal(inst.X, np.eye(n))
            assert np.array_equal(inst.beta_star, ref.beta_star)
            assert np.count_nonzero(inst.beta_star) == 2
            assert np.array_equal(inst.y, ref.y)
            assert inst.sigma == ref.sigma == pytest.approx(1.5 / math.sqrt(n), rel=1e-15)

    def test_objective_ok_and_wall_ms_are_measured(self, monkeypatch):
        calls = []

        def failing_check(inst, result):
            calls.append((inst.X.shape, float(inst.sigma)))
            return BasicInequalityCheck(objective_ok=False, eqn_basic_ok=False,
                                        lhs=1.0, rhs=0.0)

        monkeypatch.setattr(harness, "check_basic_inequality", failing_check)
        config = self._config(estimator={"kind": "l1", "radius": 2.0}, ball=BallSpec(1.0, 2.0))
        records = run_risk_experiment(config).records
        assert len(calls) == len(records) == 6
        assert all(rec.objective_ok is False for rec in records)
        assert all(rec.wall_ms > 0.0 for rec in records)
        assert calls[0] == ((16, 16), pytest.approx(1.5 / 4.0))

    def test_fixed_dimension_rejected(self):
        with pytest.raises(ParameterError, match="identity_sequence"):
            self._config(d_rule=("fixed", 32))

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

    def test_simulate_identity_sequence_sigma_is_tau(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = cli_main(["simulate", "--design", "identity_sequence", "--n", "400",
                         "--d", "400", "--sigma", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sigma"] == 1.0 / math.sqrt(400)
        saved = json.loads(out.read_text())
        ref = sequence_model_instance(400, 1.0, BallSpec(0.0, 1), seed=0)
        assert np.array_equal(saved["y"], ref.y)
        assert np.std(ref.noise()) == pytest.approx(0.05, rel=0.1)
        with pytest.raises(DimensionError, match="n == d"):
            cli_main(["simulate", "--design", "identity_sequence", "--n", "40", "--d", "30"])

    def test_simulate_pattern_choices(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["simulate", "--n", "5", "--d", "5", "--pattern", "explicit"])
        assert "first_coordinates" in capsys.readouterr().err

    def test_fit_rate_two_logn_over_n_matches_corollary1(self, tmp_path, capsys, monkeypatch):
        configs = []
        real = harness.run_risk_experiment

        def spy(config, n_workers=1):
            configs.append(config)
            return real(config, n_workers)

        monkeypatch.setattr(harness, "run_risk_experiment", spy)
        fit = corollary1_experiment((64, 128, 256), 1.0, BallSpec(0.0, 2),
                                    trials_per_cell=10, seed_root=3)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(configs[0].to_json_dict()))
        code = cli_main(["fit-rate", "--config", str(cfg_path),
                         "--predictor", "two_logn_over_n"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slope"] == fit.slope
        assert doc["theoretical_slope"] == fit.theoretical_slope == 1.0
