"""The scalar contract: one rule table in ``errors``, and every public entry point that
takes a scalar refuses a bad one with a ParameterError naming it.  The array contract:
every entry point that takes a design checks it through ``errors.as_design``."""

import json

import math

import numpy as np
import pytest

from lqminimax.ballgeom import (
    EntropyBoundParams,
    entropy_bounds,
    greedy_pack,
    hamming_packing,
    qconvex_entropy_bound,
    rescale_hypercube_packing,
    truncation_inequality,
)
from lqminimax.bounds import (
    FanoParams,
    RateQuery,
    chi_square_tails,
    fano_error_bound,
    log_binomial,
    minimax_rate,
    sup_correlation_exact,
    sup_correlation_pred_exact,
)
from lqminimax.cli import main as cli_main
from lqminimax.conditions import (
    REParams,
    column_norm_constant,
    diagnose,
    kernel_diameter,
    kernel_trivial_zero,
    prop1_margins,
    re_constant,
    sparse_min_singular,
    sparse_spectrum,
    verify_prop1,
)
from lqminimax.errors import SCALAR_RULES, DimensionError, ParameterError, require_scalars
from lqminimax.estimators import l1_constrained_ls, lasso, lq_constrained_ls
from lqminimax.harness import min_l1_interpolant
from lqminimax.linmodel import (BallSpec, DesignSpec, InstanceSpec, derive_seed, generate_design,
                                generate_sparse_beta, simulate, split_streams)

nan, inf = math.nan, math.inf


@pytest.mark.parametrize("rule, accepted, refused", [
    ("count", [1, 7, np.int64(3), np.uint8(1)], [0, -2, 2.0, True, np.bool_(True), nan, "1", None]),
    ("index", [0, 5, np.int32(0)], [-1, 1.5, False, inf, "0"]),
    ("positive", [1e-300, 2, np.float32(0.5), np.int64(4)], [0, 0.0, -1.0, nan, inf, True, "1"]),
    ("nonnegative", [0, 0.0, 3.5, np.float64(2.0)], [-1e-300, nan, inf, False, np.bool_(False)]),
    ("finite", [-5, 0.0, 1e300, np.float64(-1.5)], [nan, -inf, True, "0", None]),
])
def test_rule_table(rule, accepted, refused):
    for value in accepted:
        require_scalars(rule, x=value)
    for value in refused:
        with pytest.raises(ParameterError,
                           match=rf"^'x' must be {SCALAR_RULES[rule][1]}, got "):
            require_scalars(rule, x=value)


def test_first_bad_key_is_named():
    with pytest.raises(ParameterError, match=r"^'b' must be a finite number > 0, got nan$"):
        require_scalars("positive", a=1.0, b=nan, c=-1.0)


_RNG = np.random.default_rng(0)
_X, _W = _RNG.standard_normal((6, 4)), _RNG.standard_normal(6)
_FANO = dict(delta_n=1.0, epsilon_n=0.5, log_pack=5.0, log_cover=1.0, n=10, sigma=1.0,
             kappa_c=1.0)
_T1A = dict(n=100, q=0.5, d=32, kappa_c=1.0, constants={"c": 1.0})
_T2A = dict(n=100, q=0.5, d=32, kappa_c=1.0, kappa_l=1.0)

# (the argument the error names, the call); the first block reproduces values that
# used to return a plausible-looking answer or die with a bare TypeError
_REFUSALS = [
    ("n", lambda: fano_error_bound(FanoParams(**{**_FANO, "n": -300}))),
    ("log_cover", lambda: fano_error_bound(FanoParams(**{**_FANO, "log_cover": -50.0}))),
    ("kappa_c", lambda: fano_error_bound(FanoParams(**{**_FANO, "kappa_c": nan}))),
    ("rq", lambda: entropy_bounds(2.0, 0.5, -1.0, 10, 0.5)),
    ("rq", lambda: qconvex_entropy_bound(0.5, -1.0, 10, 0.5, 1.0)),
    ("U_const", lambda: EntropyBoundParams(U_const=nan)),
    ("n", lambda: minimax_rate(RateQuery("T4b", n=nan, radius=2.0, d=8))),
    ("kappa_l", lambda: minimax_rate(RateQuery("T2a", **{**_T2A, "kappa_l": nan}))),
    ("diam_term", lambda: minimax_rate(RateQuery("T1a", diam_term=nan, **_T1A))),
    ("x", lambda: chi_square_tails(5, nan)),
    ("tau", lambda: truncation_inequality(np.zeros(4), 1.0, 0.5, nan)),
    ("r", lambda: sup_correlation_exact(_X, _W, 1, r=nan)),
    ("c0", lambda: re_constant(_X, REParams(s=2, c0=nan))),
    ("s", lambda: REParams(s=True, c0=1.0)),
    ("magnitude", lambda: generate_sparse_beta(BallSpec(0, 2), 8, magnitude=nan)),
    ("s", lambda: sup_correlation_exact(_X, _W, 1.5, 1.0)),
    ("s", lambda: hamming_packing(6, 2.0)),
    # the other scalar arguments of the same entry points
    ("radius", lambda: BallSpec(0.5, True)),
    ("sigma", lambda: InstanceSpec(ball=BallSpec(0, 1), sigma=True)),
    ("beta_magnitude", lambda: InstanceSpec(ball=BallSpec(0, 1), sigma=1.0, beta_magnitude=inf)),
    ("sigma", lambda: simulate(_X, np.zeros(4), -1.0)),
    ("rq", lambda: truncation_inequality(np.zeros(4), nan, 0.5, 1.0)),
    ("d", lambda: hamming_packing(6.0, 2)),
    ("delta_n", lambda: rescale_hypercube_packing(hamming_packing(6, 2), nan, 2)),
    ("s", lambda: rescale_hypercube_packing(hamming_packing(6, 2), 1.0, 2.0)),
    ("delta", lambda: greedy_pack(np.eye(3), delta=True)),
    ("L_const", lambda: EntropyBoundParams(L_const=0.0)),
    ("p", lambda: entropy_bounds(nan, 0.5, 1.0, 10, 0.5)),
    ("epsilon", lambda: entropy_bounds(2.0, 0.5, 1.0, 10, nan)),
    ("d", lambda: entropy_bounds(2.0, 0.5, 1.0, nan, 0.5)),
    ("epsilon", lambda: qconvex_entropy_bound(0.5, 1.0, 10, -0.5, 1.0)),
    ("kappa_c", lambda: qconvex_entropy_bound(0.5, 1.0, 10, 0.5, nan)),
    ("u2", lambda: qconvex_entropy_bound(0.5, 1.0, 10, 0.5, 1.0, u2=-1.0)),
    ("d", lambda: qconvex_entropy_bound(0.5, 1.0, inf, 0.5, 1.0)),
    ("n", lambda: RateQuery("T4b", n=100.5, radius=2.0, d=8)),
    ("sigma", lambda: RateQuery("T4b", n=100, sigma=nan, radius=2.0, d=8)),
    ("radius", lambda: RateQuery("T4b", n=100, radius=inf, d=8)),
    ("diam_term", lambda: RateQuery("T1a", diam_term=-1.0, **_T1A)),
    ("d", lambda: minimax_rate(RateQuery("T4b", n=100, radius=2.0, d=nan))),
    ("kappa_c", lambda: minimax_rate(RateQuery("T1a", **{**_T1A, "kappa_c": inf}))),
    ("delta_n", lambda: FanoParams(**{**_FANO, "delta_n": 0.0})),
    ("epsilon_n", lambda: FanoParams(**{**_FANO, "epsilon_n": nan})),
    ("log_pack", lambda: FanoParams(**{**_FANO, "log_pack": inf})),
    ("sigma", lambda: FanoParams(**{**_FANO, "sigma": -1.0})),
    ("c_route", lambda: FanoParams(**_FANO, c_route=nan)),
    ("n", lambda: FanoParams(**{**_FANO, "n": 10.0})),
    ("m", lambda: chi_square_tails(2.5, 1.0)),
    ("s", lambda: sup_correlation_pred_exact(_X, _W, 0, 1.0)),
    ("r", lambda: sup_correlation_pred_exact(_X, _W, 1, -1.0)),
    ("d", lambda: log_binomial(-1, 0)),
    ("s", lambda: log_binomial(10, 2.5)),
    ("s", lambda: REParams(s=2.0, c0=1.0)),
    ("c0", lambda: REParams(s=2, c0=-0.5)),
    ("s", lambda: sparse_spectrum(_X, 1.5)),
    ("level", lambda: sparse_min_singular(_X, True)),
    ("s", lambda: kernel_trivial_zero(_X, 0)),
    ("n_samples", lambda: re_constant(_X, REParams(s=1, c0=1.0), n_samples=-1)),
    ("n_samples", lambda: kernel_diameter(_X, BallSpec(0.5, 1.0), n_samples=2.5)),
    ("s", lambda: diagnose(_X, 1.0)),
    ("c0", lambda: diagnose(_X, 1, c0=nan)),
    ("n_samples", lambda: diagnose(_X, 1, n_samples=nan)),
    ("n_draws", lambda: verify_prop1(DesignSpec("standard_gaussian", 10, 4), n_draws=0)),
    ("n_directions", lambda: verify_prop1(DesignSpec("standard_gaussian", 10, 4),
                                          n_directions=2.0)),
    # seeds, under the index rule; numpy's own refusal was a bare ValueError
    ("root", lambda: derive_seed(-1, 2)),
    ("part 1", lambda: derive_seed(0, 2, -3)),
    ("seed", lambda: split_streams(-1)),
    ("seed", lambda: simulate(_X, np.zeros(4), 1.0, seed=-1)),
    ("seed", lambda: generate_design(DesignSpec("standard_gaussian", 6, 4, seed=-1))),
    ("seed", lambda: re_constant(_X, REParams(s=1, c0=1.0), seed=-1)),
    ("seed", lambda: kernel_diameter(_X, BallSpec(0.5, 1.0), seed=1.5)),
    ("seed", lambda: diagnose(_X, 1, seed=-1)),
    ("seed", lambda: verify_prop1(DesignSpec("standard_gaussian", 10, 4), seed=True)),
    # DesignSpec checks n, d and seed when it is built; numpy's refusal was a bare TypeError
    ("n", lambda: DesignSpec("standard_gaussian", 10.5, 4)),
    ("n", lambda: DesignSpec("standard_gaussian", True, 4)),
    ("d", lambda: DesignSpec("standard_gaussian", 10, 4.0)),
    ("seed", lambda: DesignSpec("standard_gaussian", 10, 4, seed=1.5)),
]


@pytest.mark.parametrize("name, call", _REFUSALS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(_REFUSALS)])
def test_bad_scalar_refused_by_name(name, call):
    with pytest.raises(ParameterError, match=f"^'{name}' must be "):
        call()


def test_boundary_values_accepted():
    assert fano_error_bound(FanoParams(**{**_FANO, "log_cover": 0})) > 0.0
    assert re_constant(_X, REParams(s=1, c0=0)).value > 0.0
    assert sup_correlation_exact(_X, _W, 1, r=0) == 0.0
    assert sup_correlation_pred_exact(_X, _W, 1, r=0) == 0.0
    t1a = RateQuery("T1a", diam_term=0, **_T1A)
    assert minimax_rate(t1a) > 0.0
    at_e = minimax_rate(RateQuery("T2a", n=100, q=1.0, d=math.e, kappa_c=1.0, kappa_l=1.0))
    assert at_e == pytest.approx(24.0 / math.sqrt(100))  # log log e = 0
    assert entropy_bounds(2.0, 1.0, 1.0, math.e, 0.5).upper > 0.0
    assert log_binomial(0, 0).value == 0.0
    assert not chi_square_tails(np.int64(3), np.float32(0.5)).simplified_valid  # numpy scalars
    assert simulate(_X, np.ones(4), 0).sigma == 0.0


# entry point -> (its call on a design X and a vector, the vector's name and the axis
# of X its length must match, or None when it takes no vector)
_DESIGN_CALLS = {
    "l1_constrained_ls": (lambda X, y: l1_constrained_ls(X, y, 1.0), ("y", 0)),
    "lq_constrained_ls": (lambda X, y: lq_constrained_ls(X, y, BallSpec(0.5, 1.0),
                                                         [np.zeros(4)]), ("y", 0)),
    "lasso": (lambda X, y: lasso(X, y, 0.1), ("y", 0)),
    "sup_correlation_exact": (lambda X, w: sup_correlation_exact(X, w, 1, 1.0), ("w", 0)),
    "sup_correlation_pred_exact": (lambda X, w: sup_correlation_pred_exact(X, w, 1, 1.0),
                                   ("w", 0)),
    "min_l1_interpolant": (lambda X, y: min_l1_interpolant(X, y), ("y", 0)),
    "column_norm_constant": (lambda X, _: column_norm_constant(X), None),
    "sparse_spectrum": (lambda X, _: sparse_spectrum(X, 1), None),
    "sparse_min_singular": (lambda X, _: sparse_min_singular(X, 1), None),
    "kernel_trivial_zero": (lambda X, _: kernel_trivial_zero(X, 1), None),
    "re_constant": (lambda X, _: re_constant(X, REParams(s=1, c0=1.0), n_samples=10), None),
    "kernel_diameter": (lambda X, _: kernel_diameter(X, BallSpec(0.5, 1.0), n_samples=10),
                        None),
    "prop1_margins": (lambda X, v: prop1_margins(X, np.eye(4), v), ("v", 1)),
    "diagnose": (lambda X, _: diagnose(X, 1, n_samples=10), None),
}

# bad input -> (X's shape, the vector's shape, the argument holding a NaN, the error);
# 6 x 4 is a valid design, and "vector" stands for the vector's name
_BAD_DESIGNS = {
    "1-D X": ((6,), 6, None, r"X must be 2-D and non-empty, got shape \(6,\)"),
    "0-row X": ((0, 4), 0, None, r"X must be 2-D and non-empty, got shape \(0, 4\)"),
    "0-column X": ((6, 0), 6, None, r"X must be 2-D and non-empty, got shape \(6, 0\)"),
    "vector of the wrong length": ((6, 4), 7, None, r"vector has shape \(7,\), expected"),
    "NaN in X": ((6, 4), None, "X", "X has non-finite entries"),
    "NaN in the vector": ((6, 4), None, "vector", "vector has non-finite entries"),
}
_BAD_CASES = [(entry, bad) for entry in sorted(_DESIGN_CALLS) for bad in _BAD_DESIGNS
              if _DESIGN_CALLS[entry][1] or "vector" not in bad]


@pytest.mark.parametrize("entry, bad", _BAD_CASES)
def test_bad_design_refused(entry, bad):
    # the conditions entry points used to end in numpy's untyped ValueError,
    # IndexError, LinAlgError or TypeError here, or return a number
    call, vector = _DESIGN_CALLS[entry]
    name, axis = vector or ("", 0)
    shape, length, nan_in, message = _BAD_DESIGNS[bad]
    X = np.random.default_rng(3).standard_normal(shape)
    v = np.ones(X.shape[axis] if length is None else length)
    if nan_in == "X":
        X[2, 1] = np.nan
    elif nan_in == "vector":
        v[1] = np.nan
    error = ParameterError if nan_in else DimensionError
    with pytest.raises(error, match="^" + message.replace("vector", name)):
        call(X, v)


def test_check_design_refuses_a_vector(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"X": [1, 2, 3, 4]}))
    with pytest.raises(DimensionError, match=r"^X must be 2-D and non-empty, got shape \(4,\)$"):
        cli_main(["check-design", "--input", str(path), "--s", "1"])
