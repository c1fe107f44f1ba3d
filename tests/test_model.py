import numpy as np
import pytest

import netar as na
from netar.model import (ModelSpec, cond_mean, jac_elementwise, parse_spec,
                         stability_check)


def _all_specs():
    return [
        ModelSpec.linear((1.2, 0.3, 0.4), "count"),
        ModelSpec.linear((1.2, -0.3, 0.4), "cont"),
        ModelSpec.drift((1.5, 0.4, 0.3), 0.7, "count"),
        ModelSpec.drift((1.5, 0.4, 0.3), 0.7, "cont"),
        ModelSpec.stnar((1.0, 0.3, 0.2), 0.4, 0.8, "count"),
        ModelSpec.stnar((1.0, 0.3, 0.2), 0.4, 0.8, "cont"),
        ModelSpec.tnar((1.0, 0.3, 0.2), (0.2, 0.1, 0.15), 1.0, "count"),
        ModelSpec.tnar((1.0, 0.3, 0.2), (0.2, 0.1, 0.15), 1.0, "cont"),
    ]


def test_linear_zero_input_returns_intercept(small_net):
    spec = ModelSpec.linear((1.5, 0.4, 0.5), "count")
    lam = cond_mean(spec, small_net, np.zeros(small_net.n))
    assert np.allclose(lam, 1.5)


def test_drift_at_zero_rate_reduces_to_linear(small_net, rs):
    y = rs.uniform(0, 5, small_net.n)
    lin = cond_mean(ModelSpec.linear((1.5, 0.4, 0.5), "count"), small_net, y)
    drift = cond_mean(ModelSpec.drift((1.5, 0.4, 0.5), 0.0, "count"), small_net, y)
    assert np.array_equal(lin, drift)


def test_stnar_at_zero_amplitude_reduces_to_linear(small_net, rs):
    y = rs.uniform(0, 5, small_net.n)
    lin = cond_mean(ModelSpec.linear((1.0, 0.3, 0.2), "count"), small_net, y)
    for gamma in (0.05, 0.5, 2.0):
        st = cond_mean(ModelSpec.stnar((1.0, 0.3, 0.2), 0.0, gamma, "count"), small_net, y)
        assert np.allclose(st, lin, atol=1e-15)


def test_tnar_with_zero_jumps_reduces_to_linear(small_net, rs):
    y = rs.uniform(0, 5, small_net.n)
    lin = cond_mean(ModelSpec.linear((1.0, 0.3, 0.2), "count"), small_net, y)
    for gamma in (0.1, 1.0, 10.0):
        tn = cond_mean(ModelSpec.tnar((1.0, 0.3, 0.2), (0, 0, 0), gamma, "count"), small_net, y)
        assert np.array_equal(tn, lin)


def test_tnar_threshold_below_all_x_gives_linear_part(small_net):
    y = np.full(small_net.n, 4.0)
    x = small_net.w @ y
    spec = ModelSpec.tnar((1.0, 0.3, 0.2), (0.5, 0.2, 0.1), float(x.min()) - 1.0, "count")
    lin = cond_mean(ModelSpec.linear((1.0, 0.3, 0.2), "count"), small_net, y)
    assert np.array_equal(cond_mean(spec, small_net, y), lin)


def test_tnar_tie_sits_in_lower_regime():
    net = na.row_normalize([(0, 1), (1, 0)], 2)
    y = np.array([2.0, 2.0])          # x = (2, 2) exactly at the threshold
    spec = ModelSpec.tnar((1.0, 0.3, 0.2), (0.5, 0.0, 0.0), 2.0, "count")
    lam = cond_mean(spec, net, y)
    assert np.allclose(lam, 1.0 + 0.6 + 0.4 + 0.5)


def test_count_domain_mean_bounded_away_from_zero(small_net, rs):
    # intercept floor holds exactly for the families whose nonlinear terms
    # are additive and nonnegative; the drift family keeps a positive floor
    for spec in _all_specs():
        if spec.domain != "count":
            continue
        for _ in range(5):
            y = rs.uniform(0, 8, small_net.n)
            lam = cond_mean(spec, small_net, y)
            if spec.family == "drift":
                assert lam.min() > 0.0
            else:
                assert lam.min() >= spec.beta[0] - 1e-12


def test_gradient_matches_finite_differences(small_net, rs):
    h = 1e-6
    for spec in _all_specs():
        for _ in range(3):
            y = rs.uniform(0, 4, small_net.n)
            if spec.domain == "cont":
                y = y - 1.5
            jac = jac_elementwise(spec, small_net.w @ y, y).T
            theta = spec.active_theta()
            for j in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (cond_mean(spec.with_active(tp), small_net, y)
                      - cond_mean(spec.with_active(tm), small_net, y)) / (2 * h)
                rel = np.max(np.abs(jac[:, j] - fd) / (np.abs(fd) + 1e-8))
                assert rel < 1e-6, (spec.family, spec.domain, j)


def test_drift_gradient_at_null_matches_closed_form(small_net, rs):
    y = rs.uniform(0, 5, small_net.n)
    x = small_net.w @ y
    spec = ModelSpec.drift((1.5, 0.4, 0.5), 0.0, "count")
    jac = jac_elementwise(spec, x, y).T
    assert np.allclose(jac[:, 3], -1.5 * np.log1p(x), atol=1e-14)


def test_permutation_equivariance(rs):
    n = 20
    net = na.gen_er(n, 0.3, seed=3)
    perm = rs.permutation(n)
    net_p = na.row_normalize(
        np.column_stack([perm[net.edges[:, 0]], perm[net.edges[:, 1]]]), n)
    y = rs.uniform(0, 5, n)
    for spec in _all_specs()[:4]:
        lam = cond_mean(spec, net, y)
        y_p = np.empty(n)
        y_p[perm] = y
        lam_p = cond_mean(spec, net_p, y_p)
        assert np.allclose(lam_p[perm], lam, atol=1e-12)


def test_stnar_deviation_bounded_by_amplitude_times_x(small_net, rs):
    y = rs.uniform(0, 6, small_net.n)
    x = small_net.w @ y
    lin = cond_mean(ModelSpec.linear((1.0, 0.3, 0.2), "count"), small_net, y)
    for alpha, gamma in [(0.4, 0.05), (0.4, 2.0), (0.1, 0.5)]:
        st = cond_mean(ModelSpec.stnar((1.0, 0.3, 0.2), alpha, gamma, "count"), small_net, y)
        assert np.all(np.abs(st - lin) <= alpha * np.abs(x) + 1e-12)


def test_stability_linear_example():
    v = stability_check(ModelSpec.linear((1.5, 0.4, 0.5), "count"))
    assert v.condition_value == pytest.approx(0.9)
    assert v.sufficient_holds


def test_stability_drift_count_example():
    # b1* = max(0.4, 1.5*1 - 0.4) = 1.1, value 1.6: inconclusive
    v = stability_check(ModelSpec.drift((1.5, 0.4, 0.5), 1.0, "count"))
    assert v.condition_value == pytest.approx(1.6)
    assert not v.sufficient_holds


def test_stability_stnar_examples():
    ok = stability_check(ModelSpec.stnar((1.0, 0.3, 0.2), 0.1, 1.0, "count"))
    assert ok.condition_value == pytest.approx(0.6) and ok.sufficient_holds
    bad = stability_check(ModelSpec.stnar((1.0, 0.3, 0.2), 0.5, 1.0, "count"))
    assert bad.condition_value == pytest.approx(1.0) and not bad.sufficient_holds


def test_count_stability_values_equal_the_count_formulas():
    # count parameters are nonnegative, so the one condition per family reads
    # the value of the count formulas it replaced, bit for bit
    levels = (0.0, 0.05, 0.3, 0.45, 0.7, 1.5)
    for b0 in (0.0, 0.2, 1.0, 2.5):
        for b1 in levels:
            for b2 in levels:
                for x in (0.0, 0.1, 0.4, 1.0, 2.0):
                    for spec, value in [
                            (ModelSpec.linear((b0, b1, b2), "count"), b1 + b2),
                            (ModelSpec.drift((b0, b1, b2), x, "count"),
                             max(b1, b0 * x - b1) + b2),
                            (ModelSpec.stnar((b0, b1, b2), x, 1.0, "count"), b1 + x + b2)]:
                        v = stability_check(spec)
                        assert v.condition_value == value, spec
                        assert v.sufficient_holds == (value < 1.0)


def test_stability_tnar_needs_network(small_net):
    spec = ModelSpec.tnar((1.0, 0.3, 0.2), (0.1, 0.1, 0.1), 1.0, "count")
    with pytest.raises(ValueError):
        stability_check(spec)
    v = stability_check(spec, small_net)
    assert v.sufficient_holds == (v.condition_value < 1.0)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ModelSpec.linear((1.0, -0.1, 0.2), "count")
    with pytest.raises(ValueError):
        ModelSpec.drift((1.0, 0.1, 0.2), -0.5, "count")
    with pytest.raises(ValueError):
        ModelSpec("linear", "count", (1.0, 0.2))
    with pytest.raises(ValueError):
        ModelSpec("nope", "count", (1.0, 0.2, 0.3))


def test_cond_mean_rejects_bad_previous_values(small_net):
    # -inf passes a check of the maximum alone; each bad value is tried at three
    # nodes.  -1 is finite: the count domain rejects it, the continuous one does not
    for domain in ("count", "cont"):
        spec = ModelSpec.linear((1.0, 0.3, 0.2), domain)
        for node in (0, 7, small_net.n - 1):
            for bad in (np.nan, np.inf, -np.inf):
                y = np.ones(small_net.n)
                y[node] = bad
                with pytest.raises(ValueError, match=r"^y_prev contains non-finite values$"):
                    cond_mean(spec, small_net, y)
            y = np.ones(small_net.n)
            y[node] = -1.0
            if domain == "count":
                with pytest.raises(ValueError,
                                   match=r"^count domain requires nonnegative y_prev$"):
                    cond_mean(spec, small_net, y)
            else:
                assert np.all(np.isfinite(cond_mean(spec, small_net, y)))


def test_parse_spec_round_trips():
    beta = (1.0, 0.3, 0.2)
    assert parse_spec("linear", beta, "count").family == "linear"
    d = parse_spec("drift:gamma=1.5", beta, "count")
    assert d.theta2 == (1.5,)
    s = parse_spec("stnar:alpha=0.4,gamma=0.8", beta, "cont")
    assert s.theta2 == (0.4, 0.8)
    t = parse_spec("tnar:a0=0.5,a1=0.2,a2=0.1,gamma=1", beta, "cont")
    assert t.theta2 == (0.5, 0.2, 0.1, 1.0)
    with pytest.raises((KeyError, ValueError)):
        parse_spec("spline:k=3", beta, "cont")


@pytest.mark.parametrize("spec", [
    ModelSpec.linear((1.0, 0.3, 0.2)),
    ModelSpec.drift((1.0, 0.3, 0.2), 1.5),
    ModelSpec.stnar((1.0, 0.3, 0.2), 0.4, 0.8),
    ModelSpec.tnar((1.0, 0.3, 0.2), (0.5, 0.2, 0.1), 1.0),
], ids=lambda s: s.family)
def test_active_coordinates_round_trip(spec):
    theta = spec.active_theta()
    assert theta.shape == (spec.n_active,)
    assert spec.with_active(theta) == spec
    moved = spec.with_active(theta + 0.01)
    assert np.array_equal(moved.active_theta(), theta + 0.01)
    assert moved.gamma == (spec.gamma + 0.01 if spec.family == "drift" else spec.gamma)


@pytest.mark.parametrize("text, key", [
    ("stnar:gamma=0.8", "alpha"),
    ("drift:gamma=1,alpha=2", "alpha"),
    ("tnar:a0=0.5,a1=0.2,a2=0.1,g=1", "gamma"),
])
def test_parse_spec_names_missing_or_unknown_key(text, key):
    with pytest.raises(ValueError, match=key):
        parse_spec(text, (1.0, 0.3, 0.2), "cont")
