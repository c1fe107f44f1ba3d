import sys

import numpy as np
import pytest
from scipy.special import ndtri

import netar as na
from netar import rng


def pytest_addoption(parser):
    parser.addoption(
        "--full", action="store_true", default=False,
        help="also run the full-scale Monte Carlo cells (N=500, T=400, "
             "S=1000); roughly 7 minutes extra")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full"):
        return
    skip = pytest.mark.skip(reason="full-scale cell; enable with --full")
    for item in items:
        if "full_scale" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "full_scale: full-scale Monte Carlo cells, opt-in via --full")


@pytest.fixture(scope="session")
def small_net():
    return na.gen_sbm(30, 2, seed=101)


@pytest.fixture(scope="session")
def count_panel(small_net):
    spec = na.ModelSpec.linear((1.0, 0.3, 0.2), "count")
    cfg = na.SimConfig(T=150, burn_in=200, seed=5)
    return na.simulate_count(spec, small_net, na.CopulaSpec("ar1", 0.5), cfg)


def _inverse_cdf_normal(gen, size):
    # ndtri of 53-bit uniforms on the open interval (0, 1)
    return ndtri(gen.integers(1, 1 << 53, size=size) / float(1 << 53))


@pytest.fixture(scope="session")
def cont_panel(small_net):
    # A seed-7 stationary panel whose start is drawn as Y_0 = mu + L xi from
    # the Cholesky factor L of the stationary covariance, then 200 steps of
    # the recursion.  simulate_gaussian's warm-up start gives other values,
    # and the conditioning tests need these: an ill-conditioned tnar point
    # (cond(E)^2 in [1e9, 1e16]), an stnar point with subnormal scores at
    # g = 3.12875, and a four-term reference within 1e-10 of the exact lm.
    # Its normals are the inverse CDF of the stream's uniforms, as drawn when
    # those points were found, not simulate_gaussian's standard_normal.
    spec = na.ModelSpec.linear((1.5, 0.4, 0.5), "cont")
    mu, cov = na.stationary_init_linear_gaussian(spec.beta, small_net, 1.0)
    chol = np.linalg.cholesky(cov + 1e-12 * np.max(np.diag(cov)) * np.eye(small_net.n))
    gen = rng.stream(7, 0x51)
    y = mu + chol @ _inverse_cdf_normal(gen, small_net.n)
    out = np.empty((small_net.n, 200))
    for t in range(200):
        y = na.cond_mean(spec, small_net, y) + _inverse_cdf_normal(gen, small_net.n)
        out[:, t] = y
    return na.Panel(out)


@pytest.fixture
def rs():
    return np.random.default_rng(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(func) wraps func wherever a netar module holds it and
    returns the list that each call appends to."""
    def wrap(func):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "netar" or name.startswith("netar."):
                for attr, val in list(vars(mod).items()):
                    if val is func:
                        monkeypatch.setattr(mod, attr, counted)
        return calls
    return wrap
