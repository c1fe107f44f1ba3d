"""Model families for network autoregressions.

Four conditional-mean maps over a known graph, for count-valued and
continuous-valued panels:

    linear   lam_i = b0 + b1*X_i + b2*Y_i
    drift    lam_i = b0/(1+X_i)^g + b1*X_i + b2*Y_i          (counts)
             lam_i = b0/(1+|X_i|)^g + b1*X_i + b2*Y_i        (continuous)
    stnar    lam_i = b0 + (b1 + a*exp(-g*X_i^2))*X_i + b2*Y_i
    tnar     lam_i = b0 + b1*X_i + b2*Y_i
                     + (a0 + a1*X_i + a2*Y_i) * 1{X_i <= g}

with X_i the average of node i's out-neighbours at the previous time.
The parameter vector is split into a linear block (b0, b1, b2) and a
family-specific nonlinear block.  The smoothing/threshold parameter g is
never an estimated coordinate: it is either the tested coordinate of the
drift family or a fixed nuisance grid point (stnar, tnar).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .netgraph import Network

__all__ = [
    "ModelSpec",
    "StabilityVerdict",
    "cond_mean",
    "stability_check",
    "parse_spec",
]

FAMILIES = ("linear", "drift", "stnar", "tnar")
DOMAINS = ("count", "cont")

# theta2 names by family, g last; these are also parse_spec's keys
_THETA2 = {"linear": (), "drift": ("gamma",), "stnar": ("alpha", "gamma"),
           "tnar": ("a0", "a1", "a2", "gamma")}
# estimable coordinates: the linear block and theta2 up to g, plus g for drift
_N_ACTIVE = {"linear": 3, "drift": 4, "stnar": 4, "tnar": 6}


@dataclass(frozen=True)
class ModelSpec:
    """One model family with its parameters and value domain.

    theta2 layout by family: drift (g,); stnar (a, g); tnar (a0, a1, a2, g).
    """

    family: str
    domain: str
    beta: tuple
    theta2: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        beta = tuple(float(b) for b in self.beta)
        theta2 = tuple(float(g) for g in self.theta2)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta2", theta2)
        if len(beta) != 3:
            raise ValueError("linear block must be (b0, b1, b2)")
        if len(theta2) != len(_THETA2[self.family]):
            raise ValueError(
                f"{self.family} expects {len(_THETA2[self.family])} nonlinear "
                f"parameter(s), got {len(theta2)}")
        if not all(np.isfinite(beta)) or not all(np.isfinite(theta2)):
            raise ValueError("parameters must be finite")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("smoothing/threshold rate g must be >= 0")
        if self.domain == "count":
            # b0 = 0 is constructible for degenerate test processes; the
            # estimators enforce a strict lower bound themselves
            if any(b < 0 for b in beta):
                raise ValueError("count domain requires nonnegative linear parameters")
            if any(a < 0 for a in self.alphas):
                raise ValueError("count domain requires nonnegative nonlinear effects")

    # convenience constructors -------------------------------------------------
    @staticmethod
    def linear(beta, domain="count") -> "ModelSpec":
        return ModelSpec("linear", domain, tuple(beta))

    @staticmethod
    def drift(beta, gamma, domain="count") -> "ModelSpec":
        return ModelSpec("drift", domain, tuple(beta), (gamma,))

    @staticmethod
    def stnar(beta, alpha, gamma, domain="count") -> "ModelSpec":
        return ModelSpec("stnar", domain, tuple(beta), (alpha, gamma))

    @staticmethod
    def tnar(beta, alphas, gamma, domain="count") -> "ModelSpec":
        a0, a1, a2 = alphas
        return ModelSpec("tnar", domain, tuple(beta), (a0, a1, a2, gamma))

    # parameter views ----------------------------------------------------------
    @property
    def gamma(self) -> Optional[float]:
        """TNAR threshold is the last nonlinear parameter; None for linear."""
        return self.theta2[-1] if self.theta2 else None

    @property
    def alphas(self) -> tuple:
        """Nonlinear effects: theta2 without g (empty for linear and drift)."""
        return self.theta2[:-1]

    @property
    def n_active(self) -> int:
        """Number of estimable coordinates (g excluded for stnar/tnar)."""
        return _N_ACTIVE[self.family]

    def active_theta(self) -> np.ndarray:
        """Estimable coordinates, linear block first."""
        return np.array(self.beta + self.theta2[:self.n_active - 3], dtype=float)

    def with_active(self, theta: np.ndarray) -> "ModelSpec":
        """Replace the estimable coordinates; g stays fixed."""
        theta = tuple(float(v) for v in theta)
        if len(theta) != self.n_active:
            raise ValueError(f"expected {self.n_active} coordinates")
        extra = theta[3:]
        return replace(self, beta=theta[:3], theta2=extra + self.theta2[len(extra):])


# elementwise kernels ----------------------------------------------------------
# X and Y may be any broadcastable shape; this is what lets single-step
# simulation and whole-panel estimation share one set of formulas.

def _drift_arg(domain: str, x: np.ndarray) -> np.ndarray:   # X on counts, |X| on continuous
    return np.abs(x) if domain == "cont" else x


def _drift_base(spec: ModelSpec, x: np.ndarray):
    xa, g = _drift_arg(spec.domain, x), spec.theta2[0]
    return (1.0 + xa) ** (-g), np.log1p(xa)


def _h_columns(family: str, g: float, x: np.ndarray, y: np.ndarray) -> list:
    """Regressors of the stnar or tnar nonlinear block at rate g.

    stnar: exp(-g*X^2)*X; tnar: (1, X, Y) * 1{X <= g}.  g may be any
    finite value here, as on a profile grid, not only a valid theta2.
    """
    if family == "stnar":
        return [np.exp(-g * x * x) * x]
    ind = (x <= g).astype(float)
    return [ind, x * ind, y * ind]


def mean_elementwise(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    b0, b1, b2 = spec.beta
    lin = b0 + b1 * x + b2 * y
    if spec.family == "linear":
        return lin
    if spec.family == "drift":
        c, _ = _drift_base(spec, x)
        return b0 * c + b1 * x + b2 * y
    if spec.family == "stnar":
        a, g = spec.theta2
        return lin + a * np.exp(-g * x * x) * x
    a0, a1, a2, g = spec.theta2
    return lin + (a0 + a1 * x + a2 * y) * (x <= g)


def jac_elementwise(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivatives of the mean in the estimable coordinates.

    Returns an array of shape (n_active,) + x.shape, linear block first.
    """
    ones = np.ones_like(x)
    if spec.family == "linear":
        return np.stack([ones, x, y])
    if spec.family == "drift":
        b0 = spec.beta[0]
        c, logx = _drift_base(spec, x)
        return np.stack([c, x, y, -b0 * logx * c])
    return np.stack([ones, x, y, *_h_columns(spec.family, spec.gamma, x, y)])


def hess_elementwise(spec: ModelSpec, x: np.ndarray, y: np.ndarray):
    """Nonzero second derivatives of the mean, or None.

    Only the drift family has curvature in its estimable coordinates:
    d2/db0 dg = -log(1+x)*c and d2/dg dg = b0*log(1+x)^2*c.  Returned as
    ((row, col, values), ...) entries of the upper triangle.
    """
    if spec.family != "drift":
        return None
    b0 = spec.beta[0]
    c, logx = _drift_base(spec, x)
    return ((0, 3, -logx * c), (3, 3, b0 * logx * logx * c))


# public single-step operations -------------------------------------------------

def _check_prev(spec: ModelSpec, net: Network, y_prev: np.ndarray) -> np.ndarray:
    y_prev = np.asarray(y_prev, dtype=float)
    if y_prev.shape != (net.n,):
        raise ValueError(f"y_prev must have length {net.n}")
    lo = y_prev.min()
    if not -np.inf < lo <= y_prev.max() < np.inf:  # NaN fails too
        raise ValueError("y_prev contains non-finite values")
    if spec.domain == "count" and lo < 0:
        raise ValueError("count domain requires nonnegative y_prev")
    return y_prev


def cond_mean(spec: ModelSpec, net: Network, y_prev: np.ndarray) -> np.ndarray:
    """One-step conditional mean given last period's observations."""
    y_prev = _check_prev(spec, net, y_prev)
    x = net.w @ y_prev
    return mean_elementwise(spec, x, y_prev)


# stability --------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityVerdict:
    """Result of a family-specific sufficient stability condition.

    A failed sufficient condition is inconclusive, not a proof of
    instability; condition_name records which bound was evaluated.
    """

    condition_value: float
    sufficient_holds: bool
    condition_name: str


def stability_check(spec: ModelSpec, net: Optional[Network] = None) -> StabilityVerdict:
    """Evaluate the contraction-type sufficient condition for the family."""
    b0, b1, b2 = spec.beta
    # count parameters are nonnegative, so the absolute values below cost
    # the linear, drift and stnar count conditions nothing
    if spec.family == "linear":
        value = abs(b1) + abs(b2)
        name = "linear: |b1|+|b2| < 1"
    elif spec.family == "drift":
        value = max(abs(b1), abs(b0 * spec.theta2[0] - b1)) + abs(b2)
        name = "drift: max(|b1|, |b0*g-b1|) + |b2| < 1"
    elif spec.family == "stnar":
        value = max(abs(b1), abs(b1 + spec.theta2[0])) + abs(b2)
        name = "stnar: max(|b1|, |b1+a|) + |b2| < 1"
    else:
        a0, a1, a2, g = spec.theta2
        if spec.domain == "count":
            if net is None:
                raise ValueError("tnar count condition needs the network")
            gmat = (b1 + a1) * net.w + (b2 + a2) * sp.identity(net.n, format="csr")
            value = float(np.asarray(abs(gmat).sum(axis=0)).max())
            name = "tnar-count: max column sum of (b1+a1)W+(b2+a2)I < 1"
        else:
            value = max(abs(b1), abs(b1 + a1)) + max(abs(b2), abs(b2 + a2))
            name = "tnar-cont: max(|b1|,|b1+a1|) + max(|b2|,|b2+a2|) < 1"
    return StabilityVerdict(float(value), bool(value < 1.0), name)


# CLI parsing -------------------------------------------------------------------

def parse_spec(text: str, beta, domain: str) -> ModelSpec:
    """Parse a model string such as 'drift:gamma=1' or 'tnar:a0=.5,a1=.2,a2=.1,gamma=1'."""
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    kv = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            kv[k.strip().lower()] = float(v)
    names = _THETA2.get(name)
    if names is None:
        raise ValueError(f"unknown model family {name!r}")
    if set(kv) != set(names):
        raise ValueError(f"{name} takes the keys {list(names)}, got {sorted(kv)}")
    return ModelSpec(name, domain, tuple(beta), tuple(kv[k] for k in names))
