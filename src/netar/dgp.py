"""Data generation for network autoregressions.

Continuous panels follow Y_t = lam_t + xi_t with i.i.d. Gaussian errors;
the linear family can start in its stationary Gaussian law, reached by
warm-up steps of the linear recursion Y <- b0 + (b1 W + b2 I) Y + s xi.

Count panels have exact Poisson(lam_i) marginals.  Each step makes one
copula_poisson_draw, which alone checks lam.  Under an independent copula
(identity, or rho = 0) the nodes are independent and the draw is one
Generator.poisson call.  A dependent copula (AR-1 or exchangeable) goes
through a Gaussian-copula waiting-time construction: unit-exponential
inter-arrival times are built from copula uniforms and each Y_i counts the
arrivals falling in [0, lam_i], so the copula induces cross-sectional
dependence while every marginal stays Poisson.  The copula's Cholesky
factor is applied to each event row in O(N) from its closed form (see
_apply_copula_factor); no N x N matrix is formed and nothing is cached.
Each step takes event rows only until every node's arrival time has passed
its own lam_i, in chunks whose first size follows lam_max.  A panel reads
those rows off its stream in blocks of about _EVENT_BLOCK cells (one
copula draw and one log per block, see _EventRows) and hands each step its
chunks in order.  A panel step reads exactly max(Y) + 1 rows: it hands the
unread rest of its last chunk back, and the next step starts there.  That
count is a stopping time of the i.i.d. rows, so the rows after it are
fresh and the law is unchanged.  A draw from a bare Generator reads whole
chunks.  The rows are read off the stream in order, so neither chunk nor
block sizes change the counts, and a panel draws less than one block more
rows than it consumes while its chunks are shorter than a block.

Both simulators form each step's neighbour average W y with
_neighbour_average, which calls the compiled CSR product that net.w @ y
ends in, so the sums are the same without scipy.sparse's per-call
dispatch.  Each writes its steps as the rows of a time-major (steps, N)
buffer and returns one C-contiguous transposed copy as the panel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.sparse import _sparsetools
from scipy.special import ndtr

from . import rng
from .model import ModelSpec, mean_elementwise, stability_check
from .model import cond_mean  # noqa: F401  (name perfbench traces)
from .netgraph import Network

__all__ = [
    "CopulaSpec",
    "Panel",
    "SimConfig",
    "stationary_init_linear_gaussian",
    "simulate_gaussian",
    "draw_copula_uniform",
    "copula_poisson_draw",
    "simulate_count",
]

STRUCTURES = ("identity", "ar1", "exch")
# the named starts of each domain's simulator (besides a scalar or a length-N vector)
INIT_MODES = {"cont": ("default", "stationary", "linear-stationary"), "count": ("default",)}
_TAIL_TOL = 1e-10  # bound on the stationary series' omitted tail, relative to sigma^2
_NOISE_ROWS = 1024  # time steps per noise draw; blocks consume the stream in order
_EVENT_BLOCK = 1 << 16  # event rows x nodes per block of a panel's count draws (512 KiB)
_EVENT_ELEMENTS = 1 << 25  # event rows x nodes one count draw may take (256 MiB as float64)


@dataclass(frozen=True)
class CopulaSpec:
    """Gaussian copula with AR-1, exchangeable or identity correlation."""

    structure: str = "identity"
    rho: float = 0.0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown copula structure {self.structure!r}")
        if self.structure != "identity" and not -1.0 < self.rho < 1.0:
            raise ValueError("copula correlation must lie in (-1, 1)")

    @property
    def is_independent(self) -> bool:
        # rho == 0 gives R = I exactly, so take the identity path and keep
        # the uniform and count streams byte-identical to an identity draw
        return self.structure == "identity" or self.rho == 0.0

    def check_dimension(self, n: int) -> None:
        """Reject an exchangeable rho whose n x n correlation is not positive definite."""
        if self.structure == "exch" and 1.0 + (n - 1) * self.rho <= 0.0:
            raise ValueError(
                f"exchangeable rho={self.rho} is not positive definite for n={n}")


def _apply_copula_factor(cop: CopulaSpec, e: np.ndarray) -> np.ndarray:
    """L e along the last axis in O(N), in place, for L the Cholesky factor of the copula's R.

    exch: the Schur complements keep diagonal minus off-diagonal at 1 - rho, so
    L[j, j] = d_j and L[i, j] = c_j (i > j) with b_j = rho(1-rho)/(1+(j-1)rho),
    d_j = sqrt(1-rho+b_j), c_j = b_j/d_j.  ar1: z_0 = e_0, z_i = rho z_{i-1} +
    sqrt(1-rho^2) e_i, summed as rho^i cumsum(rho^-j x_j) in blocks with |rho|^-j <= 2^500.
    Returns e, which now holds L e.
    """
    n, rho = e.shape[-1], cop.rho
    if cop.structure == "exch":
        b = rho * (1.0 - rho) / (1.0 + (np.arange(n) - 1) * rho)
        d = np.sqrt(1.0 - rho + b)
        c = b / d
        below = np.cumsum(c * e, axis=-1)
        e *= d - c
        e += below
        return e
    e[..., 1:] *= np.sqrt(1.0 - rho * rho)  # x_0 = e_0
    block = 1 + int(500 * np.log(2.0) / -np.log(abs(rho)))
    for start in range(0, n, block):
        seg, j = e[..., start:start + block], np.arange(min(block, n - start))
        seg *= rho ** -j
        np.cumsum(seg, axis=-1, out=seg)
        if start:
            seg += rho * e[..., start - 1:start]  # rho z_{start-1}
        seg *= rho ** j
    return e


@dataclass
class Panel:
    """N x T array of finite observations with optional node labels."""

    values: np.ndarray
    node_labels: Optional[list] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("panel values must be an N x T array")
        if not np.all(np.isfinite(self.values)):
            node, time = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"panel cell (node {node}, time {time}) is not finite: "
                             f"{self.values[node, time]}")
        if self.node_labels is not None and len(self.node_labels) != self.values.shape[0]:
            raise ValueError("node_labels length must match the node count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def labels(self) -> list:
        return self.node_labels or [f"n{i}" for i in range(self.n)]

    def is_count(self) -> bool:
        v = self.values
        return bool(np.all(v >= 0) and np.all(v == np.round(v)))


@dataclass
class SimConfig:
    """Simulation length, burn-in, seed, error scale and initialization.

    init accepts "default", a scalar or a length-N vector, and for continuous
    panels "stationary" or "linear-stationary" too.  sigma applies to
    continuous panels only; sigma=0 produces the deterministic skeleton and
    is allowed for testing.
    """

    T: int
    burn_in: int = 300
    seed: int = 0
    sigma: float = 1.0
    init: Union[str, float, np.ndarray] = "default"

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def _neighbour_average(w, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """W y for the CSR matrix w, written into the length-N buffer out.

    csr_matvec is the routine w @ y calls, so the sums are the same; it adds
    into its output, so out is zero-filled first.  Returns out.
    """
    out.fill(0.0)
    _sparsetools.csr_matvec(*w.shape, w.indptr, w.indices, w.data, y, out)
    return out


def _warmup_steps(b1: float, b2: float) -> int:
    """Least K at which sum_{j<K} G^j sigma*xi_j omits at most _TAIL_TOL*sigma^2.

    W has row sums 1 or 0, so ||G^j||_inf <= rho^j with rho = |b1|+|b2|, and
    in every covariance entry the terms j >= K sum to at most
    sigma^2 rho^(2K) / (1 - rho^2).
    """
    rho = abs(b1) + abs(b2)
    if rho >= 1.0:
        raise ValueError("stationary initialization needs |b1|+|b2| < 1")
    if rho == 0.0:
        return 1
    return int(np.log(_TAIL_TOL * (1.0 - rho * rho)) / (2.0 * np.log(rho))) + 1


def stationary_init_linear_gaussian(beta, net: Network, sigma: float):
    """Mean and covariance of the stationary law of the linear Gaussian model.

    The mean is b0/(1-b1-b2) per node; the covariance solves
    S = G S G' + sigma^2 I with G = b1*W + b2*I.  S is the series
    sigma^2 sum_j G^j G'^j, summed by Smith's doubling iteration
    S <- S + A S A', A <- A^2 from A = G, S = sigma^2 I (Smith 1968,
    SIAM J. Appl. Math. 16:198): step s adds the terms 2^s <= j < 2^(s+1),
    and the sum stops when a step adds at most 1e-10 * sigma^2 in max-abs
    (the N^2 x N^2 Kronecker system is never formed).  The sampler does not
    use it; it is the reference for the law of simulate_gaussian's start.
    """
    b0, b1, b2 = (float(b) for b in beta)
    k = _warmup_steps(b1, b2)
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    n = net.n
    mu = np.full(n, b0 / (1.0 - b1 - b2))

    # the step that adds the terms from 2^s >= k on stops the sum
    steps = int(np.ceil(np.log2(k))) + 1
    a = b1 * net.w.toarray() + b2 * np.eye(n)
    cov = sigma * sigma * np.eye(n)
    for _ in range(steps):
        delta = a @ cov @ a.T
        cov += delta
        if np.max(np.abs(delta)) <= _TAIL_TOL * sigma * sigma:
            break
        a = a @ a
    else:  # pragma: no cover - by the tail bound the last step stops
        raise RuntimeError("Lyapunov doubling iteration did not converge")
    cov = 0.5 * (cov + cov.T)
    return mu, cov


def _resolve_init(init, n: int, domain: str):
    """A named start of the domain, or a fixed start as a finite length-n vector."""
    if isinstance(init, str):
        if init not in INIT_MODES[domain]:
            raise ValueError(f"{domain} init must be one of {INIT_MODES[domain]}, a scalar "
                             f"or a length-{n} vector, got {init!r}")
        return init
    arr = np.asarray(init, dtype=float)
    start = np.full(n, float(arr)) if arr.ndim == 0 else arr
    if start.shape != (n,):
        raise ValueError(f"init vector must have length {n}")
    bad = np.flatnonzero(~np.isfinite(start))
    if bad.size:
        where = "scalar" if arr.ndim == 0 else f"vector at node {bad[0]}"
        raise ValueError(f"init {where} is not finite: {start[bad[0]]}")
    return start


def _gaussian_start(spec: ModelSpec, init) -> tuple:
    """simulate_gaussian's start mode for a resolved init, and its warm-up steps."""
    mode = init if isinstance(init, str) else "fixed"
    if mode == "default":
        mode = "stationary" if spec.family == "linear" else "mean"
    if mode == "stationary" and spec.family != "linear":
        raise ValueError(
            "the exact stationary start exists for the linear family only; "
            "use 'linear-stationary' or a fixed start plus burn-in")
    _, b1, b2 = spec.beta
    return mode, _warmup_steps(b1, b2) if mode in ("stationary", "linear-stationary") else 0


@np.errstate(over="ignore", invalid="ignore")      # the panel is checked once, after its loop
def simulate_gaussian(spec: ModelSpec, net: Network, cfg: SimConfig) -> Panel:
    """Continuous-panel recursion Y_t = lam(W Y_{t-1}, Y_{t-1}) + sigma*xi_t.

    lam is the mean of the embedded linear model during the warm-up steps
    and spec's mean after them.  Each step forms W Y_{t-1} with
    _neighbour_average in one reused buffer; the stored steps are the rows
    of a time-major buffer whose transposed copy is the C-contiguous panel;
    a non-finite value in it raises RuntimeError naming its step.

    Initialization modes (the noise is drawn in blocks of _NOISE_ROWS steps):
      "stationary"        stationary Gaussian start, linear family only, no
                          burn-in: K unstored steps of the linear recursion
                          from mu0 = b0/(1-b1-b2) (see _warmup_steps).
      "linear-stationary" Y_0 drawn from the stationary law of the embedded
                          linear part; valid for every family (identical to
                          "stationary" for the linear one).  With burn_in=0
                          this reproduces the usual study mechanism in which
                          the relaxation of a nonlinear model away from the
                          linear start is part of the observed sample.
      vector / scalar     fixed start, cfg.burn_in steps discarded.
      "default"           "stationary" for linear; mu0 plus burn-in for
                          nonlinear families.
    """
    if spec.domain != "cont":
        raise ValueError("simulate_gaussian requires a continuous-domain spec")
    init = _resolve_init(cfg.init, net.n, "cont")
    gen = rng.stream(cfg.seed, 0x51)
    mode, warm = _gaussian_start(spec, init)
    b0, b1, b2 = spec.beta
    if mode == "fixed":
        y = init
    else:
        denom = 1.0 - b1 - b2
        y = np.full(net.n, b0 / denom if denom > 0 else 0.0)
    burn = 0 if mode == "stationary" else cfg.burn_in

    total = warm + burn + cfg.T
    linear = ModelSpec.linear(spec.beta, "cont")
    out, x = np.empty((burn + cfg.T, net.n)), np.empty(net.n)
    noise = None
    for t in range(total):
        if cfg.sigma > 0 and t % _NOISE_ROWS == 0:
            noise = cfg.sigma * gen.standard_normal((min(_NOISE_ROWS, total - t), net.n))
        lam = mean_elementwise(linear if t < warm else spec, _neighbour_average(net.w, y, x), y)
        y = lam if noise is None else lam + noise[t % _NOISE_ROWS]
        if t >= warm:
            out[t - warm] = y
    if not np.isfinite(out).all():      # a non-finite cell stays non-finite at its node
        t = warm + int((~np.isfinite(out)).any(axis=1).argmax())
        raise RuntimeError(f"non-finite value at step {t}; parameters look explosive")
    return Panel(out[burn:].T.copy())


def draw_copula_uniform(cop: CopulaSpec, n: int, gen: np.random.Generator,
                        rows: Optional[int] = None) -> np.ndarray:
    """Copula draws on (0,1]^n; a matrix of ``rows`` draws when requested.

    Returns ndtr(L z) for standard normal rows z, formed in z's own buffer,
    with L = I for an independent copula.  A value is 1.0 only when ndtr
    rounds up, with probability about 6e-17 per coordinate.  The rows come
    off the stream in order, so one draw of a + b rows equals a draw of a
    rows followed by one of b.
    """
    cop.check_dimension(n)
    z = gen.standard_normal((rows, n) if rows is not None else n)
    if not cop.is_independent:
        z = _apply_copula_factor(cop, z)
    return ndtr(z, out=z)


def _event_cap(lam_max: float, n: int) -> int:
    """Most event rows one dependent-copula draw may take before it calls lam explosive.

    A draw needs about lam_max + a few sqrt(lam_max) rows; the cap allows ten
    times that, and at most _EVENT_ELEMENTS rows x nodes in all.
    """
    return min(int(10.0 * (lam_max + 10.0 * np.sqrt(lam_max) + 50.0)), _EVENT_ELEMENTS // n)


class _EventRows:
    """log U event rows of a dependent copula, read off gen in order.

    Rows are drawn in blocks of at least ``block`` rows (one
    draw_copula_uniform call and one log each) and handed out by take() in
    order, so the rows a caller takes do not depend on the block size.
    give_back(k) returns the last k rows taken, which the next take hands
    out again; a refill keeps the unread rows and the new block in one
    buffer, so that works across blocks.  block=0 draws exactly the rows
    each take asks for beyond those held.
    """

    def __init__(self, cop: CopulaSpec, n: int, gen: np.random.Generator, block: int):
        self.cop, self.n, self.gen, self.block = cop, n, gen, block
        self.buf, self.pos = np.empty((0, n)), 0

    def take(self, k: int) -> np.ndarray:
        """The next k rows as a k x n view the caller must not overwrite."""
        left = self.buf.shape[0] - self.pos
        if k > left:
            buf = draw_copula_uniform(self.cop, self.n, self.gen, rows=max(self.block, k - left))
            np.log(buf, out=buf)
            self.buf, self.pos = np.concatenate((self.buf[self.pos:], buf)) if left else buf, 0
        self.pos += k
        return self.buf[self.pos - k:self.pos]

    def give_back(self, k: int) -> None:
        """Return the last k rows taken to the front of the source."""
        self.pos -= k


def copula_poisson_draw(lam: np.ndarray, cop: CopulaSpec,
                        gen: Union[np.random.Generator, _EventRows]) -> np.ndarray:
    """Joint count draw with exact Poisson(lam_i) marginals, as int64.

    An independent copula draws gen.poisson(lam) directly.  A dependent
    copula uses the waiting-time construction: for event l draw U_l from
    the copula, take inter-arrivals E_il = -log(U_il) and arrival times
    S_il = E_i1 + ... + E_il; Y_i counts the events with S_il <= lam_i.
    Node i's count is settled once S_il > lam_i, so the draw stops when that
    holds at every node, after max(Y) + 1 rows.  Events come in chunks: the
    first of lam_max + 3 sqrt(lam_max) + 3 rows, each later one twice the
    last.  Each chunk's -S (the running sum of log U in row order) is
    compared with -lam; a later chunk carries the last one's sum in a copy.
    Drawn from a Generator, the chunks are exactly the rows taken from it;
    simulate_count passes its panel's block source instead (see
    _EventRows), which gets back the rows after the first max(Y) + 1.  The
    rows are read off the stream in order, so the counts do not depend on
    the chunk or block sizes, and two dependent-copula draws from the same
    stream state read the same event rows: raising any lam_i can only raise
    Y_i.
    """
    lam = np.asarray(lam, dtype=float)
    lam_min, lam_max = lam.min(initial=np.inf), lam.max(initial=0.0)
    if not (lam_min >= 0.0 and lam_max < np.inf):  # NaN fails both
        raise ValueError("intensities must be finite and nonnegative")
    if cop.is_independent:
        try:
            return gen.poisson(lam)
        except ValueError as exc:  # lam above numpy's limit, about 9.2e18
            raise RuntimeError(
                f"intensity {lam_max:.3g} exceeds the Poisson sampler's limit; "
                "intensities look explosive") from exc
    n = lam.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if lam_max == 0.0:
        return counts

    rows = gen if isinstance(gen, _EventRows) else _EventRows(cop, n, gen, 0)
    cap, neg_lam = _event_cap(lam_max, n), -lam
    chunk, drawn = int(lam_max + 3.0 * np.sqrt(lam_max)) + 3, 0
    while True:
        if drawn + chunk > cap:
            raise RuntimeError(
                f"a draw at intensity {lam_max:.3g} would pass {cap} event rows of "
                f"{n} nodes; intensities look explosive")
        s = rows.take(chunk)  # a view: the source's rows stay log U for give_back
        if drawn:  # carry over -S after the rows drawn so far, in a copy
            s = s.copy()
            s[0] += neg_s
        s = np.cumsum(s, axis=0, out=s if drawn else None)
        counts += (s >= neg_lam).sum(axis=0)
        neg_s, drawn = s[-1], drawn + chunk
        if (neg_s < neg_lam).all():
            rows.give_back(drawn - counts.max() - 1)  # the step read rows 1..max Y + 1
            return counts
        chunk *= 2


def simulate_count(spec: ModelSpec, net: Network, cop: CopulaSpec,
                   cfg: SimConfig) -> Panel:
    """Count-panel recursion lam_t = lam(W Y_{t-1}, Y_{t-1}), Y_t ~ copula-Poisson.

    The intensity starts at cfg.init (all ones by default, per the
    burn-in-and-discard convention) and the first cfg.burn_in columns are
    dropped.  A step raises RuntimeError when its draw rejects lam.  Each
    step forms W Y_{t-1} with _neighbour_average in one reused buffer and
    writes Y_t as a row of a time-major buffer, whose transposed copy is
    the C-contiguous panel.
    """
    if spec.domain != "count":
        raise ValueError("simulate_count requires a count-domain spec")
    verdict = stability_check(spec, net)
    if not verdict.sufficient_holds:
        warnings.warn(
            f"sufficient stability condition fails ({verdict.condition_name}: "
            f"{verdict.condition_value:.3f}); simulation may drift")

    init = _resolve_init(cfg.init, net.n, "count")
    cop.check_dimension(net.n)  # here: the step loop reads a ValueError as a bad intensity
    lam0 = np.ones(net.n) if isinstance(init, str) else init
    gen = rng.stream(cfg.seed, 0xC0)
    if not cop.is_independent:  # one event-row source per panel, blocks of _EVENT_BLOCK cells
        gen = _EventRows(cop, net.n, gen, max(1, _EVENT_BLOCK // net.n))

    y = copula_poisson_draw(lam0, cop, gen).astype(float)
    total = cfg.burn_in + cfg.T
    out, x = np.empty((total, net.n)), np.empty(net.n)
    for t in range(total):
        lam = mean_elementwise(spec, _neighbour_average(net.w, y, x), y)
        try:  # the draw's own check is the step's one intensity check
            out[t] = copula_poisson_draw(lam, cop, gen)
        except ValueError as exc:
            raise RuntimeError(
                f"non-finite intensity at step {t}; parameters look explosive") from exc
        y = out[t]
    return Panel(out[cfg.burn_in:].T.copy())
