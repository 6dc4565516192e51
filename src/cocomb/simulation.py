"""Monte-Carlo study of the combination methods on a fixed two-level hierarchy.

The data generating process simulates the four bottom series of the seven
variable hierarchy (total X, intermediates A and B, bottom AA, AB, BA, BB)
from a two-factor model: each bottom series is the sum of two factors following
independent diagonal VAR(1) processes plus a cross-correlated noise term, and
the full vector is obtained bottom-up, so the simulated actuals are coherent by
construction. Each expert observes the factors, loads them with its own
coefficients and adds noise whose variance is proportional to the number of
bottom series aggregated into each node.

Six parameter settings vary the expert bias, factor loadings, error variance
and factor persistence; expert participation is either balanced or governed by
a two-state (frequent/infrequent) participation mechanism. Replications carry
independent, counter-based random streams derived from (seed, replication
index). A chunk of replications is drawn (expert parameters, raw
correlations), projected (one stacked ``nearest_correlation`` per matrix size)
and finished one at a time as it is fitted (factors, noise, mask). Projecting
draws nothing and follows each matrix's solo iteration, so neither chunking
nor parallel runs change a bit.

Each method is a single-task scheme or a ``coherent.fit`` method on one
covariance pattern (``_METHOD_FITS``), or one expert's raw or reconciled
forecasts (``base_*``); a replication fits each method's weights once, and
computes what they share once: each covariance pattern, estimated by
``covariance.ESTIMATORS`` as ``cocomb reconcile --cov`` estimates it, each
single-task weight scheme (``scr_var`` reuses ``ow_var``'s weights) and each
per-expert projector. Its per-series test losses and relative index are
``metrics.LOSSES`` and ``metrics.geo_mean``, as ``cocomb evaluate`` scores,
each loss averaged once over every method's errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import symmetrize
from .coherent import _SCR_SCHEMES, _scr_fit, fit, mint_reconcile
from .constraints import ConstraintSystem, from_aggregation
from .covariance import ESTIMATORS
from .combiners import SINGLE_TASK_SCHEMES, single_task_weights
from .exceptions import DataError, NumericalError
from .metrics import LOSSES, geo_mean
from .panel import ForecastPanel, from_availability, residuals_from_arrays

DGP_LABELS = ("X", "A", "B", "AA", "AB", "BA", "BB")
_DGP_A = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)

# method -> (single-task scheme or ``coherent.fit`` method, covariance pattern)
_METHOD_FITS = {
    "ew": ("ew", None),
    "ow_var": ("ow_var", "sample"),
    "ow_cov": ("ow_cov", "sample"),
    "src": ("src", None),
    "scr_ew": ("scr_ew", None),
    "scr_var": ("scr_var", "sample"),
    "scr_cov": ("scr_cov", "sample"),
    "occ_be": ("occ", "bd_expert_shrunk"),
    "occ_bv": ("occ", "bd_variable_shrunk"),
    "occ_shr": ("occ", "shrunk"),
    "occ_wls": ("occ", "diagonal"),
}
# one expert's forecasts, raw or reconciled (see ``_method_weights``)
_BASE_METHODS = ("base_star", "base_star_shr", "base_shr")
SIMULATION_METHODS = (*_BASE_METHODS, *_METHOD_FITS)
_BALANCED_ONLY = ("src", *_BASE_METHODS)

# Two-state participation chain: probability of forecasting a variable given
# the expert's previous participation state; the per-variable coverage rate is
# the chain's stationary probability enter / (1 - stay + enter).
FREQUENT_STAY = 0.95
FREQUENT_ENTER = 0.80
INFREQUENT_STAY = 0.50
INFREQUENT_ENTER = 0.20
FREQUENT_SHARE = 0.40

_CHUNK = 64  # replications drawn and projected together (module docstring)


def dgp_system() -> ConstraintSystem:
    """The fixed 7-variable, 4-bottom hierarchy used by the simulation."""
    return from_aggregation(_DGP_A, DGP_LABELS)


def nearest_correlation(
    r0: np.ndarray, tol: float = 1e-9, max_iter: int = 100, pd_floor: float = 1e-8
) -> np.ndarray:
    """Closest correlation matrix to a (d, d) matrix or each of a (k, d, d) stack.

    Dykstra-corrected alternation (Higham 2002) between the positive
    semidefinite cone and the unit-diagonal subspace, followed by an eigenvalue
    floor and diagonal rescale so the result supports a Cholesky draw. A stack
    member leaves the loop once converged, so it gets its solo bits. Raises
    after ``max_iter`` steps while any member has not converged.
    """
    r0 = np.asarray(r0, dtype=float)
    y = symmetrize(r0.reshape(-1, *r0.shape[-2:]))
    ds, out = np.zeros_like(y), np.empty_like(y)
    live, diag = np.arange(len(y)), np.arange(y.shape[-1])
    for _ in range(max_iter):
        rk = y - ds
        w, v = np.linalg.eigh(rk)
        x = symmetrize((v * np.clip(w, 0.0, None)[:, None]) @ np.swapaxes(v, -1, -2))
        ds = x - rk
        y_new = x.copy()
        y_new[:, diag, diag] = 1.0
        done = np.maximum(np.abs(y_new - y), np.abs(y_new - x)).max(axis=(1, 2)) <= tol
        out[live[done]] = y_new[done]
        live, y, ds = live[~done], y_new[~done], ds[~done]
        if not live.size:
            break
    else:
        raise NumericalError(f"nearest-correlation projection did not converge in {max_iter} steps")
    w, v = np.linalg.eigh(symmetrize(out))
    x = symmetrize((v * np.clip(w, pd_floor, None)[:, None]) @ np.swapaxes(v, -1, -2))
    d = np.sqrt(x[:, diag, diag])
    x = x / (d[:, :, None] * d[:, None])
    x[:, diag, diag] = 1.0
    return symmetrize(x).reshape(r0.shape)


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation cell: parameter setting, panel shape and randomness.

    ``setting`` selects the expert model parameters (1-6): bias ``mu``, factor
    loadings ``beta``, error variance ``sigma2`` and factor VAR coefficient:

    ====== ========== =============== =============== =========
    setting mu         beta            sigma2          var_coef
    1       0          (1, 1)          1               0
    2       0          (.5, .5)        1               0
    3       0          (.5, .5)        1               0.9
    4       0          Uniform(0,1)^2  1               0
    5       0          (.5, .5)        InvGamma(5, 5)  0
    6       N(0, 1)    (.5, .5)        1               0
    ====== ========== =============== =============== =========

    ``n_train`` observations feed the covariance estimates and ``test_len``
    further points (default 100) are held out for evaluation. ``error_corr``
    picks the expert-error correlation: identity, or a random correlation
    matrix drawn independently for every expert in every replication.
    """

    setting: int
    p: int = 4
    n_train: int = 200
    test_len: int = 100
    replications: int = 500
    seed: int = 0
    balanced: bool = True
    error_corr: str = "random_spd"
    frequent_stay: float = FREQUENT_STAY
    frequent_enter: float = FREQUENT_ENTER
    infrequent_stay: float = INFREQUENT_STAY
    infrequent_enter: float = INFREQUENT_ENTER

    def __post_init__(self) -> None:
        if self.setting not in range(1, 7):
            raise DataError("setting must be between 1 and 6")
        if self.p < 2:
            raise DataError("need at least two experts")
        if self.n_train < 2 or self.test_len < 1 or self.replications < 1:
            raise DataError("n_train, test_len and replications must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        if self.error_corr not in ("identity", "random_spd"):
            raise DataError("error_corr must be 'identity' or 'random_spd'")
        # a zero entry probability leaves _participation_mask redrawing forever
        for name in ("frequent_stay", "infrequent_stay"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataError(f"{name} must lie in [0, 1]")
        for name in ("frequent_enter", "infrequent_enter"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise DataError(f"{name} must lie in (0, 1]")

    @property
    def total_len(self) -> int:
        return self.n_train + self.test_len

    @property
    def var_coef(self) -> float:
        return 0.9 if self.setting == 3 else 0.0

    def participation_rate(self, frequent: bool) -> float:
        stay = self.frequent_stay if frequent else self.infrequent_stay
        enter = self.frequent_enter if frequent else self.infrequent_enter
        return enter / (1.0 - stay + enter)


@dataclass(frozen=True, eq=False)
class Replication:
    """One simulated replication: actuals, per-expert forecasts and the mask."""

    actuals: np.ndarray
    forecasts: np.ndarray
    availability: np.ndarray


def _expert_params(cfg: SimulationConfig, rng: np.random.Generator):
    p = cfg.p
    mu = np.zeros(p)
    beta = np.full((p, 2), 1.0 if cfg.setting == 1 else 0.5)
    sigma2 = np.ones(p)
    if cfg.setting == 4:
        beta = rng.uniform(0.0, 1.0, size=(p, 2))
    elif cfg.setting == 5:
        sigma2 = 1.0 / rng.gamma(shape=5.0, scale=1.0 / 5.0, size=p)
    elif cfg.setting == 6:
        mu = rng.standard_normal(p)
    return mu, beta, sigma2


def _raw_correlation(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = np.eye(size)
    iu = np.triu_indices(size, k=1)
    raw[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
    raw.T[iu] = raw[iu]
    return raw


def _participation_mask(cfg: SimulationConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Frequent/infrequent participation mask with no empty variable or expert.

    Per-variable coverage is Bernoulli at the expert type's stationary
    participation rate, drawn independently across variables; a variable left
    uncovered is redrawn, and a draw leaving some expert idle is restarted.
    """
    n_frequent = max(1, round(FREQUENT_SHARE * cfg.p))
    rates = np.array([cfg.participation_rate(j < n_frequent) for j in range(cfg.p)])
    while True:
        mask = np.zeros((n, cfg.p), dtype=bool)
        for i in range(n):
            row = rng.random(cfg.p) < rates
            while not row.any():
                row = rng.random(cfg.p) < rates
            mask[i] = row
        if mask.any(axis=0).all():
            return mask


def _replications(cfg: SimulationConfig, reps, sys: ConstraintSystem):
    """Yield the replications ``reps`` in order: draw, project, then finish lazily."""
    n, n_b, T, phi = sys.n, sys.n_b, cfg.total_len, cfg.var_coef
    drawn, raw_bottom, raw_expert = [], [], []
    for rep in reps:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep]))
        drawn.append((rng, _expert_params(cfg, rng)))
        raw_bottom.append(_raw_correlation(rng, n_b))
        if cfg.error_corr == "random_spd":
            raw_expert += [_raw_correlation(rng, n) for _ in range(cfg.p)]
    bottoms = nearest_correlation(np.stack(raw_bottom))
    thetas = (nearest_correlation(np.stack(raw_expert)).reshape(-1, cfg.p, n, n) if raw_expert
              else np.broadcast_to(np.eye(n), (len(drawn), cfg.p, n, n)))
    for (rng, (mu, beta, sigma2)), bottom_corr, theta in zip(drawn, bottoms, thetas):
        innovations = rng.standard_normal((T, n_b, 2))
        if phi == 0.0:
            factors = innovations
        else:
            factors = np.empty_like(innovations)
            state = rng.standard_normal((n_b, 2)) / np.sqrt(1.0 - phi**2)
            for t in range(T):
                state = phi * state + innovations[t]
                factors[t] = state

        chol_bottom = np.linalg.cholesky(bottom_corr)
        eta = rng.standard_normal((T, n_b)) @ chol_bottom.T
        bottom = factors[:, :, 0] + factors[:, :, 1] + eta
        actuals = bottom @ sys.S.T

        # expert error scale: variance proportional to the number of aggregated
        # bottom series at each node; each expert has its own error correlation
        agg_size = sys.S @ np.ones(n_b)
        forecasts = np.empty((cfg.p, T, n))
        for j in range(cfg.p):
            systematic = mu[j] + beta[j, 0] * factors[:, :, 0] + beta[j, 1] * factors[:, :, 1]
            scale = np.sqrt(sigma2[j] * agg_size)
            chol_err = scale[:, None] * np.linalg.cholesky(theta[j])
            noise = rng.standard_normal((T, n)) @ chol_err.T
            forecasts[j] = systematic @ sys.S.T + noise

        if cfg.balanced:
            availability = np.ones((n, cfg.p), dtype=bool)
        else:
            availability = _participation_mask(cfg, rng, n)
        yield Replication(actuals=actuals, forecasts=forecasts, availability=availability)


def generate_replication(cfg: SimulationConfig, rep_index: int) -> Replication:
    """Simulate one replication of actuals and per-expert base forecasts.

    Returns (n_train + test_len) observations of the 7-variable hierarchy
    together with the p experts' forecasts and the availability mask. Output
    is a pure function of (cfg.seed, rep_index), whatever chunk it is in.
    """
    return next(_replications(cfg, [rep_index], dgp_system()))


# -- per-replication method evaluation ----------------------------------------


def _method_weights(
    method: str,
    panel: ForecastPanel,
    sys: ConstraintSystem,
    resid: np.ndarray,
    cache: dict,
) -> np.ndarray:
    """The fixed (n x m) map from stacked base forecasts to the method output.

    ``cache`` holds the replication's covariance estimates by pattern, each
    ``ESTIMATORS[pattern](resid, panel)``, the single-task weights by
    ``(scheme, pattern)`` and, by ``("mint", j)``, expert j's mint projector
    under part j of the cached ``bd_expert_shrunk``, so no estimate, block,
    factor or weight scheme is computed twice. ``base_star`` takes the expert
    of least MSE, ``base_star_shr`` reconciles it, ``base_shr`` reconciles the
    expert of least reconciled MSE.
    """

    def cached(key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def estimate(pattern):
        return cached(pattern, lambda: ESTIMATORS[pattern](resid, panel))

    def projector(j):
        return cached(("mint", j), lambda: mint_reconcile(
            np.zeros(sys.n), sys, estimate("bd_expert_shrunk").parts[j][1]).Psi.T)

    experts = range(panel.p)
    if method == "src" and panel.balanced:  # fit("src").Psi.T from the shared projectors
        return np.hstack([projector(j) / panel.p for j in experts])
    if method in _METHOD_FITS:
        how, pattern = _METHOD_FITS[method]
        cov, scheme = pattern and estimate(pattern), _SCR_SCHEMES.get(how, how)
        if scheme not in SINGLE_TASK_SCHEMES:
            return fit(how, panel, sys, resid, cov).Psi.T
        ws = cached((scheme, pattern), lambda: single_task_weights(panel, scheme, cov))
        return (ws.matrix(panel) if how == scheme else _scr_fit(panel, sys, resid, ws).Psi).T
    if method not in _BASE_METHODS:
        raise DataError(f"unknown simulation method {method!r}")
    fitted = [resid[panel.expert_rows(j)] for j in experts]
    if method == "base_shr":  # the expert whose reconciled residuals fit best
        fitted = [projector(j) @ r for j, r in zip(experts, fitted)]
    j = int(np.argmin([LOSSES["mse"](r).mean() for r in fitted]))
    weights = np.zeros((panel.n, panel.m))
    weights[:, panel.expert_rows(j)] = np.eye(panel.n) if method == "base_star" else projector(j)
    return weights


def _replication_accuracy(cfg: SimulationConfig, data: Replication, sys: ConstraintSystem,
                          methods: tuple[str, ...]):
    panel = from_availability(data.availability, sys)
    n_train = cfg.n_train
    resid = residuals_from_arrays(panel, data.actuals[:n_train], data.forecasts[:, :n_train])

    test_actuals = data.actuals[n_train:]
    stacked = data.forecasts[panel.exp_idx, n_train:, panel.var_idx]

    cache: dict = {}
    err = np.stack([test_actuals.T - _method_weights(m, panel, sys, resid, cache) @ stacked
                    for m in methods])  # one product per method: a stacked one rounds otherwise
    return np.stack([elementwise(err).mean(axis=2) for elementwise in LOSSES.values()])


def _chunk_accuracy(cfg: SimulationConfig, reps: range, methods: tuple[str, ...]):
    sys = dgp_system()
    return [_replication_accuracy(cfg, data, sys, methods)
            for data in _replications(cfg, reps, sys)]


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Accuracy of each method relative to the equal-weight benchmark."""

    config: SimulationConfig
    methods: tuple[str, ...]
    mae: dict = field(repr=False)
    mse: dict = field(repr=False)
    avg_rel_mae: dict = field(default_factory=dict)
    avg_rel_mse: dict = field(default_factory=dict)

    def summary_rows(self) -> list[dict]:
        rows = []
        for method in self.methods:
            rows.append(
                {
                    "setting": self.config.setting,
                    "p": self.config.p,
                    "n_train": self.config.n_train,
                    "balanced": self.config.balanced,
                    "method": method,
                    "avg_rel_mae": self.avg_rel_mae[method],
                    "avg_rel_mse": self.avg_rel_mse[method],
                }
            )
        return rows


def run_experiment(
    cfg: SimulationConfig, methods, n_jobs: int = 1
) -> ExperimentResult:
    """Run the Monte-Carlo experiment and report geometric-mean relative accuracy.

    Per replication, the covariances and weights are estimated once from the
    ``n_train`` in-sample residuals and held fixed over the test window. The
    aggregate for each method is the geometric mean, over replications and
    variables, of its per-series MAE (and MSE) relative to the equal-weight
    combination.
    """
    if n_jobs < 1:
        raise DataError("n_jobs must be at least 1")
    methods = tuple(dict.fromkeys(methods))
    if not methods:
        raise DataError(f"no methods given; choose from {SIMULATION_METHODS}")
    unknown = [m for m in methods if m not in SIMULATION_METHODS]
    if unknown:
        raise DataError(f"unknown methods: {unknown}; choose from {SIMULATION_METHODS}")
    if not cfg.balanced:
        blocked = [m for m in methods if m in _BALANCED_ONLY]
        if blocked:
            raise DataError(f"methods {blocked} are limited to balanced panels")
    wanted = methods if "ew" in methods else ("ew",) + methods

    reps = range(cfg.replications)
    step = min(_CHUNK, -(-len(reps) // n_jobs))  # every worker gets a chunk
    chunks = [reps[lo:lo + step] for lo in range(0, len(reps), step)]
    args = ([cfg] * len(chunks), chunks, [wanted] * len(chunks))
    if n_jobs == 1:
        per_chunk = list(map(_chunk_accuracy, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            per_chunk = list(pool.map(_chunk_accuracy, *args))
    loss_all = np.stack([acc for chunk in per_chunk for acc in chunk], axis=2)
    # (loss, method, replication, variable) -> per-method losses and relative index
    loss = {tag: {m: all_m[wanted.index(m)] for m in methods}
            for tag, all_m in zip(LOSSES, loss_all)}
    avg_rel = {tag: {m: geo_mean(loss[tag][m] / all_m[wanted.index("ew")]) for m in methods}
               for tag, all_m in zip(LOSSES, loss_all)}
    return ExperimentResult(config=cfg, methods=methods, mae=loss["mae"], mse=loss["mse"],
                            avg_rel_mae=avg_rel["mae"], avg_rel_mse=avg_rel["mse"])
