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
index), so parallel and serial runs produce identical results.

Each method is a single-task scheme or a ``coherent.fit`` method on one
covariance pattern (``_METHOD_FITS``), or one expert's raw or reconciled
forecasts (``base_*``); a replication fits each method's weights once, and
estimates each covariance and per-expert projector they share once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._linalg import symmetrize
from .coherent import fit, mint_reconcile
from .constraints import ConstraintSystem, from_aggregation
from .covariance import ESTIMATORS, shrink
from .combiners import SINGLE_TASK_SCHEMES, single_task_weights
from .exceptions import DataError, NumericalError
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


def dgp_system() -> ConstraintSystem:
    """The fixed 7-variable, 4-bottom hierarchy used by the simulation."""
    return from_aggregation(_DGP_A, DGP_LABELS)


def nearest_correlation(
    r0: np.ndarray, tol: float = 1e-9, max_iter: int = 100, pd_floor: float = 1e-8
) -> np.ndarray:
    """Closest correlation matrix by alternating projections.

    Dykstra-corrected alternation between the positive semidefinite cone and
    the unit-diagonal subspace, followed by an eigenvalue floor and diagonal
    rescale so the result supports a Cholesky draw. Raises after ``max_iter``
    steps without convergence.
    """
    a = symmetrize(np.asarray(r0, dtype=float))
    y = a.copy()
    ds = np.zeros_like(a)
    for _ in range(max_iter):
        rk = y - ds
        w, v = np.linalg.eigh(rk)
        x = symmetrize((v * np.clip(w, 0.0, None)) @ v.T)
        ds = x - rk
        y_new = x.copy()
        np.fill_diagonal(y_new, 1.0)
        if np.max(np.abs(y_new - y)) <= tol and np.max(np.abs(y_new - x)) <= tol:
            y = y_new
            break
        y = y_new
    else:
        raise NumericalError(f"nearest-correlation projection did not converge in {max_iter} steps")
    w, v = np.linalg.eigh(symmetrize(y))
    x = symmetrize((v * np.clip(w, pd_floor, None)) @ v.T)
    d = np.sqrt(np.diag(x))
    x = x / np.outer(d, d)
    np.fill_diagonal(x, 1.0)
    return symmetrize(x)


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


def _random_correlation(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = np.eye(size)
    iu = np.triu_indices(size, k=1)
    raw[iu] = rng.uniform(-1.0, 1.0, size=len(iu[0]))
    raw.T[iu] = raw[iu]
    return nearest_correlation(raw)


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


def generate_replication(cfg: SimulationConfig, rep_index: int) -> Replication:
    """Simulate one replication of actuals and per-expert base forecasts.

    Returns (n_train + test_len) observations of the 7-variable hierarchy
    together with the p experts' forecasts and the availability mask. Output
    is a pure function of (cfg.seed, rep_index).
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, rep_index]))
    sys = dgp_system()
    n, n_b = sys.n, sys.n_b
    T = cfg.total_len
    mu, beta, sigma2 = _expert_params(cfg, rng)

    bottom_corr = _random_correlation(rng, n_b) if n_b > 1 else np.eye(1)
    if cfg.error_corr == "random_spd":
        thetas = [_random_correlation(rng, n) for _ in range(cfg.p)]
    else:
        thetas = [np.eye(n)] * cfg.p

    phi = cfg.var_coef
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
        chol_err = scale[:, None] * np.linalg.cholesky(thetas[j])
        noise = rng.standard_normal((T, n)) @ chol_err.T
        forecasts[j] = systematic @ sys.S.T + noise

    if cfg.balanced:
        availability = np.ones((n, cfg.p), dtype=bool)
    else:
        availability = _participation_mask(cfg, rng, n)
    return Replication(actuals=actuals, forecasts=forecasts, availability=availability)


# -- per-replication method evaluation ----------------------------------------


def _method_weights(
    method: str,
    panel: ForecastPanel,
    sys: ConstraintSystem,
    resid: np.ndarray,
    cache: dict,
) -> np.ndarray:
    """The fixed (n x m) map from stacked base forecasts to the method output.

    ``cache`` holds the replication's covariance estimates by pattern and, by
    ``("mint", j)``, expert j's mint projector under its own shrunk MSE.
    ``base_star`` takes the expert of least MSE, ``base_star_shr`` reconciles
    it, ``base_shr`` reconciles the expert of least reconciled MSE.
    """

    def cached(key, compute):
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    def projector(j):
        return cached(("mint", j), lambda: mint_reconcile(
            np.zeros(sys.n), sys, shrink(resid[panel.expert_rows(j)])).Psi.T)

    experts = range(panel.p)
    if method == "src" and panel.balanced:  # fit("src").Psi.T from the shared projectors
        return np.hstack([projector(j) / panel.p for j in experts])
    if method in _METHOD_FITS:
        how, pattern = _METHOD_FITS[method]
        cov = pattern and cached(pattern, lambda: ESTIMATORS[pattern](resid, panel))
        if how in SINGLE_TASK_SCHEMES:
            return single_task_weights(panel, how, cov).matrix(panel).T
        return fit(how, panel, sys, resid, cov).Psi.T
    if method not in _BASE_METHODS:
        raise DataError(f"unknown simulation method {method!r}")
    if method == "base_shr":
        mse = [np.mean((projector(j) @ resid[panel.expert_rows(j)]) ** 2) for j in experts]
    else:
        mse = [np.mean(resid[panel.expert_rows(j)] ** 2) for j in experts]
    j = int(np.argmin(mse))
    weights = np.zeros((panel.n, panel.m))
    weights[:, panel.expert_rows(j)] = np.eye(panel.n) if method == "base_star" else projector(j)
    return weights


def _replication_accuracy(cfg: SimulationConfig, rep_index: int, methods: tuple[str, ...]):
    data = generate_replication(cfg, rep_index)
    sys = dgp_system()
    panel = from_availability(data.availability, sys)
    n_train = cfg.n_train
    resid = residuals_from_arrays(panel, data.actuals[:n_train], data.forecasts[:, :n_train])

    test_actuals = data.actuals[n_train:]
    stacked = data.forecasts[panel.exp_idx, n_train:, panel.var_idx]

    cache: dict = {}
    mae = np.empty((len(methods), panel.n))
    mse = np.empty((len(methods), panel.n))
    for k, method in enumerate(methods):
        weights = _method_weights(method, panel, sys, resid, cache)
        err = test_actuals.T - weights @ stacked
        mae[k] = np.abs(err).mean(axis=1)
        mse[k] = (err**2).mean(axis=1)
    return mae, mse


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
    unknown = [m for m in methods if m not in SIMULATION_METHODS]
    if unknown:
        raise DataError(f"unknown methods: {unknown}; choose from {SIMULATION_METHODS}")
    if not cfg.balanced:
        blocked = [m for m in methods if m in _BALANCED_ONLY]
        if blocked:
            raise DataError(f"methods {blocked} are limited to balanced panels")
    wanted = methods if "ew" in methods else ("ew",) + methods

    if n_jobs == 1:
        per_rep = [
            _replication_accuracy(cfg, rep, wanted) for rep in range(cfg.replications)
        ]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            per_rep = list(
                pool.map(
                    _replication_accuracy,
                    [cfg] * cfg.replications,
                    range(cfg.replications),
                    [wanted] * cfg.replications,
                )
            )

    mae_all = np.stack([mae for mae, _ in per_rep])
    mse_all = np.stack([mse for _, mse in per_rep])
    ew_pos = wanted.index("ew")
    mae = {m: mae_all[:, k, :] for k, m in enumerate(wanted)}
    mse = {m: mse_all[:, k, :] for k, m in enumerate(wanted)}
    avg_rel_mae = {
        m: float(np.exp(np.mean(np.log(mae[m] / mae_all[:, ew_pos, :])))) for m in methods
    }
    avg_rel_mse = {
        m: float(np.exp(np.mean(np.log(mse[m] / mse_all[:, ew_pos, :])))) for m in methods
    }
    return ExperimentResult(
        config=cfg,
        methods=methods,
        mae={m: mae[m] for m in methods},
        mse={m: mse[m] for m in methods},
        avg_rel_mae=avg_rel_mae,
        avg_rel_mse=avg_rel_mse,
    )
