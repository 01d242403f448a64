"""Experiment pipeline: run a solver on a market, certify, persist artifacts.

One run produces, inside its output directory:

* curve.csv     - per-epoch history (epoch, ng, voa, vop, loss); a solver
                  that fails leaves the epochs it finished
* summary.json  - the metrics report, timings, and the config hash; after a
                  solver failure, the config hash, the error and the time to it
* candidate.json - the dense (allocation, prices) pair when n*m is small
* solution.npz  - the trained network + multipliers (a finished network run)

Sweeps run one cell per (method, market spec) combination and aggregate into
a single CSV, one row per cell with the spec's n, m, k, alpha, dist and seed
and the cell's config hash; failed cells are recorded with an error tag and
the sweep continues.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import metrics, trainer
from .baselines import EgConfig, eg_momentum_solve, eg_solve, naive
from .ces import CesSpec
from .errors import InvalidArgument, MarketEqError
from .market import ContextDistribution, Market, check_recipe, generate_market
from .trainer import TrainConfig


def _solve_fcnet(market: Market, config: TrainConfig, out: Path):
    net, lam, candidate, history = trainer.train(market, config)
    solution_path = out / "solution.npz"
    trainer.save_solution(solution_path, net, lam)
    return candidate, history, {"solution": str(solution_path)}


# one row per method: its default config (None: it takes none) and its solver
# (market, config, out dir) -> (candidate, history or None, artifacts), which
# looks its solve function up by name at call time, as a tracer's wrapper needs
METHOD_TABLE = {
    "naive": (None, lambda market, config, out: (naive(market), None, {})),
    "eg": (EgConfig(), lambda market, config, out: (*eg_solve(market, config), {})),
    "eg-m": (EgConfig(momentum=0.9),
             lambda market, config, out: (*eg_momentum_solve(market, config), {})),
    "fcnet": (TrainConfig(), _solve_fcnet),
}

# candidate.json is written up to this many entries; beyond it a network
# run's record is solution.npz, which `evaluate --solution` certifies
DENSE_CANDIDATE_LIMIT = 10**7

# every file a run may write into its out dir; a run first removes them, so
# that no artifact of an earlier run in the same directory is left beside it
_RUN_FILES = ("curve.csv", "summary.json", "candidate.json", "solution.npz")

SWEEP_COLUMNS = ("method", "n", "m", "k", "alpha", "dist", "seed",
                 "ng", "voa", "vop", "seconds", "config_hash", "error")


@dataclass(frozen=True)
class MarketSpec:
    """The generate_market arguments in serializable form.  `alpha` is kept as
    its canonical `CesSpec.alpha_label` and `dist` as a `ContextDistribution`
    value; a market given by its contexts has no `dist` and `seed`, and its
    spec cannot rebuild it."""

    n: int = 2**20
    m: int = 10
    k: int = 5
    dist: str | None = "normal"
    alpha: float | str = 0.5
    seed: int | None = 0

    def __post_init__(self):
        check_recipe(self.n, self.m, self.k, self.seed)
        object.__setattr__(self, "alpha", CesSpec.from_label(self.alpha).alpha_label)
        if self.dist is not None:
            try:
                object.__setattr__(self, "dist", ContextDistribution(self.dist).value)
            except ValueError as err:
                names = [d.value for d in ContextDistribution]
                raise InvalidArgument(f"dist must be one of {names}, got {self.dist!r}") from err

    def ces(self) -> CesSpec:
        return CesSpec.from_label(self.alpha)

    def build(self) -> Market:
        if self.dist is None or self.seed is None:
            raise InvalidArgument("a spec without dist and seed cannot regenerate its market")
        return generate_market(self.n, self.m, self.k, ContextDistribution(self.dist),
                               self.ces(), self.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    market: MarketSpec
    method: str
    method_config: TrainConfig | EgConfig | None
    out_dir: str

    def __post_init__(self):
        if self.method not in METHOD_TABLE:
            raise InvalidArgument(f"method must be one of {tuple(METHOD_TABLE)}")
        # a config of the default's type (for EG, its momentum sign), so the hash names the run
        default, config = METHOD_TABLE[self.method][0], self.method_config
        if type(config) is not type(default) or (
                isinstance(config, EgConfig) and (config.momentum == 0) != (default.momentum == 0)):
            raise InvalidArgument(f"{self.method} takes a config like {default!r}, got {config!r}")

    def hash(self, market: Market | None = None) -> str:
        """Short digest of the configuration.  Given the market the run used,
        it also covers that market's contexts and supplies, which the
        MarketSpec alone does not pin down (a supply override, say)."""
        blob = {
            "market": asdict(self.market),
            "method": self.method,
            "method_config": None if self.method_config is None else asdict(self.method_config),
        }
        if market is not None:
            blob["market_sha256"] = market.digest()
        digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode())
        return digest.hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    method: str
    report: metrics.MetricsReport
    train_seconds: float
    eval_seconds: float
    curve_path: str | None = None
    artifacts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "method": self.method,
            "report": self.report.to_json(),
            "train_seconds": self.train_seconds,
            "eval_seconds": self.eval_seconds,
            "curve": self.curve_path,
            "artifacts": self.artifacts,
        }


def run_experiment(config: ExperimentConfig, market: Market | None = None) -> RunRecord:
    """Execute one configured run end to end and write its artifacts."""
    market = market if market is not None else config.market.build()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (out / name).unlink(missing_ok=True)

    t0 = time.perf_counter()
    try:
        candidate, history, artifacts = METHOD_TABLE[config.method][1](
            market, config.method_config, out)
    except MarketEqError as err:
        curve_path = None
        if err.history is not None:
            curve_path = str(out / "curve.csv")
            trainer.write_curve(curve_path, err.history)
        _write_summary(out, {
            "config_hash": config.hash(market),
            "method": config.method,
            "error": f"{type(err).__name__}: {err}",
            "train_seconds": time.perf_counter() - t0,
            "curve": curve_path,
        })
        raise
    train_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    report = metrics.evaluate(market, candidate.allocation, candidate.prices)
    eval_seconds = time.perf_counter() - t1

    curve_path = None
    if history is not None:
        curve_path = str(out / "curve.csv")
        trainer.write_curve(curve_path, history)
    if market.n * market.m <= DENSE_CANDIDATE_LIMIT:
        candidate_path = out / "candidate.json"
        candidate.save(candidate_path)
        artifacts["candidate"] = str(candidate_path)

    record = RunRecord(
        config_hash=config.hash(market),
        method=config.method,
        report=report,
        train_seconds=train_seconds,
        eval_seconds=eval_seconds,
        curve_path=curve_path,
        artifacts=artifacts,
    )
    _write_summary(out, record.to_json())
    return record


def _write_summary(out: Path, summary: dict) -> None:
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def evaluate_candidate_file(market: Market, candidate_path=None, solution_path=None) -> metrics.MetricsReport:
    """Certify a stored candidate (dense JSON) or a stored network solution."""
    if (candidate_path is None) == (solution_path is None):
        raise InvalidArgument("provide exactly one of candidate_path / solution_path")
    if candidate_path is not None:
        candidate = metrics.EquilibriumCandidate.load(candidate_path)
    else:
        net, lam = trainer.load_solution(solution_path)
        candidate = trainer.extract_solution(net, lam, market)
    return metrics.evaluate(market, candidate.allocation, candidate.prices)


def sweep(market_specs, method_configs, out_dir) -> list[dict]:
    """Run a grid of cells; one row per (method, market spec).

    `method_configs` maps each method to run to its config (None for naive).
    Failures are recorded in the row's error column and the sweep continues;
    an unknown method is rejected before any cell runs.
    """
    unknown = [method for method in method_configs if method not in METHOD_TABLE]
    if unknown:
        raise InvalidArgument(f"unknown methods {unknown}; choose from {tuple(METHOD_TABLE)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for spec in market_specs:
        market = spec.build()
        for method, method_config in method_configs.items():
            row = {
                "method": method, "n": spec.n, "m": spec.m, "k": spec.k,
                "alpha": spec.alpha, "dist": spec.dist, "seed": spec.seed,
                "ng": "", "voa": "", "vop": "", "seconds": "", "config_hash": "", "error": "",
            }
            cell_dir = out / f"{method}_n{spec.n}_m{spec.m}_k{spec.k}_a{spec.alpha}_{spec.dist}_s{spec.seed}"
            try:
                config = ExperimentConfig(
                    market=spec, method=method,
                    method_config=method_config,
                    out_dir=str(cell_dir),
                )
                row["config_hash"] = config.hash(market)
                record = run_experiment(config, market)
                row.update(
                    ng=repr(record.report.ng), voa=repr(record.report.voa),
                    vop=repr(record.report.vop),
                    seconds=f"{record.train_seconds + record.eval_seconds:.3f}",
                )
            except MarketEqError as err:
                row["error"] = f"{type(err).__name__}: {err}"
            rows.append(row)
    with open(out / "sweep.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


__all__ = [
    "METHOD_TABLE",
    "SWEEP_COLUMNS",
    "DENSE_CANDIDATE_LIMIT",
    "MarketSpec",
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "evaluate_candidate_file",
    "sweep",
]
