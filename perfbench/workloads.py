"""The benchmark's workloads: set-up, one timed operation, and its checks.

Each workload builds its inputs from the seed alone (`setup`), runs one
operation on them (`run`, the only timed part; operation i uses input
i mod `inputs`), and then, outside the timed region, turns the operation's
output into quality figures and a list of failed checks (`finish`).
`finish` also returns a digest of the output: the runner counts an
operation as failed when an earlier operation on the same input produced a
different digest.  Its `pair` gives the (market, allocation, prices) the
operation certified, for a traced run's allocation measurement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from marketeq import baselines, ces, harness, market, metrics, oracle
from marketeq.baselines import EgConfig
from marketeq.ces import CesSpec
from marketeq.harness import ExperimentConfig, MarketSpec
from marketeq.trainer import TrainConfig

DESK_SIZE = dict(n=4096, m=5, k=5, dist="normal", alpha=0.5)
DESK_FCNET = TrainConfig(batch_size_loss=256, hidden_width=128, hidden_depth=3,
                         learning_rate=3e-4, inner_iters=100, epochs=10, seed=1)
# a fixed epoch count keeps the work per operation the same for every seed;
# how soon NG falls below EGM_NG_TARGET is reported as baselines.epochs
DESK_EGM = EgConfig(momentum=0.9, epochs=5, ng_stop=None)
EGM_NG_TARGET = 1e-3

CERTIFY_SIZE = dict(n=2**20, m=10, k=5)
ORACLE_SIZE = dict(n=6, m=3, k=5)
ORACLE_MARKETS_PER_REGIME = 3
# the linear regime is left out: its solve time is heavy-tailed (one n=6
# market took 17 segments, 51 s), and the oracle may run 90 segments, longer
# than a run may take
ORACLE_REGIMES = (
    ("alpha=0.5", CesSpec.general(0.5)),
    ("alpha=-1", CesSpec.general(-1.0)),
    ("cobb-douglas", CesSpec.cobb_douglas()),
)


@dataclass
class Outcome:
    """What `finish` makes of one operation's output."""

    quality: dict  # ng, voa, vop, kkt
    digest: str
    failures: list
    facts: dict
    pair: Callable[[], tuple]  # (market, x, p) of the output; read while checking


def market_digest(mk: market.Market) -> str:
    """SHA-256 of a market's contexts and supplies (what the solvers see)."""
    h = hashlib.sha256()
    for array in (mk.buyers, mk.goods, mk.supplies):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def _report_quality(report: metrics.MetricsReport) -> dict:
    return {"ng": report.ng, "voa": report.voa, "vop": report.vop, "kkt": report.kkt_max_residual}


class _Desk:
    """The acceptance desk market run through `harness.run_experiment`."""

    method = ""
    config = None
    inputs = 1

    def setup(self, seed: int):
        spec = MarketSpec(seed=seed, **DESK_SIZE)
        mk = spec.build()
        naive = baselines.naive(mk)
        naive_ng = metrics.evaluate(mk, naive.allocation, naive.prices).ng
        return {"spec": spec, "market": mk, "naive_ng": naive_ng}

    def markets(self, state):
        return [("desk", state["market"])]

    def run(self, state, index: int, workdir: Path):
        experiment = ExperimentConfig(market=state["spec"], method=self.method,
                                      method_config=self.config, out_dir=str(workdir))
        return harness.run_experiment(experiment, state["market"])

    def finish(self, state, index: int, record, workdir: Path) -> Outcome:
        curve = (workdir / "curve.csv").read_bytes()
        rows = curve.decode().strip().splitlines()[1:]
        ngs = [float(row.split(",")[1]) for row in rows]
        artifact_bytes = sum(path.stat().st_size for path in workdir.iterdir() if path.is_file())
        quality = _report_quality(record.report)
        failures = self.checks(state, quality["ng"], ngs)
        facts = {"curve_sha256": hashlib.sha256(curve).hexdigest(), "epochs": len(ngs),
                 "artifact_bytes": artifact_bytes}
        facts.update(self.extra_facts(ngs))

        def pair():
            candidate = metrics.EquilibriumCandidate.load(workdir / "candidate.json")
            return state["market"], candidate.allocation, candidate.prices

        return Outcome(quality, facts["curve_sha256"], failures, facts, pair)

    def extra_facts(self, ngs) -> dict:
        return {}


class FcnetDesk(_Desk):
    name = "fcnet-desk"
    method = "fcnet"
    config = DESK_FCNET

    def checks(self, state, ng, ngs):
        failures = []
        if not ng <= 5e-2:
            failures.append(f"NG {ng:.3e} above 5e-2")
        if not ng <= state["naive_ng"] / 5.0:
            failures.append(f"NG {ng:.3e} above naive NG / 5 = {state['naive_ng'] / 5.0:.3e}")
        if not ngs[-1] < ngs[0]:
            failures.append(f"curve NG did not fall: first {ngs[0]:.3e}, last {ngs[-1]:.3e}")
        return failures


class EgmDesk(_Desk):
    name = "egm-desk"
    method = "eg-m"
    config = DESK_EGM

    def checks(self, state, ng, ngs):
        return [] if ng <= 1e-2 else [f"NG {ng:.3e} above 1e-2"]

    def extra_facts(self, ngs) -> dict:
        # first epoch whose NG is below the target; epochs run + 1 if none is
        hits = [epoch for epoch, ng in enumerate(ngs, start=1) if ng < EGM_NG_TARGET]
        return {"epochs_to_target": hits[0] if hits else len(ngs) + 1}


class Certify1M:
    """`metrics.evaluate` with KKT at n = 2^20 on the fixed-price demand at
    the naive prices, a pair that does not clear the market."""

    name = "certify-1m"
    inputs = 1

    def setup(self, seed: int):
        mk = market.generate_market(ces=CesSpec.general(0.5), seed=seed,
                                    dist=market.ContextDistribution.STANDARD_NORMAL,
                                    **CERTIFY_SIZE)
        p0 = mk.total_budget / (mk.m * mk.supplies)
        x0 = ces.demand_matrix(mk.values, mk.budgets, p0, mk.ces)
        return {"market": mk, "x": x0, "p": p0}

    def markets(self, state):
        return [("certify", state["market"])]

    def run(self, state, index: int, workdir: Path):
        return metrics.evaluate(state["market"], state["x"], state["p"], kkt=True)

    def finish(self, state, index: int, report, workdir: Path) -> Outcome:
        quality = _report_quality(report)
        failures = []
        if not report.ng >= -1e-9:
            failures.append(f"projected NG {report.ng:.3e} below -1e-9")
        if not abs(report.vop) <= 1e-15:
            failures.append(f"VoP {report.vop:.3e} above 1e-15")
        if not np.isfinite(report.kkt_max_residual):
            failures.append("KKT residual is not finite")
        facts = {}
        if index == 0:
            # at the demand, fixed-price welfare and delivered welfare agree
            mk = state["market"]
            lfw0 = metrics.lfw(mk, state["p"])
            lnw0 = metrics.lnw(mk, state["x"])
            rel = abs(lfw0 - lnw0) / max(abs(lfw0), abs(lnw0), np.finfo(float).tiny)
            facts["lfw_lnw_rel"] = rel
            if not rel <= 1e-12:
                failures.append(f"lfw(p0) and lnw(demand(p0)) differ by {rel:.3e} relative")
        digest = hashlib.sha256(repr(report.to_json()).encode()).hexdigest()
        return Outcome(quality, digest, failures, facts,
                       lambda: (state["market"], state["x"], state["p"]))


class OracleRef:
    """Certified `oracle.numeric_equilibrium` solves on small markets drawn
    from the seed, ORACLE_MARKETS_PER_REGIME per regime in ORACLE_REGIMES,
    in turn, so that the regimes stay balanced in any run of operations."""

    name = "oracle-ref"
    inputs = len(ORACLE_REGIMES) * ORACLE_MARKETS_PER_REGIME

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        markets = []
        for label, spec in ORACLE_REGIMES * ORACLE_MARKETS_PER_REGIME:
            mk = market.generate_market(ces=spec, seed=int(rng.integers(2**31)),
                                        dist=market.ContextDistribution.STANDARD_NORMAL,
                                        **ORACLE_SIZE)
            markets.append((label, mk))
        return {"markets": markets}

    def markets(self, state):
        return state["markets"]

    def run(self, state, index: int, workdir: Path):
        _, mk = state["markets"][index % self.inputs]
        return oracle.numeric_equilibrium(mk)

    def finish(self, state, index: int, result, workdir: Path) -> Outcome:
        label, mk = state["markets"][index % self.inputs]
        candidate = result.candidate
        _, _, voa, vop = metrics.project(mk, candidate.allocation, candidate.prices)
        quality = {"ng": result.certified_ng, "voa": voa, "vop": vop, "kkt": result.kkt_residual}
        failures = []
        if result.method != "numeric" or not np.isfinite(result.certified_ng):
            failures.append(f"{label}: no certified numeric result")
        if mk.ces.regime is ces.Regime.COBB_DOUGLAS:
            closed = oracle.cobb_douglas_equilibrium(mk).candidate.prices
            rel = float(np.max(np.abs(candidate.prices - closed) / closed))
            if not rel <= 1e-5:
                failures.append(f"{label}: prices differ from the closed form by {rel:.2e}")
        digest = hashlib.sha256(candidate.prices.tobytes() + candidate.allocation.tobytes()).hexdigest()
        return Outcome(quality, digest, failures, {"regime": label},
                       lambda: (mk, candidate.allocation, candidate.prices))


WORKLOADS = {cls.name: cls for cls in (FcnetDesk, EgmDesk, Certify1M, OracleRef)}
