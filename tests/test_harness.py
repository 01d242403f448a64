import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from marketeq import cli, harness, trainer
from marketeq.baselines import EgConfig
from marketeq.cli import main
from marketeq.ces import CesSpec
from marketeq.errors import InvalidArgument, InvalidPrices, NumericFailure
from marketeq.harness import (
    ExperimentConfig,
    MarketSpec,
    evaluate_candidate_file,
    run_experiment,
    sweep,
)
from marketeq.market import ContextDistribution, Market
from marketeq.metrics import EquilibriumCandidate
from marketeq.net import AllocationNet
from marketeq.trainer import TrainConfig, load_solution, save_solution

from helpers import assert_same_report, market_from_values


def toy_spec(**overrides):
    base = dict(n=32, m=3, k=4, dist="normal", alpha=0.5, seed=5)
    base.update(overrides)
    return MarketSpec(**base)


def test_run_naive_writes_artifacts(tmp_path):
    config = ExperimentConfig(market=toy_spec(), method="naive",
                              method_config=None, out_dir=str(tmp_path / "naive"))
    record = run_experiment(config)
    assert record.report.voa == 0.0
    assert record.report.ng > 0
    summary = json.loads((tmp_path / "naive" / "summary.json").read_text())
    assert summary["config_hash"] == record.config_hash
    assert summary["report"]["voa"] == 0.0
    assert (tmp_path / "naive" / "candidate.json").exists()


def test_rerun_in_the_same_directory_leaves_no_earlier_artifacts(tmp_path):
    # fcnet's curve and solution must not outlive it beside a naive run's
    # summary; files the runs do not own stay
    out = tmp_path / "run"
    fcnet = TrainConfig(batch_size_loss=8, hidden_width=8, hidden_depth=1, inner_iters=2,
                        epochs=1, seed=0)
    run_experiment(ExperimentConfig(market=toy_spec(), method="fcnet", method_config=fcnet,
                                    out_dir=str(out)))
    (out / "notes.txt").write_text("kept\n")
    assert {"curve.csv", "solution.npz"} <= {path.name for path in out.iterdir()}
    run_experiment(ExperimentConfig(market=toy_spec(), method="naive", method_config=None,
                                    out_dir=str(out)))
    assert sorted(path.name for path in out.iterdir()) == [
        "candidate.json", "notes.txt", "summary.json"]
    assert json.loads((out / "summary.json").read_text())["curve"] is None


def test_run_certifies_kkt_beyond_100k_entries(tmp_path):
    # KKT is certified at every size: n * m = 131072 entries here
    config = ExperimentConfig(market=toy_spec(n=2**15, m=4), method="naive",
                              method_config=None, out_dir=str(tmp_path / "naive"))
    record = run_experiment(config)
    summary = json.loads((tmp_path / "naive" / "summary.json").read_text())
    assert np.isfinite(summary["report"]["kkt_max_residual"])
    assert summary["report"]["kkt_max_residual"] == record.report.kkt_max_residual > 0


def test_run_fcnet_roundtrips_through_solution(tmp_path):
    config = ExperimentConfig(
        market=toy_spec(n=64, seed=7),
        method="fcnet",
        method_config=TrainConfig(batch_size_loss=16, hidden_width=16, hidden_depth=2,
                                  inner_iters=20, epochs=3, seed=0),
        out_dir=str(tmp_path / "fc"),
    )
    record = run_experiment(config)
    curve = (tmp_path / "fc" / "curve.csv").read_text().strip().splitlines()
    assert curve[0] == "epoch,ng,voa,vop,loss"
    assert len(curve) == 4
    # re-evaluating the stored solution reproduces the run-time report bit for bit
    market = config.market.build()
    report = evaluate_candidate_file(market, solution_path=record.artifacts["solution"])
    final_ng = float(curve[-1].split(",")[1])
    assert report.ng == pytest.approx(final_ng, abs=1e-9)
    assert_same_report(report, record.report)


def test_run_eg_momentum(tmp_path):
    config = ExperimentConfig(
        market=toy_spec(seed=9), method="eg-m",
        method_config=EgConfig(momentum=0.9, epochs=5, inner_iters=20, ng_stop=None),
        out_dir=str(tmp_path / "egm"),
    )
    record = run_experiment(config)
    assert record.curve_path is not None
    assert record.report.ng >= -1e-9


def test_experiment_config_validation(tmp_path):
    with pytest.raises(InvalidArgument):
        ExperimentConfig(market=toy_spec(), method="fcnet", method_config=None,
                         out_dir=str(tmp_path))
    with pytest.raises(InvalidArgument):
        ExperimentConfig(market=toy_spec(), method="simplex", method_config=None,
                         out_dir=str(tmp_path))
    # the config must name the momentum the method runs, so its hash does too
    with pytest.raises(InvalidArgument):
        ExperimentConfig(market=toy_spec(), method="eg", method_config=EgConfig(momentum=0.9),
                         out_dir=str(tmp_path))
    with pytest.raises(InvalidArgument):
        ExperimentConfig(market=toy_spec(), method="eg-m", method_config=EgConfig(epochs=2),
                         out_dir=str(tmp_path))
    ExperimentConfig(market=toy_spec(), method="eg-m", method_config=EgConfig(momentum=0.9),
                     out_dir=str(tmp_path))
    # naive takes no config: one would change the hash of an unchanged run
    with pytest.raises(InvalidArgument):
        ExperimentConfig(market=toy_spec(), method="naive", method_config=EgConfig(),
                         out_dir=str(tmp_path))


@pytest.mark.parametrize("make, field, value", [
    (TrainConfig, "learning_rate", 0.0),
    (TrainConfig, "learning_rate", -0.5),
    (TrainConfig, "learning_rate", math.nan),
    (TrainConfig, "learning_rate", math.inf),
    (TrainConfig, "rho", 0.0),
    (TrainConfig, "rho", math.nan),
    (TrainConfig, "rho", math.inf),
    (EgConfig, "step_size", 0.0),
    (EgConfig, "step_size", -1.0),
    (EgConfig, "step_size", math.nan),
    (EgConfig, "step_size", math.inf),
    (EgConfig, "rho", 0.0),
    (EgConfig, "rho", math.nan),
    (EgConfig, "rho", math.inf),
    (EgConfig, "constant_beta", -1.0),
    (EgConfig, "constant_beta", math.nan),
    (EgConfig, "constant_beta", math.inf),
    (TrainConfig, "epochs", 2.5),
    (TrainConfig, "seed", 1.5),
    (TrainConfig, "batch_size_loss", 4.5),
    (TrainConfig, "epochs", True),
    (TrainConfig, "batch_size_multiplier", 8.0),
    (EgConfig, "epochs", 2.5),
    (EgConfig, "inner_iters", 3.5),
    (EgConfig, "epochs", True),
])
def test_configs_reject_unusable_step_sizes(make, field, value):
    with pytest.raises(InvalidArgument):
        make(**{field: value})


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig(market=toy_spec(), method="naive", method_config=None, out_dir="x")
    b = ExperimentConfig(market=toy_spec(), method="naive", method_config=None, out_dir="y")
    c = ExperimentConfig(market=toy_spec(seed=6), method="naive", method_config=None, out_dir="x")
    assert a.hash() == b.hash()  # output dir is not part of the identity
    assert a.hash() != c.hash()


def test_market_spec_canonical_alpha():
    assert MarketSpec(alpha=0.5) == MarketSpec(alpha="0.5")
    assert hash(MarketSpec(alpha=0.5)) == hash(MarketSpec(alpha="0.5"))
    a = ExperimentConfig(market=toy_spec(alpha=0.5), method="naive", method_config=None, out_dir="x")
    b = ExperimentConfig(market=toy_spec(alpha="0.5"), method="naive", method_config=None, out_dir="x")
    assert a.hash() == b.hash()
    assert MarketSpec(alpha=1).alpha == "1" and MarketSpec(alpha="leontief").alpha == "-inf"
    with pytest.raises(InvalidArgument):
        MarketSpec(alpha="bogus")
    assert MarketSpec(dist=ContextDistribution.UNIFORM01) == MarketSpec(dist="uniform")
    with pytest.raises(InvalidArgument):
        MarketSpec(dist="bogus")


def test_config_hash_covers_the_market_contents(tmp_path):
    spec = toy_spec()
    market = spec.build()
    override = Market(n=market.n, m=market.m, k=market.k, buyers=market.buyers,
                      goods=market.goods, ces=market.ces, dist=market.dist, seed=market.seed,
                      supply_override=[1.0, 2.0, 3.0])
    config = ExperimentConfig(market=spec, method="naive", method_config=None,
                              out_dir=str(tmp_path / "a"))
    assert config.hash(market) == config.hash(spec.build())
    assert config.hash(market) != config.hash(override)
    assert config.hash(market) != config.hash()  # the spec-only hash still works
    default_run = run_experiment(config, market)
    override_run = run_experiment(
        ExperimentConfig(market=spec, method="naive", method_config=None,
                         out_dir=str(tmp_path / "b")), override)
    assert default_run.config_hash == config.hash(market)
    assert override_run.config_hash != default_run.config_hash


def test_evaluate_candidate_shape_mismatch(tmp_path):
    config = ExperimentConfig(market=toy_spec(), method="naive", method_config=None,
                              out_dir=str(tmp_path / "n"))
    record = run_experiment(config)
    other = toy_spec(n=16).build()
    with pytest.raises(InvalidArgument):
        evaluate_candidate_file(other, candidate_path=record.artifacts["candidate"])
    with pytest.raises(InvalidArgument):
        evaluate_candidate_file(other)


def test_sweep_records_cells_and_errors(tmp_path):
    specs = [toy_spec(n=16, m=2), toy_spec(n=16, m=3)]
    # absurd dual step: the eg runs fail and the sweep must continue; eg-m
    # without momentum cannot even build its config
    configs = {"naive": None, "eg": EgConfig(epochs=1, constant_beta=1e4, ng_stop=None),
               "eg-m": EgConfig()}
    rows = sweep(specs, configs, tmp_path / "sweep")
    assert len(rows) == 6
    naive_rows = [r for r in rows if r["method"] == "naive"]
    assert all(r["error"] == "" for r in naive_rows)
    # a cell that built its config carries its hash, failed run or not
    for spec, row in zip(specs, (r for r in rows if r["method"] == "eg")):
        eg = ExperimentConfig(market=spec, method="eg", method_config=configs["eg"], out_dir="-")
        assert row["error"].startswith("InvalidPrices")
        assert row["config_hash"] == eg.hash(spec.build())
    assert all(r["config_hash"] == "" and r["error"].startswith("InvalidArgument")
               for r in rows if r["method"] == "eg-m")
    with open(tmp_path / "sweep" / "sweep.csv") as handle:
        stored = list(csv.DictReader(handle))
    assert len(stored) == 6
    assert stored[0]["method"] == "naive"


def test_sweep_cells_that_differ_only_in_k_keep_their_own_directories(tmp_path):
    specs = [MarketSpec(n=8, m=2, k=3, seed=1), MarketSpec(n=8, m=2, k=4, seed=1)]
    rows = sweep(specs, {"naive": None}, tmp_path)
    assert len(rows) == 2
    cells = sorted(path.name for path in tmp_path.iterdir() if path.is_dir())
    assert len(cells) == 2
    assert all((tmp_path / cell / "summary.json").exists() for cell in cells)
    # each stored row names its own cell directory
    with open(tmp_path / "sweep.csv") as handle:
        stored = list(csv.DictReader(handle))
    assert [(row["k"], row["seed"]) for row in stored] == [("3", "1"), ("4", "1")]
    for row in stored:
        cell = tmp_path / ("{method}_n{n}_m{m}_k{k}_a{alpha}_{dist}_s{seed}".format(**row))
        summary = json.loads((cell / "summary.json").read_text())
        assert float(row["ng"]) == summary["report"]["ng"]
        assert row["config_hash"] == summary["config_hash"]


def test_sweep_rejects_unknown_method_before_any_cell(tmp_path, capsys):
    with pytest.raises(InvalidArgument):
        sweep([toy_spec(n=16, m=2)], {"naive": None, "bogus": None}, tmp_path / "sweep")
    assert not (tmp_path / "sweep").exists()
    assert main(["sweep", "--methods", "bogus", "--n-list", "8", "--m-list", "2", "--k", "3",
                 "--outdir", str(tmp_path / "cli")]) == 2
    assert "invalid arguments" in capsys.readouterr().err
    assert not (tmp_path / "cli").exists()


def test_cli_generate_run_evaluate_roundtrip(tmp_path, capsys):
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "24", "--m", "2", "--k", "3", "--dist", "uniform",
                 "--alpha", "0", "--seed", "3", "--out", str(market_path)]) == 0
    assert market_path.exists()
    # same seed twice -> identical files
    twin = tmp_path / "market2.json"
    main(["generate", "--n", "24", "--m", "2", "--k", "3", "--dist", "uniform",
          "--alpha", "0", "--seed", "3", "--out", str(twin)])
    assert market_path.read_text() == twin.read_text()
    # markets regenerate identically from their seed recipe
    loaded = Market.load(market_path)
    assert loaded.n == 24 and loaded.m == 2

    outdir = tmp_path / "run"
    assert main(["run", "--market", str(market_path), "--method", "naive",
                 "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "ng" in out and "voa" in out

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--market", str(market_path),
                 "--candidate", str(outdir / "candidate.json"),
                 "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["voa"] == 0.0


def test_cli_run_keeps_a_context_market_unseeded(tmp_path, monkeypatch):
    market = market_from_values([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]], [1.0, 2.0, 1.5],
                                CesSpec.general(-1.0))
    market_path = tmp_path / "market.json"
    market.save(market_path)
    configs = []

    def recording_run(config, market):
        configs.append(config)
        return run_experiment(config, market)

    monkeypatch.setattr(cli, "run_experiment", recording_run)
    assert main(["run", "--market", str(market_path), "--method", "naive",
                 "--outdir", str(tmp_path / "run")]) == 0
    spec = configs[0].market
    assert (spec.n, spec.m, spec.alpha, spec.dist, spec.seed) == (3, 2, "-1.0", None, None)
    assert (tmp_path / "run" / "summary.json").exists()
    # the spec must not regenerate some other market from an invented seed
    with pytest.raises(InvalidArgument):
        spec.build()


def test_cli_sweep(tmp_path):
    outdir = tmp_path / "sw"
    code = main(["sweep", "--methods", "naive,eg", "--n-list", "8,16", "--m-list", "2",
                 "--alpha-list", "1,0.5", "--dist-list", "normal", "--k", "3",
                 "--epochs", "2", "--inner-iters", "5", "--outdir", str(outdir)])
    assert code == 0
    with open(outdir / "sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8  # 2 methods x 2 market sizes x 2 alphas
    # the linear cells pick the linear step-size regime automatically
    assert all(row["error"] == "" for row in rows)
    assert {row["alpha"] for row in rows} == {"1", "0.5"}


def test_sweep_fcnet_beats_naive_across_distributions(tmp_path):
    specs = [toy_spec(n=1024, m=3, dist=dist, seed=2) for dist in
             ("normal", "uniform", "exponential")]
    fcnet = TrainConfig(batch_size_loss=64, hidden_width=32, hidden_depth=2,
                        learning_rate=1e-3, inner_iters=50, epochs=5, seed=0)
    rows = sweep(specs, {"naive": None, "fcnet": fcnet}, tmp_path / "dist_sweep")
    assert all(row["error"] == "" for row in rows)
    by_dist = {}
    for row in rows:
        by_dist.setdefault(row["dist"], {})[row["method"]] = float(row["ng"])
    for dist, ngs in by_dist.items():
        assert ngs["fcnet"] < ngs["naive"], f"{dist}: {ngs}"


def test_cli_evaluate_max_ng_exit_code(tmp_path):
    market_path = tmp_path / "m.json"
    main(["generate", "--n", "16", "--m", "2", "--k", "3", "--dist", "normal",
          "--alpha", "0.5", "--seed", "1", "--out", str(market_path)])
    outdir = tmp_path / "naive"
    main(["run", "--market", str(market_path), "--method", "naive", "--outdir", str(outdir)])
    candidate = str(outdir / "candidate.json")
    assert main(["evaluate", "--market", str(market_path), "--candidate", candidate,
                 "--max-ng", "10.0"]) == 0
    assert main(["evaluate", "--market", str(market_path), "--candidate", candidate,
                 "--max-ng", "1e-9"]) == 4


def test_failed_run_writes_the_epochs_it_finished(tmp_path):
    # absurd dual step: eg finishes two epochs, then a buyer reaches zero utility
    config = ExperimentConfig(market=MarketSpec(n=16, m=2, k=3, seed=1), method="eg",
                              method_config=EgConfig(epochs=5, constant_beta=1e4, ng_stop=None),
                              out_dir=str(tmp_path / "eg"))
    with pytest.raises(NumericFailure) as failure:
        run_experiment(config)
    with open(tmp_path / "eg" / "curve.csv") as handle:
        curve = list(csv.DictReader(handle))
    assert [int(row["epoch"]) for row in curve] == [1, 2]
    np.testing.assert_array_equal([float(row["ng"]) for row in curve],
                                  [rec.ng for rec in failure.value.history])
    # next to the curve, a summary tagged with the error
    summary = json.loads((tmp_path / "eg" / "summary.json").read_text())
    assert summary["config_hash"] == config.hash(config.market.build())
    assert summary["error"] == f"NumericFailure: {failure.value}"
    assert summary["curve"] == str(tmp_path / "eg" / "curve.csv")
    assert "report" not in summary
    # the CLI still exits 3 and leaves the curve (header only: no epoch finished)
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "16", "--m", "2", "--k", "3", "--seed", "1",
                 "--out", str(market_path)]) == 0
    assert main(["run", "--market", str(market_path), "--method", "eg", "--rho", "1e4",
                 "--outdir", str(tmp_path / "cli")]) == 3
    assert (tmp_path / "cli" / "curve.csv").read_text().splitlines() == ["epoch,ng,voa,vop,loss"]
    assert json.loads((tmp_path / "cli" / "summary.json").read_text())["error"].startswith(
        "NumericFailure: epoch 1")
    # one epoch only: it finishes, and its dual step leaves a multiplier negative
    config = ExperimentConfig(market=MarketSpec(n=16, m=2, k=5, seed=1), method="eg",
                              method_config=EgConfig(epochs=1, constant_beta=1e4, ng_stop=None),
                              out_dir=str(tmp_path / "prices"))
    with pytest.raises(InvalidPrices) as failure:
        run_experiment(config)
    with open(tmp_path / "prices" / "curve.csv") as handle:
        assert [int(row["epoch"]) for row in csv.DictReader(handle)] == [1]
    assert len(failure.value.history) == 1
    summary = json.loads((tmp_path / "prices" / "summary.json").read_text())
    assert summary["error"] == f"InvalidPrices: {failure.value}"
    assert summary["curve"] == str(tmp_path / "prices" / "curve.csv")


def test_fcnet_run_takes_its_candidate_from_the_last_population_pass(tmp_path, monkeypatch):
    # the candidate is the last epoch's population, not one more forward: an
    # exact run forms one population per epoch and scores each, a sampled run
    # forms one in all and scores only the last epoch
    spec = toy_spec(n=64, seed=7)
    market = spec.build()
    forward_batch = AllocationNet.forward_batch
    full_passes = []

    def counted(net, buyers, goods):
        full_passes.append(len(buyers) == market.n)
        return forward_batch(net, buyers, goods)

    base = TrainConfig(batch_size_loss=16, hidden_width=16, hidden_depth=2, inner_iters=5,
                       epochs=3, seed=0)
    for name, method_config, passes in (
            ("exact", base, base.epochs),
            ("sampled", replace(base, batch_size_multiplier=8), 1)):
        full_passes.clear()
        monkeypatch.setattr(AllocationNet, "forward_batch", counted)
        config = ExperimentConfig(market=spec, method="fcnet",
                                  method_config=method_config, out_dir=str(tmp_path / name))
        record = run_experiment(config, market)
        monkeypatch.undo()
        assert sum(full_passes) == passes, name
        with open(tmp_path / name / "curve.csv") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            scored = passes == base.epochs or row["epoch"] == str(base.epochs)
            assert all(math.isnan(float(row[key])) != scored for key in ("ng", "voa", "vop")), row
        assert float(rows[-1]["ng"]) == pytest.approx(record.report.ng, abs=1e-9), name
        stored = EquilibriumCandidate.load(tmp_path / name / "candidate.json")
        own = trainer.extract_solution(*load_solution(tmp_path / name / "solution.npz"), market)
        np.testing.assert_array_equal(stored.allocation, own.allocation)
        np.testing.assert_array_equal(stored.prices, own.prices)


def test_cli_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--market", str(missing), "--method", "naive"]) == 3
    assert capsys.readouterr().err.startswith("file not found: ")
    bad_market = tmp_path / "bad.json"
    bad_market.write_text(json.dumps({"version": 1, "n": 2, "m": 1, "k": 1,
                                      "dist": None, "regime": "linear",
                                      "alpha": None, "seed": None}))
    assert main(["run", "--market", str(bad_market), "--method", "naive"]) == 2
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--out", str(market_path)]) == 0
    assert main(["run", "--market", str(market_path), "--method", "eg", "--inner-iters", "0",
                 "--outdir", str(tmp_path / "eg")]) == 2
    assert main(["run", "--market", str(market_path), "--method", "fcnet", "--learning-rate", "-0.5",
                 "--outdir", str(tmp_path / "fcnet")]) == 2
    assert main(["run", "--market", str(market_path), "--method", "eg", "--step-size", "nan",
                 "--outdir", str(tmp_path / "eg")]) == 2
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--seed", "-1",
                 "--out", str(tmp_path / "negative.json")]) == 2
    assert main(["run", "--market", str(market_path), "--method", "fcnet", "--method-seed", "-1",
                 "--outdir", str(tmp_path / "fcnet")]) == 2
    capsys.readouterr()
    assert main(["sweep", "--methods", "naive", "--n-list", "8", "--m-list", "2",
                 "--dist-list", "bogus", "--k", "3", "--outdir", str(tmp_path / "sw")]) == 2
    assert "invalid arguments" in capsys.readouterr().err


def test_cli_reports_running_out_of_memory_as_such(tmp_path, capsys):
    # 10^13 buyers' contexts need 4 * 10^14 bytes, an allocation refused at once
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"version": 1, "n": 10**13, "m": 2, "k": 5, "dist": "normal",
                                "regime": "general", "alpha": 0.5, "seed": 0}))
    for argv in (["generate", "--n", str(10**13), "--out", str(tmp_path / "market.json")],
                 ["evaluate", "--market", str(huge), "--candidate", str(tmp_path / "none.json")]):
        capsys.readouterr()
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1, err
    assert not (tmp_path / "market.json").exists()


def test_python_m_marketeq_runs_the_cli(tmp_path):
    out = tmp_path / "market.json"
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "marketeq", "generate", "--n", "4", "--m", "2",
                           "--k", "3", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert Market.load(out).n == 4


def test_cli_rejects_bad_ng_thresholds(tmp_path, capsys, monkeypatch):
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--out", str(market_path)]) == 0
    outdir = tmp_path / "naive"
    assert main(["run", "--market", str(market_path), "--method", "naive", "--outdir", str(outdir)]) == 0
    for bad in ("nan", "-1"):
        assert main(["run", "--market", str(market_path), "--method", "eg", "--epochs", "1",
                     "--inner-iters", "1", "--ng-stop", bad,
                     "--outdir", str(tmp_path / "eg")]) == 2, bad
    for value in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            EgConfig(ng_stop=value)

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored a candidate before checking --max-ng")

    monkeypatch.setattr(cli, "evaluate_candidate_file", no_scoring)
    capsys.readouterr()
    for bad in ("nan", "-1", "inf"):
        assert main(["evaluate", "--market", str(market_path),
                     "--candidate", str(outdir / "candidate.json"), "--max-ng", bad]) == 2, bad
        assert "invalid arguments" in capsys.readouterr().err


def _solution_arrays(**changes):
    net = AllocationNet.initialize(3, 2, 4, seed=0)
    arrays = dict(version=1, context_dim=3, hidden_depth=2, hidden_width=4,
                  params=net.get_flat(), multipliers=np.ones(2))
    return {name: value for name, value in (arrays | changes).items() if value is not None}


def _write_epoch_snapshot_without_multipliers(path):
    np.savez(path, **_solution_arrays(multipliers=None, opt_step=3))


def _write_vector_context_dim(path):
    np.savez(path, **_solution_arrays(context_dim=np.array([3, 3])))


def _write_word_version(path):
    np.savez(path, **_solution_arrays(version="one"))


def _write_string_multipliers(path):
    np.savez(path, **_solution_arrays(multipliers=np.array(["1.0", "2.0"])))


def _write_oversized_architecture(path):
    # three parameters under a header whose random init alone would take 48 TiB
    np.savez(path, **_solution_arrays(hidden_width=2**40, params=np.ones(3)))


def _write_deep_architecture(path):
    # three parameters under a header whose list of layer widths alone would
    # take 2^48 bytes, past the user address space
    np.savez(path, **_solution_arrays(hidden_depth=2**45, hidden_width=8, params=np.ones(3)))


def _write_foreign_npz(path):
    np.savez(path, weights=np.ones(3))


def _write_text(path):
    path.write_text("not a checkpoint\n")


@pytest.mark.parametrize("write", [_write_epoch_snapshot_without_multipliers,
                                   _write_foreign_npz, _write_text, _write_vector_context_dim,
                                   _write_word_version, _write_string_multipliers,
                                   _write_oversized_architecture, _write_deep_architecture])
def test_non_solution_files_are_invalid_arguments(tmp_path, capsys, write):
    path = tmp_path / "solution.npz"
    write(path)
    with pytest.raises(InvalidArgument):
        load_solution(path)
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--out", str(market_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--market", str(market_path), "--solution", str(path)]) == 2
    assert "invalid arguments" in capsys.readouterr().err


_MARKET_DOC = {"version": 1, "n": 8, "m": 2, "k": 3, "dist": "normal", "regime": "general",
               "alpha": 0.5, "seed": 0}


def _without(doc, key):
    return {name: value for name, value in doc.items() if name != key}


# (file flag, what the file holds): each is an invalid argument, not a crash;
# a solution file is given as (first weight, multipliers)
_MALFORMED_FILES = {
    "market not json": ("--market", "{not json"),
    "market without regime": ("--market", json.dumps(_without(_MARKET_DOC, "regime"))),
    "market with bogus dist": ("--market", json.dumps(_MARKET_DOC | {"dist": "bogus"})),
    "market with bogus regime": ("--market", json.dumps(_MARKET_DOC | {"regime": "nope"})),
    "market with string n": ("--market", json.dumps(_MARKET_DOC | {"n": "8"})),
    "market with fractional n": ("--market", json.dumps(_MARKET_DOC | {"n": 8.5})),
    "market with boolean n": ("--market", json.dumps(_MARKET_DOC | {"n": True})),
    "market with fractional seed": ("--market", json.dumps(_MARKET_DOC | {"seed": 1.5})),
    "market with nan supply": ("--market", json.dumps(_MARKET_DOC | {"supplies": [np.nan, 8.0]})),
    "market with inf supply": ("--market", json.dumps(_MARKET_DOC | {"supplies": [8.0, np.inf]})),
    "candidate not json": ("--candidate", "{not json"),
    "candidate without allocation": ("--candidate", json.dumps({"prices": [1.0, 1.0]})),
    "solution with nan multipliers": ("--solution", (0.5, [np.nan, 1.0])),
    "solution with a nan weight": ("--solution", (np.nan, [1.0, 1.0])),
}


@pytest.mark.parametrize("case", list(_MALFORMED_FILES))
def test_malformed_input_files_are_invalid_arguments(tmp_path, capsys, case):
    flag, text = _MALFORMED_FILES[case]
    path = tmp_path / "input"
    if flag == "--solution":
        net = AllocationNet.initialize(3, 1, 4, seed=0)
        net.weights[0][0, 0], multipliers = text
        path = path.with_suffix(".npz")
        save_solution(path, net, multipliers)
    else:
        path.write_text(text)
    load = {"--market": Market.load, "--candidate": EquilibriumCandidate.load,
            "--solution": load_solution}[flag]
    with pytest.raises(InvalidArgument):
        load(path)
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--out", str(market_path)]) == 0
    capsys.readouterr()
    if flag == "--market":
        argv = ["run", "--market", str(path), "--method", "naive", "--outdir", str(tmp_path / "out")]
    else:
        argv = ["evaluate", "--market", str(market_path), flag, str(path)]
    assert main(argv) == 2
    assert "invalid arguments" in capsys.readouterr().err


_RUN = ["run", "--market", "{market}", "--outdir", "{out}", "--method"]
_SWEEP = ["sweep", "--n-list", "8", "--m-list", "2", "--k", "3", "--outdir", "{out}", "--methods"]
# (command line, numeric flag, an out-of-range value); each flag is also given nan and inf
# and a size flag 2^60: an array of that many numbers passes 2^63 bytes, which numpy cannot index
_SIZE_FLAGS = ("--n", "--m", "--k", "--n-list", "--m-list", "--batch-size", "--width", "--depth")
_NUMERIC_FLAGS = [
    (["generate", "--out", "{out}"], "--n", "0"),
    (["generate", "--out", "{out}"], "--m", "0"),
    (["generate", "--out", "{out}"], "--k", "0"),
    (["generate", "--out", "{out}"], "--seed", "-1"),
    (["generate", "--out", "{out}"], "--alpha", "2"),
    (["evaluate", "--market", "{market}", "--candidate", "{candidate}", "--out", "{out}"],
     "--max-ng", "-1"),
    (_RUN + ["fcnet"], "--epochs", "0"),
    (_RUN + ["fcnet"], "--inner-iters", "0"),
    (_RUN + ["fcnet"], "--batch-size", "0"),
    (_RUN + ["fcnet"], "--rho", "0"),
    (_RUN + ["fcnet"], "--learning-rate", "0"),
    (_RUN + ["fcnet"], "--width", "0"),
    (_RUN + ["fcnet"], "--depth", "0"),
    (_RUN + ["fcnet"], "--method-seed", "-1"),
    (_RUN + ["eg"], "--epochs", "0"),
    (_RUN + ["eg"], "--inner-iters", "0"),
    (_RUN + ["eg"], "--rho", "-1"),
    (_RUN + ["eg"], "--step-size", "0"),
    (_RUN + ["eg"], "--ng-stop", "-1"),
    (_SWEEP + ["naive"], "--n-list", "8,0"),
    (_SWEEP + ["naive"], "--m-list", "2,0"),
    (_SWEEP + ["naive"], "--k", "0"),
    (_SWEEP + ["naive"], "--seed", "-1"),
    (_SWEEP + ["naive"], "--alpha-list", "0.5,2"),
    (_SWEEP + ["naive,fcnet"], "--epochs", "0"),
    (_SWEEP + ["naive,fcnet"], "--inner-iters", "0"),
    (_SWEEP + ["naive,fcnet"], "--batch-size", "0"),
    (_SWEEP + ["naive,fcnet"], "--learning-rate", "0"),
    (_SWEEP + ["naive,fcnet"], "--width", "0"),
    (_SWEEP + ["naive,fcnet"], "--depth", "0"),
    (_SWEEP + ["naive,fcnet"], "--method-seed", "-1"),
    (_SWEEP + ["naive,eg-m"], "--rho", "0"),
    (_SWEEP + ["naive,eg-m"], "--step-size", "-1"),
    (_SWEEP + ["naive,eg"], "--ng-stop", "0"),
]


@pytest.mark.parametrize("argv, flag, out_of_range", _NUMERIC_FLAGS,
                         ids=[f"{argv[0]} {flag} {argv[-1]}" if argv[-2].startswith("--method")
                              else f"{argv[0]} {flag}" for argv, flag, _ in _NUMERIC_FLAGS])
def test_cli_rejects_bad_numeric_flags_before_any_work(tmp_path, monkeypatch, argv, flag,
                                                       out_of_range):
    market_path = tmp_path / "market.json"
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3", "--out", str(market_path)]) == 0
    candidate = tmp_path / "naive" / "candidate.json"
    assert main(["run", "--market", str(market_path), "--method", "naive",
                 "--outdir", str(candidate.parent)]) == 0

    def no_work(*args, **kwargs):
        raise AssertionError("ran before rejecting a bad flag")

    for module, name in ((harness, "naive"), (harness, "eg_solve"),
                         (harness, "eg_momentum_solve"), (trainer, "train"),
                         (cli, "evaluate_candidate_file")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "out"
    fill = dict(market=market_path, candidate=candidate, out=out)
    for bad in ("nan", "inf", out_of_range) + ((str(2**60),) if flag in _SIZE_FLAGS else ()):
        command = [part.format(**fill) for part in argv] + [flag, bad]
        try:
            code = main(command)
        except SystemExit as stop:  # argparse refuses a value its type cannot parse
            code = stop.code
        assert code == 2, command
        assert not out.exists(), command


@pytest.mark.parametrize("methods, flag", [("naive,eg", "--width"), ("naive,fcnet", "--ng-stop"),
                                           ("eg,eg-m", "--method-seed")])
def test_cli_sweep_refuses_a_flag_no_method_takes(tmp_path, capsys, methods, flag):
    # a flag some method takes goes to that method's cells; one none takes is refused
    out = tmp_path / "sweep"
    argv = [part.format(out=out) for part in _SWEEP] + [methods, flag, "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid arguments: ") and err.count("\n") == 1 and flag in err
    assert not out.exists()
