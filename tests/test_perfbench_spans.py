"""The benchmark's span tracer names marketeq entry points by string; a rename
would leave a per-layer metric silently at zero.  Check every name resolves,
and that an installed tracer sees the EG, oracle and fcnet entry points called,
and the fixed-price kernels that certification and the oracle's warm start call."""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_traced_entry_point_exists():
    entry_points = _entry_points()
    assert entry_points
    for module_name, attr in entry_points:
        owner = importlib.import_module(f"marketeq.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = owner.__dict__.get(leaf) if path else getattr(owner, leaf, None)
        assert inspect.isfunction(target) or isinstance(target, functools.cached_property), (
            f"perfbench traces {module_name}.{attr}, which is not a function or cached property")


# run in a child process: installing the tracer rebinds names across marketeq;
# -B keeps the child from writing bytecode next to spans.py
_TRACED_RUN = """
import importlib.util, json, sys, tempfile
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
from marketeq import harness, oracle
from marketeq.baselines import EgConfig
from marketeq.ces import CesSpec
from marketeq.market import ContextDistribution, generate_market
from marketeq.trainer import TrainConfig
market = harness.MarketSpec(n=16, m=2, k=3, seed=1)
fcnet = TrainConfig(batch_size_loss=4, hidden_width=4, hidden_depth=1, inner_iters=2, epochs=2)
for method, config in (("eg-m", EgConfig(momentum=0.9, epochs=2)), ("fcnet", fcnet)):
    with tempfile.TemporaryDirectory() as out:
        harness.run_experiment(harness.ExperimentConfig(
            market=market, method=method, method_config=config, out_dir=out))
oracle.numeric_equilibrium(generate_market(4, 2, 3, ContextDistribution.STANDARD_NORMAL,
                                           CesSpec.cobb_douglas(), 2))
print(json.dumps({"names": sorted({span[0] for span in tracer.spans}), "absent": tracer.absent}))
"""


def test_installed_tracer_sees_the_eg_and_oracle_entry_points():
    src = str(SPANS.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-B", "-c", _TRACED_RUN, str(SPANS)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    for name in ("baselines.eg_momentum_solve", "oracle.numeric_equilibrium", "metrics.nash_gap",
                 "net.backward", "net.adam_step", "trainer.multiplier_update",
                 "net.forward_batch", "ces.fixed_price_log_utility_matrix", "ces.demand_matrix"):
        assert name in traced["names"]
    assert traced["absent"] == []
