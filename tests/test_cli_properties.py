"""Property tests of the command line's input handling: whatever market
document, candidate document, solution header or method flags `marketeq` is
given, it exits 0, or exits 2 or 3 with one line on stderr and no traceback.
A method flag that sets no field of the method's config exits 2.

The cases are derandomized, so every run draws the same ones.  A drawn size
is small (at most 64), or so large that the first array it sizes passes 2^47
bytes, the user address space: such an allocation fails at once under any
overcommit policy, and nothing is really allocated.  Sizes from 2^60 to 2^64
make arrays past 2^63 bytes, which numpy cannot index: the command must
refuse them as invalid arguments before it asks for memory.
"""

import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from marketeq.cli import main
from marketeq.harness import METHOD_TABLE
from marketeq.net import AllocationNet

CASES = settings(derandomize=True, database=None, deadline=None, max_examples=30)

HUGE = st.one_of(st.integers(2**45, 2**52), st.integers(2**60, 2**64))
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-3, 3))
# anything a field might hold in place of what it should
JUNK = st.one_of(st.none(), st.booleans(), NUMBERS, HUGE, st.sampled_from(["", "8", "bogus"]))
_DROP = object()


def _cli(argv):
    """Run the CLI in process and return its exit code and stderr; a nonzero
    exit must be 2 or 3 with one line on stderr (an uncaught exception fails
    the test with its traceback)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(part) for part in argv])
    message = err.getvalue()
    event(f"exit {code}")  # the spread of outcomes, under --hypothesis-show-statistics
    assert code in (0, 2, 3), (argv, code, message)
    if code:
        prefix = "invalid arguments: " if code == 2 else "solver failure: "
        assert message.startswith(prefix) and message.count("\n") == 1, (argv, message)
    return code, message


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding a small stored market (n=8, m=2, k=3)."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--n", "8", "--m", "2", "--k", "3",
                 "--out", str(root / "market.json")]) == 0
    return root


@st.composite
def _corrupted(draw, valid, wrong=None):
    """A document drawn from `valid`, with up to two of its fields removed or
    replaced by junk or by a draw from `wrong[field]`."""
    doc = draw(valid)
    wrong = wrong or {}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2, unique=True)):
        value = draw(st.one_of(st.just(_DROP), JUNK, wrong.get(key, JUNK)))
        if value is _DROP:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _vectors(size, values=st.floats(0.1, 10.0)):
    return st.lists(values, min_size=size, max_size=size)


def _matrices(rows, cols, values=st.floats(-3.0, 3.0)):
    return st.lists(_vectors(cols, values), min_size=rows, max_size=rows)


_RAGGED = st.lists(st.lists(NUMBERS, max_size=3), max_size=9)


@st.composite
def _markets(draw):
    n, m, k = draw(st.integers(1, 64)), draw(st.integers(1, 64)), draw(st.integers(1, 8))
    regime, alpha = draw(st.sampled_from([("general", 0.5), ("general", -1.0), ("linear", None),
                                          ("cobb-douglas", None), ("leontief", None)]))
    doc = {"version": 1, "n": n, "m": m, "k": k, "regime": regime, "alpha": alpha,
           "dist": draw(st.sampled_from(["normal", "uniform", "exponential"])),
           "seed": draw(st.integers(0, 3))}
    if draw(st.booleans()):  # a market given by its contexts
        doc.update(n=min(n, 8), m=min(m, 8))
        doc.update(buyers=draw(_matrices(doc["n"], k)), goods=draw(_matrices(doc["m"], k)))
    if draw(st.booleans()):
        doc["supplies"] = draw(_vectors(doc["m"]))
    return doc


@CASES
@given(doc=_corrupted(_markets(), {"supplies": st.lists(NUMBERS, max_size=4),
                                   "buyers": _RAGGED, "goods": _RAGGED}))
def test_cli_run_takes_any_market_document(files, doc):
    path = files / "drawn_market.json"
    path.write_text(json.dumps(doc))
    _cli(["run", "--market", path, "--method", "naive", "--outdir", files / "out"])


# a candidate for the stored market (n=8, m=2)
_CANDIDATES = st.fixed_dictionaries({"allocation": _matrices(8, 2, st.floats(0.0, 2.0)),
                                     "prices": _vectors(2)})


@CASES
@given(doc=_corrupted(_CANDIDATES, {"allocation": _RAGGED, "prices": st.lists(NUMBERS)}))
def test_cli_evaluate_takes_any_candidate_document(files, doc):
    path = files / "drawn_candidate.json"
    path.write_text(json.dumps(doc))
    _cli(["evaluate", "--market", files / "market.json", "--candidate", path])


@st.composite
def _solutions(draw):
    """The arrays of a solution file for the stored market (k=3, m=2)."""
    depth, width = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    net = AllocationNet.initialize(3, depth, width, seed=draw(st.integers(0, 3)))
    return dict(version=1, context_dim=3, hidden_depth=depth, hidden_width=width,
                params=net.get_flat(), multipliers=draw(_vectors(2)))


_SIZES = st.one_of(st.integers(-1, 64), HUGE)


@CASES
@given(arrays=_corrupted(_solutions(), {
    "version": st.integers(0, 2), "context_dim": _SIZES, "hidden_width": _SIZES,
    "hidden_depth": _SIZES,
    "params": st.lists(NUMBERS, max_size=40).map(np.array), "multipliers": st.lists(NUMBERS)}))
def test_cli_evaluate_takes_any_solution_header(files, arrays):
    path = files / "drawn_solution.npz"
    np.savez(path, **arrays)
    _cli(["evaluate", "--market", files / "market.json", "--solution", path])


_COUNT = st.integers(-1, 3)
_REAL = st.one_of(st.sampled_from(["nan", "inf", "-1", "0"]), st.floats(1e-6, 10.0).map(repr))
# each method flag, the config field it sets, and its values in and out of
# range; a size flag also takes a huge size, a loop count never does
METHOD_FLAGS = {
    "--epochs": ("epochs", _COUNT), "--inner-iters": ("inner_iters", _COUNT),
    "--batch-size": ("batch_size_loss", st.one_of(_COUNT, HUGE)),
    "--width": ("hidden_width", st.one_of(_COUNT, HUGE)),
    "--depth": ("hidden_depth", st.one_of(_COUNT, HUGE)),
    "--rho": ("rho", _REAL), "--learning-rate": ("learning_rate", _REAL),
    "--step-size": ("step_size", _REAL), "--ng-stop": ("ng_stop", _REAL),
    "--method-seed": ("seed", _COUNT),
}
# small runs by default, so that only a drawn flag can make one large
_SMALL_RUN = {"--epochs": "1", "--inner-iters": "2", "--width": "4", "--depth": "1",
              "--batch-size": "4"}


def _own_flags(methods):
    """The method flags that set a field of the config of some method in `methods`."""
    defaults = [METHOD_TABLE[method][0] for method in methods if method in METHOD_TABLE]
    fields = {field.name for default in defaults if default is not None
              for field in dataclasses.fields(default)}
    return [flag for flag, (field, _) in METHOD_FLAGS.items() if field in fields]


def _flag_values(flags):
    """Any subset of `flags`, each with a drawn value."""
    return st.fixed_dictionaries({}, optional={flag: METHOD_FLAGS[flag][1] for flag in flags})


def _flag_argv(flags):
    return [part for flag, value in flags.items() for part in (flag, value)]


def _small_run(methods):
    own = _own_flags(methods)
    return _flag_argv({flag: value for flag, value in _SMALL_RUN.items() if flag in own})


@pytest.mark.parametrize("method", list(METHOD_TABLE))
@CASES
@given(data=st.data())
def test_cli_run_takes_any_method_flags(files, method, data):
    flags = data.draw(_flag_values(_own_flags([method])))
    _cli(["run", "--market", files / "market.json", "--method", method,
          "--outdir", files / "out", *_small_run([method]), *_flag_argv(flags)])


@pytest.mark.parametrize("method", list(METHOD_TABLE))
@CASES
@given(data=st.data())
def test_cli_run_refuses_flags_of_other_methods(files, method, data):
    own = _own_flags([method])
    foreign = data.draw(st.sampled_from([flag for flag in METHOD_FLAGS if flag not in own]))
    flags = {**data.draw(_flag_values(own)), foreign: data.draw(METHOD_FLAGS[foreign][1])}
    code, message = _cli(["run", "--market", files / "market.json", "--method", method,
                          "--outdir", files / "refused", *_flag_argv(flags)])
    assert code == 2 and foreign in message, (flags, message)
    assert not (files / "refused").exists()


@pytest.mark.parametrize("method", list(METHOD_TABLE))
@settings(CASES, max_examples=10)
@given(others=st.lists(st.sampled_from([*METHOD_TABLE, "bogus"]), max_size=2, unique=True),
       data=st.data(), seed=st.integers(0, 3))
def test_cli_sweep_takes_any_method_flags(files, method, others, data, seed):
    out = files / "sweep"
    (out / "sweep.csv").unlink(missing_ok=True)
    methods = list(dict.fromkeys([method, *others]))
    flags = data.draw(_flag_values(_own_flags(methods)))
    code, _ = _cli(["sweep", "--methods", ",".join(methods), "--n-list", "8", "--m-list", "2",
                    "--k", "3", "--seed", seed, "--outdir", out, *_small_run(methods),
                    *_flag_argv(flags)])
    if code == 0:
        # the market seed is --seed's, whatever --method-seed says
        with open(out / "sweep.csv") as handle:
            assert {row["seed"] for row in csv.DictReader(handle)} == {str(seed)}
