"""The CLI contract as a property: cli.main over generated flags and JSON
configs, run in-process on small grids with a few continuation steps.

Whatever the input, main returns one of README's four exit codes (or
argparse's own exit for --help), writes no "Traceback" to stderr and
raises nothing, and a usage error (exit 64) leaves no output file
behind.  Values come from short lists of valid, boundary and invalid
entries rather than open ranges, so every example stays small: branch
always gets max_steps from its config, grids stay at or below the
default, and scans have at most three rows.

MAX_EXAMPLES = 80 with a fixed seed runs in about 1 s; a third of the
examples get past the usage checks and run a solve.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, seed, settings, strategies as st

from spark_branch import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_NO_SPARK,
              cli.EXIT_USAGE}
MAX_EXAMPLES = 80

# Config values by key: (valid, out of range).  Every key may also get
# one of _ODD: zero, negative, non-finite, or a JSON type that is not a
# number.
_ODD = [0, -1.0, math.nan, math.inf, True, "2", None, [1.0]]
_VALUES = {
    "a": ([2.0, 3.0, 6], [0.5]),
    "b": ([3.0, 5.0], [1.0]),
    "gamma": ([1.0, 2.0, 0.1], [0.6]),
    "k_e": ([1.0, 0.5], []),
    "k_i": ([1.0, 2.0], []),
    "grid_n": ([33, 65, 129], [10, 2.0, "65"]),
    "root_tol": ([1e-10, 1e-6], []),
    "newton_tol": ([1e-10, 1e-6, 1e-16], []),
    "sup_density_cap": ([1e3, 1e-3], []),
    "lambda_cap": ([1e3, 3.6, 1.0], []),
    "field_floor": ([1e-6, 10.0], []),
    "loop_eps": ([1e-6, 1.0], []),
    "h_first": ([1e-3, 1e-4], [1e-7, 1.0]),
    "h_min": ([1e-6, 1e-4], [1e-2]),
    "h_max": ([0.1, 1e-2], [1e-5]),
}
_STEPS = ([1, 2, 4], [0, -1, 2.5, "3", True])


def _mostly(draw, valid, odd):
    """One of valid seven times in eight, else one of odd; an example
    makes about a dozen such draws."""
    return draw(st.sampled_from(odd if draw(st.integers(0, 7)) == 0
                                else valid))


@st.composite
def configs(draw, branch):
    """A JSON-ready config dict; a branch run always caps max_steps."""
    keys = draw(st.sets(st.sampled_from(sorted(_VALUES)), max_size=5))
    cfg = {key: _mostly(draw, _VALUES[key][0], _VALUES[key][1] + _ODD)
           for key in sorted(keys)}
    if branch or draw(st.booleans()):
        cfg["max_steps"] = _mostly(draw, *_STEPS)
    if draw(st.integers(0, 9)) == 0:
        cfg["no_such_key"] = 1.0
    return cfg


@st.composite
def invocations(draw):
    """(argv, config or None, how to write it, --out choice)."""
    command = _mostly(draw, ["spark", "branch", "scan", "validate"],
                      ["trace", "--grid-n"])
    args = [command]
    grid_n = _mostly(draw, [None, "33", "65"], ["0", "-3", "17", "x", "65.0"])
    if grid_n is not None:
        args += ["--grid-n", grid_n]
    if command == "scan" or draw(st.integers(0, 9)) == 0:
        args += ["--axis", _mostly(draw, ["gamma", "a", "b"], ["k_e", "-"])]
        ends = sorted(draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
                      for _ in range(2))
        args += ["--range"] + [_mostly(draw, [repr(end)],
                                       ["-1", "0", "nan", "inf", "x"])
                               for end in ends]
        args += ["--count", _mostly(draw, ["1", "2", "3"], ["0", "-2", "x"])]
        args = [a for a in args if a != "-"]
    if command == "validate" and draw(st.booleans()):
        args.append("--list")
    if draw(st.integers(0, 19)) == 0:
        args.append(draw(st.sampled_from(["--help", "--bogus", "extra"])))
    config = None
    if command == "branch" or draw(st.booleans()):
        config = draw(configs(command == "branch"))
    config_form = _mostly(draw, ["json"], ["missing", "list", "garbage"])
    out = _mostly(draw, ["file", "stdout"], ["directory", "no_such_dir"])
    if config is not None and draw(st.integers(0, 4)) == 0:
        config["out"] = draw(st.sampled_from(["file", 5]))
    return args, config, config_form, out


def _run(argv):
    """Exit code of main(argv) as the console script reports it, and
    what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's --help
            code = exc.code
    return code, err.getvalue()


@seed(20240518)
@settings(max_examples=MAX_EXAMPLES, deadline=None, database=None)
@given(invocations())
# found by this property: an infinite scan end reached np.linspace
@example((["scan", "--axis", "gamma", "--range", "-1", "inf", "--count", "2"],
          None, "json", "file"))
def test_main_exits_with_a_documented_code_and_no_traceback(invocation):
    args, config, config_form, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = list(args)
        outputs = [tmp / "out.txt", tmp / "config_out.txt"]
        if config is not None:
            if config.get("out") == "file":
                config["out"] = str(outputs[1])
            path = tmp / "config.json"
            if config_form == "json":
                path.write_text(json.dumps(config), encoding="utf-8")
            elif config_form == "list":
                path.write_text(json.dumps([config]), encoding="utf-8")
            elif config_form == "garbage":
                path.write_text("{not json", encoding="utf-8")
            argv += ["--config", str(path)]
        if out == "file":
            argv += ["--out", str(outputs[0])]
        elif out == "directory":
            argv += ["--out", str(tmp)]
        elif out == "no_such_dir":
            argv += ["--out", str(tmp / "missing" / "out.txt")]
        code, err = _run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == cli.EXIT_USAGE:
            assert not any(p.exists() for p in outputs), (argv, err)
            assert not (tmp / "missing").exists()
