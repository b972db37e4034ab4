"""Fuzz of configuration files and command lines.

Every run ends in exit code 0, 1, 2 or 3, never a traceback, and exit 1
prints exactly one ``error:`` line.  Values are drawn valid, at a
boundary, wrongly typed or huge.  Runs stay small: the base config names
two functions and one interval, and the quadrature budget is drawn from
small values only (a budget is the user's own bound on the work; a huge
one with a tolerance below rounding runs as long as it allows).
"""

import contextlib
import io
import json
import math
import os
import warnings
from dataclasses import fields

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hhverify.bounds import THEOREM_ORDER
from hhverify.cli import MAX_ALPHA_POINTS, main
from hhverify.identities import IDENTITY_IDS
from hhverify.means import APPLICATION_TAGS, APPLICATION_VARIANTS
from hhverify.report import FORMATS
from hhverify.runner import ALL_TASKS, MAX_QC_GRID, RunConfig

BASE = {"corpus": ["x^4", "sin"], "intervals": [[0.5, 1.0]], "sin_domain": [0.0, 6.3],
        "theorems": ["ME1", "ME2"], "applications": ["A3_1"], "alpha_grid": [1.0],
        "search_p_theorems": ["ME2"], "search_alpha_theorems": ["ME1"],
        "qc_grid": 11, "quad_budget": 1000}
COMMANDS = ("scan", "verify-identity", "verify-bound", "verify-application", "tightness")
FUNCTIONS = ("x^3", "x^4", "x^5", "exp", "sin", "power_family(1)", "nope")

NUMBERS = st.sampled_from([0, 1, 2, 3, 15, 0.5, 1.0000001, 2.0, 1e-300, 5e-324, 1e300,
                           1e308, -1.0, -1e308, math.inf, -math.inf, math.nan,
                           MAX_QC_GRID, MAX_QC_GRID + 1, 10 ** 18, 10 ** 400])
WRONG = st.sampled_from([None, True, "x", [], {}, [1.0], [[0.0, 1.0]], [0.0, "1"]])
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2) | st.sampled_from(
    [[0.0, 1.0], [0.5, 2.0], [1.0, 1.0], [2.0, 1.0], [0.0, 1e300], [-1e308, 1e308],
     [0.0, 5e-324], [1.01, 1e308], [-10 ** 308, 10 ** 308]])
NAMES = {"tasks": ALL_TASKS, "corpus": FUNCTIONS, "theorems": THEOREM_ORDER,
         "identities": IDENTITY_IDS, "applications": APPLICATION_TAGS,
         "variants": APPLICATION_VARIANTS, "search_p_theorems": THEOREM_ORDER,
         "search_alpha_theorems": THEOREM_ORDER, "search_p_function": FUNCTIONS}


def _valid_or_boundary(name, kind):
    """Values of the field's own type, in range or just outside it."""
    if name == "quad_budget":
        return st.sampled_from([-1, 0, 14, 15, 45, 1000])
    if kind.endswith("str, ...]"):
        words = st.sampled_from(NAMES[name] + ("nope",))
        return st.lists(words, max_size=3)
    if kind.endswith("str"):
        return st.sampled_from(NAMES[name] + ("nope",))
    if kind in ("int", "float"):
        return NUMBERS
    if kind == "tuple[float, ...]":
        return st.lists(NUMBERS, max_size=3)
    if kind == "tuple[float, float]":
        return PAIRS
    return st.lists(PAIRS, max_size=2)


# Field name -> annotation, Optional[...] unwrapped.
FIELDS = {f.name: f.type[9:-1] if f.type.startswith("Optional[") else f.type
          for f in fields(RunConfig)}


@st.composite
def configs(draw):
    data = dict(BASE)
    for name in draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=3, unique=True)):
        own = _valid_or_boundary(name, FIELDS[name])
        data[name] = draw(st.one_of(own, own, WRONG))
    return data


def _run(argv, workdir):
    """Exit code and stderr of one in-process CLI run in workdir (a drawn
    option may be taken as the --out path); a traceback would raise.  A
    warning counts as a line of stderr, as it prints there in a process."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, "".join(f"{w.category.__name__}: {w.message}\n" for w in caught) + err.getvalue()


def _assert_clean(code, err):
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(configs(), st.sampled_from(COMMANDS))
def test_any_config_ends_in_an_exit_code_and_never_a_traceback(tmp_path_factory, data,
                                                                command):
    workdir = tmp_path_factory.mktemp("fuzz")
    path = workdir / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, err = _run([command, "--config", str(path), "--out", str(workdir / "r.out")],
                     workdir)
    _assert_clean(code, err)
    grid = data.get("qc_grid")
    if isinstance(grid, int) and not isinstance(grid, bool) and grid > MAX_QC_GRID:
        assert code == 1
    if "tasks" in data:  # the subcommand alone picks the tasks
        assert err.startswith("error: tasks: "), err


OPTIONS = st.one_of(
    st.tuples(st.just("--format"), st.sampled_from(FORMATS + ("xml", ""))),
    st.tuples(st.just("--tol"), st.sampled_from(["1e-10", "1e-300", "0", "-1", "nan",
                                                 "inf", "1e308", "abc", ""])),
    st.tuples(st.just("--theorems"), st.sampled_from(["ME1", "ME1,ME4", "T1_3", ",", "",
                                                      "ME9", "me1"])),
    st.tuples(st.just("--alpha-grid"), st.sampled_from(
        ["0.5:1:3", "1:1:1", "0:1:2", "0.5:1:0", f"0.5:1:{MAX_ALPHA_POINTS + 1}",
         "0.5:1:99999999999", "0.5:1", "a:b:c", "0.5:1:2.5", "1e308:1e308:2"])),
    st.tuples(st.just("--interval"), st.sampled_from(
        ["0.5:1", "1:0.5", "0:0", "0:1e300", "-1e308:1e308", "nan:1", "1", "a:b", "1:2:3",
         "0:5e-324", ""])),
    st.tuples(st.just("--identities"), st.sampled_from(["L1", "L1,L2", "L3", ""])),
    st.tuples(st.sampled_from(["--bogus", "extra", "--out", "--config", "--interval"])),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(COMMANDS + ("report", "nonsense", "")),
       st.lists(OPTIONS, max_size=4), st.booleans())
def test_any_command_line_ends_in_an_exit_code_and_never_a_traceback(
        tmp_path_factory, command, options, with_out):
    workdir = tmp_path_factory.mktemp("argv")
    config = workdir / "config.json"
    config.write_text(json.dumps(BASE), encoding="utf-8")
    argv = [command] if command else []
    if command in COMMANDS:
        argv += ["--config", str(config)]
    elif command == "report":
        argv += [str(config)]
    for option in options:
        argv += list(option)
    if with_out:
        argv += ["--out", str(workdir / "r.out")]
    _assert_clean(*_run(argv, workdir))


def test_a_grid_above_the_cap_is_rejected_by_name(tmp_path):
    path = tmp_path / "config.json"
    for grid, ok in ((MAX_QC_GRID, True), (MAX_QC_GRID + 1, False), (10 ** 18, False)):
        data = dict(BASE, qc_grid=grid, corpus=["x^4"], theorems=["ME1"])
        path.write_text(json.dumps(data), encoding="utf-8")
        code, err = _run(["verify-bound", "--config", str(path),
                          "--out", str(tmp_path / "r.json")], tmp_path)
        if ok:
            assert code == 0
        else:
            assert code == 1
            assert err == f"error: qc_grid: must be at most {MAX_QC_GRID}, got {grid}\n"
