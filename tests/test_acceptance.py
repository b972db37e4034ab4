"""Acceptance suite: the ten exit criteria, one test each.

Each test prints one pass/fail line; every tolerance is pinned here, not
deferred.  Heavy sweeps are shared through session fixtures so the whole
module stays desk-scale.
"""

import json
import math
import re

import numpy as np
import pytest

from hhverify.bounds import THEOREM_ORDER, THEOREMS, check_bound, rhs_bound
from hhverify.cli import main
from hhverify.corpus import builtin_corpus, corpus_by_name, make_power_family
from hhverify.identities import check_identity
from hhverify.means import application_check
from hhverify.numerics import Interval, integrate
from hhverify.quasiconvex import check_quasi_convex
from hhverify.runner import RunConfig, run


def _criterion(number, description, ok, detail=""):
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, f"{line}{(' :: ' + detail) if detail else ''}"


@pytest.fixture(scope="module")
def corpus():
    return corpus_by_name(builtin_corpus())


@pytest.fixture(scope="module")
def identity_report():
    return run(RunConfig(tasks=("identities",)))


@pytest.fixture(scope="module")
def bounds_report():
    return run(RunConfig(tasks=("bounds",)))


def test_criterion_1_trapezoid_identity(corpus, identity_report):
    unit = Interval(0.0, 1.0)
    r = check_identity("L1", corpus["x^4"], unit)
    ok = (abs(r["lhs"] - 1.0 / 30.0) <= 1e-10
          and abs(r["rhs"] - 1.0 / 30.0) <= 1e-10
          and r["residual"] <= 1e-10)
    records = [x for x in identity_report.identity_checks if x["id"] == "L1"]
    corpus_ok = (len(records) >= 30
                 and all(x["converged"] and x["residual"] <= 1e-8 for x in records))
    _criterion(1, "identity L1: quartic closed form 1/30 and corpus-wide residuals",
               ok and corpus_ok,
               f"x^4 residual {r['residual']!r}, {len(records)} corpus instances")


def test_criterion_2_midpoint_identity(corpus, identity_report):
    unit = Interval(0.0, 1.0)
    f = corpus["x^4"]
    r = check_identity("L2", f, unit)
    side_a = integrate(lambda t: t * (1 - 2 * t) * (1 + 2 * t) * f.deriv(3)(1.0 - t),
                       Interval(0.0, 0.5), tol=1e-12)
    side_b = integrate(lambda t: t * (1 - 2 * t) * (1 + 2 * t) * f.deriv(3)(t),
                       Interval(0.0, 0.5), tol=1e-12)
    ok = (abs(r["lhs"] - 7.0 / 240.0) <= 1e-10
          and abs(r["rhs"] - 7.0 / 240.0) <= 1e-10
          and r["residual"] <= 1e-10
          and abs(side_a.value - 11.0 / 10.0) <= 1e-10
          and abs(side_b.value - 2.0 / 5.0) <= 1e-10)
    records = [x for x in identity_report.identity_checks if x["id"] == "L2"]
    corpus_ok = (len(records) >= 30
                 and all(x["converged"] and x["residual"] <= 1e-8 for x in records))
    _criterion(2, "identity L2: quartic closed form 7/240 with side integrals 11/10, 2/5",
               ok and corpus_ok,
               f"sides ({side_a.value!r}, {side_b.value!r}), {len(records)} instances")


def test_criterion_3_kernel_constants():
    kernel = integrate(lambda t: (t * (1.0 - t)) ** 2, Interval(0.0, 1.0))
    ok = kernel.converged and abs(kernel.value - 1.0 / 30.0) <= 1e-10
    # ME2's factor c(p) is the L^p norm of the kernel: c(p)^p = B(2p+1, 2p+1).
    factor = THEOREMS["ME2"].factor
    gaps = []
    for p in (1.0, 1.5, 2.0, 3.0, 5.0):
        power = integrate(lambda t: (t * (1.0 - t)) ** (2.0 * p), Interval(0.0, 1.0))
        gaps.append(abs(factor(p) ** p - power.value))
    ok = ok and all(g <= 1e-10 for g in gaps)
    _criterion(3, "kernel constant 1/30 and ME2's factor c(p)^p against direct quadrature",
               ok, f"max gap {max(gaps):.3e}")


def test_criterion_4_bound_dominance(bounds_report):
    records = bounds_report.bound_checks
    intervals = {tuple(r["interval"]) for r in records}
    theorems = {r["theorem"] for r in records}
    certified = [r for r in records
                 if r["hypothesis"] and r["hypothesis"]["verdict"] == "certified"]
    violations = [r for r in certified if not (r["margin"] >= -1e-9 and r["pass"])]
    per_theorem = {tag: sum(1 for r in certified if r["theorem"] == tag)
                   for tag in THEOREM_ORDER}
    ok = (len(intervals) >= 10
          and theorems == set(THEOREM_ORDER)
          and not violations
          and all(count > 0 for count in per_theorem.values()))
    _criterion(4, "lhs <= rhs + 1e-9 on every certified instance of all twelve rules",
               ok, f"{len(certified)} certified instances over {len(intervals)} intervals, "
                   f"{len(violations)} violations")


def test_criterion_5_sharpness(corpus):
    unit = Interval(0.0, 1.0)
    quartic = corpus["x^4"]
    ratios = [check_bound("ME1", quartic, unit)["ratio"]]
    ratios += [check_bound("ME3", quartic, unit, q)["ratio"] for q in (1.0, 2.0, 7.0)]
    ratios += [check_bound("ME1", quartic, Interval(0.5, 2.0))["ratio"]]
    quintic = check_bound("ME1", corpus["x^5"], unit)
    ok = (all(abs(r - 1.0) <= 1e-9 for r in ratios)
          and abs(quintic["lhs"] - 1.0 / 12.0) <= 1e-12
          and abs(quintic["rhs"] - 1.0 / 6.0) <= 1e-12)
    _criterion(5, "quartic attains ME1/ME3 with ratio 1; quintic gives exactly 1/12 vs 1/6",
               ok, f"ratios {ratios}, quintic ({quintic['lhs']!r}, {quintic['rhs']!r})")


def test_criterion_6_exponent_consistency(corpus):
    ok = True
    for f in (corpus["x^4"], corpus["x^5"], corpus["exp"]):
        for iv in (Interval(0.0, 1.0), Interval(0.25, 1.25)):
            ok = ok and rhs_bound("ME3", f, iv, 1.0) == rhs_bound("ME1", f, iv)
            ok = ok and rhs_bound("ME6", f, iv, 1.0) == rhs_bound("ME4", f, iv)
    _criterion(6, "ME3 at q=1 equals ME1 and ME6 at q=1 equals ME4, bit for bit", ok)


_CLEARING = {"A3_1": ("ME1", 12.0, None), "A3_2": ("ME2", 12.0, 2.0),
             "A3_3": ("ME3", 12.0, 2.0), "A3_4": ("ME4", 24.0, None),
             "A3_5": ("ME5", 24.0, 2.0), "A3_6": ("ME6", 24.0, 2.0)}


def test_criterion_7_application_bridge():
    points = [(a, b, alpha)
              for a, b in [(0.5, 1.5), (1.0, 2.0), (2.0, 3.0)]
              for alpha in (0.25, 0.5, 1.0)]
    assert len(points) * len(("A3_1", "A3_4", "A3_2")) >= 27
    worst = 0.0
    for tag in ("A3_1", "A3_2", "A3_4"):
        source, clear, exponent = _CLEARING[tag]
        for a, b, alpha in points:
            iv = Interval(a, b)
            scale = clear * (alpha + 1) * (alpha + 2) * (alpha + 3) * (alpha + 4)
            direct = check_bound(source, make_power_family(alpha, domain=iv),
                                 iv, exponent, quad_tol=1e-12)
            v = application_check(tag, "derived", a, b, alpha, exponent)
            worst = max(worst,
                        abs(v["lhs"] - scale * direct["lhs"]) / abs(v["lhs"]),
                        abs(v["rhs"] - scale * direct["rhs"]) / abs(v["rhs"]))
    v = application_check("A3_1", "derived", 1.0, 2.0, 1.0)
    instance_ok = v["lhs"] == 3.0 and abs(v["rhs"] - 4.0) <= 1e-12 and v["pass"]
    _criterion(7, "derived applications equal the cleared bound checks to 1e-9 relative",
               worst <= 1e-9 and instance_ok,
               f"worst relative gap {worst:.3e}, reference instance lhs={v['lhs']}")


def test_criterion_8_discrepancy_detection():
    v = application_check("A3_1", "paper", 1.0, 2.0, 1.0)
    ok = (v["lhs"] == 303.0 and abs(v["rhs"] - 4.0) <= 1e-12 and not v["pass"]
          and v["note"] == "printed coefficient refuted at this instance")
    _criterion(8, "printed-coefficient variant evaluates to 303 > 4 and is surfaced as a fail",
               ok, f"lhs={v['lhs']}, rhs={v['rhs']}, note={v['note']!r}")


def test_criterion_9_quasiconvexity_certifier(corpus, bounds_report):
    certifies = all(
        check_quasi_convex(lambda x, a=alpha: np.abs(x) ** a, iv, ()).certified
        for alpha in (0.25, 0.5, 1.0)
        for iv in (Interval(0.1, 4.0), Interval(1.0, 2.0), Interval(0.25, 3.0)))
    midpoint_rules = [r for r in bounds_report.bound_checks
                      if r["theorem"] in ("ME4", "ME5", "ME6")]
    third_deriv_ok = (midpoint_rules
                      and all(r["hypothesis"]["verdict"] == "certified"
                              for r in midpoint_rules))
    cert = check_quasi_convex(np.sin, Interval(0.0, math.pi), (math.pi / 2,))
    w = cert.counterexample
    refutes = cert.verdict == "refuted" and w is not None
    if refutes:
        mixed = math.sin(w.lam * w.x + (1.0 - w.lam) * w.y)
        refutes = mixed > max(w.value_x, w.value_y) + cert.tol
    _criterion(9, "certifies power hypotheses and third-derivative magnitudes; "
                  "refutes sine on [0, pi] with a re-verifiable witness",
               certifies and third_deriv_ok and refutes)


def test_criterion_10_determinism_and_exit_codes(tmp_path):
    config = {
        "corpus": ["x^4", "x^5", "exp"],
        "intervals": [[0.0, 1.0], [1.0, 2.0], [0.25, 1.25]],
        "theorems": ["ME1", "ME3", "ME4"],
        "applications": ["A3_1"],
        "variants": ["derived"],
        "alpha_grid": [0.5, 1.0],
        "search_p_theorems": ["ME2"],
        "search_alpha_theorems": ["ME1"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "report.json"

    def scan_bytes():
        code = main(["scan", "--config", str(cfg), "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        return code, re.sub(r'"generated_at": "[^"]*"', "@", text)

    code_a, first = scan_bytes()
    code_b, second = scan_bytes()
    deterministic = first == second and code_a == code_b == 0

    fail_cfg = tmp_path / "fail.json"
    fail_cfg.write_text(json.dumps({"applications": ["A3_1"], "variants": ["paper"],
                                    "intervals": [[1.0, 2.0]], "alpha_grid": [1.0]}),
                        encoding="utf-8")
    code_fail = main(["verify-application", "--config", str(fail_cfg),
                      "--out", str(tmp_path / "f.json")])

    slow_cfg = tmp_path / "slow.json"
    slow_cfg.write_text(json.dumps({"corpus": ["exp"], "intervals": [[-6.0, 6.0]],
                                    "theorems": ["ME1"], "quad_tol": 1e-16,
                                    "quad_budget": 45}), encoding="utf-8")
    code_slow = main(["verify-bound", "--config", str(slow_cfg),
                      "--out", str(tmp_path / "s.json")])

    code_usage = main(["verify-bound", "--theorems", ""])

    ok = deterministic and code_fail == 2 and code_slow == 3 and code_usage == 1
    _criterion(10, "byte-identical repeated scans; exit codes 0/2/3/1 on crafted fixtures",
               ok, f"codes: pass={code_a}, fail={code_fail}, "
                   f"non-converged={code_slow}, usage={code_usage}")
