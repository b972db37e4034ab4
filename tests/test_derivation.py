"""Symbolic oracle for the derived special-means variant and the rule constants.

sympy derives, without the package's help: the mean form of the cleared
defects of the power-family member f = x^(alpha+4)/P, the constants of
ME1..ME4 and ME6 from the kernels of the identities L1 and L2, and the
p -> 1 limits of the four Holder rules.  The tests compare
application_check and the theorem table with those derivations.
"""

import itertools

import mpmath
import pytest
import sympy as sp

from hhverify.bounds import THEOREMS
from hhverify.means import application_check

from conftest import PLAIN_RULE

x, t = sp.symbols("x t", real=True)
A, B, ALPHA = sp.symbols("a b alpha", positive=True)
HALF = sp.Rational(1, 2)

# Kernels of L1 on [0, 1] and L2 on [0, 1/2], with their prefactors w^k/24.
L1_KERNEL = (t * (1 - t)) ** 2
L2_KERNEL = t * (1 - 2 * t) * (1 + 2 * t)

# A3_n: (source rule, clearing factor, exponent).
APPLICATIONS = {"A3_1": ("ME1", 12, None), "A3_2": ("ME2", 12, 2), "A3_3": ("ME3", 12, 2),
                "A3_4": ("ME4", 24, None), "A3_6": ("ME6", 24, 2)}

SAMPLES = [(sp.Rational(a), sp.Rational(b), sp.Rational(al))
           for (a, b), al in itertools.product(
               [("1", "2"), ("1/2", "3/2"), ("2", "5"), ("3/4", "9/4")],
               ["1/4", "1/2", "1"])]


def _pprod(alpha):
    return (alpha + 1) * (alpha + 2) * (alpha + 3) * (alpha + 4)


def _family(alpha):
    return x ** (alpha + 4) / _pprod(alpha)


def _exact_defect(trapezoid_side, f, a, b, corrected=True):
    """The corrected (or plain) trapezoid or midpoint defect of f on [a, b], exactly."""
    avg = sp.integrate(f, (x, a, b)) / (b - a)
    fp = sp.diff(f, x)
    gap = (b - a) * (fp.subs(x, b) - fp.subs(x, a)) if corrected else 0
    if trapezoid_side:
        return (f.subs(x, a) + f.subs(x, b)) / 2 - avg - gap / 12
    return f.subs(x, (a + b) / 2) - avg + gap / 24


def _log_mean(p, a, b):
    return (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))


def _mean_form(trapezoid_side, a, b, alpha):
    """The left sides as application_check writes them, before the |.|."""
    middle = (b - a) ** 2 * (alpha + 3) * (alpha + 4) * _log_mean(alpha + 2, a, b)
    if trapezoid_side:
        return 12 * (a ** (alpha + 4) + b ** (alpha + 4)) / 2 \
            - 12 * _log_mean(alpha + 4, a, b) - middle
    return 24 * ((a + b) / 2) ** (alpha + 4) - 24 * _log_mean(alpha + 4, a, b) + middle


@pytest.mark.parametrize("trapezoid_side,clear", [(True, 12), (False, 24)])
def test_cleared_defect_is_the_mean_form_symbolically(trapezoid_side, clear):
    cleared = clear * _pprod(ALPHA) * _exact_defect(trapezoid_side, _family(ALPHA), A, B)
    assert sp.simplify(cleared - _mean_form(trapezoid_side, A, B, ALPHA)) == 0


@pytest.mark.parametrize("tag", ["A3_1", "A3_2", "A3_3", "A3_4", "A3_5", "A3_6"])
def test_derived_left_sides_match_the_exact_cleared_defect(tag):
    trapezoid_side = tag in ("A3_1", "A3_2", "A3_3")
    clear = 12 if trapezoid_side else 24
    exponent = None if tag in ("A3_1", "A3_4") else 2.0
    for a, b, alpha in SAMPLES:
        exact = abs(clear * _pprod(alpha) * _exact_defect(trapezoid_side, _family(alpha), a, b))
        v = application_check(tag, "derived", float(a), float(b), float(alpha), exponent)
        assert v.lhs == pytest.approx(float(sp.N(exact, 30)), rel=1e-12), (a, b, alpha)


def _l1_constant(p=1):
    """(w^4/24) * (integral of the L1 kernel^p)^(1/p), per w^4."""
    return sp.integrate(L1_KERNEL ** p, (t, 0, 1)) ** sp.Rational(1, p) / 24


def _l2_constant():
    """(w^3/24) * 2 * integral of the L2 kernel over [0, 1/2], per w^3; the
    kernel has no root inside, so the integral of |K| is that of K."""
    assert sp.solveset(L2_KERNEL, t, sp.Interval.open(0, HALF)) == sp.EmptySet
    return 2 * sp.integrate(L2_KERNEL, (t, 0, HALF)) / 24


def test_kernel_constants_are_the_tabled_ones():
    assert _l1_constant() == sp.Rational(1, 720)
    assert _l2_constant() == sp.Rational(1, 192)
    for tag in ("ME1", "ME3"):
        spec = THEOREMS[tag]
        assert (spec.width_power, spec.factor) == (4, None)
        assert sp.Rational(1) / sp.nsimplify(spec.divisor) == _l1_constant()
    for tag in ("ME4", "ME6"):
        spec = THEOREMS[tag]
        assert (spec.width_power, spec.factor) == (3, None)
        assert sp.Rational(1) / sp.nsimplify(spec.divisor) == _l2_constant()


@pytest.mark.parametrize("p", [sp.Rational(3, 2), sp.Integer(2), sp.Integer(3)])
def test_holder_constant_of_me2_is_the_beta_root(p):
    spec = THEOREMS["ME2"]
    kernel_power = sp.integrate(L1_KERNEL ** p, (t, 0, 1))
    assert kernel_power == sp.beta(2 * p + 1, 2 * p + 1).rewrite(sp.gamma)
    assert spec.width_power == 4 and spec.divisor == 24.0
    exact = kernel_power ** (1 / p)
    assert spec.factor(float(p)) == pytest.approx(float(sp.N(exact, 30)), rel=1e-13)


P = sp.symbols("p", positive=True)


def _kernel_norm(tag):
    """c(p) of a Holder rule: the L^p[0,1] norm of (t(1-t))^2 for ME2, of
    |1-2t| (twice its integral over [0, 1/2]) for the others."""
    if tag == "ME2":
        power = sp.beta(2 * P + 1, 2 * P + 1).rewrite(sp.gamma)
    else:
        power = 2 * sp.integrate((1 - 2 * t) ** P, (t, 0, HALF))
    return power ** (1 / P)


@pytest.mark.parametrize("tag", sorted(PLAIN_RULE))
def test_each_holder_rule_tends_to_its_plain_rule_as_p_decreases_to_one(tag):
    spec, plain = THEOREMS[tag], THEOREMS[PLAIN_RULE[tag]]
    assert (spec.derivative_order, spec.lhs_kind, spec.width_power) == (
        plain.derivative_order, plain.lhs_kind, plain.width_power)
    norm = _kernel_norm(tag)
    limit = sp.limit(norm / sp.nsimplify(spec.divisor), P, 1, dir="+")
    assert limit == 1 / sp.nsimplify(plain.divisor)
    for p in (sp.Rational(3, 2), sp.Integer(2), sp.Integer(7)):
        exact = float(sp.N(norm.subs(P, p), 30))
        assert spec.factor(float(p)) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("tag", sorted(APPLICATIONS))
def test_derived_right_sides_match_the_kernel_bound(tag):
    source, clear, exponent = APPLICATIONS[tag]
    order = THEOREMS[source].derivative_order
    for a, b, alpha in SAMPLES:
        derivative = sp.diff(_family(alpha), x, order)
        m = sp.Max(abs(derivative.subs(x, a)), abs(derivative.subs(x, b)))
        if source == "ME2":
            constant, k = _l1_constant(exponent), 4
        elif order == 4:
            constant, k = _l1_constant(), 4
        else:
            constant, k = _l2_constant(), 3
        exact = clear * _pprod(alpha) * constant * (b - a) ** k * m
        v = application_check(tag, "derived", float(a), float(b), float(alpha),
                              None if exponent is None else float(exponent))
        assert v.rhs == pytest.approx(float(sp.N(exact, 30)), rel=1e-13), (a, b, alpha)


# Peano kernels of T1_2..T1_7: with w = b - a, the rule's defect is
# w^n * integral over [0, 1] of K(t) f^(n)(ta + (1-t)b), n its derivative order.
PEANO = {("trapezoid", 1): (1 - 2 * t) / 2,
         ("trapezoid", 2): t * (1 - t) / 2,
         ("trapezoid_corrected", 3): t * (1 - t) * (2 * t - 1) / 12}
THEOREM_1 = ("T1_2", "T1_3", "T1_4", "T1_5", "T1_6", "T1_7")


def _abs_integral(kernel):
    """The integral of |K| over [0, 1], split at the roots of K."""
    cuts = sorted(sp.solveset(kernel, t, sp.Interval.open(0, 1))) + [1]
    total, lo = 0, 0
    for hi in cuts:
        total += abs(sp.integrate(kernel, (t, lo, hi)))
        lo = hi
    return total


@pytest.mark.parametrize("kind,order", sorted(PEANO))
def test_each_peano_kernel_gives_its_defect(kind, order):
    coeffs = sp.symbols("c0:9")
    f = sum(c * x ** i for i, c in enumerate(coeffs))
    kernel_side = (B - A) ** order * sp.integrate(
        PEANO[kind, order] * sp.diff(f, x, order).subs(x, t * A + (1 - t) * B), (t, 0, 1))
    defect = _exact_defect(True, f, A, B, corrected=kind == "trapezoid_corrected")
    assert sp.cancel(defect - kernel_side) == 0


@pytest.mark.parametrize("tag", THEOREM_1)
def test_theorem_1_rules_are_norms_of_their_peano_kernels(tag):
    # A plain or power-mean rule's constant is the L^1 norm of its kernel
    # (the power-mean inequality leaves exactly that), a Holder rule's the
    # L^p norm: T1_3's kernel |1-2t|/2 has L^p norm (1/(p+1))^(1/p) / 2.
    spec = THEOREMS[tag]
    kernel = PEANO[spec.lhs_kind, spec.derivative_order]
    assert spec.width_power == spec.derivative_order
    constant = 1 / sp.nsimplify(spec.divisor)
    if spec.exponent_kind != "p":
        assert spec.factor is None
        assert constant == _abs_integral(kernel)
        return
    for p in (sp.Rational(3, 2), sp.Integer(2), sp.Integer(7)):
        pieces = [sp.integrate(abs(kernel) ** p, (t, lo, hi)) if tag == "T1_3"
                  else sp.Integral(abs(kernel) ** p, (t, lo, hi))
                  for lo, hi in ((0, HALF), (HALF, 1))]
        norm = float(sp.N(sum(pieces) ** (1 / p), 30))
        tabled = float(constant) * spec.factor(float(p))
        if tag == "T1_3":
            assert tabled == pytest.approx(norm, rel=1e-13)
        else:
            # T1_6 keeps the paper's weaker constant: it dominates the kernel's
            # L^p norm (by 4.6% at p = 2), with equality only as p -> 1.
            assert norm < tabled < 1.3 * norm
    limit = sp.limit(_kernel_norm(tag) / sp.nsimplify(spec.divisor), P, 1, dir="+")
    assert limit == _abs_integral(kernel)


@pytest.mark.parametrize("p,ratio,digits", [("1.5", 1.0253, 4), ("2", 1.0458, 4),
                                            ("7", 1.1449, 4), ("1.0001", 1.0000057, 7)])
def test_me5_dominates_the_holder_bound_of_its_own_kernel(p, ratio, digits):
    # Holder on each of L2's two integrals: ||K||_{L^p[0,1/2]} times the
    # L^q norm of |f'''| <= M3 over [0, 1/2], so the constant per w^3 M3 is
    # (2/24) ||K||_p (1/2)^(1/q).  ME5 keeps the printed constant, which is
    # above that, and equal to it (1/192, the L^1 norm) as p -> 1.
    spec = THEOREMS["ME5"]
    kernel = sp.lambdify(t, L2_KERNEL, "mpmath")
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        norm = mpmath.quad(lambda s: kernel(s) ** p, [0, 0.5]) ** (1 / p)
        kernel_bound = float(2 * norm * mpmath.mpf(0.5) ** (1 - 1 / p) / 24)
    tabled = spec.factor(float(p)) / spec.divisor
    assert round(tabled / kernel_bound, digits) == ratio
    assert tabled > kernel_bound
    assert (spec.lhs_kind, spec.derivative_order, spec.width_power) == (
        "midpoint_corrected", 3, 3)
    assert spec.factor(1.0) / spec.divisor == float(_l2_constant())
