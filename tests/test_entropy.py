"""Entropy kinds, the mean function, its partials, and the infimum map."""

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DomainError, NumericalError


def brute_force_big_theta(alpha, A, B, n=1500):
    """Independent 2-D grid oracle over (s, t) in [1e-3, 1e3]^2."""
    g = np.exp(np.linspace(np.log(1e-3), np.log(1e3), n))
    S, T = np.meshgrid(g, g, indexing="ij")
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = ((alpha - 1.0) / alpha) * (S - T) / (
            S ** (alpha - 1) - T ** (alpha - 1))
    np.fill_diagonal(theta, np.nan)
    obj = theta * (A * alpha * S ** (alpha - 2) + B * alpha * T ** (alpha - 2))
    obj_diag = (1.0 / (alpha * g ** (alpha - 2))) * (
        A * alpha * g ** (alpha - 2) + B * alpha * g ** (alpha - 2))
    return min(float(np.nanmin(obj)), float(np.min(obj_diag)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reference_ray_value(a, w, w0):
    """The ray objective over its larger weight M, at one point or more:
    c r(w) (1 + e^{(2-a)(w - w0)}), c = a - 1, r = expm1(-w)/expm1(-c w)
    (c r = -expm1(-w)/w at a = 1, and 1 at w = 0)."""
    w = np.asarray(w, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        if a == 1.0:
            cr = -np.expm1(-w) / w
        else:
            cr = (a - 1.0) * np.expm1(-w) / np.expm1((1.0 - a) * w)
    return np.where(w != 0.0, cr, 1.0) * (1.0 + np.exp((2.0 - a) * (w - w0)))


def reference_ray_infimum(a, A, B, max_iter=200):
    """The ray infimum of one positive weight pair and the number of
    golden-section steps it took: a scalar golden section on [0, w0],
    w0 = log(M/m)/(2 - a).  The lockstep ``big_theta`` must reproduce it
    bit for bit.  On running out of steps it raises the lockstep
    message with this pair's last bracket."""
    M, m = max(A, B), min(A, B)
    with np.errstate(over="ignore"):
        ratio = np.float64(M) / np.float64(m)
    w0 = (np.log(ratio) if ratio < np.inf
          else np.log(np.float64(M)) - np.log(np.float64(m))) / (2.0 - a)
    f = lambda w: float(reference_ray_value(a, np.float64(w), w0))
    lo, hi = 0.0, float(w0)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for step in range(max_iter):
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    else:
        raise NumericalError(
            f"golden-section refinement exceeded {max_iter} iterations; "
            f"best bracket [{lo:.17g}, {hi:.17g}]")
    best = min(f(0.5 * (lo + hi)), fc, fd)
    return min(max(M * best, (a - 1.0) * (A + B)), A + B), step


def reference_big_theta(entropy, A, B):
    """``reference_ray_infimum`` per pair of positive weights."""
    a = 1.0 if entropy.kind == "log" else entropy.alpha
    return np.array([reference_ray_infimum(a, x, y)[0]
                     for x, y in zip(A, B)])


def decimal_big_theta(a, A, B, digits=40):
    """Independent oracle: a golden section in ``digits``-digit decimal
    arithmetic on the ray objective c (e^w - 1)/(e^{cw} - 1) (A e^{(a-2)w}
    + B), c = a - 1 ((e^w - 1)/w (A e^{-w} + B) at a = 1, the log kind),
    between 0 and log(A/B)/(2 - a), until the bracket is 1e-16 relative
    wide; the exponent range is unbounded, so nothing overflows."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = digits, MAX_EMAX, MIN_EMIN
        a, A, B, one = Decimal(a), Decimal(A), Decimal(B), Decimal(1)
        if A == B:
            return float(A + B)

        def f(w):
            if a == one:
                return (w.exp() - one) / w * (A * (-w).exp() + B)
            c = a - one
            return (c * (w.exp() - one) / ((c * w).exp() - one)
                    * (A * ((a - 2) * w).exp() + B))

        w0 = (A / B).ln() / (2 - a)
        lo, hi = min(w0, 0 * w0), max(w0, 0 * w0)
        g = (Decimal(5).sqrt() - one) / 2
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        fc, fd = f(c), f(d)
        while hi - lo > Decimal("1e-16") * max(one, abs(lo), abs(hi)):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - g * (hi - lo)
                fc = f(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + g * (hi - lo)
                fd = f(d)
        return float(min(fc, fd))


def decimal_theta(a, s, t, partial=False, digits=60):
    """Independent oracle: theta(s, t) = (s - t)/(phi'(s) - phi'(t)), or
    with ``partial`` d theta/ds = (1 - theta phi''(s))/(phi'(s) - phi'(t)),
    in ``digits``-digit decimal arithmetic from phi' = log (a = 1) or
    a (s^{a-1} - 1)/(a - 1); the exponent range is unbounded."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = digits, MAX_EMAX, MIN_EMIN
        a, s, t, one = Decimal(a), Decimal(s), Decimal(t), Decimal(1)
        if a == one:
            d1, d2 = Decimal.ln, lambda x: one / x
        else:
            d1 = lambda x: a * (x ** (a - one) - one) / (a - one)
            d2 = lambda x: a * x ** (a - 2)
        if s == t:
            return float((2 - a) / (2 * d2(s) * s) if partial
                         else one / d2(s))
        theta = (s - t) / (d1(s) - d1(t))
        return float((one - theta * d2(s)) / (d1(s) - d1(t)) if partial
                     else theta)


def entropy_of_order(a):
    """The entropy of order a: the log kind at a = 1, else the power kind."""
    return bl.log_entropy() if a == 1.0 else bl.power_entropy(a)


def check_against_oracle(a, A, B):
    """Theta of every pair is finite, within its bounds (a-1)(A+B) and
    A + B, and within 1e-13 relative of ``decimal_big_theta``."""
    e = entropy_of_order(a)
    got = bl.big_theta(e, A, B)
    assert np.all(np.isfinite(got))
    assert np.all(got >= (a - 1.0) * (A + B))
    assert np.all(got <= A + B)
    want = np.array([decimal_big_theta(a, x, y) for x, y in zip(A, B)])
    rel = np.abs(got - want) / want
    assert rel.max() <= 1e-13, (A[np.argmax(rel)], B[np.argmax(rel)])


def fv_cells(n):
    """The positive weight pairs (A, B) of the FV condition on n cells."""
    chain = bl.build_fokker_planck_fv(
        lambda x: 2.0 * np.asarray(x) ** 2, n, 4.0)
    a, b = np.asarray(chain.meta["a"]), np.asarray(chain.meta["b"])
    A, B = a[:-1] - a[1:], b[1:] - b[:-1]
    cells = (a[:-1] > 0.0) & (A > 0.0) & (B > 0.0)
    return A[cells], B[cells]


class TestPhi:
    def test_closed_form_values(self):
        assert bl.power_entropy(1.5).eval(1.0) == 0.0
        assert bl.power_entropy(2.0).eval(3.0) == pytest.approx(4.0, abs=1e-14)
        assert bl.power_entropy(1.5).eval(4.0) == pytest.approx(5.0, abs=1e-12)
        assert bl.log_entropy().eval(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_normalization_and_convexity(self):
        s = np.linspace(0.05, 20.0, 200)
        for e in (bl.log_entropy(), bl.quadratic_entropy(),
                  bl.power_entropy(1.2), bl.power_entropy(2.0)):
            assert e.eval(1.0) == pytest.approx(0.0, abs=1e-15)
            assert np.all(np.asarray(e.eval(s)) >= -1e-14)
            assert np.all(np.asarray(e.d2(s)) > 0.0)

    def test_quadratic_is_power_two(self):
        assert bl.quadratic_entropy() == bl.power_entropy(2.0)

    def test_power_tends_to_log(self):
        e = bl.power_entropy(1.0 + 1e-6)
        log = bl.log_entropy()
        for s in (0.1, 0.5, 2.0, 7.3):
            assert abs(e.eval(s) - log.eval(s)) < 1e-5 * (1.0 + abs(log.eval(s)))

    def test_centered_eval_near_one(self):
        # phi(1 + eps) is O(eps^2) while its written terms are O(eps);
        # compare against a 60-digit evaluation at the same float argument
        def reference(e, s):
            with localcontext() as ctx:
                ctx.prec = 60
                S = Decimal(s)
                if e.kind == "log":
                    return float(S * S.ln() - (S - 1))
                a = Decimal(e.alpha)
                return float(((a * S.ln()).exp() - 1 - a * (S - 1)) / (a - 1))

        kinds = (bl.power_entropy(1.2), bl.power_entropy(1.5),
                 bl.power_entropy(2.0), bl.log_entropy())
        for eps, bound in ((1e-7, 1e-7), (1e-9, 1e-5)):
            for s in (1.0 + eps, 1.0 - eps):
                for e in kinds:
                    ref = reference(e, s)
                    assert abs(e.eval(s) - ref) <= bound * ref, (e, s)

    def test_centered_d1_near_one(self):
        # phi'(1 + eps) = a (s^{a-1} - 1)/(a - 1) is O(eps) while s^{a-1}
        # is O(1); compare against a 60-digit evaluation at the same float
        def reference(a, s):
            with localcontext() as ctx:
                ctx.prec = 60
                S, A = Decimal(s), Decimal(a)
                return float(A * (((A - 1) * S.ln()).exp() - 1) / (A - 1))

        for eps in (1e-7, 1e-9):
            for s in (1.0 + eps, 1.0 - eps):
                for a in (1.01, 1.2, 1.5, 2.0):
                    ref = reference(a, s)
                    got = bl.power_entropy(a).d1(s)
                    assert abs(got - ref) <= 1e-14 * abs(ref), (a, s)

    def test_third_derivative_nonpositive(self):
        s = np.linspace(0.05, 50.0, 100)
        assert np.all(np.asarray(bl.log_entropy().d3(s)) <= 0.0)
        assert np.all(np.asarray(bl.power_entropy(1.7).d3(s)) <= 0.0)
        assert np.all(np.asarray(bl.quadratic_entropy().d3(s)) == 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bl.log_entropy().eval(0.0)
        with pytest.raises(DomainError):
            bl.power_entropy(1.5).eval(-2.0)
        with pytest.raises(DomainError):
            bl.power_entropy(1.0)
        with pytest.raises(DomainError):
            bl.power_entropy(2.5)
        for bad in (math.nan, math.inf, -math.inf, [1.0, 2.0, math.nan, 0.5]):
            with pytest.raises(DomainError):
                bl.power_entropy(1.5).eval(bad)


class TestTheta:
    def test_closed_form_values(self):
        m2 = bl.MeanFunction(bl.quadratic_entropy())
        assert m2.theta(7.0, 2.0) == pytest.approx(0.5, abs=1e-15)
        m15 = bl.MeanFunction(bl.power_entropy(1.5))
        assert m15.theta(4.0, 1.0) == pytest.approx(1.0, abs=1e-14)
        mlog = bl.MeanFunction(bl.log_entropy())
        assert mlog.theta(math.e, 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_near_diagonal_matches_curvature(self):
        e = bl.power_entropy(1.3)
        m = bl.MeanFunction(e)
        got = m.theta(0.7, 0.7 + 1e-14)
        assert got == pytest.approx(1.0 / e.d2(0.7), rel=1e-8)

    def test_symmetry_and_diagonal(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(1e-2, 1e2, 500)
        t = rng.uniform(1e-2, 1e2, 500)
        for e in (bl.log_entropy(), bl.power_entropy(1.4), bl.power_entropy(1.9)):
            m = bl.MeanFunction(e)
            a = np.asarray(m.theta(s, t))
            b = np.asarray(m.theta(t, s))
            assert np.max(np.abs(a - b) / a) <= 1e-12
            d = np.asarray(m.theta(s, s))
            assert np.max(np.abs(d - 1.0 / e.d2(s)) / d) <= 1e-10

    def test_power_homogeneity(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.1, 10.0, 200)
        t = rng.uniform(0.1, 10.0, 200)
        for alpha in (1.2, 1.5, 1.8):
            m = bl.MeanFunction(bl.power_entropy(alpha))
            for lam in (1e-2, 0.1, 10.0, 1e2):
                lhs = np.asarray(m.theta(lam * s, lam * t))
                rhs = lam ** (2.0 - alpha) * np.asarray(m.theta(s, t))
                assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-10
                d1l, d2l = m.partials(lam * s, lam * t)
                d1, d2 = m.partials(s, t)
                sc = lam ** (1.0 - alpha)
                assert np.max(np.abs(np.asarray(d1l) - sc * np.asarray(d1))
                              / (np.abs(sc * np.asarray(d1)) + 1e-30)) <= 1e-10
                assert np.max(np.abs(np.asarray(d2l) - sc * np.asarray(d2))
                              / (np.abs(sc * np.asarray(d2)) + 1e-30)) <= 1e-10

    def test_domain_error(self):
        m = bl.MeanFunction(bl.log_entropy())
        with pytest.raises(DomainError):
            m.theta(-1.0, 2.0)


def theta_pairs(max_exp):
    """(s, t) pairs in both orders: ratios 10^k, |k| <= max_exp, the
    near-diagonal ratios 1 +- 1e-13 ... 1e-3 at three scales, and pairs
    so far apart that log1p of the quotient of the smaller over the larger
    loses its digits."""
    s = [10.0 ** k for k in range(-max_exp, max_exp + 1, 10)]
    t = [1.0] * len(s)
    for x in (0.3, 1.0, 7e5):
        for d in 10.0 ** -np.arange(3, 14):
            s += [x * (1.0 + d), x * (1.0 - d)]
            t += [x, x]
    s += [1e-17, 1.87e8, 4.68e8, 2.5]
    t += [1.0, 9.85e-18, 2.59e-8, 2.5]
    if max_exp >= 300:
        s += [1e300, 1.0]
        t += [1e-300, 5e-324]
    return np.array(s + t), np.array(t + s)


class TestThetaOracle:
    """theta and its partials against a 60-digit decimal oracle, in both
    argument orders, from the diagonal to ratios 10^+-300."""

    @pytest.mark.parametrize("a", [1.0, 1.001, 1.01, 1.5, 1.9, 1.9999])
    def test_theta(self, a):
        m = bl.MeanFunction(entropy_of_order(a))
        s, t = theta_pairs(300)
        got = m.theta(s, t)
        half = [decimal_theta(a, x, y) for x, y in zip(s, t[:len(s) // 2])]
        want = np.array(half + half)        # the second half is swapped
        rel = np.abs(got - want) / want
        assert rel.max() <= 1e-14, (s[np.argmax(rel)], t[np.argmax(rel)])
        assert np.array_equal(got, m.theta(t, s))
        assert all(m.theta(x, y) == m.theta(y, x) for x, y in zip(s, t))

    # near alpha = 2 the error is set by the 1e-3 series switch
    @pytest.mark.parametrize("a,tol", [
        (1.0, 1e-12), (1.001, 1e-12), (1.01, 1e-12), (1.5, 1e-12),
        (1.9, 4e-12), (1.9999, 3e-9)])
    def test_partials(self, a, tol):
        m = bl.MeanFunction(entropy_of_order(a))
        s, t = theta_pairs(150)
        d1, d2 = m.partials(s, t)
        assert np.all(np.isfinite(d1))
        assert np.array_equal(d2, m.partials(t, s)[0])
        want = np.array([decimal_theta(a, x, y, partial=True)
                         for x, y in zip(s, t)])
        rel = np.abs(d1 - want) / np.abs(want)
        assert rel.max() <= tol, (s[np.argmax(rel)], t[np.argmax(rel)])


class TestThetaPartials:
    def test_quadratic_is_constant(self):
        m = bl.MeanFunction(bl.quadratic_entropy())
        d1, d2 = m.partials(5.0, 0.3)
        assert d1 == 0.0 and d2 == 0.0

    def test_finite_difference_oracle(self):
        m = bl.MeanFunction(bl.power_entropy(1.5))
        h = 1e-6
        d1, d2 = m.partials(2.0, 1.0)
        fd1 = (m.theta(2.0 + h, 1.0) - m.theta(2.0 - h, 1.0)) / (2 * h)
        fd2 = (m.theta(2.0, 1.0 + h) - m.theta(2.0, 1.0 - h)) / (2 * h)
        assert abs(d1 - fd1) <= 1e-6
        assert abs(d2 - fd2) <= 1e-6

    def test_second_order_convergence(self):
        m = bl.MeanFunction(bl.log_entropy())
        d1, _ = m.partials(2.0, 1.0)

        def resid(h):
            fd = (m.theta(2.0 + h, 1.0) - m.theta(2.0 - h, 1.0)) / (2 * h)
            return abs(fd - d1)

        r1, r2 = resid(1e-3), resid(5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_scaling_example(self):
        m = bl.MeanFunction(bl.power_entropy(1.5))
        d1, _ = m.partials(2.0, 1.0)
        d1s, _ = m.partials(8.0, 4.0)
        assert d1s == pytest.approx(4.0 ** (1.0 - 1.5) * d1, rel=1e-12)

    def test_symmetry_relation(self):
        rng = np.random.default_rng(2)
        m = bl.MeanFunction(bl.power_entropy(1.7))
        s = rng.uniform(0.1, 10, 100)
        t = rng.uniform(0.1, 10, 100)
        d1, d2 = m.partials(s, t)
        d1r, _ = m.partials(t, s)
        assert np.allclose(np.asarray(d2), np.asarray(d1r), rtol=0, atol=0)

    def test_nonnegative_when_phi3_nonpositive(self):
        rng = np.random.default_rng(3)
        for e in (bl.log_entropy(), bl.power_entropy(1.3)):
            m = bl.MeanFunction(e)
            s = rng.uniform(1e-2, 1e2, 300)
            t = rng.uniform(1e-2, 1e2, 300)
            d1, d2 = m.partials(s, t)
            assert np.all(np.asarray(d1) >= 0.0)
            assert np.all(np.asarray(d2) >= 0.0)


class TestBigTheta:
    def test_quadratic_case_is_sum(self):
        assert bl.big_theta(bl.power_entropy(2.0), 3.0, 5.0) == pytest.approx(
            8.0, abs=1e-12)

    def test_zero_weights(self):
        assert bl.big_theta(bl.power_entropy(1.4), 0.0, 0.0) == 0.0

    def test_symmetric_weights_oracle(self):
        # frozen from the 2-D grid oracle: the diagonal s = t attains A + B
        e = bl.power_entropy(1.5)
        val = bl.big_theta(e, 1.0, 1.0)
        assert 1.0 <= val <= 2.0 + 1e-12
        assert val == pytest.approx(2.0, abs=1e-9)
        oracle = brute_force_big_theta(1.5, 1.0, 1.0)
        assert val <= oracle + 1e-9

    @pytest.mark.parametrize("alpha,A,B", [(1.3, 2.0, 7.0), (1.8, 1.0, 1.0),
                                           (1.8, 10.0, 0.5)])
    def test_against_grid_oracle(self, alpha, A, B):
        val = bl.big_theta(bl.power_entropy(alpha), A, B)
        oracle = brute_force_big_theta(alpha, A, B)
        # the oracle is an upper bound of the infimum on a finite grid
        assert val <= oracle + 1e-6
        assert val >= (alpha - 1.0) * (A + B) - 1e-9
        assert val >= oracle - 1e-3 * (abs(oracle) + 1.0)

    def test_lower_bound_function(self):
        assert bl.big_theta_lower_bound(1.5, 2.0, 2.0) == pytest.approx(2.0)
        assert bl.big_theta_lower_bound(2.0 - 1e-9, 1.0, 1.0) == pytest.approx(
            2.0, rel=1e-8)
        lb = bl.big_theta_lower_bound(1.2, 0.0, 5.0)
        assert lb == pytest.approx(1.0)
        assert lb <= bl.big_theta(bl.power_entropy(1.2), 0.0, 5.0) + 1e-12

    def test_log_entropy_fallback(self):
        # 0-homogeneous objective; interior minimum at s = t gives A + B
        val = bl.big_theta(bl.log_entropy(), 1.0, 1.0)
        assert val == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("A,B,value", [(2.0, 7.0, 7.8569856844250925),
                                           (10.0, 0.5, 5.861922016180982),
                                           (0.3, 5.0, 3.112800331726578)])
    def test_log_entropy_ray_matches_2d_search(self, A, B, value):
        # values the former 2-D grid and simplex search returned
        assert bl.big_theta(bl.log_entropy(), A, B) == pytest.approx(
            value, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bl.big_theta(bl.power_entropy(1.5), -1.0, 2.0)

    @pytest.mark.parametrize("A,B", [(math.nan, 1.0), (math.inf, 1.0),
                                     (1.0, math.inf)])
    def test_nonfinite_weights_rejected(self, A, B):
        with pytest.raises(DomainError):
            bl.big_theta(bl.power_entropy(1.5), A, B)
        with pytest.raises(DomainError):
            bl.big_theta(bl.power_entropy(1.5), [1.0, A], [1.0, B])


class TestLockstepBigTheta:
    """Every pair of a batch gets the bits the one-pair reference gives."""

    @pytest.mark.parametrize("alpha", [1.01, 1.8])
    def test_readme_grid(self, alpha):
        rows = bl.theta_surface(alpha, np.arange(41) * 0.25,
                                np.arange(41) * 0.25)
        inner = (rows[:, 0] > 0.0) & (rows[:, 1] > 0.0)
        assert inner.sum() == 1600
        ref = reference_big_theta(bl.power_entropy(alpha), rows[inner, 0],
                                  rows[inner, 1])
        assert np.array_equal(rows[inner, 2], ref)

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 1.95])
    def test_log_uniform_pairs(self, alpha):
        rng = np.random.default_rng(20)
        A, B = np.exp(rng.uniform(-20.0, 20.0, size=(2, 500)))
        e = bl.power_entropy(alpha)
        assert np.array_equal(bl.big_theta(e, A, B),
                              reference_big_theta(e, A, B))

    def test_log_entropy_points(self):
        A, B = np.array([2.0, 10.0, 0.3]), np.array([7.0, 0.5, 5.0])
        e = bl.log_entropy()
        assert np.array_equal(bl.big_theta(e, A, B),
                              reference_big_theta(e, A, B))

    def test_fv_cells(self):
        e = bl.power_entropy(1.5)
        for n in (8, 16, 32, 64, 128):
            A, B = fv_cells(n)
            assert A.size >= n - 2
            assert np.array_equal(bl.big_theta(e, A, B),
                                  reference_big_theta(e, A, B))

    @pytest.mark.parametrize("a", [1.0, 1.01, 1.5, 1.95, 1.9999])
    def test_ray_objective_is_log_convex(self, a):
        # the premise of the closed-form bracket
        ws = np.linspace(-60.0, 60.0, 2401)
        for ratio in 10.0 ** np.arange(-8, 9, 2):
            w0 = np.log(ratio) / (2.0 - a)
            logf = np.log(reference_ray_value(a, ws, w0))
            assert np.diff(logf, 2).min() >= -1e-12, ratio

    def test_certificate_settles_the_readme_grid_and_fv_cells(self):
        # the bracket's certificate: (log f)' = h'(w) - (2-a) sigma(w) is
        # <= 0 at w = 0 and >= 0 at w0 = log(M/m)/(2-a), on the README
        # grid, the FV cells and pairs up to e^+-40; the closed form
        # agrees with differences of log f
        g = np.arange(1, 41) * 0.25
        A, B = (x.ravel() for x in np.meshgrid(g, g))
        cells = [fv_cells(n) for n in (8, 32, 128)]
        far = np.exp(np.random.default_rng(7).uniform(-40.0, 40.0, (2, 200)))
        A, B = (np.concatenate([A, *x]) for x in zip((A, B), *cells, far))
        M, m = np.maximum(A, B), np.minimum(A, B)
        for a in (1.0, 1.01, 1.5, 1.95, 1.9999):
            c, w0 = a - 1.0, np.log(M / m) / (2.0 - a)

            def slope(w, w0):
                with np.errstate(divide="ignore", invalid="ignore"):
                    tail = 1.0 / w if a == 1.0 else c / -np.expm1(-c * w)
                    h = np.where(w > 0.0, 1.0 / -np.expm1(-w) - tail,
                                 (2.0 - a) / 2.0)
                return h - (2.0 - a) / (1.0 + np.exp((2.0 - a) * (w - w0)))

            assert np.all(slope(np.zeros_like(w0), w0) <= 0.0), a
            assert np.all(slope(w0, w0) >= -1e-15), a
            v0 = w0[w0 > 0.1]
            w, dw = 0.5 * v0, 1e-5
            diff = (np.log(reference_ray_value(a, w + dw, v0))
                    - np.log(reference_ray_value(a, w - dw, v0))) / (2.0 * dw)
            assert np.allclose(diff, slope(w, v0), rtol=0.0, atol=1e-7), a

    @pytest.mark.parametrize("alpha,A,B", [(1.05, 1e-300, 1.0),
                                           (1.5, 1e-300, 1.0),
                                           (1.95, 1e-30, 1.0)])
    def test_unbracketed_edge_at_the_floor(self, alpha, A, B):
        # pairs whose minimizer lies beyond any fixed scan span: Theta is
        # the oracle's, within 1e-13 relative of the floor (a-1)(A+B), and
        # the one-pair reference's bits inside a batch
        check_against_oracle(alpha, np.array([A]), np.array([B]))
        floor = bl.big_theta_lower_bound(alpha, A, B)
        got = bl.big_theta(bl.power_entropy(alpha), A, B)
        assert floor <= got <= floor * (1.0 + 1e-13)
        batch = bl.big_theta(bl.power_entropy(alpha), [2.0, A], [3.0, B])
        assert batch[1] == got == reference_ray_infimum(alpha, A, B)[0]
        assert batch[0] == bl.big_theta(bl.power_entropy(alpha), 2.0, 3.0)

    def test_unbracketed_edge_above_the_floor(self):
        # at alpha = 1.01 the infimum of (1, 1e-300) stays 0.1% above the
        # floor; the oracle puts it at 0.010010587077923438
        check_against_oracle(1.01, np.array([1.0]), np.array([1e-300]))
        got = bl.big_theta(bl.power_entropy(1.01), 1.0, 1e-300)
        assert got > 1.001 * bl.big_theta_lower_bound(1.01, 1.0, 1e-300)

    def test_row_alone_equals_row_in_batch(self):
        rng = np.random.default_rng(3)
        A, B = np.exp(rng.uniform(-5.0, 5.0, size=(2, 40)))
        A[:4], B[2:6] = 0.0, 0.0
        for e in (bl.power_entropy(1.3), bl.log_entropy(),
                  bl.quadratic_entropy()):
            full = bl.big_theta(e, A, B)
            assert np.array_equal(
                bl.big_theta(e, A.reshape(5, 8), B.reshape(5, 8)),
                full.reshape(5, 8))
            for k in range(A.size):
                alone = bl.big_theta(e, float(A[k]), float(B[k]))
                assert type(alone) is float and alone == full[k], k

    @pytest.mark.parametrize("a", [1.0, 1.05, 1.5])
    def test_golden_rows_retire_at_their_own_step(self, a):
        # brackets [0, w0] from 0 up to about 300 wide retire at steps 0
        # to 58; the compacted lockstep section gives each row the bits
        # of its scalar run
        rng = np.random.default_rng(11)
        A = np.exp(rng.uniform(-8.0, 8.0, size=120))
        B = A * np.exp(rng.choice([0.0, 1e-14, 1e-11, 1e-9, 1e-6, 1e-3,
                                   0.1, 1.0, 10.0, -40.0, 300.0], size=120))
        e = entropy_of_order(a)
        ref, steps = zip(*(reference_ray_infimum(a, x, y)
                           for x, y in zip(A, B)))
        assert np.array_equal(bl.big_theta(e, A, B), ref)
        assert len(set(steps)) >= 6 and min(steps) == 0

    def test_step_limit_names_the_first_active_bracket(self):
        # pairs 0 and 2 converge within the limit (equal weights, then a
        # bracket below the stop); pair 1 is the first still active, and
        # the message carries its last bracket
        A = np.array([3.0, 2.0, 1.0, 0.5])
        B = np.array([3.0, 7.0, 1.0 + 1e-15, 4.0])
        with pytest.raises(NumericalError) as expected:
            reference_ray_infimum(1.5, A[1], B[1], max_iter=12)
        with pytest.raises(NumericalError) as got:
            bl.big_theta(bl.power_entropy(1.5), A, B, max_iter=12)
        assert str(got.value) == str(expected.value)
        assert "exceeded 12 iterations; best bracket [" in str(got.value)


class TestBigThetaOracle:
    """Theta against a 40-digit decimal golden section, its bounds and
    its 1-homogeneity, at every scale of the weights."""

    @pytest.mark.parametrize("alpha", [1.01, 1.8])
    def test_readme_grid(self, alpha):
        g = np.arange(1, 41) * 0.25
        A, B = (x.ravel()[::37] for x in np.meshgrid(g, g))
        check_against_oracle(alpha, A, B)

    def test_fv_cells(self):
        for n in (8, 16, 32, 64, 128):
            A, B = fv_cells(n)
            k = max(1, n // 16)
            check_against_oracle(1.5, A[::k], B[::k])

    @pytest.mark.parametrize("a", [1.0, 1.001, 1.05, 1.5, 1.95, 1.9999])
    def test_pairs_to_e40(self, a):
        rng = np.random.default_rng(int(a * 1e4))
        A, B = np.exp(rng.uniform(-40.0, 40.0, size=(2, 20)))
        check_against_oracle(a, A, B)

    @pytest.mark.parametrize("a,A,B", [
        (1.9999, 1e300, 1e-300), (1.0, 1e300, 5e-324),
        (1.0, 1.0, math.exp(-490))])
    def test_extremes(self, a, A, B):
        # pairs far beyond any fixed search span; each is also the
        # one-pair reference's bits inside a batch
        check_against_oracle(a, np.array([A]), np.array([B]))
        e = entropy_of_order(a)
        batch = bl.big_theta(e, [2.0, A], [3.0, B])
        assert batch[1] == reference_ray_infimum(a, A, B)[0]
        assert batch[0] == bl.big_theta(e, 2.0, 3.0)

    @pytest.mark.parametrize("a", [1.0, 1.01, 1.5, 1.95, 1.9999])
    def test_homogeneous(self, a):
        e = entropy_of_order(a)
        A, B = np.array([1.0, 3.0, 1.0, 1.0]), np.array([2.0, 0.25, 1e-6, 1.0])
        base = bl.big_theta(e, A, B)
        for k in range(-300, 301, 25):
            c = 10.0 ** k
            got = bl.big_theta(e, c * A, c * B)
            assert np.allclose(got, c * base, rtol=1e-14, atol=0.0), k
        assert np.all(bl.big_theta(e, 10.0 ** np.arange(-300, 301, 25),
                                   10.0 ** np.arange(-300, 301, 25))
                      == 2.0 * 10.0 ** np.arange(-300, 301, 25))


class TestThetaSurface:
    def test_alpha_two_exact(self):
        rows = bl.theta_surface(2.0, [0.0, 1.0, 2.0], [0.0, 0.5, 4.0])
        assert np.max(np.abs(rows[:, 2] - (rows[:, 0] + rows[:, 1]))) <= 1e-9

    def test_bounds_hold(self):
        rows = bl.theta_surface(1.3, np.arange(0.0, 5.0), np.arange(0.0, 5.0))
        assert np.all(rows[:, 2] >= rows[:, 3] - 1e-9)
        assert np.all(rows[:, 2] <= rows[:, 4] + 1e-9)

    def test_sharp_near_one_on_axes(self):
        rows = bl.theta_surface(1.01, [0.0, 1.0, 5.0], [0.0, 1.0, 5.0])
        axis = (rows[:, 0] == 0.0) ^ (rows[:, 1] == 0.0)
        ratios = rows[axis, 2] / rows[axis, 3]
        assert np.max(np.abs(ratios - 1.0)) <= 1e-9

    def test_range_check(self):
        with pytest.raises(DomainError):
            bl.theta_surface(2.5, [1.0], [1.0])
        with pytest.raises(DomainError):
            bl.theta_surface(1.5, [-1.0], [1.0])
        with pytest.raises(DomainError):
            bl.theta_surface(1.5, [1.0, math.nan], [1.0])


class TestIdentityVerifiers:
    def test_power_identities_pass(self):
        rep = bl.verify_theta_identities(1.5, 10000, seed=42)
        assert rep.passed

    def test_alpha_near_two_degenerates(self):
        rep = bl.verify_theta_identities(2.0 - 1e-6, 2000, seed=0)
        assert rep.passed

    def test_equal_arguments_trivial(self):
        m = bl.MeanFunction(bl.power_entropy(1.5))
        d1, d2 = m.partials(3.0, 3.0)
        lhs = 2.0 * d1 * (3.0 - 3.0) - 1.0 * d2 * (3.0 - 3.0)
        assert lhs == 0.0

    def test_concavity_power(self):
        rep = bl.verify_concavity(bl.power_entropy(1.5), (0.25, 0.5, 0.75),
                                  400, seed=7)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert "interpolant_mixed_partial_closed_form" in names

    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2])
    def test_concavity_passes_across_seeds(self, alpha):
        # Y's Hessian determinant vanishes identically; difference noise,
        # which grows as alpha -> 1, must not decide the verdict
        e = bl.power_entropy(alpha)
        for seed in [*range(200), 785348330]:
            rep = bl.verify_concavity(e, (0.25, 0.5, 0.75), 1000, seed)
            assert rep.passed, (seed, [c.name for c in rep.failures()])

    def test_concavity_log(self):
        rep = bl.verify_concavity(bl.log_entropy(), (0.5,), 300, seed=8)
        assert rep.passed

    def test_tangent_equality_at_base_point(self):
        m = bl.MeanFunction(bl.log_entropy())
        s, t = 2.0, 2.0
        d1, d2 = m.partials(s, t)
        lhs = m.theta(s, t) - m.theta(s, t)
        rhs = d1 * 0.0 + d2 * 0.0
        assert lhs == rhs == 0.0

    def test_rejects_convex_third_derivative(self):
        # quadratic has phi''' = 0, allowed; a made-up convex check is
        # exercised through the power family only
        rep = bl.verify_concavity(bl.quadratic_entropy(), (0.5,), 100, seed=1)
        assert rep.passed
