"""Entropy kinds, the mean function, its partials, and the infimum map."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import beckner_lab as bl
from beckner_lab import DomainError, NumericalError
from beckner_lab.entropy import _golden


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


def reference_ray_value(a, A, B, w):
    """The ray objective of one weight pair at one or more points w."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if a == 1.0:
            val = np.expm1(w) / w * (A * np.exp(-w) + B)
        else:
            num = (a - 1.0) * np.expm1(w) * (A * np.exp((a - 2.0) * w) + B)
            val = num / np.expm1((a - 1.0) * w)
    return np.where(np.abs(w) < 1e-12, A + B, val)


def reference_ray_infimum(a, A, B, max_iter=200):
    """The ray infimum of one positive weight pair, one pair at a time:
    a 2401-point scan (span doubled while the minimum sits on the
    boundary) and a scalar golden section.  The lockstep ``big_theta``
    must reproduce it bit for bit."""
    span = 60.0
    for _ in range(4):
        ws = np.linspace(-span, span, 2401)
        vals = reference_ray_value(a, A, B, ws)
        i = int(np.argmin(vals))
        if float(vals.max() - vals.min()) <= 1e-12 * (abs(float(vals.max())) + 1.0):
            return float(vals[i])
        if 0 < i < len(ws) - 1:
            break
        span *= 2.0
        if span > 600.0:
            raise NumericalError("ray scan did not bracket the minimizer")
    return reference_golden(a, A, B, ws[i - 1], ws[i + 1], max_iter)[0]


def reference_golden(a, A, B, lo, hi, max_iter=200):
    """Scalar golden section of one pair on [lo, hi]: its value and the
    number of steps it took.  On running out of steps it raises the
    lockstep refinement's message with this pair's last bracket."""
    f = lambda w: float(reference_ray_value(a, A, B, np.float64(w)))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for step in range(max_iter):
        if hi - lo < 1e-12:
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
    return min(f(0.5 * (lo + hi)), fc, fd), step


def reference_big_theta(entropy, A, B):
    """``reference_ray_infimum`` per pair of positive weights."""
    a = 1.0 if entropy.kind == "log" else entropy.alpha
    return np.array([reference_ray_infimum(a, x, y) for x, y in zip(A, B)])


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

    def test_span_doubling(self):
        # at alpha = 1.05 these pairs bracket at spans 120, 240 and 480
        e = bl.power_entropy(1.05)
        A, B = np.array([1.0, 1e-60, 1.0]), np.array([1e-30, 1.0, 1e-110])
        assert np.array_equal(bl.big_theta(e, A, B),
                              reference_big_theta(e, A, B))
        # and this one nowhere up to 480, where its edge value is the
        # boundary limit (a-1)(A+B) to 4e-11 relative, which it returns
        with pytest.raises(NumericalError):
            reference_big_theta(e, [1.0], [1e-300])
        out = bl.big_theta(e, np.append(A, 1.0), np.append(B, 1e-300))
        assert np.array_equal(out[:3], reference_big_theta(e, A, B))
        assert out[3] == bl.big_theta_lower_bound(1.05, 1.0, 1e-300)

    @pytest.mark.parametrize("alpha,A,B", [(1.05, 1e-300, 1.0),
                                           (1.5, 1e-300, 1.0),
                                           (1.95, 1e-30, 1.0)])
    def test_unbracketed_edge_at_the_floor(self, alpha, A, B):
        floor = bl.big_theta_lower_bound(alpha, A, B)
        assert bl.big_theta(bl.power_entropy(alpha), A, B) == floor
        batch = bl.big_theta(bl.power_entropy(alpha), [2.0, A], [3.0, B])
        assert batch[1] == floor
        assert batch[0] == bl.big_theta(bl.power_entropy(alpha), 2.0, 3.0)

    def test_unbracketed_edge_above_the_floor(self):
        # at alpha = 1.01 the span-480 edge value is 0.8% above the floor
        with pytest.raises(NumericalError, match="did not bracket"):
            bl.big_theta(bl.power_entropy(1.01), 1.0, 1e-300)

    def test_log_entropy_points(self):
        A, B = np.array([2.0, 10.0, 0.3]), np.array([7.0, 0.5, 5.0])
        e = bl.log_entropy()
        assert np.array_equal(bl.big_theta(e, A, B),
                              reference_big_theta(e, A, B))

    def test_fv_cells(self):
        e = bl.power_entropy(1.5)
        for n in (8, 16, 32, 64, 128):
            chain = bl.build_fokker_planck_fv(
                lambda x: 2.0 * np.asarray(x) ** 2, n, 4.0)
            a, b = np.asarray(chain.meta["a"]), np.asarray(chain.meta["b"])
            A, B = a[:-1] - a[1:], b[1:] - b[:-1]
            cells = (a[:-1] > 0.0) & (A > 0.0) & (B > 0.0)
            assert cells.sum() >= n - 2
            assert np.array_equal(bl.big_theta(e, A[cells], B[cells]),
                                  reference_big_theta(e, A[cells], B[cells]))

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
        # bracket widths from below the 1e-12 stop up to 8 retire at
        # steps 0 to 60; the compacted lockstep refinement gives each row
        # the bits of its scalar run
        rng = np.random.default_rng(11)
        A, B = np.exp(rng.uniform(-8.0, 8.0, size=(2, 120)))
        width = rng.choice([5e-13, 3e-12, 1e-6, 0.1, 0.2, 0.4, 0.8, 8.0],
                           size=120)
        lo = rng.uniform(-5.0, 5.0, size=120)
        hi = lo + width
        got = _golden(a, A, B, lo, hi, 200)
        ref, steps = zip(*(reference_golden(a, *row)
                           for row in zip(A, B, lo, hi)))
        assert np.array_equal(got, ref)
        assert len(set(steps)) >= 6 and min(steps) == 0

    def test_scan_and_golden_with_rescanned_rows(self):
        # rows bracketed at spans 60, 120, 240 and 480 reach the golden
        # section with brackets of four widths, so they retire at
        # different steps; a boundary-limit row is mixed in
        e = bl.power_entropy(1.05)
        rng = np.random.default_rng(12)
        A = np.concatenate(([1.0, 1e-60, 1.0, 1.0, 2.0],
                            np.exp(rng.uniform(-20.0, 20.0, size=60))))
        B = np.concatenate(([1e-30, 1.0, 1e-110, 1e-300, 2.0],
                            np.exp(rng.uniform(-20.0, 20.0, size=60))))
        out = bl.big_theta(e, A, B)
        keep = np.ones(A.size, dtype=bool)
        keep[3] = False
        assert np.array_equal(out[keep], reference_big_theta(e, A[keep],
                                                              B[keep]))
        assert out[3] == bl.big_theta_lower_bound(1.05, 1.0, 1e-300)

    def test_step_limit_names_the_first_active_bracket(self):
        # rows 0 and 1 converge within the limit; row 2 is the first
        # still active, and the message carries its last bracket
        A, B = np.array([1.0, 2.0, 3.0, 0.5]), np.array([2.0, 1.0, 0.7, 4.0])
        lo = np.array([0.1, -0.3, 0.2, -1.0])
        hi = lo + np.array([5e-13, 3e-12, 0.8, 0.1])
        with pytest.raises(NumericalError) as expected:
            reference_golden(1.5, A[2], B[2], lo[2], hi[2], 20)
        with pytest.raises(NumericalError) as got:
            _golden(1.5, A, B, lo, hi, 20)
        assert str(got.value) == str(expected.value)
        assert "exceeded 20 iterations; best bracket [" in str(got.value)
        # through big_theta: pair 0 returns the boundary limit without
        # refinement, so pair 1 is the first active row
        e = bl.power_entropy(1.5)
        A, B = np.array([1e-300, 2.0, 0.5]), np.array([1.0, 7.0, 3.0])
        with pytest.raises(NumericalError) as expected:
            reference_ray_infimum(1.5, A[1], B[1], max_iter=12)
        with pytest.raises(NumericalError) as got:
            bl.big_theta(e, A, B, max_iter=12)
        assert str(got.value) == str(expected.value)


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
