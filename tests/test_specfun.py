"""Unit tests for the Mittag-Leffler evaluators and the decay kernel."""

import cmath
import collections
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from tfse import specfun
from tfse.dynamics import SpectralPacket
from tfse.errors import (
    DenominatorSingularity,
    InvalidOrder,
    NonConvergence,
    QuadratureFailure,
    SingularTime,
)
from tfse.specfun import (
    FractionalOrder,
    Regime,
    Sign,
    ml_complex_decomposed,
    ml_series,
    ml_two_ic,
)


def ml_two_param_mp(z, nu, beta):
    """E_{nu,beta}(z) = sum z**k / Gamma(nu k + beta), summed in mpmath."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)
        total = mpmath.mpc(0)
        k = 0
        while True:
            term = z ** k / mpmath.gamma(mpmath.mpf(nu) * k + beta)
            total += term
            if k > 10 and abs(term) < mpmath.mpf(10) ** -25:
                return complex(total)
            k += 1


class TestFractionalOrder:
    def test_regimes(self):
        assert FractionalOrder(0.5).regime is Regime.SUB_UNIT
        assert FractionalOrder(1.0).regime is Regime.SUB_UNIT
        assert FractionalOrder(1.5).regime is Regime.SUPER_UNIT

    @pytest.mark.parametrize("bad", [0.0, -0.3, 2.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidOrder):
            FractionalOrder(bad)

    def test_branch_convention(self):
        order = FractionalOrder(0.5)
        assert order.i_pow(Sign.PLUS_I) == pytest.approx(
            np.exp(1j * math.pi / 4))
        assert order.i_pow(Sign.MINUS_I) == pytest.approx(
            np.exp(-1j * math.pi / 4))


class TestSeries:
    def test_exponential_at_unit_order(self):
        order = FractionalOrder(1.0)
        for z in (0.3, -1.2, 0.5 + 0.5j):
            assert ml_series(z, order) == pytest.approx(np.exp(z), abs=1e-10)

    def test_value_at_zero(self):
        assert ml_series(0.0, FractionalOrder(0.7)) == 1.0 + 0j

    def test_two_parameterless_identity_order_two(self):
        # E_2(-x**2) = cos(x)
        order = FractionalOrder(2.0)
        for x in (0.5, 1.0, 2.0):
            assert ml_series(-x * x, order) == pytest.approx(
                math.cos(x), abs=1e-10)

    def test_raises_on_catastrophic_cancellation(self):
        # Large argument at small order: float64 terms overflow the sum.
        order = FractionalOrder(0.3)
        z = 2.0 * order.i_pow(Sign.MINUS_I) * 20.0 ** 0.3
        with pytest.raises(NonConvergence):
            ml_series(z * 40.0, order, tol=1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            ml_series(1.0, FractionalOrder(0.5), tol=0.0)


class TestDecayKernel:
    def test_zero_rho(self):
        assert specfun.f_nu(0.0, FractionalOrder(0.5), 1.0) == 0.0

    def test_integer_order_vanishes(self):
        assert specfun.f_nu(1.0, FractionalOrder(1.0), 2.0) == 0.0

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_initial_value_closed_form(self, nu, rho):
        want = (1.0 - nu) / nu
        assert specfun.f_nu(rho, FractionalOrder(nu), 0.0) == pytest.approx(
            want, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    def test_monotone_decay_real_rho(self, nu):
        times = np.linspace(0.0, 20.0, 40)
        vals = np.array([specfun.f_nu(1.0, FractionalOrder(nu), float(t)).real
                         for t in times])
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[0] == pytest.approx((1.0 - nu) / nu, abs=1e-10)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            specfun.f_nu(1.0, FractionalOrder(0.5), -1.0)

    @pytest.mark.parametrize("rho", [complex("inf"), complex("nan"),
                                     float("inf"), complex(1.0, math.nan)])
    def test_spec_rejects_nonfinite_rho(self, rho):
        with pytest.raises(ValueError):
            specfun.f_nu(rho, FractionalOrder(0.5), 1.0)

    @pytest.mark.parametrize("nu", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("sigma", [0.5, 4.0])
    def test_time_derivative_matches_centred_difference(self, nu, sigma):
        order = FractionalOrder(nu)
        rho = sigma * order.i_pow(Sign.MINUS_I)
        h = 1e-4
        for t in (0.5, 3.0, 20.0):
            diff = (specfun.f_nu(rho, order, t + h)
                    - specfun.f_nu(rho, order, t - h)) / (2.0 * h)
            assert specfun.f_nu_time_derivative(rho, order, t) \
                == pytest.approx(diff, abs=1e-6)

    def test_root_on_axis_raises(self):
        # nu = 4/3 on the physics ray puts a denominator root on the cut.
        order = FractionalOrder(4.0 / 3.0)
        rho = 1.0 * order.i_pow(Sign.PLUS_I)
        with pytest.raises(DenominatorSingularity):
            specfun.f_nu(rho, order, 1.0)


def f_initial_mp(rho, nu):
    """F(rho, 0) as the literal integral (rho sin(nu pi) / (nu pi)) times the
    integral over v >= 0 of dv / (v**2 - 2 rho cos(nu pi) v + rho**2)."""
    with mpmath.workdps(15):
        rho = mpmath.mpc(rho)
        cos_nupi = mpmath.cos(mpmath.pi * nu)
        val = mpmath.quad(lambda v: 1 / (v * v - 2 * rho * cos_nupi * v
                                         + rho * rho),
                          [0, abs(rho), mpmath.inf])
        return complex(rho * mpmath.sin(mpmath.pi * nu) / (nu * mpmath.pi)
                       * val)


class TestPoles:
    def test_initial_value_matches_literal_integral(self):
        # Off the rays the principal sheet can hold 0, 1 or 2 roots of
        # s**nu = rho, so F(rho, 0) = (N - nu)/nu takes each of those forms.
        # The modulus of rho alternates between 0.5 and 2 along the angles.
        worst, checked = 0.0, 0
        for nu in (0.25, 0.5, 0.75, 0.9, 1.2, 1.5, 1.9):
            for i, deg in enumerate(range(-150, 181, 30)):
                rho = (0.5, 2.0)[i % 2] * cmath.exp(1j * math.radians(deg))
                try:
                    got = specfun.f_nu(rho, FractionalOrder(nu), 0.0)
                except DenominatorSingularity:
                    continue
                worst = max(worst, abs(got - f_initial_mp(rho, nu)))
                checked += 1
        assert checked >= 75
        assert worst < 1e-12

    @pytest.mark.parametrize("offset", [-0.0135, 0.0135])
    def test_window_around_four_thirds(self, offset):
        order = FractionalOrder(4.0 / 3.0 + offset)
        rho = order.i_pow(Sign.PLUS_I)
        with pytest.raises(DenominatorSingularity):
            specfun.f_nu(rho, order, [0.0, 0.5])
        with pytest.raises(DenominatorSingularity):
            ml_two_ic(1.0, order, 1.0, 0.3, [0.0, 0.5])

    @pytest.mark.parametrize("offset", [-0.0145, 0.0145])
    def test_outside_window(self, offset):
        order = FractionalOrder(4.0 / 3.0 + offset)
        rho = order.i_pow(Sign.PLUS_I)
        assert np.all(np.isfinite(specfun.f_nu(rho, order, [0.0, 0.5])))
        assert np.all(np.isfinite(ml_two_ic(1.0, order, 1.0, 0.3,
                                            [0.0, 0.5])))


class TestDecomposition:
    @pytest.mark.parametrize("nu", [0.4, 0.6, 0.9])
    @pytest.mark.parametrize("sign", [Sign.PLUS_I, Sign.MINUS_I])
    def test_matches_series(self, nu, sign):
        order = FractionalOrder(nu)
        sigma = 1.3
        for t in (0.0, 0.2, 1.0, 2.5):
            d = ml_complex_decomposed(sigma, sign, order, t)
            z = sigma * order.i_pow(sign) * t ** nu
            assert d.total == pytest.approx(ml_series(z, order, tol=1e-12),
                                            abs=1e-9)
            assert d.total == pytest.approx(d.oscillatory - d.decay)

    def test_sigma_zero_short_circuits(self):
        d = ml_complex_decomposed(0.0, Sign.MINUS_I, FractionalOrder(0.5), 3.0)
        assert d.total == 1.0 + 0j
        assert d.decay == 0.0

    def test_oscillatory_modulus(self):
        d = ml_complex_decomposed(2.0, Sign.MINUS_I, FractionalOrder(0.5), 4.0)
        assert abs(d.oscillatory) == pytest.approx(2.0)  # 1/nu

    def test_unit_order_reduces_to_exponential(self):
        d = ml_complex_decomposed(1.0, Sign.MINUS_I, FractionalOrder(1.0), 1.7)
        assert d.total == pytest.approx(np.exp(-1.7j), abs=1e-12)
        assert d.decay == 0.0

    def test_rejects_super_unit(self):
        with pytest.raises(InvalidOrder):
            ml_complex_decomposed(1.0, Sign.PLUS_I, FractionalOrder(1.5), 1.0)


class TestTwoInitialConditions:
    @pytest.mark.parametrize("nu", [1.2, 1.5, 1.9, 2.0])
    def test_initial_values(self, nu):
        order = FractionalOrder(nu)
        a0, a1 = 0.8 - 0.2j, 0.3 + 0.1j
        assert ml_two_ic(1.0, order, a0, a1, 0.0) == pytest.approx(
            a0, abs=1e-9)

    def test_order_two_is_trigonometric(self):
        # D^2 A = -A with A(0)=1, A'(0)=0 is cos(t); i**2 = -1.
        order = FractionalOrder(2.0)
        for t in (0.5, 1.0, 2.0):
            assert ml_two_ic(1.0, order, 1.0, 0.0, t) == pytest.approx(
                math.cos(t), abs=1e-9)
            assert ml_two_ic(1.0, order, 0.0, 1.0, t) == pytest.approx(
                math.sin(t), abs=1e-9)

    def test_sigma_zero_is_affine(self):
        order = FractionalOrder(1.5)
        assert ml_two_ic(0.0, order, 2.0, 3.0, 1.5) == pytest.approx(6.5)

    def test_matches_series_mid_order(self):
        # A = a0 E_nu(z) + a1 t E_{nu,2}(z) with z = sigma i**nu t**nu.
        order = FractionalOrder(1.5)
        sigma, t = 1.0, 1.2
        z = sigma * order.i_pow(Sign.PLUS_I) * t ** order.nu
        want = ml_series(z, order, tol=1e-12)
        got = ml_two_ic(sigma, order, 1.0, 0.0, t)
        assert got == pytest.approx(want, abs=1e-8)
        for nu in (1.01, 1.2, 1.5, 1.9):
            order = FractionalOrder(nu)
            for t in (0.0, 0.5, 1.2, 3.0):
                z = sigma * order.i_pow(Sign.PLUS_I) * t ** nu
                want = t * ml_two_param_mp(z, nu, 2.0)
                got = ml_two_ic(sigma, order, 0.0, 1.0, t)
                assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_sub_unit(self):
        with pytest.raises(InvalidOrder):
            ml_two_ic(1.0, FractionalOrder(0.5), 1.0, 0.0, 1.0)


class TestQuadratureFailure:
    """Every branch-cut integral reports quad's error estimate."""

    @pytest.fixture(autouse=True)
    def inflated_error(self, monkeypatch):
        real = specfun.quad

        def quad_reporting_large_error(*args, **kwargs):
            res = real(*args, **kwargs)
            return (res[0], 1.0) + tuple(res[2:])

        monkeypatch.setattr(specfun, "quad", quad_reporting_large_error)

    def kernel_args(self):
        order = FractionalOrder(0.5)
        return order.i_pow(Sign.MINUS_I), order

    def test_decay_kernel(self):
        with pytest.raises(QuadratureFailure):
            specfun.f_nu(*self.kernel_args(), 1.0)

    def test_time_derivative(self):
        with pytest.raises(QuadratureFailure):
            specfun.f_nu_time_derivative(*self.kernel_args(), 1.0)

    def test_two_ic_slope_term(self, monkeypatch):
        # Keep the a0 kernel out of the way, so only the a1 term can raise.
        monkeypatch.setattr(specfun, "_f_point", lambda rho, nu, t, tol: 0j)
        with pytest.raises(QuadratureFailure):
            ml_two_ic(1.0, FractionalOrder(1.5), 0.0, 1.0, 1.0)


def _sample(seed):
    """Seeded points: nu in [0.2, 1], sigma log-uniform in [0.1, 64] plus an
    exact 0, t in [0, 50] plus an exact 0."""
    rng = np.random.default_rng(seed)
    nus = rng.uniform(0.2, 1.0, 2)
    sigma = np.append(0.0, np.exp(rng.uniform(math.log(0.1), math.log(64.0),
                                              5)))
    t = np.append(0.0, rng.uniform(0.0, 50.0, 5))
    return nus, sigma, t


class TestBroadcasting:
    """Array calls equal the list of scalar calls, point by point."""

    @pytest.mark.parametrize("sign", [Sign.PLUS_I, Sign.MINUS_I])
    def test_decomposition_matches_scalar_calls(self, sign):
        nus, sigma, t = _sample(11)
        for nu in nus:
            order = FractionalOrder(float(nu))
            d = ml_complex_decomposed(sigma[:, None], sign, order, t)
            for field in ("oscillatory", "decay", "total"):
                want = [[getattr(ml_complex_decomposed(s, sign, order, x),
                                 field) for x in t.tolist()]
                        for s in sigma.tolist()]
                assert np.array_equal(getattr(d, field), np.array(want))

    @pytest.mark.parametrize("sign", [Sign.PLUS_I, Sign.MINUS_I])
    def test_kernels_match_scalar_calls(self, sign):
        nus, sigma, t = _sample(12)
        for nu in nus:
            order = FractionalOrder(float(nu))
            rho = sigma[-1] * order.i_pow(sign)
            want = [specfun.f_nu(rho, order, x) for x in t.tolist()]
            assert np.array_equal(specfun.f_nu(rho, order, t), want)
            later = t[t > 0]
            want = [specfun.f_nu_time_derivative(rho, order, x)
                    for x in later.tolist()]
            assert np.array_equal(
                specfun.f_nu_time_derivative(rho, order, later), want)

    def test_two_ic_matches_scalar_calls(self):
        _, sigma, t = _sample(13)
        rng = np.random.default_rng(14)
        a0 = rng.normal(size=sigma.size) + 1j * rng.normal(size=sigma.size)
        a1 = rng.normal(size=sigma.size) + 1j * rng.normal(size=sigma.size)
        a0[1] = a1[1] = 0.0    # a zero node next to the sigma = 0 node
        times = t[:3, None]
        for nu in (1.2, 1.5, 1.9):
            order = FractionalOrder(nu)
            got = ml_two_ic(sigma, order, a0, a1, times)
            want = [[ml_two_ic(s, order, b0, b1, x)
                     for s, b0, b1 in zip(sigma.tolist(), a0.tolist(),
                                          a1.tolist())]
                    for x in times.ravel().tolist()]
            assert got.shape == (3, sigma.size)
            assert np.array_equal(got, np.array(want))
            assert np.all(got[:, 1] == 0)
            assert np.array_equal(got[:, 0], a0[0] + a1[0] * times.ravel())

    def test_outer_shape(self):
        order = FractionalOrder(0.5)
        sigma = np.array([[0.5], [1.0], [2.0]])
        t = np.array([0.0, 0.5, 1.0, 2.0])
        d = ml_complex_decomposed(sigma, Sign.MINUS_I, order, t)
        for field in (d.oscillatory, d.decay, d.total):
            assert field.shape == (3, 4)
        assert ml_complex_decomposed(1.0, Sign.MINUS_I, order,
                                     np.array([])).total.shape == (0,)

    def test_scalars_give_complex(self):
        order = FractionalOrder(0.5)
        d = ml_complex_decomposed(1.0, Sign.MINUS_I, order, 1.0)
        rho = order.i_pow(Sign.MINUS_I)
        values = [d.oscillatory, d.decay, d.total,
                  specfun.f_nu(rho, order, 1.0),
                  specfun.f_nu_time_derivative(rho, order, 1.0),
                  ml_two_ic(1.0, FractionalOrder(1.5), 1.0, 0.5, 1.0)]
        assert all(type(v) is complex for v in values)

    def test_bad_element_raises_before_any_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("quad called before the input checks")

        monkeypatch.setattr(specfun, "quad", no_quad)
        sub, sup = FractionalOrder(0.5), FractionalOrder(1.5)
        rho = sub.i_pow(Sign.MINUS_I)
        bad_t = np.array([1.0, 2.0, -1e-9])
        bad_sigma = np.array([1.0, 2.0, -1e-9])
        with pytest.raises(ValueError):
            ml_complex_decomposed(1.0, Sign.MINUS_I, sub, bad_t)
        with pytest.raises(ValueError):
            ml_complex_decomposed(bad_sigma, Sign.MINUS_I, sub, 1.0)
        with pytest.raises(ValueError):
            ml_two_ic(1.0, sup, 1.0, 0.0, bad_t)
        with pytest.raises(ValueError):
            ml_two_ic(bad_sigma, sup, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.f_nu(rho, sub, bad_t)
        with pytest.raises(ValueError):
            specfun.f_nu(complex("nan"), sub, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ml_complex_decomposed(1.0, Sign.MINUS_I, sub, [1.0, 2.0], tol=0.0)
        with pytest.raises(SingularTime):
            specfun.f_nu_time_derivative(rho, sub, np.array([1.0, 0.0]))


def _spy_cut_integral(monkeypatch):
    """Record the power p of every branch-cut integral that runs."""
    calls = []
    real = specfun._cut_integral

    def spy(rho, nu, t, p, tol):
        calls.append(p)
        return real(rho, nu, t, p, tol)

    monkeypatch.setattr(specfun, "_cut_integral", spy)
    return calls


class TestMergedQuadrature:
    """Sigmas equal up to rounding share one branch-cut quadrature."""

    lam = np.linspace(-8.0, 8.0, 201)

    def test_mirrored_nodes_share_decay(self, monkeypatch):
        calls = _spy_cut_integral(monkeypatch)
        order = FractionalOrder(0.5)
        sigma = self.lam ** 2
        # Rounding leaves many mirrored nodes apart, so exact equality
        # alone would not pair them.
        assert np.unique(sigma).size > 101
        for t in (0.7, 12.0):
            calls.clear()
            d = ml_complex_decomposed(sigma, Sign.MINUS_I, order, t)
            assert calls == [0] * 100    # 100 pairs; sigma = 0 bypasses
            nodes = [ml_complex_decomposed(s, Sign.MINUS_I, order, t)
                     for s in sigma.tolist()]
            assert np.array_equal(d.oscillatory,
                                  [n.oscillatory for n in nodes])
            assert list(d.decay) == pytest.approx([n.decay for n in nodes],
                                                  rel=1e-14)

    def test_asymmetric_grid_merges_nothing(self, monkeypatch):
        lam = np.linspace(-8.0, 8.0 + 1e-9, 201)
        SpectralPacket(lam, np.ones_like(lam, dtype=complex))
        calls = _spy_cut_integral(monkeypatch)
        ml_complex_decomposed(lam ** 2, Sign.MINUS_I, FractionalOrder(0.5),
                              2.0)
        assert len(calls) == 201

    def test_two_ic_shares_both_cut_integrals(self, monkeypatch):
        calls = _spy_cut_integral(monkeypatch)
        ml_two_ic(self.lam ** 2, FractionalOrder(1.5), 1.0, 0.5, 2.0)
        assert sorted(calls) == [-1] * 100 + [0] * 100

    def test_two_ic_skips_zero_initial_values(self, monkeypatch):
        calls = _spy_cut_integral(monkeypatch)
        order = FractionalOrder(1.5)
        sigma = np.array([0.5, 1.0, 2.0])
        ml_two_ic(sigma, order, 1.0, 0.0, 2.0)
        assert calls == [0] * 3          # a1 = 0: no p = -1 integral
        calls.clear()
        ml_two_ic(sigma, order, 0.0, 1.0, 2.0)
        assert calls == [-1] * 3         # a0 = 0: no F integral
        calls.clear()
        ml_two_ic(sigma, order, np.array([1.0, 0.0, 0.0]),
                  np.array([0.0, 1.0, 0.0]), 2.0)
        assert calls == [0, -1]


def _two_pass(func, upper, points, epsabs):
    """The former `_quad_complex`: func runs again in the imaginary pass."""
    pts = sorted({p for p in points if 0.0 < p < upper})
    vals, err = [], 0.0
    for part in (lambda w: func(w).real, lambda w: func(w).imag):
        res = quad(part, 0.0, upper, points=pts or None, limit=250,
                   epsabs=epsabs, epsrel=1e-13, full_output=1)
        vals.append(res[0])
        err += res[1]
    return complex(*vals), err


def _power_integrand(rho, nu, t, p):
    """The former [0, split] integrand of `_cut_integral`, identity powers
    r**0 and w**1.0 included."""
    e = nu + min(p, 0)
    q, m, inv_e = nu / e, max(p, 0), 1.0 / e
    m2rc = -2.0 * rho * math.cos(math.pi * nu)
    rho2 = rho * rho

    def integrand(w):
        try:
            r = w ** inv_e
            v = w ** q
        except OverflowError:
            return 0.0
        return r ** m * math.exp(-r * t) / (v * v + m2rc * v + rho2)
    return integrand


def _cut_lattice(seed=14, draws=12):
    """(rho, nu, t, p): nu in [0.2, 1.9] away from 1 and from the window
    around 4/3, p = -1 only above 1 (where the a1 term lives), both rays."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        nu = float(rng.uniform(0.2, 1.9))
        if abs(nu - 1.0) < 0.02 or 1.30 < nu < 1.36:
            continue
        for p in (-1, 0, 1) if nu > 1.0 else (0, 1):
            for sign in Sign:
                sigma = float(10.0 ** rng.uniform(-1.0, 1.0))
                t = float(rng.uniform(0.3, 5.0))
                yield sigma * FractionalOrder(nu).i_pow(sign), nu, t, p


class TestQuadOncePerNode:
    def test_integrand_runs_once_per_node(self, monkeypatch):
        real = specfun._quad_complex
        counts, funcs = [], []

        def spy(func, upper, points, epsabs):
            seen = collections.Counter()
            counts.append(seen)
            funcs.append(func)

            def counted(w):
                seen[w] += 1
                return func(w)
            return real(counted, upper, points, epsabs)

        points = list(_cut_lattice())
        assert {p for *_, p in points} == {-1, 0, 1}
        for rho, nu, t, p in points:
            counts.clear()
            funcs.clear()
            monkeypatch.setattr(specfun, "_quad_complex", spy)
            got = specfun._cut_integral(rho, nu, t, p, 1e-10)
            assert len(counts) == 2                  # [0, split], then tail
            assert all(set(seen.values()) == {1} for seen in counts)
            old = _power_integrand(rho, nu, t, p)
            assert all(repr(funcs[0](w)) == repr(old(w)) for w in counts[0])
            monkeypatch.setattr(specfun, "_quad_complex", _two_pass)
            assert repr(specfun._cut_integral(rho, nu, t, p, 1e-10)) \
                == repr(got)
