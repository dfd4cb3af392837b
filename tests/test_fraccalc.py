"""Unit tests for the sampled-signal fractional operators."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from tfse import dynamics, fraccalc
from tfse.errors import InvalidOrder
from tfse.fraccalc import SampledSignal
from tfse.specfun import FractionalOrder


def make_signal(func, t_max=1.0, h=1e-2):
    times = np.arange(0.0, t_max + h / 2, h)
    return SampledSignal(times, func(times))


def well_history(nu, t_max, h):
    """A(t) of the lowest well mode (a = pi, n_m = 1/2) on [0, t_max]."""
    cfg = dynamics.RunConfig(FractionalOrder(nu), n_m=0.5)
    mode = dynamics.well_mode(1, math.pi, cfg)
    times = np.linspace(0.0, t_max, int(round(t_max / h)) + 1)
    return mode, SampledSignal(times, dynamics.well_amplitude(mode, cfg,
                                                              times))


class TestSampledSignal:
    def test_step(self):
        sig = make_signal(np.sin, h=0.25)
        assert sig.step == pytest.approx(0.25)

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 0.1, 0.3]), np.zeros(3))

    def test_rejects_offset_grid(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([1.0, 2.0, 3.0]), np.zeros(3))

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([0.0, 1.0]), np.zeros(2))


class TestRlIntegral:
    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.0])
    def test_power_rule(self, mu):
        # I^mu t^p = Gamma(p+1)/Gamma(p+1+mu) t^(p+mu)
        p = 2
        sig = make_signal(lambda t: t ** p, h=2e-3)
        out = fraccalc.rl_integral_values(sig.values, sig.step, mu)
        exact = gamma(p + 1.0) / gamma(p + 1.0 + mu) * sig.times ** (p + mu)
        assert np.abs(out - exact).max() < 5e-6

    def test_unit_order_is_plain_integral(self):
        sig = make_signal(np.cos, t_max=2.0, h=1e-3)
        out = fraccalc.rl_integral_values(sig.values, sig.step, 1.0)
        assert np.abs(out - np.sin(sig.times)).max() < 1e-6

    def test_vanishes_at_origin(self):
        sig = make_signal(lambda t: 1.0 + t)
        assert fraccalc.rl_integral_values(sig.values, sig.step,
                                           0.5)[0] == 0.0

    def test_rejects_order_out_of_range(self):
        sig = make_signal(np.sin)
        with pytest.raises(InvalidOrder):
            fraccalc.rl_integral_values(sig.values, sig.step, 1.5)


class TestCaputo:
    def test_annihilates_constants(self):
        sig = make_signal(lambda t: np.full_like(t, 2.5))
        out = fraccalc.caputo_derivative(sig, FractionalOrder(0.6))
        assert np.abs(out.values).max() == 0.0

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    def test_power_rule(self, nu):
        p = 2
        sig = make_signal(lambda t: t ** p, h=1e-3)
        out = fraccalc.caputo_derivative(sig, FractionalOrder(nu))
        exact = gamma(p + 1.0) / gamma(p + 1.0 - nu) * sig.times ** (p - nu)
        assert np.abs(out.values - exact)[1:].max() < 5e-4

    @pytest.mark.parametrize("nu", [0.4, 0.7])
    def test_convergence_order(self, nu):
        p = 3
        steps = [1e-2, 5e-3, 2.5e-3]
        errs = []
        for h in steps:
            sig = make_signal(lambda t: t ** p, h=h)
            out = fraccalc.caputo_derivative(sig, FractionalOrder(nu))
            exact = gamma(p + 1.0) / gamma(p + 1.0 - nu) \
                * sig.times ** (p - nu)
            errs.append(np.abs(out.values - exact)[1:].max())
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0 - nu, abs=0.2)

    def test_order_zero_is_identity(self):
        vals = np.sin(np.linspace(0.0, 1.0, 11))
        assert np.array_equal(fraccalc.caputo_l1_values(vals, 0.1, 0.0), vals)

    def test_rejects_unit_order(self):
        sig = make_signal(np.sin)
        with pytest.raises(InvalidOrder):
            fraccalc.caputo_derivative(sig, FractionalOrder(1.0))

    @pytest.mark.parametrize("nu", [1.3, 1.7])
    def test_high_order_power_rule(self, nu):
        p = 3
        sig = make_signal(lambda t: t ** p, h=1e-3)
        out = fraccalc.caputo_derivative_high(sig, FractionalOrder(nu))
        exact = gamma(p + 1.0) / gamma(p + 1.0 - nu) * sig.times ** (p - nu)
        assert np.abs(out.values - exact)[5:].max() < 2e-2

    def test_order_two_is_second_derivative(self):
        sig = make_signal(lambda t: np.sin(2.0 * t), t_max=2.0, h=1e-3)
        out = fraccalc.caputo_derivative_high(sig, FractionalOrder(2.0))
        exact = -4.0 * np.sin(2.0 * sig.times)
        assert np.abs(out.values - exact)[2:-2].max() < 1e-4


class TestIdentities:
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.7])
    def test_sub_unit_identity_on_monomial(self, nu):
        sig = make_signal(lambda t: t ** 3, h=1e-3)
        res = fraccalc.check_identity_seq11(sig, FractionalOrder(nu),
                                            startup=20)
        assert res.max_abs < 5e-3

    def test_sub_unit_identity_convergence(self):
        nu = 0.5
        steps = [4e-3, 2e-3, 1e-3]
        errs = []
        for h in steps:
            sig = make_signal(lambda t: t ** 3, h=h)
            res = fraccalc.check_identity_seq11(sig, FractionalOrder(nu),
                                                startup=int(0.02 / h))
            errs.append(res.max_abs)
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        # Documented composite rate: the window-limited order is 3 - nu
        # for smooth signals with this startup exclusion.
        assert slope > 1.0

    @pytest.mark.parametrize("nu", [1.3, 1.6, 2.0])
    def test_super_unit_identity_on_monomial(self, nu):
        sig = make_signal(lambda t: t ** 3, h=1e-3)
        res = fraccalc.check_identity_eq65(sig, FractionalOrder(nu),
                                           startup=20)
        assert res.max_abs < 5e-3

    def test_ml_signal_self_consistency(self):
        # The composed L1 scheme reproduces plain y' for a Mittag-Leffler
        # amplitude: the startup error of the first stage absorbs the
        # analytic memory term.
        _, hist = well_history(0.5, 1.0, 1e-3)
        plain = fraccalc.check_identity_seq11(hist, FractionalOrder(0.5),
                                              startup=100)
        assert plain.max_abs < 1e-3


class TestRecastResidual:
    def test_unit_order_reduces_to_schrodinger(self):
        mode, hist = well_history(1.0, 2.0, 1e-3)
        res = fraccalc.hamiltonian_recast_residual(
            hist, mode.lambda_n, FractionalOrder(1.0), window=(0.1, 2.0))
        assert res.max_abs < 1e-5

    def test_zero_history_zero_residual(self):
        times = np.linspace(0.0, 1.0, 101)
        hist = SampledSignal(times, np.zeros_like(times, dtype=complex))
        res = fraccalc.hamiltonian_recast_residual(
            hist, 1.0, FractionalOrder(0.5), window=(0.1, 1.0),
            initial_slope=0.0)
        assert res.max_abs == 0.0

    def test_super_unit_residual(self):
        from tfse.specfun import ml_two_ic
        order = FractionalOrder(1.5)
        times = np.arange(0.0, 2.0 + 5e-4, 1e-3)
        vals = np.array([ml_two_ic(1.0, order, 1.0, 0.0, float(t))
                         for t in times])
        res = fraccalc.hamiltonian_recast_residual(
            SampledSignal(times, vals), 1.0, order, window=(0.1, 2.0),
            initial_slope=0.0)
        assert res.max_abs < 5e-3
