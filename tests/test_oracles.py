"""Tests of the independent oracles and their agreement with the evaluators."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc

from tfse import oracles
from tfse.oracles import erfc_closed_form
from tfse.specfun import FractionalOrder, Sign, ml_complex_decomposed


class TestResidueTerm:
    def test_unit_order_is_exponential(self):
        got = oracles.residue_term(1.0, FractionalOrder(1.0), 1.0)
        assert got == pytest.approx(np.exp(1j))

    def test_half_order_at_zero(self):
        assert oracles.residue_term(1.0, FractionalOrder(0.5), 0.0) \
            == pytest.approx(2.0)

    def test_constant_modulus(self):
        for t in (0.0, 1.0, 7.5):
            assert abs(oracles.residue_term(2.0, FractionalOrder(0.4), t)) \
                == pytest.approx(2.5)


class TestErfcOracle:
    def test_anchor_values(self):
        assert erfc_closed_form(0.0) == 1.0
        assert erfc_closed_form(-1.0) == pytest.approx(1.8427007929497149,
                                                       abs=1e-12)

    def test_symmetry(self):
        for z in (0.3, 1.2, 2.8, 4.5):
            assert erfc_closed_form(z) + erfc_closed_form(-z) \
                == pytest.approx(2.0, abs=1e-12)

    def test_against_library(self):
        zs = np.linspace(-6.0, 6.0, 121)
        worst = max(abs(erfc_closed_form(float(z)) - scipy_erfc(z))
                    for z in zs)
        assert worst < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            erfc_closed_form(7.0)


class TestLaplaceInversion:
    def test_unit_order(self):
        got = oracles.laplace_invert_ml(1.0, FractionalOrder(1.0), 1.0)
        assert got == pytest.approx(np.exp(1j), abs=1e-7)

    def test_initial_condition_recovered(self):
        # A(t) = 1 + rho sqrt(t)/Gamma(1.5) + O(t) just after the start.
        t = 1e-4
        got = oracles.laplace_invert_ml(1.0, FractionalOrder(0.5), t)
        rho = np.exp(1j * math.pi / 4)
        lead = 1.0 + rho * math.sqrt(t) / math.gamma(1.5)
        assert got == pytest.approx(lead, abs=2e-4)

    @pytest.mark.parametrize("nu", [0.4, 0.6, 0.9])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_agrees_with_decomposition(self, nu, sigma):
        order = FractionalOrder(nu)
        for t in np.linspace(0.3, 4.0, 10):
            ora = oracles.laplace_invert_ml(sigma, order, float(t))
            dec = ml_complex_decomposed(sigma, Sign.PLUS_I, order, float(t))
            assert abs(ora - dec.total) < 1e-6

    def test_branch_cut_term_matches_decay(self):
        # The inversion minus its residue is the branch-cut part: -decay.
        order = FractionalOrder(0.5)
        t = 1.5
        cut = oracles.laplace_invert_ml(1.0, order, t) \
            - oracles.residue_term(1.0, order, t)
        dec = ml_complex_decomposed(1.0, Sign.PLUS_I, order, t)
        assert abs(cut + dec.decay) < 1e-5

    @pytest.mark.parametrize("sigma, t", [(0.0, 1.0), (-1.0, 1.0),
                                          (1.0, 0.0)])
    def test_rejects_nonpositive_sigma_or_time(self, sigma, t):
        with pytest.raises(ValueError):
            oracles.laplace_invert_ml(sigma, FractionalOrder(0.5), t)


class TestSeriesReference:
    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
    def test_matches_decomposition_beyond_float64(self, nu):
        order = FractionalOrder(nu)
        for sigma, t in ((2.0, 5.0), (1.0, 3.3)):
            ref = oracles.ml_series_reference(sigma, -1, order, t)
            dec = ml_complex_decomposed(sigma, Sign.MINUS_I, order, t)
            assert abs(ref - dec.total) < 1e-9

    @pytest.mark.parametrize("sign", [+1, -1])
    @pytest.mark.parametrize("sigma,t", [(0.5, 0.3), (1.0, 4.0), (2.0, 5.0),
                                         (3.0, 4.0)])
    def test_half_order_closed_form(self, sign, sigma, t):
        # E_{1/2}(z) = exp(z**2) erfc(-z); at sigma 3, t 4 the series cancels
        # terms of size exp(36).
        ref = oracles.ml_series_reference(sigma, sign, FractionalOrder(0.5), t)
        with mpmath.workdps(30):
            z = sigma * mpmath.expjpi(mpmath.mpf(sign) / 4) * mpmath.sqrt(t)
            want = complex(mpmath.exp(z * z) * mpmath.erfc(-z))
        assert ref == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("t", [10.0, 20.0])
    def test_half_order_beyond_fifty_digits(self, t):
        # m = |z|**(1/nu) is 90 and 180; at 180 the largest term is about
        # 1e77, which a fixed 50-digit sum returned as -2.9e26+3.6e25j.
        sigma = 3.0
        ref = oracles.ml_series_reference(sigma, -1, FractionalOrder(0.5), t)
        with mpmath.workdps(30):
            z = sigma * mpmath.expjpi(mpmath.mpf(-1) / 4) * mpmath.sqrt(t)
            want = complex(mpmath.exp(z * z) * mpmath.erfc(-z))
        assert ref == pytest.approx(want, rel=1e-12)

    def test_zero_argument(self):
        assert oracles.ml_series_reference(0.0, -1, FractionalOrder(0.4),
                                           2.0) == 1.0
        assert oracles.ml_series_reference(1.5, +1, FractionalOrder(0.4),
                                           0.0) == 1.0

    def test_unit_order(self):
        ref = oracles.ml_series_reference(1.0, +1, FractionalOrder(1.0), 2.0)
        assert ref == pytest.approx(np.exp(2j), abs=1e-12)

    def test_conjugate_symmetry(self):
        order = FractionalOrder(0.6)
        plus = oracles.ml_series_reference(1.5, +1, order, 2.0)
        minus = oracles.ml_series_reference(1.5, -1, order, 2.0)
        assert plus == pytest.approx(np.conj(minus), abs=1e-12)
