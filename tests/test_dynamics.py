"""Unit tests for the free-particle and well evolution and diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from tfse import dynamics, verify
from tfse.errors import InvalidOrder, SingularTime
from tfse.dynamics import RunConfig, SpectralPacket
from tfse.specfun import FractionalOrder


def cfg_of(nu, n_m=0.5):
    return RunConfig(FractionalOrder(nu), n_m=n_m)


def unit_packet(half_width=8.0, count=161, width=1.0):
    lam = np.linspace(-half_width, half_width, count)
    return dynamics.gaussian_packet(lam, width=width)


class TestTypes:
    def test_run_config_coefficients(self):
        cfg = cfg_of(0.5, n_m=2.0)
        assert cfg.beta == pytest.approx(0.25)

    def test_packet_rejects_asymmetric_grid(self):
        lam = np.linspace(-1.0, 2.0, 31)
        with pytest.raises(ValueError):
            SpectralPacket(lam, np.ones_like(lam, dtype=complex))


class TestFreeParticle:
    def test_gaussian_packet_is_normalized(self):
        packet = unit_packet()
        assert dynamics.spectral_probability(packet) == pytest.approx(
            1.0, abs=1e-9)

    def test_unit_order_preserves_probability(self):
        packet = unit_packet()
        cfg = cfg_of(1.0)
        for t in (0.5, 2.0, 10.0):
            out = dynamics.free_spectrum_evolve(packet, cfg, t)
            assert dynamics.spectral_probability(out) == pytest.approx(
                1.0, abs=1e-9)

    def test_split_sums_to_total(self):
        packet = unit_packet(count=81)
        out = dynamics.free_spectrum_evolve(packet, cfg_of(0.5), 1.5)
        assert np.allclose(out.amplitudes_s + out.amplitudes_d,
                           out.amplitudes)
        _, [(psi, psi_s, psi_d)] = dynamics.free_field([out])
        assert np.allclose(psi_s + psi_d, psi)

    def test_oscillatory_piece_density_is_static(self):
        # An even node count avoids lambda = 0, where the degenerate
        # sigma = 0 case bypasses the decomposition.
        packet = unit_packet(count=80)
        cfg = cfg_of(0.5)
        dens = []
        for t in (0.5, 3.0):
            out = dynamics.free_spectrum_evolve(packet, cfg, t)
            dens.append(np.abs(out.amplitudes_s) ** 2)
        assert np.allclose(dens[0], dens[1])
        # and the per-node value is |amp0|^2 / nu^2
        assert np.allclose(dens[0], np.abs(packet.amplitudes) ** 2 * 4.0)

    def test_probability_grows_toward_limit(self):
        packet = unit_packet(count=81)
        cfg = cfg_of(0.5)
        probs = [dynamics.spectral_probability(
            dynamics.free_spectrum_evolve(packet, cfg, t))
            for t in (1.0, 10.0, 100.0)]
        assert probs[0] < probs[1] < probs[2] < 4.0

    def test_field_at_zero_matches_initial(self):
        packet = unit_packet(count=81)
        out = dynamics.free_spectrum_evolve(packet, cfg_of(0.5), 0.0)
        _, [(psi0, _, _), (psi, _, _)] = dynamics.free_field([packet, out])
        assert np.allclose(psi, psi0, atol=1e-12)

    def test_probability_limit_keeps_zero_frequency_node(self):
        packet = unit_packet(count=81)
        cfg = cfg_of(0.5)
        out = dynamics.free_spectrum_evolve(packet, cfg, 50.0)
        assert out.amplitudes[40] == packet.amplitudes[40]
        w0 = packet.step * abs(packet.amplitudes[40]) ** 2 / (2.0 * math.pi)
        rest = dynamics.spectral_probability(packet) - w0
        assert dynamics.spectral_probability_limit(packet, cfg) \
            == pytest.approx(w0 + rest * 4.0, rel=1e-12)

    def test_high_order_reproduces_initial_state(self):
        packet = unit_packet(count=41)
        zero = SpectralPacket(packet.wavenumbers,
                              np.zeros_like(packet.amplitudes))
        out = dynamics.free_spectrum_high_order(packet, zero, cfg_of(1.5),
                                                0.0)
        assert np.allclose(out.amplitudes, packet.amplitudes, atol=1e-8)

    def test_high_order_rejects_sub_unit(self):
        packet = unit_packet(count=41)
        with pytest.raises(InvalidOrder):
            dynamics.free_spectrum_high_order(packet, packet, cfg_of(0.5),
                                              1.0)


def _dense(x, lam, amp, step):
    """The unblocked inverse transform: the whole phase matrix at once."""
    return np.exp(1j * np.outer(x, lam)) @ amp * step / (2.0 * math.pi)


class TestInverseTransform:
    lam = np.linspace(-8.0, 8.0, 201)

    def packets(self):
        """Two split snapshots around an unsplit packet."""
        rng = np.random.default_rng(3)
        out = []
        for center, split in ((-2.0, True), (0.5, False), (3.0, True)):
            amp = dynamics.gaussian_packet(self.lam, center).amplitudes
            share = rng.uniform(-1.0, 1.0, self.lam.size) \
                * np.exp(1j * rng.uniform(0.0, 6.3, self.lam.size))
            out.append(SpectralPacket(self.lam, amp) if not split else
                       SpectralPacket(self.lam, amp, amplitudes_s=amp * share,
                                      amplitudes_d=amp * (1.0 - share)))
        return out

    @pytest.mark.parametrize("count", [1, 7, 2 * dynamics._BLOCK, 2001])
    def test_blocked_matches_dense(self, count):
        # Pieces of several packets, as free_field stacks them.
        rng = np.random.default_rng(count)
        amps = rng.normal(size=(5, self.lam.size)) \
            + 1j * rng.normal(size=(5, self.lam.size))
        x = np.linspace(-39.0, 39.0, count)
        got = dynamics._inverse_transform(x, self.lam, amps)
        for row, amp in zip(got, amps):
            want = _dense(x, self.lam, amp, 2.0 * math.pi)
            assert np.abs(row - want).max() <= 4e-15 * np.abs(want).max()

    def test_free_field_matches_dense(self):
        x = np.linspace(-39.0, 39.0, 2001)
        packets = self.packets()
        got_x, fields_of = dynamics.free_field(packets, x)
        assert np.array_equal(got_x, x)
        for packet, fields in zip(packets, fields_of):
            pieces = (packet.amplitudes, packet.amplitudes_s,
                      packet.amplitudes_d)
            if packet.amplitudes_s is None:
                pieces = (packet.amplitudes, packet.amplitudes, None)
            for field, amp in zip(fields, pieces):
                if amp is None:
                    assert not np.any(field)
                    continue
                want = _dense(x, self.lam, amp, packet.step)
                assert np.abs(field - want).max() \
                    <= 4e-15 * np.abs(want).max()

    def test_unsplit_packet_has_exact_zero_decay(self):
        _, [(psi, psi_s, psi_d)] = dynamics.free_field(
            [unit_packet(count=41)])
        assert not np.any(psi_d)
        assert not np.any(np.signbit(psi_d.real))
        assert not np.any(np.signbit(psi_d.imag))
        assert np.array_equal(psi, psi_s)

    def test_transform_memory_is_blocked(self):
        lam = np.linspace(-8.0, 8.0, 401)
        x = np.linspace(-78.0, 78.0, 20001)
        amp = dynamics.gaussian_packet(lam).amplitudes
        packets = [SpectralPacket(lam, amp, amplitudes_s=amp * k,
                                  amplitudes_d=amp * (1 - k))
                   for k in (0.5, 1.5, 2.5)]
        tracemalloc.start()
        try:
            dynamics.free_field(packets, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The full 20001 x 401 phase matrix alone would take 128 MB.
        assert peak < 8e6


class TestWell:
    def test_mode_eigenvalue(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        assert mode.lambda_n == pytest.approx(1.0)
        mode2 = dynamics.well_mode(2, math.pi, cfg)
        assert mode2.lambda_n == pytest.approx(4.0)

    def test_shape_normalization(self):
        mode = dynamics.well_mode(3, 2.0, cfg_of(0.5))
        x = np.linspace(0.0, 2.0, 2001)
        norm = np.trapezoid(dynamics.well_shape(mode, x) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_amplitude_initial_value(self):
        mode = dynamics.well_mode(1, math.pi, cfg_of(0.5))
        assert dynamics.well_amplitude(mode, cfg_of(0.5), 0.0) \
            == pytest.approx(1.0)

    def test_unit_order_unit_modulus(self):
        cfg = cfg_of(1.0)
        mode = dynamics.well_mode(1, math.pi, cfg)
        for t in (0.3, 5.0):
            assert abs(dynamics.well_amplitude(mode, cfg, t)) \
                == pytest.approx(1.0, abs=1e-12)

    def test_field_probability_tracks_amplitude(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        t = 2.0
        x = np.linspace(0.0, math.pi, 801)
        amp = dynamics.well_amplitude(mode, cfg, t)
        field = amp * dynamics.well_shape(mode, x)
        assert np.trapezoid(np.abs(field) ** 2, x) == pytest.approx(
            abs(amp) ** 2, rel=1e-5)

    @pytest.mark.parametrize("n, a", [(1, math.pi), (3, 2.0)])
    def test_shape_gradient_integral(self, n, a):
        # The closed-form continuity source rests on this and on the
        # normalization: the integral of B_n'**2 is (n pi/a)**2.
        mode = dynamics.well_mode(n, a, cfg_of(0.5))
        x = np.linspace(0.0, a, 4001)
        slope = np.gradient(dynamics.well_shape(mode, x), x, edge_order=2)
        assert np.trapezoid(slope ** 2, x) == pytest.approx(
            (n * math.pi / a) ** 2, rel=1e-5)

    def test_long_time_limit(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        amp = dynamics.well_amplitude(mode, cfg, 1e4)
        assert abs(amp) ** 2 == pytest.approx(4.0, abs=0.05)


class TestDiagnostics:
    # The sampled source lives with the checks (`verify._grid_source`).
    def test_source_zero_at_unit_order(self):
        cfg = cfg_of(1.0)
        mode = dynamics.well_mode(1, math.pi, cfg)
        t = 1.0
        x = np.linspace(0.0, math.pi, 201)
        shape = dynamics.well_shape(mode, x)
        f = dynamics.well_amplitude(mode, cfg, t) * shape
        s = verify._grid_source(x, f, f, np.zeros_like(f), cfg, t)
        assert abs(np.trapezoid(s, x)) < 1e-10

    def test_source_singular_time(self):
        x = np.linspace(0.0, 1.0, 11)
        f = np.zeros_like(x, dtype=complex)
        with pytest.raises(SingularTime):
            verify._grid_source(x, f, f, f, cfg_of(0.5), 0.0)

    def test_energy_level_unit_order_constant(self):
        cfg = cfg_of(1.0)
        mode = dynamics.well_mode(1, math.pi, cfg)
        for t in (0.5, 4.0):
            level = dynamics.energy_level(mode, cfg, t)
            assert level == pytest.approx(mode.lambda_n, abs=1e-10)

    def test_energy_level_limit_value(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        assert dynamics.energy_level_limit(mode, cfg) == pytest.approx(4.0)

    def test_energy_level_singular_at_zero(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        with pytest.raises(SingularTime):
            dynamics.energy_level(mode, cfg, 0.0)

    def test_energy_spacing_unit(self):
        # lambda_n = n**2 at a = pi, N_m = 1/2, so the base unit is 1 at
        # nu = 1 and 4 at nu = 0.5.
        assert dynamics.energy_spacing_unit(math.pi, cfg_of(1.0)) \
            == pytest.approx(1.0)
        assert dynamics.energy_spacing_unit(math.pi, cfg_of(0.5)) \
            == pytest.approx(4.0)


class TestContinuity:
    def test_rejects_zero_sample(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(1, math.pi, cfg)
        with pytest.raises(SingularTime):
            dynamics.well_continuity_series(mode, cfg, np.array([0.0, 1.0]))

    def test_dpdt_matches_difference_of_probability(self):
        cfg = cfg_of(0.5)
        mode = dynamics.well_mode(2, math.pi, cfg)
        times = np.array([0.5, 1.25, 3.0])
        dpdt, _ = dynamics.well_continuity_series(mode, cfg, times)
        h = 1e-4

        def prob(t):
            return abs(dynamics.well_amplitude(mode, cfg, float(t))) ** 2

        fd = np.array([(prob(t + h) - prob(t - h)) / (2.0 * h)
                       for t in times])
        assert np.abs(dpdt - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_unit_order_has_no_source(self):
        # At nu = 1 the memory field is A itself and |A| stays 1.
        cfg = cfg_of(1.0)
        mode = dynamics.well_mode(1, math.pi, cfg)
        dpdt, int_s = dynamics.well_continuity_series(mode, cfg,
                                                      np.array([0.5, 2.0]))
        assert np.abs(dpdt).max() < 1e-10
        assert np.abs(int_s).max() < 1e-10

    def test_rejects_sample_that_snaps_to_zero(self):
        # 1e-3 snaps to t_k = 0, where the source is singular at every order.
        for nu in (0.5, 1.0):
            cfg = cfg_of(nu)
            mode = dynamics.well_mode(1, math.pi, cfg)
            with pytest.raises(SingularTime):
                dynamics.well_continuity_series(mode, cfg, np.array([1e-3]))

    @pytest.mark.parametrize("a", [1.0, math.pi])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [0.3, 0.6, 0.9, 1.0])
    def test_closed_form_source_matches_dpdt(self, nu, n, a):
        # Atilde comes from the recast equation, so the exact integrals of
        # the mode leave the source equal to dP/dt up to rounding.  At
        # nu = 1 dP/dt is 0, and the source terms are of size lambda_n.
        cfg = cfg_of(nu)
        mode = dynamics.well_mode(n, a, cfg)
        dpdt, int_s = dynamics.well_continuity_series(
            mode, cfg, np.linspace(0.5, 3.0, 6))
        scale = float(np.abs(dpdt).max()) + mode.lambda_n
        assert np.abs(dpdt - int_s).max() <= 1e-12 * scale
