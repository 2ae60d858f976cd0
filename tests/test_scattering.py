"""Tests for the Kirchhoff scattering substrate."""

import numpy as np
import pytest

from repro.core.oned import Gaussian1D, ProfileGenerator
from repro.scattering.kirchhoff import (
    coherent_reflection_coefficient,
    ka_angular_kernel,
    ka_incoherent_nrcs_gaussian,
    rayleigh_parameter,
)
from repro.scattering.monte_carlo import (
    coherent_attenuation_curve,
    run_ensemble,
    scattering_amplitude,
    tukey_taper,
)

K = 2.0 * np.pi  # wavelength = 1 in profile units
THETA_I = np.deg2rad(20.0)


class TestAnalytic:
    def test_rayleigh_parameter_values(self):
        g = rayleigh_parameter(K, 0.1, 0.0, np.array(0.0))
        assert float(g) == pytest.approx((2.0 * K * 0.1) ** 2)

    def test_rayleigh_parameter_grazing_smaller(self):
        g_normal = rayleigh_parameter(K, 0.1, 0.0, np.array(0.0))
        g_grazing = rayleigh_parameter(
            K, 0.1, np.deg2rad(80.0), np.array(np.deg2rad(80.0))
        )
        assert g_grazing < 0.2 * g_normal

    def test_coherent_coefficient_limits(self):
        assert coherent_reflection_coefficient(K, 0.0, THETA_I) == 1.0
        assert coherent_reflection_coefficient(K, 10.0, THETA_I) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            rayleigh_parameter(-1.0, 0.1, 0.0, np.array(0.0))
        with pytest.raises(ValueError):
            rayleigh_parameter(K, -0.1, 0.0, np.array(0.0))
        with pytest.raises(ValueError):
            ka_incoherent_nrcs_gaussian(K, 0.1, 0.0, THETA_I, np.array(0.0))
        with pytest.raises(ValueError):
            ka_angular_kernel(np.deg2rad(90.0), np.array(np.deg2rad(-90.0)))

    def test_incoherent_nrcs_peaks_near_specular_when_smooth(self):
        thetas = np.deg2rad(np.linspace(-70, 70, 281))
        sigma = ka_incoherent_nrcs_gaussian(K, 0.05, 2.0, THETA_I, thetas)
        peak = np.rad2deg(thetas[np.argmax(sigma)])
        assert abs(peak - 20.0) < 6.0

    def test_incoherent_nrcs_broadens_with_roughness(self):
        thetas = np.deg2rad(np.linspace(-70, 70, 281))
        def width(h):
            sig = ka_incoherent_nrcs_gaussian(K, h, 2.0, THETA_I, thetas)
            sig = sig / sig.max()
            return np.count_nonzero(sig > 0.5)
        assert width(0.4) > width(0.05)

    def test_series_converges(self):
        thetas = np.deg2rad(np.linspace(-60, 60, 61))
        s40 = ka_incoherent_nrcs_gaussian(K, 0.3, 2.0, THETA_I, thetas, 40)
        s80 = ka_incoherent_nrcs_gaussian(K, 0.3, 2.0, THETA_I, thetas, 80)
        assert np.allclose(s40, s80, rtol=1e-10)


class TestTaper:
    def test_tukey_limits(self):
        assert np.allclose(tukey_taper(64, 0.0), 1.0)
        hann = tukey_taper(65, 1.0)
        assert hann[0] == pytest.approx(0.0, abs=1e-12)
        assert hann[32] == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            tukey_taper(1)
        with pytest.raises(ValueError):
            tukey_taper(16, 1.5)


class TestAmplitude:
    @pytest.fixture
    def geometry(self):
        n, length = 2048, 200.0
        return np.linspace(0.0, length, n, endpoint=False), length / n

    def test_flat_specular_peak(self, geometry):
        x, dx = geometry
        thetas = np.deg2rad(np.linspace(-80.0, 80.0, 321))
        a = scattering_amplitude(x, np.zeros_like(x), K, THETA_I, thetas)
        peak = np.rad2deg(thetas[np.argmax(np.abs(a))])
        assert peak == pytest.approx(20.0, abs=1.0)

    def test_flat_peak_narrow(self, geometry):
        x, dx = geometry
        thetas = np.deg2rad(np.linspace(-80.0, 80.0, 641))
        a = np.abs(scattering_amplitude(x, np.zeros_like(x), K, THETA_I,
                                        thetas))
        half = np.count_nonzero(a > 0.5 * a.max())
        assert half < 12  # ~L/lambda = 200: sub-degree lobe

    def test_phase_only_depends_on_heights(self, geometry):
        x, dx = geometry
        rng = np.random.default_rng(0)
        f = 0.2 * rng.standard_normal(x.size)
        thetas = np.array([THETA_I])
        a1 = scattering_amplitude(x, f, K, THETA_I, thetas)
        a2 = scattering_amplitude(x, f + 0.0, K, THETA_I, thetas)
        assert a1 == pytest.approx(a2)

    def test_validation(self, geometry):
        x, dx = geometry
        with pytest.raises(ValueError):
            scattering_amplitude(x, np.zeros(3), K, THETA_I, np.array([0.0]))
        with pytest.raises(ValueError):
            scattering_amplitude(x, np.zeros_like(x), K, THETA_I,
                                 np.array([0.0]), taper=np.ones(5))


class TestEnsemble:
    def _profiles(self, h, n_prof, n=1024, length=100.0):
        gen = ProfileGenerator(Gaussian1D(h=h, cl=2.0), n, length)
        return [gen.generate(seed=s) for s in range(n_prof)], length / n

    def test_decomposition_identity(self):
        profiles, dx = self._profiles(0.1, 8)
        thetas = np.deg2rad(np.linspace(-40, 60, 51))
        ens = run_ensemble(profiles, dx=dx, k=K, theta_i=THETA_I,
                           theta_s=thetas)
        assert np.all(ens.incoherent_intensity >= 0.0)
        assert np.allclose(
            ens.coherent_intensity + ens.incoherent_intensity,
            ens.mean_intensity, atol=1e-12,
        )

    def test_rough_surface_mostly_incoherent(self):
        # g >> 1: the true coherent intensity is ~exp(-g) ~ 0; the
        # estimator |mean A|^2 carries a residual ~ incoherent/m, so use
        # enough realisations and a ratio the residual cannot reach.
        profiles, dx = self._profiles(0.5, 48)
        thetas = np.array([THETA_I])
        ens = run_ensemble(profiles, dx=dx, k=K, theta_i=THETA_I,
                           theta_s=thetas)
        assert ens.incoherent_intensity[0] > 4.0 * ens.coherent_intensity[0]

    def test_smooth_surface_mostly_coherent(self):
        profiles, dx = self._profiles(0.02, 12)  # g << 1
        thetas = np.array([THETA_I])
        ens = run_ensemble(profiles, dx=dx, k=K, theta_i=THETA_I,
                           theta_s=thetas)
        assert ens.coherent_intensity[0] > 5.0 * ens.incoherent_intensity[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ensemble([], dx=0.1, k=K, theta_i=THETA_I,
                         theta_s=np.array([0.0]))
        with pytest.raises(ValueError):
            run_ensemble([np.zeros(8), np.zeros(9)], dx=0.1, k=K,
                         theta_i=THETA_I, theta_s=np.array([0.0]))


class TestCoherentCurve:
    def test_matches_analytic_exp_g_half(self):
        n, length = 2048, 200.0
        dx = length / n

        def gen(h, seed):
            if h == 0.0:
                return np.zeros(n)
            g = ProfileGenerator(Gaussian1D(h=h, cl=2.0), n, length)
            return g.generate(seed=seed)

        hs, measured, analytic = coherent_attenuation_curve(
            gen, [0.05, 0.10, 0.15], dx=dx, k=K, theta_i=THETA_I,
            n_realisations=12
        )
        assert np.all(np.abs(measured - analytic) < 0.08)
        # monotone decay
        assert measured[0] > measured[1] > measured[2]


class TestUnifiedApi:
    """The PR 9 port onto the SurfaceGenerator/HeightField protocol."""

    def _fields(self, n_prof, n=512, length=50.0):
        gen = ProfileGenerator(Gaussian1D(h=0.1, cl=2.0), n, length)
        return [gen.generate(seed=s) for s in range(n_prof)], length / n

    def test_dx_inferred_from_heightfield_provenance(self):
        fields, dx = self._fields(4)
        assert fields[0].provenance["dx"] == pytest.approx(dx)
        thetas = np.array([THETA_I])
        inferred = run_ensemble(fields, k=K, theta_i=THETA_I, theta_s=thetas)
        explicit = run_ensemble(fields, dx=dx, k=K, theta_i=THETA_I,
                                theta_s=thetas)
        assert inferred.mean_amplitude == pytest.approx(
            explicit.mean_amplitude)

    def test_ensemble_preserves_provenance(self):
        fields, dx = self._fields(3)
        ens = run_ensemble(fields, k=K, theta_i=THETA_I,
                           theta_s=np.array([THETA_I]))
        assert ens.provenance["method"] == "convolution-1d"
        assert ens.provenance["experiment"]["n_realisations"] == 3
        assert ens.provenance["experiment"]["k"] == pytest.approx(K)

    def test_bare_arrays_require_dx(self):
        with pytest.raises(TypeError, match="dx"):
            run_ensemble([np.zeros(64)], k=K, theta_i=THETA_I,
                         theta_s=np.array([0.0]))

    def test_curve_accepts_heightfield_generator(self):
        n, length = 256, 25.0

        def make(h, seed):
            if h == 0.0:
                return ProfileGenerator(
                    Gaussian1D(h=0.05, cl=2.0), n, length
                ).generate(seed=0) * 0.0
            return ProfileGenerator(
                Gaussian1D(h=h, cl=2.0), n, length
            ).generate(seed=seed)

        # dx comes from the HeightField provenance, no keyword needed
        hs, measured, analytic = coherent_attenuation_curve(
            make, [0.05], k=K, theta_i=THETA_I, n_realisations=4
        )
        assert measured.shape == analytic.shape == (1,)
