import dataclasses

import numpy as np
import pytest

from nhbath import (LatticeParams, band_centroid, bloch_matrix, bloch_spectrum,
                    build_bare_hamiltonian, obc_spectrum, point_gap_winding)
from oracles import dense_obc_eig, hausdorff, mp_obc_eigenvalues

# (t1, t2) of the open-chain checks: uniform (as integers, which the chain
# must read as floats), t1 < t2 and t1 > t2
HOPPINGS = [(1, 1), (0.7, 1.3), (1.5, 0.6)]


def _sorted_multiset(evs):
    return np.array(sorted(evs, key=lambda z: (round(z.real, 9), z.imag)))


class TestBlochMatrix:
    def test_entries(self):
        m = bloch_matrix(LatticeParams(8, 1.0, 2.0, 0.5), np.pi / 2)
        assert m[0, 0] == pytest.approx(-2.0)
        assert m[1, 1] == pytest.approx(2.0 - 0.5j)
        assert m[0, 1] == pytest.approx(1.0)
        assert m[1, 0] == pytest.approx(1.0)

    def test_frozen_eigenvalues(self):
        # independent 2x2 diagonalization, q = pi/3, t1 = t2 = gamma = 1
        bm = bloch_matrix(LatticeParams(8, 1.0, 1.0, 1.0), np.pi / 3)
        got = _sorted_multiset(np.linalg.eigvals(bm))
        want = np.array([-1.678264080630295 - 0.24198774383016344j,
                         1.678264080630295 - 0.7580122561698366j])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_determinant(self):
        # a stack over an array of q is the scalar blocks, entry for entry,
        # and det(B(q) - z) is the product of the shifted eigenvalues
        p = LatticeParams(8, 1.0, 1.0, 1.0)
        qs = np.array([[0.3, 1.1, -2.0], [np.pi, 0.0, 5.5]])
        stack = bloch_matrix(p, qs)
        assert stack.shape == (2, 3, 2, 2)
        z = 0.2 - 0.1j
        for idx in np.ndindex(qs.shape):
            np.testing.assert_array_equal(stack[idx], bloch_matrix(p, qs[idx]))
            e1, e2 = np.linalg.eigvals(stack[idx])
            assert np.linalg.det(stack[idx] - z * np.eye(2)) == pytest.approx(
                (e1 - z) * (e2 - z))


class TestBlochSpectrum:
    @pytest.mark.parametrize("params", [
        LatticeParams(8, 1.0, 1.0, 1.0),
        LatticeParams(9, 1.0, 2.0, 0.7),
        LatticeParams(12, 1.3, 0.8, 2.0),
    ])
    def test_matches_dense_multiset(self, params):
        evb = _sorted_multiset(bloch_spectrum(params).eigenvalues)
        evd = _sorted_multiset(np.linalg.eigvals(build_bare_hamiltonian(params)))
        np.testing.assert_allclose(evb, evd, atol=1e-12)

    def test_total_loss_is_conserved(self):
        # trace: sum of imaginary parts equals -N*gamma under both boundaries
        p = LatticeParams(10, 1.0, 1.0, 1.5)
        assert bloch_spectrum(p).eigenvalues.imag.sum() == pytest.approx(-15.0)
        po = dataclasses.replace(p, boundary="open")
        assert obc_spectrum(po).eigenvalues.imag.sum() == pytest.approx(-15.0)

    def test_requires_periodic(self):
        with pytest.raises(ValueError):
            bloch_spectrum(LatticeParams(8, 1.0, 1.0, 1.0, "open"))


class TestDenseSpectrum:
    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("ratio", [0.5, 1.9, 2.5, 4.0])  # gamma / t1
    @pytest.mark.parametrize("t1, t2", HOPPINGS)
    def test_matches_dense_oracle(self, t1, t2, ratio, n):
        # gamma on both sides of the exceptional point 2*t1; dense eig is
        # accurate on chains this short
        p = LatticeParams(n, t1, t2, ratio * t1, "open")
        got = obc_spectrum(p).eigenvalues
        assert got.shape == (2 * n,)
        assert hausdorff(got, dense_obc_eig(p)[0]) < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 1.9, 2.5, 4.0])
    def test_matches_extended_precision(self, gamma):
        p = LatticeParams(6, 1.0, 1.0, gamma, "open")
        assert hausdorff(obc_spectrum(p).eigenvalues,
                         mp_obc_eigenvalues(p)) < 1e-13

    @pytest.mark.parametrize("t1, t2, n", [(1, 1, 10), (0.7, 1.3, 7),
                                           (1.5, 0.6, 2), (0.3, 2.2, 400)])
    def test_exceptional_point_is_dimers(self, t1, t2, n):
        # at gamma = 2*t1 the gauge chain splits into an isolated site at
        # each end and N - 1 dimers of hopping t2
        got = obc_spectrum(LatticeParams(n, t1, t2, 2 * t1, "open")).eigenvalues
        want = np.r_[np.full(n - 1, -t2), 0.0, 0.0, np.full(n - 1, t2)] - 1j * t1
        np.testing.assert_array_equal(np.sort_complex(got), want)

    def test_passive_above_exceptional_point(self):
        # the p < 0 branch: no eigenvalue may grow, over gamma in (2, 4]
        worst = max(obc_spectrum(LatticeParams(400, 1.0, 1.0, g, "open"))
                    .eigenvalues.imag.max()
                    for g in np.linspace(2.0, 4.0, 21)[1:])
        assert worst <= 0.0

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 1.5, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("t1, t2", HOPPINGS)
    def test_defectivity_tracks_eigenvector_condition(self, t1, t2, ratio, n):
        # the closed form 1/cond(S) against the reciprocal condition number
        # of the dense unit-eigenvector matrix, away from the exceptional point
        p = LatticeParams(n, t1, t2, ratio * t1, "open")
        closed = obc_spectrum(p).defectivity
        assert closed == pytest.approx(
            abs((2 * t1 - ratio * t1) / (2 * t1 + ratio * t1)) ** (n / 2))
        s = np.linalg.svd(dense_obc_eig(p)[1], compute_uv=False)
        assert 0.1 <= (s[-1] / s[0]) / closed <= 10

    def test_obc_requires_open(self):
        with pytest.raises(ValueError):
            obc_spectrum(LatticeParams(8, 1.0, 1.0, 1.0))

    def test_defectivity_collapses_at_ep(self):
        mk = lambda g: LatticeParams(16, 1.0, 1.0, g, "open")
        at_ep = obc_spectrum(mk(2.0)).defectivity
        away = obc_spectrum(mk(0.5)).defectivity
        assert at_ep < 1e-6
        assert away > 1e-3

    def test_hermitian_limit_not_defective(self):
        res = obc_spectrum(LatticeParams(12, 1.0, 1.0, 0.0, "open"))
        assert res.defectivity > 0.1


class TestPointGapWinding:
    def test_nontrivial_loop(self):
        p = LatticeParams(8, 1.0, 2.0, 1.0)
        w = point_gap_winding(p, band_centroid(p, "upper"))
        assert w == -1

    def test_hermitian_spectrum_cannot_wind(self):
        p = LatticeParams(8, 1.0, 1.0, 0.0)
        assert point_gap_winding(p, 3.0 + 0.5j) == 0
        assert point_gap_winding(p, 0.1 + 1.0j) == 0

    def test_outside_every_loop(self):
        p = LatticeParams(8, 1.0, 2.0, 1.0)
        assert point_gap_winding(p, 10.0 - 10.0j) == 0

    def test_open_boundary_rejected(self):
        with pytest.raises(ValueError, match="periodic"):
            point_gap_winding(LatticeParams(8, 1.0, 2.0, 1.0, "open"), 0.0)

    def test_reference_on_curve_rejected(self):
        p = LatticeParams(8, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            point_gap_winding(p, 1.0 + 0.0j)  # inside the real spectral band


class TestBandCentroid:
    def test_loss_split_between_bands(self):
        p = LatticeParams(8, 1.0, 2.0, 1.0)
        up = band_centroid(p, "upper")
        lo = band_centroid(p, "lower")
        assert up.real > 0 > lo.real
        assert (up + lo).imag == pytest.approx(-1.0, abs=1e-12)

    def test_bad_band(self):
        with pytest.raises(ValueError):
            band_centroid(LatticeParams(8, 1.0, 2.0, 1.0), "middle")
