import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, build_bare_hamiltonian,
                    build_mapped_hamiltonian, build_total_hamiltonian,
                    intracell_unitary)
from nhbath.lattice import rotate_cells
from oracles import operator_to_mapped, picture_unitary

# frozen reference: N=3 ring, t1 = t2 = gamma = 1
_H3_RING = np.array([
    [0.0, 1.0, -0.5j, 0.5, 0.5j, 0.5],
    [1.0, -1.0j, 0.5, 0.5j, 0.5, -0.5j],
    [0.5j, 0.5, 0.0, 1.0, -0.5j, 0.5],
    [0.5, -0.5j, 1.0, -1.0j, 0.5, 0.5j],
    [-0.5j, 0.5, 0.5j, 0.5, 0.0, 1.0],
    [0.5, 0.5j, 0.5, -0.5j, 1.0, -1.0j],
], dtype=complex)


class TestBareHamiltonian:
    def test_frozen_ring(self):
        H = build_bare_hamiltonian(LatticeParams(3, 1.0, 1.0, 1.0))
        np.testing.assert_allclose(H, _H3_RING, atol=1e-15)

    def test_open_drops_the_seam(self):
        ring = build_bare_hamiltonian(LatticeParams(4, 1.0, 1.0, 1.0))
        chain = build_bare_hamiltonian(LatticeParams(4, 1.0, 1.0, 1.0, "open"))
        diff = ring - chain
        # only the links between cell 4 and cell 1 disappear
        assert np.all(diff[2:6, 2:6] == 0)
        assert np.any(diff[6:, :2] != 0)

    def test_loss_only_on_b(self):
        H = build_bare_hamiltonian(LatticeParams(6, 1.2, 0.7, 0.9))
        d = np.diag(H)
        assert np.all(d[0::2] == 0)
        np.testing.assert_allclose(d[1::2], -0.9j)

    def test_hermitian_when_lossless(self):
        H = build_bare_hamiltonian(LatticeParams(6, 1.1, 0.6, 0.0, "open"))
        np.testing.assert_allclose(H, H.conj().T, atol=1e-15)

    def test_anti_hermitian_part_is_pure_loss(self):
        # passivity: (H - H^dag)/2i is diagonal and non-positive
        H = build_bare_hamiltonian(LatticeParams(7, 1.0, 2.0, 1.3))
        A = (H - H.conj().T) / 2j
        np.testing.assert_allclose(A, np.diag(np.diag(A)), atol=1e-15)
        assert np.all(np.diag(A).real <= 0)


class TestMappedHamiltonian:
    def test_asymmetric_intracell_rates(self):
        p = LatticeParams(4, 1.0, 1.0, 1.5, "open")
        H = build_mapped_hamiltonian(p)
        assert H[0, 1] == pytest.approx(1.0 + 0.75)  # alpha <- beta gains
        assert H[1, 0] == pytest.approx(1.0 - 0.75)  # beta <- alpha loses
        np.testing.assert_allclose(np.diag(H), -0.75j)
        # reciprocal inter-cell link beta_n <-> alpha_{n+1}
        assert H[2, 1] == pytest.approx(1.0)
        assert H[1, 2] == pytest.approx(1.0)

    def test_hopping_vanishes_at_ep(self):
        H = build_mapped_hamiltonian(LatticeParams(4, 1.0, 1.0, 2.0, "open"))
        assert H[1, 0] == 0.0  # fully directional: nothing flows backwards
        assert H[0, 1] == pytest.approx(2.0)

    @pytest.mark.parametrize("gamma", [0.0, 0.7, 2.0, 3.5])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_is_rotation_of_bare(self, gamma, boundary):
        p = LatticeParams(6, 1.0, 1.0, gamma, boundary)
        got = operator_to_mapped(build_bare_hamiltonian(p))
        np.testing.assert_allclose(got, build_mapped_hamiltonian(p), atol=1e-14)

    def test_generalized_hoppings_also_rotate(self):
        p = LatticeParams(7, 1.3, 0.8, 1.1, "open")
        got = operator_to_mapped(build_bare_hamiltonian(p))
        np.testing.assert_allclose(got, build_mapped_hamiltonian(p), atol=1e-14)


class TestTransformPicture:
    def test_unitary(self):
        U = picture_unitary(5, n_emitters=2)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(12), atol=1e-15)
        np.testing.assert_allclose(U[:2, :2], np.eye(2))
        np.testing.assert_allclose(intracell_unitary() @ intracell_unitary().conj().T,
                                   np.eye(2), atol=1e-15)

    def test_state_round_trip(self):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        mapped = rotate_cells(amps)
        np.testing.assert_allclose(mapped, amps @ picture_unitary(4).T, atol=1e-15)
        np.testing.assert_allclose(rotate_cells(mapped, to_mapped=False), amps,
                                   atol=1e-15)


class TestTotalHamiltonian:
    def test_original_couples_b_only(self):
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        lay = EmitterLayout([2, 4], 0.1)
        H = build_total_hamiltonian(p, lay)
        assert H.shape == (12, 12)
        assert H[0, 2 + p.b_index(2)] == pytest.approx(0.1)
        assert H[2 + p.b_index(2), 0] == pytest.approx(0.1)
        assert H[1, 2 + p.b_index(4)] == pytest.approx(0.1)
        assert H[0, 2 + p.a_index(2)] == 0.0

    def test_mapped_coupling_is_bilocal(self):
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        lay = EmitterLayout([3], 0.1)
        H = build_total_hamiltonian(p, lay, picture="mapped")
        gr = 0.1 / np.sqrt(2)
        assert H[0, 1 + p.b_index(3)] == pytest.approx(gr)
        assert H[0, 1 + p.a_index(3)] == pytest.approx(-1j * gr)
        assert H[1 + p.a_index(3), 0] == pytest.approx(1j * gr)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_pictures_are_unitarily_equivalent(self, boundary):
        p = LatticeParams(6, 1.0, 1.0, 1.3, boundary)
        lay = EmitterLayout([1, 4], 0.2)
        Ho = build_total_hamiltonian(p, lay)
        Hm = build_total_hamiltonian(p, lay, picture="mapped")
        np.testing.assert_allclose(
            operator_to_mapped(Ho, n_emitters=2), Hm, atol=1e-14)

    def test_out_of_range_cell(self):
        p = LatticeParams(4, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            build_total_hamiltonian(p, EmitterLayout([5], 0.1))
