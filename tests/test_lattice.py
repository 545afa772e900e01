import numpy as np
import pytest
from scipy.sparse import csr_array

from nhbath import (EmitterLayout, LatticeParams, build_bare_hamiltonian,
                    build_total_hamiltonian, intracell_unitary)
from nhbath.lattice import rotate_cells
from oracles import dense_hamiltonian, operator_to_mapped, picture_unitary

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
        H = build_bare_hamiltonian(LatticeParams(3, 1.0, 1.0, 1.0)).toarray()
        np.testing.assert_allclose(H, _H3_RING, atol=1e-15)

    def test_open_drops_the_seam(self):
        ring = build_bare_hamiltonian(LatticeParams(4, 1.0, 1.0, 1.0))
        chain = build_bare_hamiltonian(LatticeParams(4, 1.0, 1.0, 1.0, "open"))
        diff = (ring - chain).toarray()
        # only the links between cell 4 and cell 1 disappear
        assert np.all(diff[2:6, 2:6] == 0)
        assert np.any(diff[6:, :2] != 0)

    def test_loss_only_on_b(self):
        H = build_bare_hamiltonian(LatticeParams(6, 1.2, 0.7, 0.9)).toarray()
        d = np.diag(H)
        assert np.all(d[0::2] == 0)
        np.testing.assert_allclose(d[1::2], -0.9j)

    def test_hermitian_when_lossless(self):
        H = build_bare_hamiltonian(LatticeParams(6, 1.1, 0.6, 0.0, "open")).toarray()
        np.testing.assert_allclose(H, H.conj().T, atol=1e-15)

    def test_anti_hermitian_part_is_pure_loss(self):
        # passivity: (H - H^dag)/2i is diagonal and non-positive
        H = build_bare_hamiltonian(LatticeParams(7, 1.0, 2.0, 1.3)).toarray()
        A = (H - H.conj().T) / 2j
        np.testing.assert_allclose(A, np.diag(np.diag(A)), atol=1e-15)
        assert np.all(np.diag(A).real <= 0)


class TestSparseAssembly:
    """Every Hamiltonian is CSR, stored exactly as `csr_array` stores the
    matrix written entry by entry (`oracles.dense_hamiltonian`): the same
    index arrays and the same data bytes, signed zeros included."""

    @pytest.mark.parametrize("t1,t2,gamma", [(1.0, 1.0, 0.0), (1.0, 1.0, 1.5),
                                             (1.0, 1.0, 2.0), (1.3, 0.8, 1.5)])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 400])
    def test_bitwise_equal_to_dense_oracle(self, n, boundary, t1, t2, gamma):
        p = LatticeParams(n, t1, t2, gamma, boundary)
        for cells in ((), ((n + 1) // 2,), (1, n)):
            H = (build_total_hamiltonian(p, EmitterLayout(cells, 0.1)) if cells
                 else build_bare_hamiltonian(p))
            want = dense_hamiltonian(p, cells, 0.1)
            ref = csr_array(want)
            assert type(H) is csr_array
            for got, expected in ((H.indptr, ref.indptr),
                                  (H.indices, ref.indices), (H.data, ref.data)):
                assert got.dtype == expected.dtype
                assert got.tobytes() == expected.tobytes(), cells
            assert H.toarray().tobytes() == want.tobytes()
            # a, b rows: t1, loss, two links each way, the emitter
            assert np.diff(H.indptr)[len(cells):].max() <= 7

    def test_ring_of_two_sums_both_links(self):
        # at N = 2 the links 1 -> 2 and 2 -> 1 land on the same blocks: the
        # imaginary same-sublattice links cancel and are not stored
        H = build_bare_hamiltonian(LatticeParams(2, 1.0, 1.0, 1.0)).toarray()
        np.testing.assert_array_equal(H, [[0, 1, 0, 1], [1, -1j, 1, 0],
                                          [0, 1, 0, 1], [1, 0, 1, -1j]])
        assert build_bare_hamiltonian(LatticeParams(2, 1.0, 1.0, 1.0)).nnz == 10


class TestMappedHamiltonian:
    """The original-picture Hamiltonians rotated cell by cell: the
    Hatano-Nelson chain of the mapped picture."""

    @pytest.mark.parametrize("t1,t2,gamma,boundary", [
        (1.0, 1.0, 1.5, "open"), (1.0, 1.0, 0.0, "periodic"),
        (1.0, 1.0, 3.5, "periodic"), (1.3, 0.8, 1.1, "open")])
    def test_asymmetric_intracell_rates(self, t1, t2, gamma, boundary):
        p = LatticeParams(4, t1, t2, gamma, boundary)
        H = operator_to_mapped(build_bare_hamiltonian(p))
        # on-site -i gamma/2; within a cell alpha <- beta gains (t1 + gamma/2)
        # and beta <- alpha loses (t1 - gamma/2); reciprocal t2 between beta_n
        # and alpha_(n+1), across the seam too on the ring; nothing else
        want = np.diag(np.full(8, -0.5j * gamma))
        want += np.diag(np.tile([t1 + gamma / 2, t2], 4)[:-1], 1)
        want += np.diag(np.tile([t1 - gamma / 2, t2], 4)[:-1], -1)
        if p.periodic:
            want[0, -1] = want[-1, 0] = t2
        np.testing.assert_allclose(H, want, atol=1e-14)

    def test_hopping_vanishes_at_ep(self):
        p = LatticeParams(4, 1.0, 1.0, 2.0, "open")
        H = operator_to_mapped(build_bare_hamiltonian(p))
        assert H[1, 0] == 0.0  # fully directional: nothing flows backwards
        assert H[0, 1] == pytest.approx(2.0)


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
        H = build_total_hamiltonian(p, lay).toarray()
        assert H.shape == (12, 12)
        assert H[0, 2 + p.b_index(2)] == pytest.approx(0.1)
        assert H[2 + p.b_index(2), 0] == pytest.approx(0.1)
        assert H[1, 2 + p.b_index(4)] == pytest.approx(0.1)
        assert H[0, 2 + p.a_index(2)] == 0.0

    def test_mapped_coupling_is_bilocal(self):
        p = LatticeParams(5, 1.0, 1.0, 1.0)
        lay = EmitterLayout([3], 0.1)
        H = operator_to_mapped(build_total_hamiltonian(p, lay), n_emitters=1)
        gr = 0.1 / np.sqrt(2)
        assert H[0, 1 + p.b_index(3)] == pytest.approx(gr)
        assert H[0, 1 + p.a_index(3)] == pytest.approx(-1j * gr)
        assert H[1 + p.a_index(3), 0] == pytest.approx(1j * gr)

    def test_out_of_range_cell(self):
        p = LatticeParams(4, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            build_total_hamiltonian(p, EmitterLayout([5], 0.1))
