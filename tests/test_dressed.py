import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, build_total_hamiltonian,
                    coupling_from_dressed, dressed_energy, dressed_state,
                    verify_eigenstate)
from nhbath.dressed import dressed_state_problems
from oracles import picture_unitary


def _chain(n_cells):
    return LatticeParams(n_cells, 1.0, 1.0, 2.0, "open")


def _hamiltonian(params, source_cell, g):
    lay = EmitterLayout([source_cell], g)
    return build_total_hamiltonian(params, lay)


class TestBulkDressedState:
    def test_cloud_shape(self):
        p = _chain(9)
        amps = dressed_state(p, 4, 0.1)
        c = 0.1 / (np.sqrt(2) * 2.0)
        assert amps[p.b_index(4)] == pytest.approx(-1j * c)
        assert amps[p.a_index(5)] == pytest.approx(-c)
        assert np.count_nonzero(amps) == 2
        assert dressed_energy(p, 0.1) == pytest.approx(-1j * 0.1 ** 2 / 4)

    def test_ring_wraps_the_cloud(self):
        p = LatticeParams(6, 1.0, 1.0, 2.0)
        amps = dressed_state(p, 6, 0.1)
        assert amps[p.a_index(1)] != 0.0
        assert np.count_nonzero(amps) == 2

    def test_residual_scales_as_g_cubed(self):
        p = _chain(9)
        res = []
        for g in (0.05, 0.025, 0.0125):
            res.append(verify_eigenstate(_hamiltonian(p, 4, g),
                                         dressed_state(p, 4, g),
                                         dressed_energy(p, g)))
        for r1, r2 in zip(res, res[1:]):
            assert r1 / r2 == pytest.approx(8.0, rel=0.15)

    def test_rejected_away_from_directional_point(self):
        for p, reason in [(LatticeParams(9, 1.0, 1.0, 1.0, "open"), "gamma = 2J"),
                          (LatticeParams(9, 1.3, 0.8, 2.6, "open"), "t1 == t2")]:
            assert [reason in r for r in dressed_state_problems(p)] == [True]
            for cell in (4, 9):  # bulk and edge alike
                with pytest.raises(ValueError, match=reason):
                    dressed_state(p, cell, 0.1)
        assert dressed_state_problems(_chain(9)) == []

    @pytest.mark.parametrize("g", [0.0, -0.1, float("nan"), float("inf"),
                                   pytest.param(10 ** 400, id="10**400")])
    def test_g_must_be_finite_and_positive(self, g):
        for cell in (4, 9):  # bulk and edge alike
            with pytest.raises(ValueError, match="g must be finite"):
                dressed_state(_chain(9), cell, g)

    def test_cell_must_be_an_integer_in_range(self):
        for cell in (2.0, 1.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                dressed_state(_chain(9), cell, 0.1)
        for cell in (0, 10):
            with pytest.raises(ValueError, match="out of range"):
                dressed_state(_chain(9), cell, 0.1)


def _edge_cloud_by_cell(params, g):
    """The edge state's photon amplitudes written cell by cell (reference)."""
    N = params.n_cells
    c = g / (np.sqrt(2) * params.gamma)
    amps = np.zeros(params.n_modes, dtype=complex)
    for n in range(1, N + 1):
        ph = (-1) ** (N + n)
        amps[params.a_index(n)] = -c * ph * (2 if n == 1 else 1)
        amps[params.b_index(n)] = -1j * c * ph * (2 if n == N else 1)
    return amps


class TestEdgeDressedState:
    @pytest.mark.parametrize("n_cells", [2, 3, 4, 5, 9, 10, 400])
    def test_cloud_equals_cell_by_cell_form(self, n_cells):
        p = _chain(n_cells)
        amps = dressed_state(p, n_cells, 0.05)
        # bitwise, signs of zero included: dressed.csv writes these bytes
        assert amps.tobytes() == _edge_cloud_by_cell(p, 0.05).tobytes()

    @pytest.mark.parametrize("n_cells", [9, 10])
    def test_residual_scales_as_g_cubed(self, n_cells):
        p = _chain(n_cells)
        res = []
        for g in (0.05, 0.025, 0.0125):
            res.append(verify_eigenstate(_hamiltonian(p, n_cells, g),
                                         dressed_state(p, n_cells, g),
                                         dressed_energy(p, g)))
        for r1, r2 in zip(res, res[1:]):
            assert r1 / r2 == pytest.approx(8.0, rel=0.15)

    def test_cloud_fills_the_chain(self):
        p = _chain(7)
        amps = dressed_state(p, 7, 0.1)
        assert np.all(np.abs(amps) > 0)
        c = 0.1 / (np.sqrt(2) * 2.0)
        # doubled weight at the ends of the cloud
        assert abs(amps[p.a_index(1)]) == pytest.approx(2 * c)
        assert abs(amps[p.b_index(7)]) == pytest.approx(2 * c)
        assert abs(amps[p.b_index(3)]) == pytest.approx(c)

    def test_requires_open_chain(self):
        # cell N of the ring is a bulk cell: its cloud wraps onto cell 1
        p = LatticeParams(9, 1.0, 1.0, 2.0)
        c = 0.1 / (np.sqrt(2) * 2.0)
        want = np.zeros(p.n_modes, dtype=complex)
        want[p.b_index(9)], want[p.a_index(1)] = -1j * c, -c
        assert dressed_state(p, 9, 0.1).tobytes() == want.tobytes()


class TestCouplingFromDressed:
    def test_bulk_couplings_are_directional(self):
        p = _chain(9)
        g = 0.1
        gam_eff = g ** 2 / 4
        amps = dressed_state(p, 4, g)
        assert coupling_from_dressed(amps, g, 5) == pytest.approx(1j * gam_eff)
        assert coupling_from_dressed(amps, g, 4) == pytest.approx(-1j * gam_eff)
        assert coupling_from_dressed(amps, g, 3) == 0.0
        assert coupling_from_dressed(amps, g, 6) == 0.0

    @pytest.mark.parametrize("n_cells,sign", [(9, 1), (10, -1)])
    def test_edge_state_couples_across_the_boundary(self, n_cells, sign):
        g = 0.1
        gam_eff = g ** 2 / 4
        amps = dressed_state(_chain(n_cells), n_cells, g)
        # the chain-filling cloud reaches cell 1 with the boundary sign ...
        assert coupling_from_dressed(amps, g, 1) == pytest.approx(
            sign * 1j * gam_eff)
        # ... and interferes away on every bulk cell
        for probe in (3, 5, n_cells - 2):
            assert abs(coupling_from_dressed(amps, g, probe)) < 1e-15

    @pytest.mark.parametrize("boundary,kind,n_cells,cell", [
        ("open", "bulk", 2, 1), ("open", "bulk", 9, 1), ("open", "bulk", 9, 8),
        ("open", "edge", 2, 2), ("open", "edge", 3, 3), ("open", "edge", 10, 10),
        ("periodic", "bulk", 2, 2), ("periodic", "bulk", 9, 1),
        ("periodic", "bulk", 9, 8), ("periodic", "bulk", 10, 10)])
    def test_every_probe_matches_the_dense_rotation(self, boundary, kind,
                                                    n_cells, cell):
        p = LatticeParams(n_cells, 1.0, 1.0, 2.0, boundary)
        g = 0.1
        amps = dressed_state(p, cell, g)
        # the cell alone picks the kind: two bulk sites or the whole chain
        assert np.count_nonzero(amps) == (2 if kind == "bulk" else p.n_modes)
        want = g * (picture_unitary(n_cells).conj().T @ amps)[1::2]
        got = [coupling_from_dressed(amps, g, c) for c in range(1, n_cells + 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_probe_range_checked(self):
        amps = dressed_state(_chain(9), 4, 0.1)
        with pytest.raises(ValueError):
            coupling_from_dressed(amps, 0.1, 10)
        for probe in (3.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                coupling_from_dressed(amps, 0.1, probe)


class TestVerifyEigenstate:
    def test_wrong_ansatz_is_first_order(self):
        p = _chain(9)
        g = 0.01
        amps = dressed_state(p, 4, g)
        energy = dressed_energy(p, g)
        good = verify_eigenstate(_hamiltonian(p, 4, g), amps, energy)
        # undressed emitter misses the cloud
        bad = verify_eigenstate(_hamiltonian(p, 4, g), np.zeros_like(amps),
                                energy)
        assert bad > 100 * good

    def test_dimension_mismatch(self):
        p = _chain(9)
        with pytest.raises(ValueError):
            verify_eigenstate(np.eye(4), dressed_state(p, 4, 0.1),
                              dressed_energy(p, 0.1))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n_cells", [2, 3, 9])
def test_every_cell_has_a_dressed_state(boundary, n_cells):
    # the boundary and the cell pick the state; each is exact to O(g^3)
    p = LatticeParams(n_cells, 1.0, 1.0, 2.0, boundary)
    for cell in range(1, n_cells + 1):
        res = [verify_eigenstate(_hamiltonian(p, cell, g),
                                 dressed_state(p, cell, g), dressed_energy(p, g))
               for g in (0.05, 0.025)]
        assert res[0] / res[1] == pytest.approx(8.0, rel=0.15), cell
