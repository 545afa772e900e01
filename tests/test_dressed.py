import dataclasses

import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, build_total_hamiltonian,
                    bulk_dressed_state, coupling_from_dressed,
                    edge_dressed_state, verify_eigenstate)
from oracles import picture_unitary


def _chain(n_cells):
    return LatticeParams(n_cells, 1.0, 1.0, 2.0, "open")


def _hamiltonian(params, source_cell, g):
    lay = EmitterLayout([source_cell], g)
    return build_total_hamiltonian(params, lay)


class TestBulkDressedState:
    def test_cloud_shape(self):
        p = _chain(9)
        ds = bulk_dressed_state(p, 4, 0.1)
        amps = ds.photon_amps
        c = 0.1 / (np.sqrt(2) * 2.0)
        assert amps[p.b_index(4)] == pytest.approx(-1j * c)
        assert amps[p.a_index(5)] == pytest.approx(-c)
        assert np.count_nonzero(amps) == 2
        assert ds.energy == pytest.approx(-1j * 0.1 ** 2 / 4)

    def test_ring_wraps_the_cloud(self):
        p = LatticeParams(6, 1.0, 1.0, 2.0)
        ds = bulk_dressed_state(p, 6, 0.1)
        assert ds.photon_amps[p.a_index(1)] != 0.0

    def test_residual_scales_as_g_cubed(self):
        p = _chain(9)
        res = []
        for g in (0.05, 0.025, 0.0125):
            ds = bulk_dressed_state(p, 4, g)
            res.append(verify_eigenstate(_hamiltonian(p, 4, g), ds))
        for r1, r2 in zip(res, res[1:]):
            assert r1 / r2 == pytest.approx(8.0, rel=0.15)

    def test_rejected_away_from_directional_point(self):
        with pytest.raises(ValueError):
            bulk_dressed_state(LatticeParams(9, 1.0, 1.0, 1.0, "open"), 4, 0.1)
        with pytest.raises(ValueError):
            bulk_dressed_state(LatticeParams(9, 1.3, 0.8, 2.6, "open"), 4, 0.1)

    @pytest.mark.parametrize("g", [0.0, -0.1, float("nan"), float("inf"),
                                   pytest.param(10 ** 400, id="10**400")])
    def test_g_must_be_finite_and_positive(self, g):
        with pytest.raises(ValueError, match="g must be finite"):
            bulk_dressed_state(_chain(9), 4, g)
        with pytest.raises(ValueError, match="g must be finite"):
            edge_dressed_state(_chain(9), g)

    def test_last_cell_of_chain_rejected(self):
        with pytest.raises(ValueError, match="edge"):
            bulk_dressed_state(_chain(9), 9, 0.1)
        for cell in (2.0, 1.5):
            with pytest.raises(ValueError, match="must be an integer"):
                bulk_dressed_state(_chain(9), cell, 0.1)


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
        amps = edge_dressed_state(p, 0.05).photon_amps
        # bitwise, signs of zero included: dressed.csv writes these bytes
        assert amps.tobytes() == _edge_cloud_by_cell(p, 0.05).tobytes()

    @pytest.mark.parametrize("n_cells", [9, 10])
    def test_residual_scales_as_g_cubed(self, n_cells):
        p = _chain(n_cells)
        res = []
        for g in (0.05, 0.025, 0.0125):
            ds = edge_dressed_state(p, g)
            res.append(verify_eigenstate(_hamiltonian(p, n_cells, g), ds))
        for r1, r2 in zip(res, res[1:]):
            assert r1 / r2 == pytest.approx(8.0, rel=0.15)

    def test_cloud_fills_the_chain(self):
        p = _chain(7)
        ds = edge_dressed_state(p, 0.1)
        amps = ds.photon_amps
        assert np.all(np.abs(amps) > 0)
        c = 0.1 / (np.sqrt(2) * 2.0)
        # doubled weight at the ends of the cloud
        assert abs(amps[p.a_index(1)]) == pytest.approx(2 * c)
        assert abs(amps[p.b_index(7)]) == pytest.approx(2 * c)
        assert abs(amps[p.b_index(3)]) == pytest.approx(c)

    def test_requires_open_chain(self):
        with pytest.raises(ValueError, match="open"):
            edge_dressed_state(LatticeParams(9, 1.0, 1.0, 2.0), 0.1)


class TestCouplingFromDressed:
    def test_bulk_couplings_are_directional(self):
        p = _chain(9)
        g = 0.1
        gam_eff = g ** 2 / 4
        ds = bulk_dressed_state(p, 4, g)
        assert coupling_from_dressed(ds, 5) == pytest.approx(1j * gam_eff)
        assert coupling_from_dressed(ds, 4) == pytest.approx(-1j * gam_eff)
        assert coupling_from_dressed(ds, 3) == 0.0
        assert coupling_from_dressed(ds, 6) == 0.0

    @pytest.mark.parametrize("n_cells,sign", [(9, 1), (10, -1)])
    def test_edge_state_couples_across_the_boundary(self, n_cells, sign):
        g = 0.1
        gam_eff = g ** 2 / 4
        ds = edge_dressed_state(_chain(n_cells), g)
        # the chain-filling cloud reaches cell 1 with the boundary sign ...
        assert coupling_from_dressed(ds, 1) == pytest.approx(sign * 1j * gam_eff)
        # ... and interferes away on every bulk cell
        for probe in (3, 5, n_cells - 2):
            assert abs(coupling_from_dressed(ds, probe)) < 1e-15

    @pytest.mark.parametrize("boundary,kind,n_cells,cell", [
        ("open", "bulk", 2, 1), ("open", "bulk", 9, 1), ("open", "bulk", 9, 8),
        ("open", "edge", 2, 2), ("open", "edge", 3, 3), ("open", "edge", 10, 10),
        ("periodic", "bulk", 2, 2), ("periodic", "bulk", 9, 1),
        ("periodic", "bulk", 9, 8), ("periodic", "bulk", 10, 10)])
    def test_every_probe_matches_the_dense_rotation(self, boundary, kind,
                                                    n_cells, cell):
        p = LatticeParams(n_cells, 1.0, 1.0, 2.0, boundary)
        g = 0.1
        ds = (bulk_dressed_state(p, cell, g) if kind == "bulk"
              else edge_dressed_state(p, g))
        want = g * (picture_unitary(n_cells).conj().T @ ds.photon_amps)[1::2]
        got = [coupling_from_dressed(ds, c) for c in range(1, n_cells + 1)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_probe_range_checked(self):
        ds = bulk_dressed_state(_chain(9), 4, 0.1)
        with pytest.raises(ValueError):
            coupling_from_dressed(ds, 10)
        for probe in (3.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                coupling_from_dressed(ds, probe)


class TestVerifyEigenstate:
    def test_wrong_ansatz_is_first_order(self):
        p = _chain(9)
        g = 0.01
        ds = bulk_dressed_state(p, 4, g)
        # undressed emitter misses the cloud
        ds_bad = dataclasses.replace(ds, photon_amps=np.zeros_like(ds.photon_amps))
        good = verify_eigenstate(_hamiltonian(p, 4, g), ds)
        bad = verify_eigenstate(_hamiltonian(p, 4, g), ds_bad)
        assert bad > 100 * good

    def test_dimension_mismatch(self):
        ds = bulk_dressed_state(_chain(9), 4, 0.1)
        with pytest.raises(ValueError):
            verify_eigenstate(np.eye(4), ds)
