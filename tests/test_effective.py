import numpy as np
import pytest

from nhbath import (CellGreensBlock, EmitterLayout, LatticeParams, PoleData,
                    build_bare_hamiltonian, greens_obc, greens_pbc,
                    heff_closed_form, heff_numeric, interaction_range)


def dense_resolvent_bb(params, m, n, energy=0.0):
    """Brute-force oracle: b-row of (E - H)^(-1) columns from dense solves."""
    H = build_bare_hamiltonian(params)
    A = energy * np.eye(H.shape[0]) - H
    rhs = np.zeros(H.shape[0], dtype=complex)
    rhs[params.b_index(n)] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
        if np.linalg.norm(A @ x - rhs) > 1e-8:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        x = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return x[params.b_index(m)]


def dense_resolvent_block(params, n):
    H = build_bare_hamiltonian(params)
    G = np.linalg.inv(-H)
    i = 2 * (n % params.n_cells)
    return G[i:i + 2, 0:2]


class TestPoleData:
    def test_uniform_model_poles(self):
        pd = PoleData.from_params(LatticeParams(9, 1.0, 1.0, 1.0))
        assert pd.w_plus == pytest.approx(-1.0)
        assert pd.w_minus == pytest.approx(-1.0 / 3.0)
        assert pd.kappa == pytest.approx(-1.0 / 3.0)

    def test_kappa_vanishes_at_ep(self):
        pd = PoleData.from_params(LatticeParams(9, 1.0, 1.0, 2.0))
        assert abs(pd.kappa) < 1e-15
        assert abs(pd.w_minus) < 1e-15

    def test_w_minus_inside_unit_circle(self):
        for gamma in (0.3, 1.0, 2.0, 5.0):
            pd = PoleData.from_params(LatticeParams(9, 1.1, 0.9, gamma))
            assert abs(pd.w_minus) < 1.0 < abs(pd.w_plus)


class TestGreensPbc:
    @pytest.mark.parametrize("params", [
        LatticeParams(9, 1.0, 1.0, 1.0),
        LatticeParams(9, 1.0, 1.0, 0.5),
        LatticeParams(15, 1.0, 1.0, 4.0),
        LatticeParams(7, 1.3, 0.8, 1.1),
        LatticeParams(8, 1.0, 2.0, 0.5),   # even N is fine when t1 != t2
    ])
    def test_full_block_vs_dense_oracle(self, params):
        for n in range(params.n_cells):
            got = greens_pbc(params, n)
            want = dense_resolvent_block(params, n)
            np.testing.assert_allclose(got.block, want, atol=1e-11)

    @pytest.mark.parametrize("params", [
        LatticeParams(9, 1.0, 1.0, 2.0),
        LatticeParams(15, 1.0, 1.0, 2.0),
        LatticeParams(7, 1.2, 0.7, 2.4),
    ])
    def test_confluent_pole_at_ep(self, params):
        # gamma = 2*t1 merges two poles; the dedicated branch must stay exact
        for n in range(params.n_cells):
            got = greens_pbc(params, n)
            want = dense_resolvent_block(params, n)
            np.testing.assert_allclose(got.block, want, atol=1e-11)

    def test_frozen_value(self):
        got = greens_pbc(LatticeParams(9, 1.0, 1.0, 1.0), 2)
        assert got.bb == pytest.approx(-0.14814062182483234j, abs=1e-12)
        assert got.ab == pytest.approx(0.07407031091241618, abs=1e-12)
        assert got.aa == pytest.approx(0.5370351554562081j, abs=1e-12)

    def test_even_uniform_ring_bb_limit(self):
        # at even N with t1 == t2 the dense problem is singular; the residue
        # sum limit equals the pseudoinverse value plus a uniform
        # (-1)^n * i/(gamma*N) zero-mode shift
        for n_cells, gamma in [(10, 1.0), (8, 0.5), (12, 4.0)]:
            p = LatticeParams(n_cells, 1.0, 1.0, gamma)
            for n in range(n_cells):
                got = greens_pbc(p, n)
                shift = (-1) ** n * 1j / (gamma * n_cells)
                want = dense_resolvent_bb(p, n + 1, 1) + shift
                assert got.bb == pytest.approx(want, abs=2e-8)
                assert np.isnan(got.aa)  # other entries have no finite limit

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            greens_pbc(LatticeParams(9, 1.0, 1.0, 0.0), 1)

    def test_block_accessors(self):
        blk = CellGreensBlock(2, np.array([[1, 2], [3, 4]], dtype=complex))
        assert (blk.aa, blk.ab, blk.ba, blk.bb) == (1, 2, 3, 4)


class TestGreensObc:
    @pytest.mark.parametrize("n_cells,gamma", [
        (9, 1.0), (9, 2.0), (10, 1.0), (10, 2.0), (6, 0.7), (5, 0.5), (7, 4.0),
        (40, 1.0), (40, 2.0),
    ])
    def test_vs_dense_oracle(self, n_cells, gamma):
        p = LatticeParams(n_cells, 1.0, 1.0, gamma, "open")
        for m in range(1, n_cells + 1):
            for n in range(1, n_cells + 1):
                got = greens_obc(p, m, n)
                want = dense_resolvent_bb(p, m, n)
                assert got == pytest.approx(want, abs=1e-7)

    def test_generalized_hoppings(self):
        p = LatticeParams(7, 1.3, 0.8, 1.1, "open")
        for m in range(1, 8):
            for n in range(1, 8):
                assert greens_obc(p, m, n) == pytest.approx(
                    dense_resolvent_bb(p, m, n), abs=1e-11)

    def test_frozen_value(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0, "open")
        assert greens_obc(p, 5, 2) == pytest.approx(0.04938020773478684j, abs=1e-9)

    def test_cell_range_checked(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0, "open")
        with pytest.raises(ValueError):
            greens_obc(p, 0, 3)
        with pytest.raises(ValueError):
            greens_obc(p, 3, 10)


class TestHeffNumeric:
    def test_matches_resolvent_definition(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0)
        lay = EmitterLayout([2, 5, 8], 0.1)
        mat = heff_numeric(p, lay)
        assert mat.method == "numeric"
        for i, ci in enumerate(lay.cells):
            for j, cj in enumerate(lay.cells):
                want = 0.01 * dense_resolvent_bb(p, ci, cj)
                assert mat.entries[i, j] == pytest.approx(want, abs=1e-14)
        # scattered, unsorted cells on both boundaries, both methods: row =
        # target, column = source, so a transposed or mis-gathered index fails
        # (the odd ring keeps the closed form off the degenerate branch)
        lay = EmitterLayout([7, 2, 30, 15], 0.1)
        for p in (LatticeParams(41, 1.0, 1.0, 1.0),
                  LatticeParams(40, 1.0, 1.0, 1.0, "open")):
            for mat in (heff_numeric(p, lay),
                        heff_closed_form(p, lay, form="finite")):
                for i, ci in enumerate(lay.cells):
                    for j, cj in enumerate(lay.cells):
                        want = 0.01 * dense_resolvent_bb(p, ci, cj)
                        assert mat.entries[i, j] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("fault", ["solve_raises", "one_column_corrupted"])
    def test_lstsq_fallback(self, monkeypatch, fault):
        # solve() passes every column on every tier-1 input, so inject its
        # failure: a raise sends all columns to lstsq, a column that fails the
        # residual check sends only that one
        p = LatticeParams(9, 1.3, 0.8, 1.1, "open")
        lay = EmitterLayout([7, 2, 5], 0.1)
        A = -build_bare_hamiltonian(p)
        rows = [p.b_index(c) for c in lay.cells]
        want = np.empty((3, 3), dtype=complex)
        for j, r in enumerate(rows):
            rhs = np.zeros(A.shape[0], dtype=complex)
            rhs[r] = 1.0
            want[:, j] = 0.01 * np.linalg.lstsq(A, rhs, rcond=None)[0][rows]

        real_solve, real_lstsq = np.linalg.solve, np.linalg.lstsq
        bad_row = rows[1]
        sent = set()

        def solve(a, b):
            if fault == "solve_raises":
                raise np.linalg.LinAlgError("injected")
            return real_solve(a, b) + (b[bad_row] != 0)  # shift column 2

        def lstsq(a, b, rcond=None):
            sent.update(np.flatnonzero(b.reshape(len(b), -1).any(axis=1)))
            return real_lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "solve", solve)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        got = heff_numeric(p, lay).entries
        assert sent == (set(rows) if fault == "solve_raises" else {bad_row})
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_uniform_model_entries_purely_imaginary(self):
        p = LatticeParams(9, 1.0, 1.0, 1.3)
        lay = EmitterLayout(range(1, 10), 0.05)
        mat = heff_numeric(p, lay)
        assert np.max(np.abs(mat.entries.real)) < 1e-9 * np.max(np.abs(mat.entries.imag))

    def test_strong_coupling_warns(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning, match="second-order"):
            heff_numeric(p, EmitterLayout([1, 5], 0.5))

    def test_ep_fully_nonreciprocal_pattern(self):
        # directional limit: only self-energies, first subdiagonal and the
        # wrap-around corner survive
        p = LatticeParams(9, 1.0, 1.0, 2.0)
        lay = EmitterLayout(range(1, 10), 0.1)
        h = heff_numeric(p, lay).entries
        gam_eff = 0.1 ** 2 / 4
        np.testing.assert_allclose(np.diag(h), -1j * gam_eff, atol=1e-12)
        np.testing.assert_allclose(np.diag(h, -1), 1j * gam_eff, atol=1e-12)
        assert h[0, 8] == pytest.approx(1j * gam_eff, abs=1e-12)
        mask = np.ones_like(h, dtype=bool)
        np.fill_diagonal(mask, False)
        mask[np.arange(1, 9), np.arange(8)] = False
        mask[0, 8] = False
        assert np.max(np.abs(h[mask])) < 1e-12 * gam_eff


class TestHeffClosedForm:
    @pytest.mark.parametrize("n_cells", [5, 9, 15])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0])
    def test_finite_matches_numeric(self, n_cells, gamma):
        p = LatticeParams(n_cells, 1.0, 1.0, gamma)
        lay = EmitterLayout(range(1, n_cells + 1), 0.1)
        num = heff_numeric(p, lay).entries
        closed = heff_closed_form(p, lay, form="finite")
        assert closed.method == "closed_form_finite"
        scale = np.max(np.abs(num))
        np.testing.assert_allclose(closed.entries, num, atol=1e-9 * scale)

    def test_finite_obc_matches_numeric(self):
        for n_cells in (9, 10):
            p = LatticeParams(n_cells, 1.0, 1.0, 1.0, "open")
            lay = EmitterLayout(range(1, n_cells + 1), 0.1)
            num = heff_numeric(p, lay).entries
            closed = heff_closed_form(p, lay, form="finite").entries
            np.testing.assert_allclose(closed, num, atol=1e-6 * np.max(np.abs(num)))

    def test_asymptotic_geometric_decay(self):
        p = LatticeParams(40, 1.0, 1.0, 1.0)
        lay = EmitterLayout([5, 6, 7, 9], 0.05)
        mat = heff_closed_form(p, lay, form="asymptotic")
        h = mat.entries
        kappa = (1.0 - 2.0) / (1.0 + 2.0)
        nn = 1j * 4 * 0.05 ** 2 * 1.0 / (1.0 + 2.0) ** 2  # one-cell coupling
        # rightward couplings decay by kappa per extra cell, diagonal is common
        assert h[1, 0] == pytest.approx(nn, rel=1e-12)
        assert h[2, 1] == pytest.approx(nn, rel=1e-12)
        assert h[2, 0] == pytest.approx(nn * kappa, rel=1e-12)
        assert h[3, 2] == pytest.approx(nn * kappa, rel=1e-12)
        np.testing.assert_allclose(np.diag(h), -1j * 0.05 ** 2 / 3.0, rtol=1e-12)

    def test_asymptotic_agrees_with_numeric_on_long_ring(self):
        p = LatticeParams(60, 1.0, 1.0, 1.2)
        lay = EmitterLayout([10, 12, 15], 0.05)
        num = heff_numeric(p, lay).entries
        asym = heff_closed_form(p, lay, form="asymptotic").entries
        np.testing.assert_allclose(asym, num, atol=1e-10 * np.max(np.abs(num)))

    def test_obc_wrapped_pairs_pick_up_boundary_sign(self):
        for n_cells in (9, 10):
            sign = (-1) ** (n_cells + 1)
            ring = LatticeParams(n_cells, 1.0, 1.0, 1.0)
            chain = ring.replace(boundary="open")
            lay = EmitterLayout(range(1, n_cells + 1), 0.05)
            hp = heff_closed_form(ring, lay, form="asymptotic").entries
            ho = heff_closed_form(chain, lay, form="asymptotic").entries
            upper = np.triu(np.ones_like(hp.real, dtype=bool), 1)
            np.testing.assert_allclose(ho[upper], sign * hp[upper], rtol=1e-12)
            np.testing.assert_allclose(ho[~upper], hp[~upper], rtol=1e-12)

    def test_auto_selects_and_warns(self):
        lay = EmitterLayout([1, 3], 0.05)
        long_chain = LatticeParams(60, 1.0, 1.0, 1.0)
        assert heff_closed_form(long_chain, lay).method == "closed_form_asymptotic"
        short = LatticeParams(5, 1.0, 1.0, 1.0)
        with pytest.warns(UserWarning, match="finite"):
            assert heff_closed_form(short, lay).method == "closed_form_finite"

    def test_gamma_zero(self):
        p = LatticeParams(9, 1.0, 1.0, 0.0)
        lay = EmitterLayout([2, 5], 0.05)
        with pytest.warns(UserWarning, match="decay"):
            mat = heff_closed_form(p, lay)
        # non-decaying alternating couplings of magnitude g^2/J
        assert abs(mat.entries[1, 0]) == pytest.approx(0.05 ** 2, rel=1e-12)
        with pytest.raises(ValueError):
            heff_closed_form(p, lay, form="finite")

    def test_requires_uniform_hoppings(self):
        p = LatticeParams(9, 1.3, 0.8, 1.0)
        with pytest.raises(ValueError, match="t1 == t2"):
            heff_closed_form(p, EmitterLayout([1], 0.05))


class TestInteractionRange:
    def test_against_independent_formula(self):
        for gamma in np.linspace(0.1, 6.0, 20):
            kappa = abs((gamma - 2.0) / (gamma + 2.0))
            want = np.inf if kappa >= 1 else (0.0 if kappa == 0 else -1 / np.log(kappa))
            assert interaction_range(gamma, 1.0) == pytest.approx(want, abs=1e-12)

    def test_end_points(self):
        assert interaction_range(2.0, 1.0) == 0.0
        assert np.isinf(interaction_range(0.0, 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            interaction_range(1.0, 0.0)
        with pytest.raises(ValueError):
            interaction_range(-1.0, 1.0)
