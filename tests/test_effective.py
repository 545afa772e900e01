import dataclasses

import mpmath as mp
import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, build_bare_hamiltonian,
                    greens_obc, heff_closed_form, heff_numeric,
                    interaction_range)


def dense_resolvent_bb(params, m, n, energy=0.0):
    """Brute-force oracle: b-row of (E - H)^(-1) columns from dense solves."""
    H = build_bare_hamiltonian(params).toarray()
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


def mp_resolvent_bb(params, digits=80, z="1e-40"):
    """Oracle in extended precision: bb entries (rows = target cells) of
    (z - H)^(-1) at a tiny real z, which also reaches the limit on the
    singular even uniform rings."""
    H = build_bare_hamiltonian(params).toarray()
    b = [params.b_index(c) for c in range(1, params.n_cells + 1)]
    with mp.workdps(digits):
        A = mp.mpf(z) * mp.eye(H.shape[0]) - mp.matrix(H.tolist())
        G = mp.inverse(A)
        return np.array([[complex(G[i, j]) for j in b] for i in b])


def finite_bb(params):
    """bb resolvent between every pair of cells, read from the finite
    closed form with g = 1."""
    lay = EmitterLayout(range(1, params.n_cells + 1), 1.0)
    return heff_closed_form(params, lay, form="finite").entries


class TestPoleData:
    # in the uniform model the bb resolvent has the single pole 1/kappa:
    # kappa = (gamma - 2J)/(gamma + 2J) is the per-cell ratio of the induced
    # couplings, and interaction_range its 1/e length
    def test_uniform_model_poles(self):
        p = LatticeParams(41, 1.0, 1.0, 1.0)
        kappa = (1.0 - 2.0) / (1.0 + 2.0)
        for h in (heff_numeric(p, EmitterLayout(range(1, 42), 0.1)).entries,
                  finite_bb(p)):
            ratio = h[2:6, 0] / h[1:5, 0]
            np.testing.assert_allclose(ratio, -1.0 / 3.0, rtol=1e-12)
            np.testing.assert_allclose(ratio, kappa, rtol=1e-12)
        assert interaction_range(1.0, 1.0) == pytest.approx(-1.0 / np.log(1 / 3))

    def test_kappa_vanishes_at_ep(self):
        h = finite_bb(LatticeParams(9, 1.0, 1.0, 2.0))
        assert np.count_nonzero(h[:, 0]) == 2  # self-energy, next cell only
        assert np.all(h[2:, 0] == 0)
        assert interaction_range(2.0, 1.0) == 0.0

    def test_w_minus_inside_unit_circle(self):
        # |kappa| < 1 for every gamma > 0: the couplings decay to the right
        for gamma in (0.3, 1.0, 3.0, 5.0):
            h = finite_bb(LatticeParams(41, 1.0, 1.0, gamma))
            ratio = np.abs(h[2:8, 0] / h[1:7, 0])
            assert np.all(ratio < 1.0)
            np.testing.assert_allclose(-1.0 / np.log(ratio),
                                       interaction_range(gamma, 1.0), rtol=1e-12)


class TestGreensPbc:
    # the ring resolvent's bb entries, from heff_closed_form(form="finite"),
    # against the dense solve at every cell offset
    @pytest.mark.parametrize("params", [
        LatticeParams(9, 1.0, 1.0, 1.0),
        LatticeParams(9, 1.0, 1.0, 0.5),
        LatticeParams(15, 1.0, 1.0, 4.0),
    ])
    def test_full_block_vs_dense_oracle(self, params):
        h = finite_bb(params)
        for m in range(1, params.n_cells + 1):
            for n in range(1, params.n_cells + 1):
                want = dense_resolvent_bb(params, m, n)
                assert h[m - 1, n - 1] == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("params", [
        LatticeParams(9, 1.0, 1.0, 2.0),
        LatticeParams(15, 1.0, 1.0, 2.0),
    ])
    def test_confluent_pole_at_ep(self, params):
        # gamma = 2J: kappa = 0, the couplings stop after one cell
        self.test_full_block_vs_dense_oracle(params)

    def test_frozen_value(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0)
        h = heff_closed_form(p, EmitterLayout([3, 1], 0.1), form="finite").entries
        assert h[0, 1] == pytest.approx(0.1 ** 2 * -0.14814062182483234j, abs=1e-16)

    def test_even_uniform_ring_bb_limit(self):
        # at even N with t1 == t2 the dense problem is singular, but its
        # q = pi zero mode lives on the a sublattice: the bb entries have a
        # finite limit, the minimum-norm (lstsq) value
        for n_cells, gamma in [(10, 1.0), (8, 0.5), (12, 4.0), (2, 1.0)]:
            p = LatticeParams(n_cells, 1.0, 1.0, gamma)
            h = finite_bb(p)
            for m in range(1, n_cells + 1):
                want = dense_resolvent_bb(p, m, 1)
                assert h[m - 1, 0] == pytest.approx(want, abs=1e-13)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError, match="gamma > 0"):
            finite_bb(LatticeParams(9, 1.0, 1.0, 0.0))


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
                assert got == pytest.approx(want, abs=1e-12)

    def test_generalized_hoppings(self):
        # the closed form covers the uniform model only
        p = LatticeParams(7, 1.3, 0.8, 1.1, "open")
        with pytest.raises(ValueError, match="t1 == t2"):
            greens_obc(p, 2, 5)

    def test_frozen_value(self):
        # 80-digit resolvent (mp_resolvent_bb)
        p = LatticeParams(9, 1.0, 1.0, 1.0, "open")
        assert greens_obc(p, 5, 2) == pytest.approx(0.04938020727494412j, abs=1e-16)
        # the open-chain entry, whatever boundary the parameters name (at
        # even N a leftward entry tells the two apart)
        chain = LatticeParams(10, 1.0, 1.0, 1.0, "open")
        ring = dataclasses.replace(chain, boundary="periodic")
        assert greens_obc(ring, 2, 5) == greens_obc(chain, 2, 5)

    def test_cell_range_checked(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0, "open")
        with pytest.raises(ValueError):
            greens_obc(p, 0, 3)
        with pytest.raises(ValueError):
            greens_obc(p, 3, 10)
        with pytest.raises(ValueError, match="gamma > 0"):
            greens_obc(dataclasses.replace(p, gamma=0.0), 3, 3)


class TestExactness:
    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n_cells", [2, 3, 9, 10])
    def test_finite_matches_extended_precision_resolvent(self, n_cells,
                                                         boundary, gamma):
        p = LatticeParams(n_cells, 1.0, 1.0, gamma, boundary)
        want = mp_resolvent_bb(p)
        got = finite_bb(p)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-15 * np.abs(want).max())

    def test_oracle_keeps_global_precision(self):
        dps = mp.mp.dps
        mp_resolvent_bb(LatticeParams(3, 1.0, 1.0, 1.0, "open"))
        assert mp.mp.dps == dps


class TestBoundaryInsensitivity:
    # the induced couplings are translation invariant on the open chain too
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n_cells", [9, 10, 40])
    def test_open_chain_numeric_is_toeplitz(self, n_cells, gamma):
        p = LatticeParams(n_cells, 1.0, 1.0, gamma, "open")
        h = heff_numeric(p, EmitterLayout(range(1, n_cells + 1), 0.1)).entries
        np.testing.assert_allclose(h[1:, 1:], h[:-1, :-1], rtol=0,
                                   atol=1e-13 * np.abs(h).max())

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n_cells", [9, 10])
    def test_ep_is_hatano_nelson_chain(self, n_cells, boundary):
        # gamma = 2J: self-energy, first subdiagonal and a corner carrying the
        # wrap sign (-1)^(N+1) of the open chain, nothing else
        p = LatticeParams(n_cells, 1.0, 1.0, 2.0, boundary)
        lay = EmitterLayout(range(1, n_cells + 1), 0.1)
        sigma = 1 if boundary == "periodic" else (-1) ** (n_cells + 1)
        gam_eff = 0.1 ** 2 / 4
        want = 1j * gam_eff * (np.diag(np.ones(n_cells - 1), -1)
                               - np.eye(n_cells))
        want[0, -1] = sigma * 1j * gam_eff
        closed = heff_closed_form(p, lay, form="finite").entries
        np.testing.assert_allclose(closed, want, rtol=1e-15, atol=0)
        np.testing.assert_allclose(heff_numeric(p, lay).entries, want,
                                   rtol=0, atol=1e-13 * gam_eff)


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
        lay = EmitterLayout([7, 2, 30, 15], 0.1)
        for p in (LatticeParams(41, 1.0, 1.0, 1.0),
                  LatticeParams(40, 1.0, 1.0, 1.0),
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
        A = -build_bare_hamiltonian(p).toarray()
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
    # the even rings (2, 10, 50) have one H_eff: the singular dense solve's
    # minimum-norm branch is the finite closed form
    @pytest.mark.parametrize("n_cells", [5, 9, 15, 2, 10, 50])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 4.0])
    def test_finite_matches_numeric(self, n_cells, gamma):
        p = LatticeParams(n_cells, 1.0, 1.0, gamma)
        lay = EmitterLayout(range(1, n_cells + 1), 0.1)
        num = heff_numeric(p, lay).entries
        closed = heff_closed_form(p, lay, form="finite")
        assert closed.method == "closed_form_finite"
        scale = np.max(np.abs(num))
        np.testing.assert_allclose(closed.entries, num, atol=1e-13 * scale)

    def test_finite_obc_matches_numeric(self):
        for n_cells in (9, 10):
            p = LatticeParams(n_cells, 1.0, 1.0, 1.0, "open")
            lay = EmitterLayout(range(1, n_cells + 1), 0.1)
            num = heff_numeric(p, lay).entries
            closed = heff_closed_form(p, lay, form="finite").entries
            np.testing.assert_allclose(closed, num, atol=1e-13 * np.max(np.abs(num)))

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
            chain = dataclasses.replace(ring, boundary="open")
            lay = EmitterLayout(range(1, n_cells + 1), 0.05)
            hp = heff_closed_form(ring, lay, form="asymptotic").entries
            ho = heff_closed_form(chain, lay, form="asymptotic").entries
            upper = np.triu(np.ones_like(hp.real, dtype=bool), 1)
            np.testing.assert_allclose(ho[upper], sign * hp[upper], rtol=1e-12)
            np.testing.assert_allclose(ho[~upper], hp[~upper], rtol=1e-12)

    def test_gamma_zero(self):
        p = LatticeParams(9, 1.0, 1.0, 0.0)
        lay = EmitterLayout([2, 5], 0.05)
        mat = heff_closed_form(p, lay, form="asymptotic")
        # non-decaying alternating couplings of magnitude g^2/J
        assert abs(mat.entries[1, 0]) == pytest.approx(0.05 ** 2, rel=1e-12)
        with pytest.raises(ValueError):
            heff_closed_form(p, lay, form="finite")

    def test_requires_uniform_hoppings(self):
        p = LatticeParams(9, 1.3, 0.8, 1.0)
        with pytest.raises(ValueError, match="t1 == t2"):
            heff_closed_form(p, EmitterLayout([1], 0.05), form="asymptotic")

    def test_form_is_required_and_explicit(self):
        p = LatticeParams(9, 1.0, 1.0, 1.0)
        lay = EmitterLayout([1, 3], 0.05)
        with pytest.raises(TypeError):
            heff_closed_form(p, lay)
        with pytest.raises(ValueError, match="unknown form"):
            heff_closed_form(p, lay, form="auto")


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
        nan, inf = float("nan"), float("inf")
        for gamma, j in [(nan, 1.0), (1.0, nan), (1.0, inf), (inf, 1.0)]:
            with pytest.raises(ValueError, match="finite"):
                interaction_range(gamma, j)
