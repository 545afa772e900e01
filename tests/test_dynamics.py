import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import nhbath.dynamics
from nhbath import (EmitterLayout, LatticeParams, build_total_hamiltonian,
                    cell_weights, emitter_populations,
                    evolve, excited_emitter_state, fit_decay_rate,
                    heff_closed_form, localization_report, parse_config,
                    photon_density, run_experiment, stacked_cell_weights)
from nhbath.lattice import rotate_cells
from oracles import expm_stepped, picture_unitary


def _mapped_density(traj):
    """Mapped-picture photon populations, as `photon_density` documents."""
    return np.abs(rotate_cells(traj.amplitudes[:, traj.n_emitters:])) ** 2


def _localize(traj, *args, **kwargs):
    """`localization_report` of a trajectory's photon cell weights."""
    return localization_report(traj.times, cell_weights(photon_density(traj)),
                               *args, **kwargs)


def _setup(n=8, gamma=1.0, g=0.1, boundary="open", cell=3):
    p = LatticeParams(n, 1.0, 1.0, gamma, boundary)
    lay = EmitterLayout([cell], g)
    H = build_total_hamiltonian(p, lay)
    return p, lay, H


class TestEvolve:
    def test_initial_state_kept(self):
        _, lay, H = _setup()
        psi0 = excited_emitter_state(LatticeParams(8, 1.0, 1.0, 1.0, "open"), lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 5, 11))
        assert traj.n_steps == 11
        np.testing.assert_array_equal(traj.amplitudes[0], psi0)
        assert traj.norm_history[0] == pytest.approx(1.0)

    def test_lossless_norm_conserved(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        np.testing.assert_allclose(traj.norm_history, 1.0, atol=1e-10)

    def test_norm_monotone_with_loss(self):
        p, lay, H = _setup(gamma=1.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        assert np.all(np.diff(traj.norm_history) <= 1e-12)

    def test_uniform_and_irregular_grids_agree(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        uniform = np.linspace(0, 3, 7)
        jitter = uniform.copy()
        jitter[3] += 1e-4  # two intervals of their own length
        tu = evolve(H, psi0, lay.n_emitters, uniform)
        tj = evolve(H, psi0, lay.n_emitters, jitter)
        for k in (1, 2, 5, 6):
            np.testing.assert_allclose(tu.amplitudes[k],
                                       tj.amplitudes[k], atol=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 4.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_matches_dense_expm_stepping(self, boundary, n, gamma):
        p, lay, H = _setup(n=n, gamma=gamma, g=0.3, boundary=boundary, cell=n)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 10, 41)
        traj = evolve(H, psi0, lay.n_emitters, times)
        np.testing.assert_allclose(traj.amplitudes,
                                   expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("boundary, gamma", [("periodic", 2.0),
                                                 ("open", 4.0)])
    def test_non_uniform_grid_matches_dense_expm_stepping(self, boundary,
                                                          gamma):
        p, lay, H = _setup(n=7, gamma=gamma, g=0.3, boundary=boundary, cell=4)
        psi0 = excited_emitter_state(p, lay)
        dts = np.random.default_rng(5).uniform(1e-3, 1.5, 30)
        times = np.r_[0.0, np.cumsum(dts)]
        traj = evolve(H, psi0, lay.n_emitters, times)
        np.testing.assert_allclose(traj.amplitudes,
                                   expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_coarse_grid_takes_substeps(self, monkeypatch, boundary):
        # ||H||_1 dt = 40: every interval is split into substeps with
        # ||A||_1 <= 1, each taken to the degree the a-priori bound asks for
        p, lay, H = _setup(n=7, gamma=2.0, g=0.3, boundary=boundary, cell=7)
        psi0 = excited_emitter_state(p, lay)
        times = 40.0 / np.abs(H).sum(axis=0).max() * np.arange(6)
        degree, xs = nhbath.dynamics._taylor_degree, []

        def degree_spy(x):
            xs.append(x)
            return degree(x)

        monkeypatch.setattr(nhbath.dynamics, "_taylor_degree", degree_spy)
        traj = evolve(H, psi0, lay.n_emitters, times)
        assert len(xs) == 5 and all(0.95 < x <= 1.0 for x in xs)
        np.testing.assert_allclose(traj.amplitudes,
                                   expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    def test_one_full_substep_is_exact_to_rounding(self):
        # ||H||_1 dt = 1 exactly: one substep at x = 1, degree 18, whose
        # truncation (~1/19!) is far below rounding; two degrees fewer
        # would leave ~1/17! = 2.8e-15
        lam = np.array([1.0, -1.0, -0.5j])
        psi0 = np.array([0.6, 0.0, 0.8j])
        traj = evolve(np.diag(lam), psi0, 1, [0.0, 1.0])
        np.testing.assert_allclose(traj.amplitudes[1],
                                   np.exp(-1j * lam) * psi0,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.1, 0.5, 0.99, 1.0])
    def test_degree_is_the_least_that_meets_the_bound(self, x):
        def bound(m):
            return x ** (m + 1) / math.factorial(m + 1) * math.exp(x)

        m = nhbath.dynamics._taylor_degree(x)
        assert bound(m) <= 2.0 ** -53
        assert m == 0 or bound(m - 1) > 2.0 ** -53

    def test_norm_never_grows_on_the_defective_chain(self):
        # gamma = 2J: the field Hamiltonian is defective and highly non-normal
        p, lay, H = _setup(n=400, gamma=2.0, g=0.1, cell=200)
        traj = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                      np.linspace(0, 40, 401))
        assert np.diff(traj.norm_history).max() <= 1e-14

    def test_bad_inputs(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        with pytest.raises(ValueError):
            evolve(H, psi0, lay.n_emitters, [0.0])
        with pytest.raises(ValueError):
            evolve(H, psi0, lay.n_emitters, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(H, psi0, lay.n_emitters, [0.0, 2.0, 1.0])
        for times in ([0.0, np.nan], [0.0, np.inf], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="times must be finite"):
                evolve(H, psi0, lay.n_emitters, times)
        bad = H.toarray()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            evolve(bad, psi0, lay.n_emitters, [0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(H[:-2, :-2], psi0, lay.n_emitters, [0.0, 1.0])
        with pytest.raises(ValueError, match="initial state"):
            evolve(H, np.r_[np.nan, psi0[1:]], lay.n_emitters, [0.0, 1.0])
        with pytest.raises(ValueError, match="initial state"):
            evolve(H, psi0[None], lay.n_emitters, [0.0, 1.0])
        for n_emitters in (0, 2, psi0.size + 1):  # odd photon counts
            with pytest.raises(ValueError, match="two per cell"):
                evolve(H, psi0, n_emitters, [0.0, 1.0])
        for n_emitters in (-1, 1.0, True):
            with pytest.raises(ValueError, match="n_emitters must be"):
                evolve(H, psi0, n_emitters, [0.0, 1.0])


class TestObservables:
    def test_population_conservation_split(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 10, 41))
        pe = emitter_populations(traj).sum(axis=1)
        pf = photon_density(traj).sum(axis=1)
        np.testing.assert_allclose(pe + pf, 1.0, atol=1e-10)

    def test_density_is_picture_covariant_not_invariant(self):
        p, lay, H = _setup(gamma=2.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 5, 21))
        orig = photon_density(traj)
        mapped = _mapped_density(traj)
        # total photonic weight agrees (the rotation is unitary) ...
        np.testing.assert_allclose(orig.sum(axis=1), mapped.sum(axis=1), atol=1e-10)
        # ... but the site-resolved profiles differ
        assert np.max(np.abs(orig - mapped)) > 1e-4

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_mapped_density_matches_picture_unitary(self, boundary):
        p = LatticeParams(6, 1.0, 1.0, 1.4, boundary)
        lay = EmitterLayout([2, 5], 0.2)
        H = build_total_hamiltonian(p, lay)
        traj = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                      np.linspace(0, 4, 9))
        U = picture_unitary(p.n_cells, lay.n_emitters)
        want = np.array([np.abs(U @ v)[lay.n_emitters:] ** 2
                         for v in traj.amplitudes])
        np.testing.assert_allclose(_mapped_density(traj), want,
                                   rtol=0, atol=1e-15)


class TestLocalizationReport:
    def test_probabilities_normalized(self):
        p, lay, H = _setup(n=30, gamma=1.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        rep = _localize(traj, 10, 20.0)
        assert rep.p_local + rep.p_left + rep.p_right == pytest.approx(1.0)
        assert rep.atom_cell == 10 and rep.t_average == 20.0

    def test_directional_regime_emits_nothing_left(self):
        p, lay, H = _setup(n=30, gamma=2.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        rep = _localize(traj, 10, 20.0)
        assert rep.p_local > 0.9
        assert rep.p_right < 1e-10  # nothing propagates to the right either

    def test_window_validation(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, lay.n_emitters, np.linspace(0, 5, 11))
        with pytest.raises(ValueError):
            _localize(traj, 3, 50.0)
        with pytest.raises(ValueError):
            _localize(traj, 99, 5.0)
        for cell in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                _localize(traj, cell, 5.0)
        weights = cell_weights(photon_density(traj))
        for times, w in ((traj.times[:-1], weights), (traj.times, weights[0]),
                         (traj.times[:1], weights[:1])):
            with pytest.raises(ValueError, match="shape"):
                localization_report(times, w, 3, 5.0)

    def test_window_shorter_than_a_step(self):
        # a window holding one sample has no time average (the trapezoid
        # would divide 0 by 0); the rule is the config's t_av >= t_max/(n-1)
        p, lay, H = _setup(n=6)
        traj = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                      np.linspace(0, 2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time step"):
                _localize(traj, 3, 0.1)
            with pytest.raises(ValueError, match="time step"):
                _localize(traj, 3, 0.5 - 1e-9)
            for t_average in (np.nan, -1.0):
                with pytest.raises(ValueError, match="t_average must be finite"):
                    _localize(traj, 3, t_average)
            rep = _localize(traj, 3, 0.5)  # exactly one step
        assert np.isfinite([rep.p_local, rep.p_left, rep.p_right]).all()
        assert rep.p_local + rep.p_left + rep.p_right == pytest.approx(1.0)


    def test_ring_local_pair_wraps(self):
        # on the ring every cell is alike: cell N's cloud partner is cell 1,
        # so P_loc does not depend on the emitter cell
        p = LatticeParams(10, 1.0, 1.0, 2.0, "periodic")
        wrapped, unwrapped = [], []
        for cell in range(1, 11):
            lay = EmitterLayout([cell], 0.1)
            traj = evolve(build_total_hamiltonian(p, lay),
                          excited_emitter_state(p, lay), lay.n_emitters,
                          np.linspace(0, 20, 201))
            wrapped.append(_localize(traj, cell, 20.0, periodic=True))
            unwrapped.append(_localize(traj, cell, 20.0))
        p_loc = [rep.p_local for rep in wrapped]
        np.testing.assert_allclose(p_loc, p_loc[0], rtol=1e-12, atol=0)
        assert p_loc[0] > 0.98
        assert wrapped[-1].p_right == 0.0
        # the wrap changes cell N alone, whose cloud the chain rule splits
        assert wrapped[:-1] == unwrapped[:-1]
        assert unwrapped[-1].p_local < 0.6


class TestStackedCellWeights:
    GAMMAS = (1.0, 2.0, 3.0)

    @staticmethod
    def _ring(gamma, cell=10):
        p = LatticeParams(10, 1.0, 1.0, gamma, "periodic")
        lay = EmitterLayout([cell], 0.1)
        return p, lay, build_total_hamiltonian(p, lay)

    def test_each_system_matches_evolve(self):
        times = np.linspace(0, 20, 201)
        p, lay, _ = self._ring(1.0)
        psi0 = excited_emitter_state(p, lay)
        got = stacked_cell_weights((self._ring(g)[2] for g in self.GAMMAS),
                                   psi0, lay.n_emitters, times)
        assert got.shape == (201, 3, 10)
        for k, gamma in enumerate(self.GAMMAS):
            traj = evolve(self._ring(gamma)[2], psi0, lay.n_emitters, times)
            np.testing.assert_allclose(got[:, k],
                                       cell_weights(photon_density(traj)),
                                       rtol=0, atol=1e-13)

    def test_sweep_rows_match_per_gamma_reports(self, tmp_path):
        # the emitter sits in cell N, whose local pair wraps to cell 1
        raw = {"experiment": "sweep_gamma", "N": 10, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "boundary": "periodic", "g": 0.1, "cells": [10],
               "t_max": 20.0, "n_points": 201, "t_av": 15.0,
               "gamma_values": list(self.GAMMAS), "output_dir": str(tmp_path)}
        run_experiment(parse_config(json.dumps(raw)))
        rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
        times = np.linspace(0, 20, 201)
        for row, gamma in zip(rows, self.GAMMAS):
            p, lay, H = self._ring(gamma)
            rep = _localize(evolve(H, excited_emitter_state(p, lay),
                                   lay.n_emitters, times),
                            10, 15.0, periodic=True)
            assert row[0] == gamma
            np.testing.assert_allclose(row[1:], [rep.p_local, rep.p_left,
                                                 rep.p_right], rtol=0, atol=1e-13)
        assert (rows[:, 3] == 0.0).all() and rows[:, 1].max() > 0.9

    def test_bad_inputs(self):
        p, lay, H = self._ring(1.0)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 1, 3)
        with pytest.raises(ValueError, match="at least one"):
            stacked_cell_weights([], psi0, lay.n_emitters, times)
        with pytest.raises(ValueError, match="dimension"):
            stacked_cell_weights([H, H[:-2, :-2]], psi0, lay.n_emitters, times)
        with pytest.raises(ValueError, match="times must be strictly"):
            stacked_cell_weights([H], psi0, lay.n_emitters, [0.0, 1.0, 1.0])


def _directional_populations(params, layout, times):
    """|c_m|^2 = exp(-2 Gamma t) (Gamma t)^(2(m-1)) / ((m-1)!)^2 with
    Gamma = g^2/(4J): the solution of dc_m/dt = -Gamma c_m + Gamma c_(m-1)
    from emitter 1 excited, the Markov limit at gamma = 2J."""
    x = layout.g ** 2 / (4 * params.t1) * times[:, None]
    m = np.arange(layout.n_emitters)
    return (np.exp(-2 * x) * x ** (2 * m)
            / np.array([math.factorial(k) for k in m], float) ** 2)


def _heff_populations(params, layout, times):
    """|c_m|^2 from emitter 1 excited under i dc/dt = H_eff c, stepped by
    expm(-i H_eff dt) of the exact closed-form H_eff."""
    heff = heff_closed_form(params, layout, form="finite").entries
    step = expm(-1j * heff * (times[1] - times[0]))
    c = np.zeros((times.size, layout.n_emitters), dtype=complex)
    c[0, 0] = 1.0
    for k in range(1, times.size):
        c[k] = step @ c[k - 1]
    return np.abs(c) ** 2


class TestMarkovLimit:
    """Emitters in consecutive cells obey i dc/dt = H_eff c in the Markov
    limit; the full dynamics approaches that as g^2, on either boundary.  At
    gamma = 2J the oracle is the closed-form solution of the directional
    chain, at gamma = J the stepped exponential of the closed-form H_eff."""

    @staticmethod
    def _max_deviation(oracle, gamma, g, boundary):
        p = LatticeParams(40, 1.0, 1.0, gamma, boundary)
        lay = EmitterLayout([10, 11, 12, 13], g)
        times = np.linspace(0, 6 / (g ** 2 / 4), 301)
        traj = evolve(build_total_hamiltonian(p, lay),
                      excited_emitter_state(p, lay), lay.n_emitters, times)
        return np.abs(emitter_populations(traj) - oracle(p, lay, times)).max()

    @pytest.mark.parametrize("gamma,oracle,bound", [
        pytest.param(2.0, _directional_populations, 1e-3, id="gamma=2J"),
        pytest.param(1.0, _heff_populations, 2e-3, id="gamma=J")])
    def test_deviation_scales_as_g_squared_on_both_boundaries(self, gamma,
                                                              oracle, bound):
        dev = {(g, b): self._max_deviation(oracle, gamma, g, b)
               for g in (0.2, 0.1) for b in ("open", "periodic")}
        for b in ("open", "periodic"):
            assert dev[0.1, b] < bound
            assert dev[0.2, b] / dev[0.1, b] == pytest.approx(4.0, rel=0.1)
        for g in (0.2, 0.1):  # irrespective of the boundary conditions
            assert dev[g, "periodic"] == pytest.approx(dev[g, "open"], rel=2e-4)


class TestFitDecayRate:
    def test_recovers_synthetic_rate(self):
        t = np.linspace(0, 50, 200)
        pops = 0.7 * np.exp(-0.013 * t)
        assert fit_decay_rate(t, pops, 5.0, 45.0) == pytest.approx(0.013, rel=1e-10)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0], [1.0, 0.5], 5.0, 6.0)
