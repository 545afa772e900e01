import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import nhbath.dynamics
from nhbath import (EmitterLayout, LatticeParams, SingleExcitationState,
                    build_total_hamiltonian, emitter_populations, evolve,
                    excited_emitter_state, fit_decay_rate,
                    localization_report, photon_density)
from oracles import picture_unitary


def _setup(n=8, gamma=1.0, g=0.1, boundary="open", cell=3):
    p = LatticeParams(n, 1.0, 1.0, gamma, boundary)
    lay = EmitterLayout([cell], g)
    H = build_total_hamiltonian(p, lay)
    return p, lay, H


class TestEvolve:
    def test_initial_state_kept(self):
        _, lay, H = _setup()
        psi0 = excited_emitter_state(LatticeParams(8, 1.0, 1.0, 1.0, "open"), lay)
        traj = evolve(H, psi0, np.linspace(0, 5, 11))
        assert traj.n_steps == 11
        np.testing.assert_array_equal(traj.amplitudes[0], psi0.vector())
        assert traj.norm_history[0] == pytest.approx(1.0)

    def test_lossless_norm_conserved(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 20, 101))
        np.testing.assert_allclose(traj.norm_history, 1.0, atol=1e-10)

    def test_norm_monotone_with_loss(self):
        p, lay, H = _setup(gamma=1.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 20, 101))
        assert np.all(np.diff(traj.norm_history) <= 1e-12)

    def test_uniform_and_irregular_grids_agree(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        uniform = np.linspace(0, 3, 7)
        jitter = uniform.copy()
        jitter[3] += 1e-4  # breaks uniformity, forces direct exponentials
        tu = evolve(H, psi0, uniform)
        tj = evolve(H, psi0, jitter)
        for k in (1, 2, 5, 6):
            np.testing.assert_allclose(tu.amplitudes[k],
                                       tj.amplitudes[k], atol=1e-9)

    @pytest.mark.parametrize("tol, n_expm", [(1e-9, 2), (0.0, 8)])
    def test_every_sample_matches_direct_exponential(self, monkeypatch, tol,
                                                     n_expm):
        # n_expm counts all exponentials: the step is one dense expm and the
        # drift reference one sparse expm_multiply; tol = 0 rejects any
        # stepping drift and adds one expm per sample after t = 0,
        # 2 + 6 calls on this 7-point grid
        p, lay, H = _setup(gamma=1.3)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 6, 7)
        calls, ref_calls = [], []

        def spy(a):
            calls.append(a)
            return expm(a)

        def ref_spy(a, v):
            ref_calls.append(a)
            return expm_multiply(a, v)

        monkeypatch.setattr(nhbath.dynamics, "expm", spy)
        monkeypatch.setattr(nhbath.dynamics, "expm_multiply", ref_spy)
        traj = evolve(H, psi0, times, tol=tol)
        assert len(ref_calls) == 1
        assert len(calls) + len(ref_calls) == n_expm
        for t, amps in zip(times, traj.amplitudes):
            np.testing.assert_allclose(amps, expm(-1j * H * t) @ psi0.vector(),
                                       rtol=0, atol=1e-12)

    def test_independent_of_global_random_state(self, monkeypatch):
        # expm_multiply's 1-norm estimates draw from numpy's global state
        # (here ||H t||_1 is large enough that they do); neither the drift
        # reference nor the amplitudes may depend on the seed
        p, lay, H = _setup(n=40, gamma=2.0, cell=20)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 20, 41)
        refs, runs = [], []

        def ref_spy(a, v):
            refs.append(expm_multiply(a, v))
            return refs[-1]

        monkeypatch.setattr(nhbath.dynamics, "expm_multiply", ref_spy)
        for seed in (0, 1):
            np.random.seed(seed)
            runs.append(evolve(H, psi0, times).amplitudes)
        assert len(refs) == 2
        np.testing.assert_array_equal(refs[0], refs[1])
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_bad_inputs(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        with pytest.raises(ValueError):
            evolve(H, psi0, [0.0])
        with pytest.raises(ValueError):
            evolve(H, psi0, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(H, psi0, [0.0, 2.0, 1.0])
        bad = H.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            evolve(bad, psi0, [0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(H[:-2, :-2], psi0, [0.0, 1.0])
        with pytest.raises(ValueError, match="initial state"):
            evolve(H, SingleExcitationState([np.nan], psi0.photon_amps),
                   [0.0, 1.0])


class TestObservables:
    def test_population_conservation_split(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 10, 41))
        pe = emitter_populations(traj).sum(axis=1)
        pf = photon_density(traj).sum(axis=1)
        np.testing.assert_allclose(pe + pf, 1.0, atol=1e-10)

    def test_density_is_picture_covariant_not_invariant(self):
        p, lay, H = _setup(gamma=2.0)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 5, 21))
        orig = photon_density(traj, picture="original")
        mapped = photon_density(traj, picture="mapped")
        # total photonic weight agrees (the rotation is unitary) ...
        np.testing.assert_allclose(orig.sum(axis=1), mapped.sum(axis=1), atol=1e-10)
        # ... but the site-resolved profiles differ
        assert np.max(np.abs(orig - mapped)) > 1e-4

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_mapped_density_matches_picture_unitary(self, boundary):
        p = LatticeParams(6, 1.0, 1.0, 1.4, boundary)
        lay = EmitterLayout([2, 5], 0.2)
        H = build_total_hamiltonian(p, lay)
        traj = evolve(H, excited_emitter_state(p, lay), np.linspace(0, 4, 9))
        U = picture_unitary(p.n_cells, lay.n_emitters)
        want = np.array([np.abs(U @ v)[lay.n_emitters:] ** 2
                         for v in traj.amplitudes])
        np.testing.assert_allclose(photon_density(traj, "mapped"), want,
                                   rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="picture"):
            photon_density(traj, "rotated")


class TestLocalizationReport:
    def test_probabilities_normalized(self):
        p, lay, H = _setup(n=30, gamma=1.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 20, 101))
        rep = localization_report(traj, 10, 20.0)
        assert rep.p_local + rep.p_left + rep.p_right == pytest.approx(1.0)
        assert rep.atom_cell == 10 and rep.t_average == 20.0

    def test_directional_regime_emits_nothing_left(self):
        p, lay, H = _setup(n=30, gamma=2.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 20, 101))
        rep = localization_report(traj, 10, 20.0)
        assert rep.p_local > 0.9
        assert rep.p_right < 1e-10  # nothing propagates to the right either

    def test_window_validation(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        traj = evolve(H, psi0, np.linspace(0, 5, 11))
        with pytest.raises(ValueError):
            localization_report(traj, 3, 50.0)
        with pytest.raises(ValueError):
            localization_report(traj, 99, 5.0)
        for cell in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                localization_report(traj, cell, 5.0)

    def test_window_shorter_than_a_step(self):
        # a window holding one sample has no time average (the trapezoid
        # would divide 0 by 0); the rule is the config's t_av >= t_max/(n-1)
        p, lay, H = _setup(n=6)
        traj = evolve(H, excited_emitter_state(p, lay), np.linspace(0, 2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time step"):
                localization_report(traj, 3, 0.1)
            with pytest.raises(ValueError, match="time step"):
                localization_report(traj, 3, 0.5 - 1e-9)
            rep = localization_report(traj, 3, 0.5)  # exactly one step
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
                          excited_emitter_state(p, lay), np.linspace(0, 20, 201))
            wrapped.append(localization_report(traj, cell, 20.0, periodic=True))
            unwrapped.append(localization_report(traj, cell, 20.0))
        p_loc = [rep.p_local for rep in wrapped]
        np.testing.assert_allclose(p_loc, p_loc[0], rtol=1e-12, atol=0)
        assert p_loc[0] > 0.98
        assert wrapped[-1].p_right == 0.0
        # the wrap changes cell N alone, whose cloud the chain rule splits
        assert wrapped[:-1] == unwrapped[:-1]
        assert unwrapped[-1].p_local < 0.6


class TestMarkovLimit:
    """Emitters in consecutive cells at gamma = 2J obey dc_m/dt = -Gamma c_m
    + Gamma c_(m-1) in the Markov limit, so from emitter 1 excited
    |c_m|^2 = exp(-2 Gamma t) (Gamma t)^(2(m-1)) / ((m-1)!)^2; the full
    dynamics approaches it as g^2, on either boundary."""

    @staticmethod
    def _max_deviation(g, boundary):
        p = LatticeParams(40, 1.0, 1.0, 2.0, boundary)
        lay = EmitterLayout([10, 11, 12, 13], g)
        rate = g ** 2 / 4
        times = np.linspace(0, 6 / rate, 301)
        traj = evolve(build_total_hamiltonian(p, lay),
                      excited_emitter_state(p, lay), times)
        x = rate * times[:, None]
        m = np.arange(4)
        markov = (np.exp(-2 * x) * x ** (2 * m)
                  / np.array([math.factorial(k) for k in m], float) ** 2)
        return np.abs(emitter_populations(traj) - markov).max()

    def test_deviation_scales_as_g_squared_on_both_boundaries(self):
        dev = {(g, b): self._max_deviation(g, b)
               for g in (0.2, 0.1) for b in ("open", "periodic")}
        for b in ("open", "periodic"):
            assert dev[0.1, b] < 1e-3
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
