import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse import csr_array

import nhbath.dynamics
import nhbath.runner
from nhbath import (EmitterLayout, LatticeParams, build_total_hamiltonian,
                    cell_weights, emitter_populations,
                    evolve, excited_emitter_state, fit_decay_rate,
                    heff_closed_form, heff_numeric, localization_report,
                    parse_config, photon_density, run_experiment,
                    stacked_cell_weights, time_average)
from nhbath.lattice import rotate_cells
from oracles import expm_stepped, picture_unitary


def _mapped_density(amps, n_emitters):
    """Mapped-picture photon populations, as `photon_density` documents."""
    return np.abs(rotate_cells(amps[:, n_emitters:])) ** 2


def _localize(times, amps, atom_cell, t_average, periodic=False):
    """`localization_report` of the photon cell weights of a one-emitter
    trajectory sampled at `times`, averaged over [0, t_average]."""
    weights = cell_weights(photon_density(amps, 1))
    return localization_report(time_average(times, weights, t_average),
                               atom_cell, periodic)


def _alpha2(*hamiltonians):
    """max(||B^2||_1^(1/2), ||B^3||_1^(1/3)) of B = H - mu I, mu =
    trace(H)/dim, from dense powers, the largest over the systems."""
    def alpha2(H):
        B = H.toarray()
        B -= np.trace(B) / B.shape[0] * np.eye(B.shape[0])
        B2 = B @ B
        return max(np.linalg.norm(B2, 1) ** (1 / 2),
                   np.linalg.norm(B2 @ B, 1) ** (1 / 3))

    return max(map(alpha2, hamiltonians))


def _chunk_xs(alpha, times):
    """alpha_2 T / s of every chunk of samples (span T, s substeps) at
    alpha_2 = `alpha`, after checking the plan: every x <= 4, every chunk
    as long as x <= 4 allows, and substeps only on one interval with
    alpha * dt > 4."""
    xs, i, last = [], 0, times.size - 1
    while i < last:
        reach = alpha * (times[i + 1:] - times[i])  # to each later sample
        j = i + max(1, np.count_nonzero(reach <= 4))
        x = reach[j - i - 1]
        s = max(1, math.ceil(x / 4))
        assert s == 1 or (j == i + 1 and x > 4)
        assert j == last or reach[j - i] > 4
        xs.append(x / s)
        i = j
    assert max(xs) <= 4
    return xs


def _spy_degrees(monkeypatch):
    """The list that collects the x of every `_taylor_degree` call."""
    degree, xs = nhbath.dynamics._taylor_degree, []

    def degree_spy(x):
        xs.append(x)
        return degree(x)

    monkeypatch.setattr(nhbath.dynamics, "_taylor_degree", degree_spy)
    return xs


def _setup(n=8, gamma=1.0, g=0.1, boundary="open", cell=3):
    p = LatticeParams(n, 1.0, 1.0, gamma, boundary)
    lay = EmitterLayout([cell], g)
    H = build_total_hamiltonian(p, lay)
    return p, lay, H


class TestEvolve:
    def test_initial_state_kept(self):
        _, lay, H = _setup()
        psi0 = excited_emitter_state(LatticeParams(8, 1.0, 1.0, 1.0, "open"), lay)
        amps = evolve(H, psi0, lay.n_emitters, np.linspace(0, 5, 11))
        assert amps.shape == (11, psi0.size)
        np.testing.assert_array_equal(amps[0], psi0)
        assert np.linalg.norm(amps[0]) == pytest.approx(1.0)

    def test_lossless_norm_conserved(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        amps = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        np.testing.assert_allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-10)

    def test_norm_monotone_with_loss(self):
        p, lay, H = _setup(gamma=1.0)
        psi0 = excited_emitter_state(p, lay)
        amps = evolve(H, psi0, lay.n_emitters, np.linspace(0, 20, 101))
        assert np.all(np.diff(np.linalg.norm(amps, axis=1)) <= 1e-12)

    def test_uniform_and_irregular_grids_agree(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        uniform = np.linspace(0, 3, 7)
        jitter = uniform.copy()
        jitter[3] += 1e-4  # two intervals of their own length
        tu = evolve(H, psi0, lay.n_emitters, uniform)
        tj = evolve(H, psi0, lay.n_emitters, jitter)
        for k in (1, 2, 5, 6):
            np.testing.assert_allclose(tu[k], tj[k], atol=1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 4.0, 20.0])
    @pytest.mark.parametrize("n", [2, 3, 7])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_matches_dense_expm_stepping(self, boundary, n, gamma):
        p, lay, H = _setup(n=n, gamma=gamma, g=0.3, boundary=boundary, cell=n)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 10, 41)
        amps = evolve(H, psi0, lay.n_emitters, times)
        np.testing.assert_allclose(amps,
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
        amps = evolve(H, psi0, lay.n_emitters, times)
        np.testing.assert_allclose(amps,
                                   expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "boundary, n, t1, t2, gamma, cell, dt, n_steps",
        [("periodic", 7, 1.0, 1.0, 2.0, 7, 9.0, 5),
         ("open", 7, 1.0, 1.0, 2.0, 7, 9.0, 5),
         # t1 != t2 above the exceptional point on the N = 200 open chain
         ("open", 200, 1.3, 0.8, 3.0, 100, 2.0, 5)],
        ids=["periodic", "open", "long-open-chain"])
    def test_coarse_grid_takes_substeps(self, monkeypatch, boundary, n, t1, t2,
                                        gamma, cell, dt, n_steps):
        # alpha_2(H - mu I) dt > 4: every interval is a chunk of its own,
        # split into substeps with x <= 4, each taken to the degree the
        # a-priori bound asks for
        p = LatticeParams(n, t1, t2, gamma, boundary)
        lay = EmitterLayout([cell], 0.3)
        H = build_total_hamiltonian(p, lay)
        psi0 = excited_emitter_state(p, lay)
        times = dt * np.arange(n_steps + 1)
        xs = _spy_degrees(monkeypatch)
        amps = evolve(H, psi0, lay.n_emitters, times)
        alpha = _alpha2(H)
        assert alpha * dt > 4
        np.testing.assert_allclose(xs, _chunk_xs(alpha, times), rtol=1e-12)
        np.testing.assert_allclose(amps, expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    def test_samples_inside_a_chunk_match_dense_expm_powers(self,
                                                            monkeypatch):
        # dt = 0.01 on the N = 100 ring with t1 != t2: about 170-180 samples
        # share each chunk, so nearly every multiple of 0.5 is read off the
        # terms of a chunk that started elsewhere
        params = [LatticeParams(100, 1.3, 0.8, gamma, "periodic")
                  for gamma in (0.0, 0.5, 2.6)]
        lay = EmitterLayout([37], 0.2)
        psi0 = excited_emitter_state(params[0], lay)
        times = np.linspace(0, 5, 501)
        lossless, *hamiltonians = [build_total_hamiltonian(p, lay)
                                   for p in params]
        xs = _spy_degrees(monkeypatch)
        stacked = np.array(list(stacked_cell_weights(lossless, (0.5, 2.6),
                                                     psi0, lay.n_emitters,
                                                     times)))
        assert 30 * len(xs) < times.size
        for k, H in enumerate(hamiltonians):
            amps = evolve(H, psi0, lay.n_emitters, times)
            step, want = expm(-0.5j * H.toarray()), [psi0]
            for _ in range(10):
                want.append(step @ want[-1])
            np.testing.assert_allclose(amps[::50], want, rtol=0, atol=1e-13)
            np.testing.assert_allclose(
                stacked[::50, k],
                cell_weights(photon_density(np.array(want), lay.n_emitters)),
                rtol=0, atol=1e-13)

    def test_chunk_ends_before_a_substepped_interval(self, monkeypatch):
        # runs of dt = 3/64 (a binary fraction near 0.05, so the grid has
        # two interval lengths) around one interval of 3 > 4/alpha_2 on the
        # N = 200 open chain: chunks of 38 and 2 intervals end at t = 1.875,
        # the long interval takes 2 substeps, then 38 and 2 again
        p = LatticeParams(200, 1.3, 0.8, 3.0, "open")
        lay = EmitterLayout([100], 0.3)
        H = build_total_hamiltonian(p, lay)
        psi0 = excited_emitter_state(p, lay)
        times = 3 / 64 * np.r_[0:41, 104:145]
        xs = _spy_degrees(monkeypatch)
        amps = evolve(H, psi0, lay.n_emitters, times)
        alpha = _alpha2(H)
        np.testing.assert_allclose(xs, _chunk_xs(alpha, times), rtol=1e-12)
        assert len(xs) == 5 and xs[2] == pytest.approx(alpha * 3 / 2)
        np.testing.assert_allclose(amps, expm_stepped(H, psi0, times),
                                   rtol=0, atol=1e-13)

    def test_one_full_substep_is_exact_to_rounding(self):
        # ||H - mu I||_1 dt = 1.014: one substep at x = 1.014, degree 18, whose
        # truncation (~1/19!) is far below rounding; two degrees fewer
        # would leave ~1/17! = 2.8e-15
        lam = np.array([1.0, -1.0, -0.5j])
        psi0 = np.array([0.6, 0.0, 0.8j])
        amps = evolve(np.diag(lam), psi0, 1, [0.0, 1.0])
        np.testing.assert_allclose(amps[1],
                                   np.exp(-1j * lam) * psi0,
                                   rtol=0, atol=1e-15)

    def test_nilpotent_step_keeps_its_first_order_term(self):
        # a one-way hop, B^2 = 0: alpha_2 = 0, so the whole grid is one
        # chunk at x = 0, and only the floor m >= 1 of the alpha_2 bound
        # keeps exp(-iBt) = I - iBt from being read as I
        B = np.array([[0.0, 1e4], [0.0, 0.0]])
        psi0 = np.array([0.6, 0.8j])
        times = np.linspace(0, 2, 5)
        for t, got in zip(times, evolve(B, psi0, 0, times)):
            want = expm(-1j * t * B) @ psi0
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_plan_from_alpha2_far_below_the_norm(self, monkeypatch):
        # B = [[a, K], [0, -a]]: B^2 = a^2 I, so alpha_2 = ||B^3||_1^(1/3)
        # = (a^2 (K + a))^(1/3) = 21.5 against ||B||_1 = K + a = 10001;
        # chunks of 18 intervals, their interior samples read off the terms
        a, K = 1.0, 1e4
        B = np.array([[a, K], [0.0, -a]])
        psi0 = np.array([0.6, 0.8j])
        times = np.linspace(0, 1, 101)
        xs = _spy_degrees(monkeypatch)
        amps = evolve(B, psi0, 0, times)
        alpha = (a * a * (K + a)) ** (1 / 3)
        assert _alpha2(csr_array(B)) == pytest.approx(alpha, rel=1e-15)
        np.testing.assert_allclose(xs, _chunk_xs(alpha, times), rtol=1e-12)
        assert len(xs) == 6
        for t, got in zip(times, amps):
            want = expm(-1j * t * B) @ psi0
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.1, 0.5, 0.99, 1.0, 1.5,
                                   2.0, 3.0, 4.0])
    def test_degree_is_the_least_that_meets_the_bound(self, x):
        def bound(m):
            return x ** (m + 1) / math.factorial(m + 1) * math.exp(x)

        m = nhbath.dynamics._taylor_degree(x)
        assert bound(m) <= 2.0 ** -53
        assert m == 0 or bound(m - 1) > 2.0 ** -53

    def test_norm_never_grows_on_the_defective_chain(self):
        # gamma = 2J: the field Hamiltonian is defective and highly non-normal
        p, lay, H = _setup(n=400, gamma=2.0, g=0.1, cell=200)
        amps = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                      np.linspace(0, 40, 401))
        assert np.diff(np.linalg.norm(amps, axis=1)).max() <= 1e-14

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


@pytest.mark.parametrize("boundary", ["periodic", "open"])
def test_results_are_plain_arrays(boundary):
    # evolve returns the amplitudes, emitters first, and both H_eff
    # functions the (n_e, n_e) coupling matrix itself
    p = LatticeParams(7, 1.0, 1.0, 1.5, boundary)
    lay = EmitterLayout([2, 6, 4], 0.1)
    amps = evolve(build_total_hamiltonian(p, lay), excited_emitter_state(p, lay),
                  lay.n_emitters, np.linspace(0, 2, 5))
    assert type(amps) is np.ndarray and amps.dtype == complex
    assert amps.shape == (5, lay.n_emitters + 2 * p.n_cells)
    for h in (heff_numeric(p, lay), heff_closed_form(p, lay, form="finite"),
              heff_closed_form(p, lay, form="asymptotic")):
        assert type(h) is np.ndarray and h.dtype == complex
        assert h.shape == (lay.n_emitters, lay.n_emitters)


class TestObservables:
    def test_population_conservation_split(self):
        p, lay, H = _setup(gamma=0.0)
        psi0 = excited_emitter_state(p, lay)
        amps = evolve(H, psi0, lay.n_emitters, np.linspace(0, 10, 41))
        pe = emitter_populations(amps, lay.n_emitters).sum(axis=1)
        pf = photon_density(amps, lay.n_emitters).sum(axis=1)
        np.testing.assert_allclose(pe + pf, 1.0, atol=1e-10)

    def test_density_is_picture_covariant_not_invariant(self):
        p, lay, H = _setup(gamma=2.0)
        psi0 = excited_emitter_state(p, lay)
        amps = evolve(H, psi0, lay.n_emitters, np.linspace(0, 5, 21))
        orig = photon_density(amps, lay.n_emitters)
        mapped = _mapped_density(amps, lay.n_emitters)
        # total photonic weight agrees (the rotation is unitary) ...
        np.testing.assert_allclose(orig.sum(axis=1), mapped.sum(axis=1), atol=1e-10)
        # ... but the site-resolved profiles differ
        assert np.max(np.abs(orig - mapped)) > 1e-4

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_mapped_density_matches_picture_unitary(self, boundary):
        p = LatticeParams(6, 1.0, 1.0, 1.4, boundary)
        lay = EmitterLayout([2, 5], 0.2)
        H = build_total_hamiltonian(p, lay)
        amps = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                      np.linspace(0, 4, 9))
        U = picture_unitary(p.n_cells, lay.n_emitters)
        want = np.array([np.abs(U @ v)[lay.n_emitters:] ** 2
                         for v in amps])
        np.testing.assert_allclose(_mapped_density(amps, lay.n_emitters), want,
                                   rtol=0, atol=1e-15)


class TestLocalizationReport:
    def test_probabilities_normalized(self):
        p, lay, H = _setup(n=30, gamma=1.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 20, 101)
        amps = evolve(H, psi0, lay.n_emitters, times)
        probs = _localize(times, amps, 10, 20.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_directional_regime_emits_nothing_left(self):
        p, lay, H = _setup(n=30, gamma=2.0, g=0.05, cell=10)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 20, 101)
        amps = evolve(H, psi0, lay.n_emitters, times)
        probs = _localize(times, amps, 10, 20.0)
        assert probs[0] > 0.9
        assert probs[2] < 1e-10  # nothing propagates to the right either

    def test_window_validation(self):
        p, lay, H = _setup()
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 5, 11)
        amps = evolve(H, psi0, lay.n_emitters, times)
        with pytest.raises(ValueError):
            _localize(times, amps, 3, 50.0)
        with pytest.raises(ValueError):
            _localize(times, amps, 99, 5.0)
        for cell in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                _localize(times, amps, cell, 5.0)
        weights = cell_weights(photon_density(amps, lay.n_emitters))
        for ts, w in ((times[:-1], weights), (times, weights[0])):
            with pytest.raises(ValueError, match="one sample per time"):
                time_average(ts, w, 4.0)
        with pytest.raises(ValueError, match="two sample times"):
            time_average(times[:1], weights[:1], 5.0)
        with pytest.raises(ValueError, match="shape"):
            localization_report(1.0, 1)

    def test_window_shorter_than_a_step(self):
        # a window holding one sample has no time average (the trapezoid
        # would divide 0 by 0); the rule is the config's t_av >= t_max/(n-1)
        p, lay, H = _setup(n=6)
        times = np.linspace(0, 2, 5)
        amps = evolve(H, excited_emitter_state(p, lay), lay.n_emitters, times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time step"):
                _localize(times, amps, 3, 0.1)
            with pytest.raises(ValueError, match="time step"):
                _localize(times, amps, 3, 0.5 - 1e-9)
            for t_average in (np.nan, -1.0, True):
                with pytest.raises(ValueError, match="t_average must be finite"):
                    _localize(times, amps, 3, t_average)
            probs = _localize(times, amps, 3, 0.5)  # exactly one step
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_no_photonic_weight(self):
        avg = time_average([0.0, 1.0, 2.0], np.zeros((3, 4)), 2.0)
        with pytest.raises(ValueError, match="no photonic weight"):
            localization_report(avg, 2)
        with pytest.raises(ValueError, match="no photonic weight"):
            localization_report(np.eye(4)[[0, 1]] * [[1.0], [0.0]], 2)

    def test_time_grid_follows_evolve(self):
        # the rule of `evolve`: finite, 1-D, >= 2 samples, from 0, increasing
        w = np.eye(3)[[0, 1, 2, 0]]
        probs = localization_report(time_average([0.0, 1.0, 2.0, 3.0], w,
                                                 3.0), 1)
        assert isinstance(probs, np.ndarray) and probs.shape == (3,)
        np.testing.assert_allclose(probs, [2 / 3, 0.0, 1 / 3], rtol=1e-15)
        for ts, match in (([0.0, 2.0, 1.0, 3.0], "strictly increasing"),
                          ([0.0, 1.0, 1.0, 3.0], "strictly increasing"),
                          ([1.0, 2.0, 3.0, 4.0], "start at t = 0"),
                          ([0.0, 1.0, np.nan, 3.0], "finite")):
            with pytest.raises(ValueError, match=match):
                time_average(ts, w, 3.0)


    def test_ring_local_pair_wraps(self):
        # on the ring every cell is alike: cell N's cloud partner is cell 1,
        # so P_loc does not depend on the emitter cell
        p = LatticeParams(10, 1.0, 1.0, 2.0, "periodic")
        times = np.linspace(0, 20, 201)
        wrapped, unwrapped = [], []
        for cell in range(1, 11):
            lay = EmitterLayout([cell], 0.1)
            amps = evolve(build_total_hamiltonian(p, lay),
                          excited_emitter_state(p, lay), lay.n_emitters, times)
            wrapped.append(_localize(times, amps, cell, 20.0, periodic=True))
            unwrapped.append(_localize(times, amps, cell, 20.0))
        p_loc = [probs[0] for probs in wrapped]
        np.testing.assert_allclose(p_loc, p_loc[0], rtol=1e-12, atol=0)
        assert p_loc[0] > 0.98
        assert wrapped[-1][2] == 0.0
        # the wrap changes cell N alone, whose cloud the chain rule splits
        np.testing.assert_array_equal(wrapped[:-1], unwrapped[:-1])
        assert unwrapped[-1][0] < 0.6


class TestStackedCellWeights:
    GAMMAS = (1.0, 2.0, 3.0)

    @staticmethod
    def _ring(gamma, cell=10):
        p = LatticeParams(10, 1.0, 1.0, gamma, "periodic")
        lay = EmitterLayout([cell], 0.1)
        return p, lay, build_total_hamiltonian(p, lay)

    @staticmethod
    def _assert_stream(stream, want, atol):
        """Every sample the stream yields against the rows of `want`,
        shape (n_steps, n_gammas, N): one per time, no more, no fewer."""
        for got, row in zip(stream, want, strict=True):
            assert got.shape == row.shape
            np.testing.assert_allclose(got, row, rtol=0, atol=atol)

    def test_each_system_matches_evolve(self):
        times = np.linspace(0, 20, 201)
        p, lay, lossless = self._ring(0.0)
        psi0 = excited_emitter_state(p, lay)
        stream = stacked_cell_weights(lossless, self.GAMMAS, psi0,
                                      lay.n_emitters, times)
        want = np.stack([
            cell_weights(photon_density(
                evolve(self._ring(gamma)[2], psi0, lay.n_emitters, times),
                lay.n_emitters))
            for gamma in self.GAMMAS], axis=1)
        assert want.shape == (201, 3, 10)
        self._assert_stream(stream, want, 1e-13)

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
            amps = evolve(H, excited_emitter_state(p, lay), lay.n_emitters,
                          times)
            probs = _localize(times, amps, 10, 15.0, periodic=True)
            assert row[0] == gamma
            np.testing.assert_allclose(row[1:], probs, rtol=0, atol=1e-13)
        assert (rows[:, 3] == 0.0).all() and rows[:, 1].max() > 0.9

    def test_one_system_matches_evolve(self):
        # the loss added on the b sites is the lattice's own: the one
        # column steps the same matrix as `evolve`, in the same order
        p, lay, lossless = self._ring(0.0, cell=4)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 20, 201)
        stream = stacked_cell_weights(lossless, [2.0], psi0, lay.n_emitters,
                                      times)
        amps = evolve(self._ring(2.0, cell=4)[2], psi0, lay.n_emitters, times)
        want = cell_weights(photon_density(amps, lay.n_emitters))
        self._assert_stream(stream, want[:, None], 1e-15)

    def test_non_uniform_ring_matches_dense_expm_stepping(self, monkeypatch):
        # t1 != t2 on the N = 100 ring, below, at and above the exceptional
        # point gamma = 2 t1; the plan follows the largest alpha_2
        gammas = (0.5, 2.6, 3.0)
        lay = EmitterLayout([37], 0.2)
        lossless, *hamiltonians = [
            build_total_hamiltonian(LatticeParams(100, 1.3, 0.8, gamma,
                                                  "periodic"), lay)
            for gamma in (0.0, *gammas)]
        psi0 = excited_emitter_state(LatticeParams(100, 1.3, 0.8, 0.0,
                                                   "periodic"), lay)
        times = np.linspace(0, 10, 41)
        xs = _spy_degrees(monkeypatch)
        want = np.stack([
            cell_weights(photon_density(expm_stepped(H, psi0, times),
                                        lay.n_emitters))
            for H in hamiltonians], axis=1)
        self._assert_stream(stacked_cell_weights(lossless, gammas, psi0,
                                                 lay.n_emitters, times),
                            want, 1e-13)
        np.testing.assert_allclose(xs, _chunk_xs(_alpha2(*hamiltonians),
                                                 times), rtol=1e-12)

    def test_bad_inputs(self):
        # checked at the call, before any sample is drawn
        p, lay, H = self._ring(0.0)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 1, 3)
        for gammas in ([], [[1.0]], [[1.0, 2.0]], 1.0, [1.0, np.nan],
                       [1.0, np.inf], [-1.0]):
            with pytest.raises(ValueError, match="loss rates"):
                stacked_cell_weights(H, gammas, psi0, lay.n_emitters, times)
        with pytest.raises(ValueError, match="dimension"):
            stacked_cell_weights(H[:-2, :-2], [1.0], psi0, lay.n_emitters,
                                 times)
        for bad in ([0.0, 1.0, 1.0], [0.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="times"):
                stacked_cell_weights(H, [1.0], psi0, lay.n_emitters, bad)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestTimeAverage:
    """The streamed trapezoid average against `np.trapezoid` of the stored
    samples, bit for bit: the same terms added in the same order."""

    @staticmethod
    def _trapezoid(times, w, t_average):
        n = np.searchsorted(times, t_average + 1e-12, side="right")
        return (np.trapezoid(w[:n], times[:n], axis=0)
                / (times[n - 1] - times[0]))

    @pytest.mark.parametrize("shape", [(201, 100), (201, 40, 10)],
                             ids=["n_t,N", "n_t,n_gamma,N"])
    @pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
    @pytest.mark.parametrize("t_frac", [1.0, 0.37])
    def test_bitwise_equal_to_trapezoid(self, shape, grid, t_frac):
        rng = np.random.default_rng(11)
        if grid == "uniform":
            times = np.linspace(0, 20, shape[0])
        else:
            times = np.r_[0.0, np.cumsum(rng.uniform(0.01, 0.2,
                                                     shape[0] - 1))]
        w = rng.random(shape) ** 4  # weights spanning several decades
        t_average = t_frac * times[-1]
        want = self._trapezoid(times, w, t_average)
        for samples in (w, iter(w), (row.T.copy().T for row in w)):
            # an array, a stream, and Fortran-ordered samples
            got = time_average(times, samples, t_average)
            assert got.shape == shape[1:]
            assert (_bits(got) == _bits(want)).all()

    def test_stream_of_the_stepper_is_averaged_bitwise(self):
        p, lay, lossless = TestStackedCellWeights._ring(0.0)
        psi0 = excited_emitter_state(p, lay)
        times = np.linspace(0, 20, 201)

        def stream():
            return stacked_cell_weights(lossless, (0.5, 2.0, 3.5), psi0,
                                        lay.n_emitters, times)

        stack = np.array(list(stream()))
        for t_average in (20.0, 7.3):
            assert (_bits(time_average(times, stream(), t_average))
                    == _bits(self._trapezoid(times, stack, t_average))).all()

    def test_draws_no_sample_past_the_window(self):
        drawn = []

        def samples():
            for k in range(11):
                drawn.append(k)
                yield np.full(3, float(k))

        avg = time_average(np.linspace(0, 5, 11), samples(), 2.2)
        assert drawn == [0, 1, 2, 3, 4]  # the window ends at t = 2
        np.testing.assert_allclose(avg, 2.0, rtol=1e-15)

    def test_sweep_stops_stepping_at_the_window_end(self, monkeypatch):
        # t_av = 7.3 on a grid of step 0.1: the window's last sample is
        # t = 7.3 itself, so the stepper yields 74 samples, none past it
        steps, yielded = nhbath.dynamics._taylor_steps, []

        def steps_spy(*args):
            for psi in steps(*args):
                yielded.append(psi)
                yield psi

        monkeypatch.setattr(nhbath.dynamics, "_taylor_steps", steps_spy)
        raw = {"experiment": "sweep_gamma", "N": 10, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "boundary": "periodic", "g": 0.1, "cells": [4],
               "t_max": 20.0, "n_points": 201, "t_av": 7.3,
               "gamma_values": [1.0, 2.0, 3.0], "output_dir": "unused"}
        rows = nhbath.runner._FILES["sweep_gamma"](
            parse_config(json.dumps(raw)))["sweep.csv"]
        assert len(yielded) == 74
        assert "".join(rows).count("\n") == 4

    def test_window_rules(self):
        times = np.linspace(0, 2, 5)
        w = np.ones((5, 3))
        with pytest.raises(ValueError, match="exceeds"):
            time_average(times, w, 2.5)
        with pytest.raises(ValueError, match="time step"):
            time_average(times, w, 0.4)
        for t_average in (0.0, -1.0, np.nan, True):
            with pytest.raises(ValueError, match="t_average must be"):
                time_average(times, w, t_average)
        with pytest.raises(ValueError, match="need 3 samples"):
            time_average(times, iter(w[:2]), 1.0)
        with pytest.raises(ValueError, match="need 3 samples"):
            time_average(times, iter(()), 1.0)
        with pytest.raises(ValueError, match="sample 2 has shape"):
            time_average(times, iter([w[0], w[1], w[2, :2]]), 1.0)


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
    heff = heff_closed_form(params, layout, form="finite")
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
    chain, at gamma = J and 3J the stepped exponential of the closed-form
    H_eff."""

    @staticmethod
    def _max_deviation(oracle, gamma, g, boundary):
        p = LatticeParams(40, 1.0, 1.0, gamma, boundary)
        lay = EmitterLayout([10, 11, 12, 13], g)
        times = np.linspace(0, 6 / (g ** 2 / 4), 301)
        amps = evolve(build_total_hamiltonian(p, lay),
                      excited_emitter_state(p, lay), lay.n_emitters, times)
        pops = emitter_populations(amps, lay.n_emitters)
        return np.abs(pops - oracle(p, lay, times)).max()

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

    def test_deviation_scales_as_g_squared_above_the_exceptional_point(self):
        # gamma = 3J on the open chain: from g = 0.2 to 0.1 the deviation
        # falls by 5.1, so the g^2 law is checked from g = 0.1 down
        dev = {g: self._max_deviation(_heff_populations, 3.0, g, "open")
               for g in (0.1, 0.05)}
        assert dev[0.1] < 1e-3
        assert dev[0.1] / dev[0.05] == pytest.approx(4.0, rel=0.1)


class TestFitDecayRate:
    def test_recovers_synthetic_rate(self):
        t = np.linspace(0, 50, 200)
        pops = 0.7 * np.exp(-0.013 * t)
        assert fit_decay_rate(t, pops, 5.0, 45.0) == pytest.approx(0.013, rel=1e-10)

    def test_empty_window(self):
        with pytest.raises(ValueError):
            fit_decay_rate([0.0, 1.0], [1.0, 0.5], 5.0, 6.0)
