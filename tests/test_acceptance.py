"""Acceptance suite: one test per headline capability, each printing a
single PASS/FAIL line with the measured numbers."""
import dataclasses

import numpy as np
import pytest

from nhbath import (EmitterLayout, LatticeParams, band_centroid,
                    build_total_hamiltonian, bulk_dressed_state, cell_weights,
                    edge_dressed_state, emitter_populations, evolve,
                    excited_emitter_state, fit_decay_rate, heff_closed_form,
                    heff_numeric, interaction_range, localization_report,
                    obc_spectrum, photon_density, point_gap_winding,
                    verify_eigenstate)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_single_emitter_decay_rate():
    # single emitter, N=100, g=0.1J, gamma=2J: the amplitude decay rate of
    # the excited emitter must equal g^2/(4J) = 0.0025 within 3%
    gam_eff = 0.1 ** 2 / 4
    p = LatticeParams(100, 1.0, 1.0, 2.0)
    lay = EmitterLayout([15], 0.1)
    H = build_total_hamiltonian(p, lay)
    times = np.linspace(0.0, 1.5 / gam_eff, 301)
    traj = evolve(H, excited_emitter_state(p, lay), lay.n_emitters, times)
    pe = emitter_populations(traj)[:, 0]
    pop_rate = fit_decay_rate(times, pe, 0.2 / gam_eff, 1.5 / gam_eff)
    # |c_e|^2 ~ exp(-2 Gamma t) for an amplitude ~ exp(-Gamma t)
    rate = pop_rate / 2
    rel = abs(rate - gam_eff) / gam_eff
    _report("criterion 1 (decay rate)", rel <= 0.03,
            f"population rate {pop_rate:.6f}, amplitude rate {rate:.6f}, "
            f"target {gam_eff:.6f}, rel dev {rel:.2e} (see the criterion-1 "
            "entry in CHANGES.md)")


def test_criterion_02_closed_form_matches_numeric_resolvent():
    worst = 0.0
    for n_cells in (5, 9, 15):
        for gamma in (0.5, 1.0, 2.0, 4.0):
            p = LatticeParams(n_cells, 1.0, 1.0, gamma)
            lay = EmitterLayout(range(1, n_cells + 1), 0.1)
            num = heff_numeric(p, lay).entries
            closed = heff_closed_form(p, lay, form="finite").entries
            worst = max(worst,
                        np.max(np.abs(num - closed)) / np.max(np.abs(num)))
    _report("criterion 2 (oracle equivalence)", worst <= 1e-9,
            f"worst relative deviation {worst:.2e} over 12 (N, gamma) points")


def test_criterion_03_fully_directional_couplings_at_ep():
    p = LatticeParams(9, 1.0, 1.0, 2.0)
    lay = EmitterLayout(range(1, 10), 0.1)
    h = heff_numeric(p, lay).entries
    gam_eff = 0.1 ** 2 / 4
    errs = [np.max(np.abs(np.diag(h) + 1j * gam_eff)),
            np.max(np.abs(np.diag(h, -1) - 1j * gam_eff)),
            abs(h[0, 8] - 1j * gam_eff)]
    mask = np.ones_like(h, dtype=bool)
    np.fill_diagonal(mask, False)
    mask[np.arange(1, 9), np.arange(8)] = False
    mask[0, 8] = False
    rest = np.max(np.abs(h[mask]))
    ok = max(errs) <= 1e-10 and rest < 1e-10 * gam_eff
    _report("criterion 3 (EP couplings)", ok,
            f"pattern error {max(errs):.2e}, residual off-pattern weight "
            f"{rest:.2e} (vs 1e-10*Gamma = {1e-10 * gam_eff:.1e})")


def test_criterion_04_boundary_condition_insensitivity():
    g = 0.1
    details = []
    ok = True
    for n_cells in (9, 10):
        ring = LatticeParams(n_cells, 1.0, 1.0, 1.0)
        lay = EmitterLayout(range(1, n_cells + 1), g)
        hp = heff_numeric(ring, lay).entries
        ho = heff_numeric(dataclasses.replace(ring, boundary="open"), lay).entries
        signs = np.ones((n_cells, n_cells))
        signs[np.triu_indices(n_cells, 1)] = (-1) ** (n_cells + 1)
        diff = np.max(np.abs(hp * signs - ho))
        ok = ok and diff <= 1e-6
        details.append(f"N={n_cells}: max deviation {diff:.2e}")
    _report("criterion 4 (BC insensitivity)", ok, "; ".join(details))


def test_criterion_05_non_reciprocal_state_transfer():
    gam_eff = 0.1 ** 2 / 4
    p = LatticeParams(20, 1.0, 1.0, 2.0, "open")
    lay = EmitterLayout([10, 11], 0.1)
    H = build_total_hamiltonian(p, lay)
    times = np.linspace(0.0, 1.5 / gam_eff, 401)
    fwd = emitter_populations(evolve(H, excited_emitter_state(p, lay, 1),
                                     lay.n_emitters, times))
    rev = emitter_populations(evolve(H, excited_emitter_state(p, lay, 2),
                                     lay.n_emitters, times))
    peak = fwd[:, 1].max()
    leak = rev[:, 0].max()
    ok = peak > 0.05 and leak < 1e-6
    _report("criterion 5 (non-reciprocity)", ok,
            f"forward peak p2 {peak:.3f} (> 0.05), reverse max p1 {leak:.2e} "
            "(< 1e-6)")


def test_criterion_06_localization_cusp():
    gammas = np.round(np.linspace(0.1, 4.0, 40), 12)
    lay = EmitterLayout([15], 0.05)
    times = np.linspace(0.0, 20.0, 201)
    rows = []
    for gamma in gammas:
        p = LatticeParams(100, 1.0, 1.0, float(gamma), "open")
        H = build_total_hamiltonian(p, lay)
        traj = evolve(H, excited_emitter_state(p, lay), lay.n_emitters, times)
        rep = localization_report(traj.times, cell_weights(photon_density(traj)),
                                  15, 20.0)
        rows.append((rep.p_local, rep.p_right))
    p_loc = np.array([r[0] for r in rows])
    at = int(np.argmax(p_loc))
    p_right_at_peak = rows[at][1]
    ok = gammas[at] == pytest.approx(2.0, abs=1e-9) and p_right_at_peak < 1e-3
    _report("criterion 6 (localization cusp)", ok,
            f"P_loc maximal at gamma={gammas[at]} (P_loc={p_loc[at]:.4f}), "
            f"P_R there {p_right_at_peak:.2e}")


def test_criterion_07_dressed_state_residual_scaling():
    p = LatticeParams(9, 1.0, 1.0, 2.0, "open")
    ratios = []
    for kind in ("bulk", "edge"):
        res = []
        for g in (0.05, 0.025):
            if kind == "bulk":
                ds = bulk_dressed_state(p, 4, g)
            else:
                ds = edge_dressed_state(p, g)
            H = build_total_hamiltonian(p, EmitterLayout([ds.source_cell], g))
            res.append(verify_eigenstate(H, ds))
        ratios.append(res[0] / res[1])
    ok = all(abs(r - 8.0) <= 0.15 * 8.0 for r in ratios)
    _report("criterion 7 (dressed residual scaling)", ok,
            f"halving g divides the residual by {ratios[0]:.3f} (bulk) and "
            f"{ratios[1]:.3f} (edge); target 8 +/- 15%")


def test_criterion_08_interaction_range():
    gammas = np.linspace(0.1, 6.0, 20)
    worst = 0.0
    for gamma in gammas:
        kappa = abs((gamma - 2.0) / (gamma + 2.0))
        want = 0.0 if kappa == 0 else -1.0 / np.log(kappa)
        worst = max(worst, abs(interaction_range(gamma, 1.0) - want))
    zero_at_ep = interaction_range(2.0, 1.0) == 0.0
    flagged = np.isinf(interaction_range(0.0, 1.0))
    ok = worst <= 1e-12 and zero_at_ep and flagged
    _report("criterion 8 (interaction range)", ok,
            f"max |lambda - oracle| {worst:.1e} over 20 points; lambda(2J)="
            f"{interaction_range(2.0, 1.0)}, lambda(0)="
            f"{interaction_range(0.0, 1.0)}")


def test_criterion_09_spectral_boundary_sensitivity():
    ring = LatticeParams(64, 1.0, 2.0, 1.0)
    w = point_gap_winding(ring, band_centroid(ring, "upper"))
    try:
        point_gap_winding(dataclasses.replace(ring, boundary="open"), 0.0)
        obc_reports = False
    except ValueError:
        obc_reports = True  # OBC has no Bloch loop to wind
    gammas = np.linspace(1.0, 3.0, 41)
    defect = [obc_spectrum(LatticeParams(20, 1.0, 1.0, float(g), "open")).defectivity
              for g in gammas]
    at = gammas[int(np.argmin(defect))]
    step = gammas[1] - gammas[0]
    ok = w != 0 and obc_reports and abs(at - 2.0) <= step + 1e-12
    _report("criterion 9 (spectral BC sensitivity)", ok,
            f"PBC winding {w} at the upper-band centroid; OBC winding "
            f"rejected: {obc_reports}; defectivity minimum at gamma={at}")


def test_criterion_10_passivity_property_suite():
    rng = np.random.default_rng(20240817)
    worst = -np.inf
    for _ in range(1000):
        n_cells = int(rng.integers(2, 13))
        p = LatticeParams(n_cells,
                          float(rng.uniform(0.2, 2.0)),
                          float(rng.uniform(0.2, 2.0)),
                          float(rng.uniform(0.0, 4.0)),
                          "periodic" if rng.random() < 0.5 else "open")
        n_emit = int(rng.integers(1, 4))
        cells = rng.choice(n_cells, size=min(n_emit, n_cells),
                           replace=False) + 1
        lay = EmitterLayout(cells, float(rng.uniform(0.01, 0.8)))
        H = build_total_hamiltonian(p, lay)
        dim = H.shape[0]
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 = v / np.linalg.norm(v)
        times = np.linspace(0.0, float(rng.uniform(1.0, 10.0)), 21)
        traj = evolve(H, psi0, lay.n_emitters, times)
        worst = max(worst, float(np.max(np.diff(traj.norm_history))))
    _report("criterion 10 (passivity)", worst <= 1e-10,
            f"1000 randomized evolutions; largest per-step norm increase "
            f"{worst:.2e} (<= 1e-10)")
