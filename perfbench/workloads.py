"""The benchmark's workloads: seeded inputs, output checks, and the
independent references the outputs are compared with.

Sizes are fixed per workload; the seed only picks emitter cells and a small
jitter of the coupling g and the loss gamma.  Every reference is computed by
this module's own code from the model definition in the README (sparse
assembly, scipy's `expm_multiply`, the imaginary-gauge tridiagonal chain),
never by calling nhbath.  The reasons for each workload are the `why` lines
in BENCHMARK.json.
"""
from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# slack for identities that hold exactly up to floating-point rounding
ROUNDING = 1e-12


@dataclass(frozen=True)
class Workload:
    """One named workload.

    An op is one `nhbath <command>` call per entry of `runs` (each entry a
    list of --set overrides), every call writing to its own directory.
    `tolerance` gates `max_err`; None records it without gating.
    """

    command: str
    runs: tuple
    tolerance: Optional[float]
    make_config: Callable[[random.Random, bool], dict]
    check: Callable[[dict, list], tuple]

    @property
    def experiment(self) -> str:
        return self.command.replace("-", "_")

    def config(self, seed: int, smoke: bool = False) -> dict:
        return self.make_config(random.Random(seed), smoke)


def _jitter(rng: random.Random, value: float) -> float:
    return round(value * (1.0 + rng.uniform(-0.05, 0.05)), 6)


def _bulk_cell(rng: random.Random, n: int) -> int:
    return rng.randint(n // 4, 3 * n // 4)


# ---------------------------------------------------------------- inputs

def _emit_config(rng, smoke):
    n, t_max, n_points = (12, 4.0, 41) if smoke else (400, 40.0, 401)
    return {"N": n, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "open",
            "g": _jitter(rng, 0.1), "cells": [_bulk_cell(rng, n)],
            "t_max": t_max, "n_points": n_points, "t_av": t_max}


def _sweep_config(rng, smoke):
    n, t_max, n_points = (10, 4.0, 41) if smoke else (100, 20.0, 201)
    n_gamma = 4 if smoke else 40
    gammas = [round(4.0 * k / n_gamma, 12) for k in range(1, n_gamma + 1)]
    return {"N": n, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "periodic",
            "g": _jitter(rng, 0.05), "cells": [_bulk_cell(rng, n)],
            "t_max": t_max, "n_points": n_points, "t_av": t_max,
            "gamma_values": gammas}


def _heff_config(rng, smoke):
    # N even: the open-chain resolvent lives on an odd (N+1)-cell ring, which
    # keeps the case non-degenerate; gamma stays well away from 2J
    n = 10 if smoke else 200
    return {"N": n, "t1": 1.0, "t2": 1.0, "gamma": _jitter(rng, 1.0),
            "boundary": "open", "g": _jitter(rng, 0.05),
            "cells": list(range(1, n + 1))}


def _spectrum_config(rng, smoke):
    n = 10 if smoke else 400
    return {"N": n, "t1": 1.0, "t2": 1.0,
            "gamma": round(rng.uniform(0.8, 1.2), 6), "boundary": "open"}


# ------------------------------------------------------------ references

def reference_hamiltonian(n, t1, t2, gamma, periodic, cells, g):
    """Sparse single-excitation Hamiltonian, original (a, b) basis, emitters
    first, assembled from the model definition: intra-cell hopping t1, the
    four inter-cell links of size t2/2 (two imaginary, same-sublattice), loss
    -i*gamma on every b cavity, and each emitter coupled with g to the b
    cavity of its cell."""
    import scipy.sparse as sp

    ne = len(cells)
    k = np.arange(n)
    a, b = ne + 2 * k, ne + 2 * k + 1
    links = k if periodic else k[:-1]
    nxt = (links + 1) % n
    ak, bk, am, bm = a[links], b[links], a[nxt], b[nxt]
    em = np.arange(ne)
    eb = ne + 2 * (np.asarray(cells, dtype=int) - 1) + 1
    terms = [(a, b, t1), (b, a, t1), (b, b, -1j * gamma),
             (ak, bm, t2 / 2), (bm, ak, t2 / 2), (bk, am, t2 / 2), (am, bk, t2 / 2),
             (ak, am, -0.5j * t2), (am, ak, 0.5j * t2),
             (bk, bm, 0.5j * t2), (bm, bk, -0.5j * t2),
             (em, eb, g), (eb, em, g)]
    rows = np.concatenate([r for r, _, _ in terms])
    cols = np.concatenate([c for _, c, _ in terms])
    vals = np.concatenate([np.full(len(r), v, dtype=complex) for r, _, v in terms])
    dim = ne + 2 * n
    return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))


def reference_trajectories(cfg, gammas, periodic):
    """psi(t) on the config's time grid for each loss rate in `gammas`,
    emitter 1 excited at t = 0, shape (len(gammas), n_points, dim).  All
    loss rates are propagated together, as one block-diagonal system, by
    scipy's `expm_multiply`."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    blocks = [reference_hamiltonian(cfg["N"], cfg["t1"], cfg["t2"], g, periodic,
                                    cfg["cells"], cfg["g"]) for g in gammas]
    dim = blocks[0].shape[0]
    psi0 = np.zeros(dim * len(blocks), dtype=complex)
    psi0[::dim] = 1.0
    psi = expm_multiply(-1j * sp.block_diag(blocks, format="csc"), psi0,
                        start=0.0, stop=cfg["t_max"], num=cfg["n_points"],
                        endpoint=True)
    return psi.reshape(cfg["n_points"], len(blocks), dim).transpose(1, 0, 2)


def reference_localization(times, density, cell, t_av):
    """(P_loc, P_L, P_R): time-averaged cell weights over [0, t_av], local =
    the emitter's cell and the next one, left/right by cell index."""
    mask = times <= t_av + ROUNDING
    cells = density[mask][:, 0::2] + density[mask][:, 1::2]
    avg = np.trapezoid(cells, times[mask], axis=0)
    c = cell - 1
    parts = np.array([avg[c:c + 2].sum(), avg[:c].sum(), avg[c + 2:].sum()])
    return parts / parts.sum()


def reference_obc_spectrum(n, t1, t2, gamma):
    """Open-chain eigenvalues via the imaginary gauge: a real symmetric
    tridiagonal chain (intra-cell sqrt(t1^2 - gamma^2/4), inter-cell t2)
    shifted by -i*gamma/2.  Valid below the exceptional point, gamma < 2*t1."""
    from scipy.linalg import eigh_tridiagonal

    off = np.empty(2 * n - 1)
    off[0::2] = np.sqrt(t1 ** 2 - gamma ** 2 / 4)
    off[1::2] = t2
    return eigh_tridiagonal(np.zeros(2 * n), off, eigvals_only=True) - 0.5j * gamma


def hausdorff(x, y) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    d = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


# ---------------------------------------------------------- reading back

class Problems(list):
    """Broken checks, one message each."""

    def expect(self, ok, message):
        if not ok:
            self.append(message)
        return bool(ok)


def _file_set(d, data_files, experiment, problems) -> bool:
    try:
        found = set(os.listdir(d))
    except OSError as exc:
        problems.append(f"{d}: {exc}")
        return False
    if not problems.expect(found == set(data_files) | {"manifest.json"},
                           f"{d}: files {sorted(found)}"):
        return False
    with open(os.path.join(d, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return problems.expect(manifest.get("files") == sorted(data_files)
                           and manifest.get("experiment") == experiment,
                           f"{d}: manifest {manifest}")


def _numeric_csv(path, header, n_rows, problems):
    """All-numeric CSV as a (n_rows, len(header)) array, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: {exc}")
        return None
    if not (problems.expect(first == list(header), f"{path}: header {first}")
            and problems.expect(data.shape == (n_rows, len(header)),
                                f"{path}: shape {data.shape}, want {(n_rows, len(header))}")
            and problems.expect(np.isfinite(data).all(), f"{path}: NaN or Inf")):
        return None
    return data


def _max_abs(*pairs) -> float:
    return max(float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) for x, y in pairs)


# ---------------------------------------------------------------- checks
# Each check reads one op's files back and returns (max_err, problems).

def _check_emit(cfg, dirs):
    (d,) = dirs
    problems = Problems()
    files = ("density.csv", "localization.csv", "populations.csv")
    if not _file_set(d, files, "emit", problems):
        return np.inf, problems
    n_sites, n_t = 2 * cfg["N"], cfg["n_points"]
    pops = _numeric_csv(os.path.join(d, "populations.csv"),
                        ("t", "emitter_index", "p"), n_t, problems)
    dens = _numeric_csv(os.path.join(d, "density.csv"),
                        ("t", "site_index", "density"), n_t * n_sites, problems)
    loc = _numeric_csv(os.path.join(d, "localization.csv"),
                       ("gamma", "P_loc", "P_L", "P_R"), 1, problems)
    if problems:
        return np.inf, problems
    times = np.linspace(0.0, cfg["t_max"], n_t)
    density = dens[:, 2].reshape(n_t, n_sites)
    problems.expect((pops[:, 1] == 1).all(), "populations.csv: emitter_index")
    problems.expect((dens[:, 1].reshape(n_t, n_sites) == np.arange(n_sites)).all(),
                    "density.csv: site_index")
    weight = pops[:, 2] + density.sum(axis=1)
    problems.expect(np.diff(weight).max() <= ROUNDING,
                    f"passivity: total weight grows by {np.diff(weight).max():.3g}")
    problems.expect(abs(loc[0, 1:].sum() - 1.0) <= ROUNDING,
                    f"P_loc + P_L + P_R = {loc[0, 1:].sum()!r}")

    (psi,) = reference_trajectories(cfg, [cfg["gamma"]], periodic=False)
    ref_density = np.abs(psi[:, 1:]) ** 2
    ref_loc = reference_localization(times, ref_density, cfg["cells"][0], cfg["t_av"])
    err = _max_abs((pops[:, 0], times), (dens[:, 0], np.repeat(times, n_sites)),
                   (pops[:, 2], np.abs(psi[:, 0]) ** 2), (density, ref_density),
                   (loc[0, 0], cfg["gamma"]), (loc[0, 1:], ref_loc))
    return err, problems


def _check_sweep(cfg, dirs):
    (d,) = dirs
    problems = Problems()
    if not _file_set(d, ("sweep.csv",), "sweep_gamma", problems):
        return np.inf, problems
    gammas = np.array(cfg["gamma_values"])
    rows = _numeric_csv(os.path.join(d, "sweep.csv"),
                        ("gamma", "P_loc", "P_L", "P_R"), gammas.size, problems)
    if rows is None:
        return np.inf, problems
    sums = rows[:, 1:].sum(axis=1)
    problems.expect(np.abs(sums - 1.0).max() <= ROUNDING,
                    f"P_loc + P_L + P_R off by {np.abs(sums - 1.0).max():.3g}")
    times = np.linspace(0.0, cfg["t_max"], cfg["n_points"])
    ref = np.array([reference_localization(times, np.abs(psi[:, 1:]) ** 2,
                                           cfg["cells"][0], cfg["t_av"])
                    for psi in reference_trajectories(cfg, gammas, periodic=True)])
    return _max_abs((rows[:, 0], gammas), (rows[:, 1:], ref)), problems


def _heff_entries(d, method, cfg, problems):
    if not _file_set(d, ("heff.csv", "heff.json"), "heff", problems):
        return None
    with open(os.path.join(d, "heff.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    cells = cfg["cells"]
    n2 = len(cells) ** 2
    entries = np.array(payload["entries"], dtype=float)
    rows = _numeric_csv(os.path.join(d, "heff.csv"), ("m", "n", "re", "im"),
                        n2, problems)
    if not (problems.expect(payload["method"] == method, f"{d}: method {payload['method']}")
            and problems.expect(payload["params"]["cells"] == cells, f"{d}: cells")
            and problems.expect(entries.shape == (n2, 2), f"{d}: entries {entries.shape}")
            and problems.expect(np.isfinite(entries).all(), f"{d}: NaN or Inf in heff.json")
            and rows is not None):
        return None
    grid = np.array([(m, n) for m in cells for n in cells])
    problems.expect((rows[:, :2] == grid).all(), f"{d}: heff.csv cell columns")
    problems.expect((rows[:, 2:] == entries).all(), f"{d}: heff.csv differs from heff.json")
    return entries[:, 0] + 1j * entries[:, 1]


def _check_heff(cfg, dirs):
    problems = Problems()
    finite = _heff_entries(dirs[0], "closed_form_finite", cfg, problems)
    numeric = _heff_entries(dirs[1], "numeric", cfg, problems)
    if finite is None or numeric is None:
        return np.inf, problems
    return float(np.abs(finite - numeric).max() / np.abs(numeric).max()), problems


def _check_spectrum(cfg, dirs):
    (d,) = dirs
    problems = Problems()
    if not _file_set(d, ("spectrum.csv",), "spectrum", problems):
        return np.inf, problems
    with open(os.path.join(d, "spectrum.csv"), encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    n_levels = 2 * cfg["N"]
    if not (problems.expect(table[0] == ["re_E", "im_E", "boundary", "q_or_index"],
                            f"spectrum.csv: header {table[0]}")
            and problems.expect(len(table) == n_levels + 1,
                                f"spectrum.csv: {len(table) - 1} rows, want {n_levels}")):
        return np.inf, problems
    body = table[1:]
    problems.expect(all(r[2] == "open" for r in body), "spectrum.csv: boundary column")
    values = np.array([(r[0], r[1], r[3]) for r in body], dtype=float)
    if not problems.expect(np.isfinite(values).all(), "spectrum.csv: NaN or Inf"):
        return np.inf, problems
    problems.expect((values[:, 2] == np.arange(n_levels)).all(), "spectrum.csv: index column")
    problems.expect((np.diff(values[:, 0]) >= 0).all(), "spectrum.csv: not sorted by re_E")
    problems.expect(values[:, 1].max() <= ROUNDING,
                    f"passivity: eigenvalue with im_E = {values[:, 1].max():.3g} > 0")
    ref = reference_obc_spectrum(cfg["N"], cfg["t1"], cfg["t2"], cfg["gamma"])
    return hausdorff(values[:, 0] + 1j * values[:, 1], ref), problems


WORKLOADS = {
    "emit-open-n400": Workload("emit", ((),), 1e-9, _emit_config, _check_emit),
    "sweep-gamma-pbc-n100": Workload("sweep-gamma", ((),), 1e-9,
                                     _sweep_config, _check_sweep),
    "heff-open-n200": Workload("heff", (("--set", "heff_method=finite"),
                                        ("--set", "heff_method=numeric")),
                               1e-10, _heff_config, _check_heff),
    # max_err here is the known error of dense eig on the long open chain;
    # it is recorded, not gated
    "spectrum-open-n400": Workload("spectrum", ((),), None,
                                   _spectrum_config, _check_spectrum),
}
