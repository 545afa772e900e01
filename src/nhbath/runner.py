"""Experiment orchestration: run a validated config, write deterministic
plot-ready CSV/JSON datasets plus a manifest."""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ExperimentConfig, serialize_config
from .dressed import bulk_dressed_state, edge_dressed_state
from .dynamics import (cell_weights, emitter_populations, evolve,
                       localization_report, photon_density,
                       stacked_cell_weights)
from .effective import heff_closed_form, heff_numeric
from .lattice import build_total_hamiltonian
from .params import excited_emitter_state
from .spectral import bloch_spectrum, obc_spectrum


def _csv(header, columns) -> str:
    """CSV text from equal-length columns.  A list is a column of strings,
    written as given; anything else is read as floats and written in the
    shortest round-trip decimal form (<= 17 significant digits)."""
    cols = [c if isinstance(c, list)
            else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n"


def _localization_csv(rows) -> str:
    """(gamma, P_loc, P_L, P_R) rows as CSV."""
    return _csv(("gamma", "P_loc", "P_L", "P_R"), np.array(rows, dtype=float).T)


def max_workers() -> int:
    """One per CPU.  Nothing in the package runs threads; this is kept only
    because the benchmark (`perfbench/run.py`) records it in its environment
    block, and goes when the benchmark stops reading it."""
    return os.cpu_count() or 1


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def _spectrum_files(cfg: ExperimentConfig) -> dict:
    if cfg.lattice.periodic:
        res = bloch_spectrum(cfg.lattice)
        evs, label = res.eigenvalues, res.q_values
    else:
        res = obc_spectrum(cfg.lattice)
        # by real part, ties by imaginary part: above the exceptional point
        # eigenvalues pair up with equal real parts
        evs = res.eigenvalues[np.lexsort((res.eigenvalues.imag,
                                          res.eigenvalues.real))]
        label = np.arange(evs.size)
    return {"spectrum.csv": _csv(("re_E", "im_E", "boundary", "q_or_index"),
                                 (evs.real, evs.imag, [res.boundary] * evs.size,
                                  label))}


def _trajectory_files(cfg: ExperimentConfig) -> dict:
    lattice, layout = cfg.lattice, cfg.emitters
    H = build_total_hamiltonian(lattice, layout)
    psi0 = excited_emitter_state(lattice, layout, which=cfg.excited_emitter)
    traj = evolve(H, psi0, layout.n_emitters, _time_grid(cfg))
    pops = emitter_populations(traj)
    dens = photon_density(traj)

    ts = [repr(t) for t in traj.times.tolist()]

    def samples(values, first):  # (t, index, value) rows, time-major
        n_steps, width = values.shape
        # each distinct time and index is formatted once, as _csv would
        idx = [repr(float(k)) for k in range(first, first + width)]
        return [s for s in ts for _ in range(width)], idx * n_steps, values.ravel()

    files = {
        "populations.csv": _csv(("t", "emitter_index", "p"), samples(pops, 1)),
        "density.csv": _csv(("t", "site_index", "density"), samples(dens, 0)),
    }
    if cfg.experiment == "emit":
        rep = localization_report(traj.times, cell_weights(dens),
                                  cfg.cells[0], cfg.t_av, lattice.periodic)
        files["localization.csv"] = _localization_csv(
            [(cfg.gamma, rep.p_local, rep.p_left, rep.p_right)])
    return files


def _heff_files(cfg: ExperimentConfig) -> dict:
    if cfg.heff_method == "numeric":
        mat = heff_numeric(cfg.lattice, cfg.emitters)
    else:
        mat = heff_closed_form(cfg.lattice, cfg.emitters, form=cfg.heff_method)
    entries = mat.entries.ravel(order="C")
    if not np.isfinite(entries).all():  # JSON has no NaN or Infinity
        raise ValueError("the coupling matrix has a non-finite entry")
    # each value formatted once, as json writes a float (float.__repr__)
    re = list(map(repr, entries.real.tolist()))
    im = list(map(repr, entries.imag.tolist()))
    payload = {
        "method": mat.method,
        "boundary": mat.boundary,
        "params": {"N": cfg.N, "t1": cfg.t1, "t2": cfg.t2, "gamma": cfg.gamma,
                   "g": mat.g, "cells": list(mat.cells)},
        "entries": [],
    }
    # json's indent layout of the [re, im] pairs, written here because
    # json.dumps with indent falls back to its pure-Python encoder
    pairs = ",\n".join(f"    [\n      {r},\n      {i}\n    ]"
                       for r, i in zip(re, im))
    text = json.dumps(payload, sort_keys=True, indent=2).replace(
        '"entries": []', f'"entries": [\n{pairs}\n  ]', 1)
    labels = [str(c) for c in mat.cells]
    return {
        "heff.json": text + "\n",
        "heff.csv": _csv(("m", "n", "re", "im"),
                         ([m for m in labels for _ in labels],
                          labels * len(labels), re, im)),
    }


def _dressed_files(cfg: ExperimentConfig) -> dict:
    if cfg.dressed_kind == "bulk":
        ds = bulk_dressed_state(cfg.lattice, cfg.cells[0], cfg.g)
    else:
        ds = edge_dressed_state(cfg.lattice, cfg.g)
    amps = ds.photon_amps  # alpha1, beta1, alpha2, ... (mapped picture)
    labels = [f"{label}{cell}" for cell in range(1, cfg.N + 1)
              for label in ("alpha", "beta")]
    return {"dressed.csv": _csv(
        ("site_label", "re_amp", "im_amp", "modulus"),
        (["emitter", *labels], np.r_[1.0, amps.real], np.r_[0.0, amps.imag],
         np.r_[1.0, np.abs(amps)]))}


def _sweep_files(cfg: ExperimentConfig) -> dict:
    times = _time_grid(cfg)
    lattice, layout = cfg.lattice, cfg.emitters
    hamiltonians = [build_total_hamiltonian(replace(lattice, gamma=gamma), layout)
                    for gamma in cfg.gamma_values]
    weights = stacked_cell_weights(hamiltonians,
                                   excited_emitter_state(lattice, layout),
                                   layout.n_emitters, times)
    rows = []
    for gamma, w in zip(cfg.gamma_values, weights.transpose(1, 0, 2)):
        rep = localization_report(times, w, cfg.cells[0], cfg.t_av,
                                  lattice.periodic)
        rows.append((gamma, rep.p_local, rep.p_left, rep.p_right))
    return {"sweep.csv": _localization_csv(rows)}


_FILES = {
    "spectrum": _spectrum_files,
    "emit": _trajectory_files,
    "transfer": _trajectory_files,
    "heff": _heff_files,
    "dressed": _dressed_files,
    "sweep_gamma": _sweep_files,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the configured experiment and write its datasets.

    All results are computed before anything is written, so a failing run
    leaves no partial files.  Returns the list of paths written (the
    manifest last).  Identical configs produce byte-identical files.
    """
    files = _FILES[cfg.experiment](cfg)
    canon = serialize_config(cfg)
    manifest = {
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "version": __version__,
        "experiment": cfg.experiment,
        "files": sorted(files),
    }
    os.makedirs(cfg.output_dir, exist_ok=True)
    written = []
    for name in sorted(files):
        path = os.path.join(cfg.output_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(files[name])
        written.append(path)
    mpath = os.path.join(cfg.output_dir, "manifest.json")
    with open(mpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(mpath)
    return written
