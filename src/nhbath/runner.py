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
from .dressed import dressed_state
from .dynamics import (cell_weights, emitter_populations, evolve,
                       localization_report, photon_density,
                       stacked_cell_weights, time_average)
from .effective import heff_closed_form, heff_numeric
from .lattice import build_total_hamiltonian
from .params import excited_emitter_state
from .spectral import bloch_spectrum, obc_spectrum


def _csv(header, columns) -> str:
    """CSV text from equal-length columns.  A list is a column of strings,
    written as given; anything else is read as floats and written in the
    shortest round-trip decimal form (<= 17 significant digits).  Every
    value as a Python float and every row's text are held at once, several
    times the size of the text: fine for the small files, while the
    time-major ones go through `_time_major_csv`."""
    cols = [c if isinstance(c, list)
            else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n"


def _reprs(values) -> list:
    """`repr` of every float of `values`, in C order.  Each distinct value
    is formatted once: values are told apart by their bit pattern, so -0.0
    and 0.0 keep their own text."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64).ravel()
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = list(map(repr, distinct.view(float).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _time_major_csv(header, times, values, first) -> list:
    """CSV of the (n_steps, width) `values` as (t, index, value) rows,
    time-major, index counted from `first`, every number as `_csv` writes
    it; one block of text per time sample.  One row template, every index
    label in it, serves every sample, so only one sample's values are held
    as Python objects at a time."""
    template = "".join(f"\0,{float(k)!r},%r\n"
                       for k in range(first, first + values.shape[1]))
    return [",".join(header) + "\n"] + [
        template.replace("\0", repr(t)) % tuple(row.tolist())
        for t, row in zip(times.tolist(), values)]


def _localization_csv(gammas, probs) -> str:
    """CSV of the (n_gamma, 3) `localization_report` arrays `probs`, one
    row (gamma, P_loc, P_L, P_R) per entry of `gammas`."""
    return _csv(("gamma", "P_loc", "P_L", "P_R"), (gammas, *probs.T))


def max_workers() -> int:
    """One per CPU.  Nothing in the package runs threads; this is kept only
    because the benchmark (`perfbench/run.py`) records it in its environment
    block, and goes when the benchmark stops reading it."""
    return os.cpu_count() or 1


def _sample_times(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_max, cfg.n_points)


def _spectrum_files(cfg: ExperimentConfig) -> dict:
    if cfg.lattice.periodic:
        evs, label = bloch_spectrum(cfg.lattice)
    else:
        evs = obc_spectrum(cfg.lattice)
        # by real part, ties by imaginary part: above the exceptional point
        # eigenvalues pair up with equal real parts
        evs = evs[np.lexsort((evs.imag, evs.real))]
        label = np.arange(evs.size)
    return {"spectrum.csv": [_csv(("re_E", "im_E", "boundary", "q_or_index"),
                                  (evs.real, evs.imag, [cfg.boundary] * evs.size,
                                   label))]}


def _trajectory_files(cfg: ExperimentConfig) -> dict:
    lattice, layout = cfg.lattice, cfg.emitters
    H = build_total_hamiltonian(lattice, layout)
    psi0 = excited_emitter_state(lattice, layout, which=cfg.excited_emitter)
    times = _sample_times(cfg)
    amps = evolve(H, psi0, layout.n_emitters, times)
    pops = emitter_populations(amps, layout.n_emitters)
    dens = photon_density(amps, layout.n_emitters)
    del amps  # not read again: 5 MB at N = 400 held while formatting

    # one block per time sample: the text is the run's largest object, and
    # formatting it all at once would hold several times its size
    files = {
        "populations.csv": _time_major_csv(("t", "emitter_index", "p"),
                                           times, pops, 1),
        "density.csv": _time_major_csv(("t", "site_index", "density"),
                                       times, dens, 0),
    }
    if cfg.experiment == "emit":
        probs = localization_report(
            time_average(times, cell_weights(dens), cfg.t_av), cfg.cells[0],
            lattice.periodic)
        files["localization.csv"] = [_localization_csv((cfg.gamma,),
                                                       probs[None])]
    return files


def _heff_files(cfg: ExperimentConfig) -> dict:
    if cfg.heff_method == "numeric":
        method = "numeric"
        entries = heff_numeric(cfg.lattice, cfg.emitters)
    else:
        method = f"closed_form_{cfg.heff_method}"
        entries = heff_closed_form(cfg.lattice, cfg.emitters,
                                   form=cfg.heff_method)
    entries = entries.ravel(order="C")
    if not np.isfinite(entries).all():  # JSON has no NaN or Infinity
        raise ValueError("the coupling matrix has a non-finite entry")
    # as json writes a float (float.__repr__); the couplings are translation
    # invariant, so few of the N^2 values are distinct
    re, im = _reprs(entries.real), _reprs(entries.imag)
    payload = {
        "method": method,
        "boundary": cfg.boundary,
        "params": {"N": cfg.N, "t1": cfg.t1, "t2": cfg.t2, "gamma": cfg.gamma,
                   "g": cfg.g, "cells": list(cfg.cells)},
        "entries": [],
    }
    # json's indent layout of the [re, im] pairs, written here because
    # json.dumps with indent falls back to its pure-Python encoder
    pairs = ",\n".join(f"    [\n      {r},\n      {i}\n    ]"
                       for r, i in zip(re, im))
    text = json.dumps(payload, sort_keys=True, indent=2).replace(
        '"entries": []', f'"entries": [\n{pairs}\n  ]', 1)
    labels = [str(c) for c in cfg.cells]
    return {
        "heff.json": [text + "\n"],
        "heff.csv": [_csv(("m", "n", "re", "im"),
                          ([m for m in labels for _ in labels],
                           labels * len(labels), re, im))],
    }


def _dressed_files(cfg: ExperimentConfig) -> dict:
    amps = dressed_state(cfg.lattice, cfg.cells[0], cfg.g)
    labels = [f"{label}{cell}" for cell in range(1, cfg.N + 1)
              for label in ("alpha", "beta")]
    return {"dressed.csv": [_csv(
        ("site_label", "re_amp", "im_amp", "modulus"),
        (["emitter", *labels], np.r_[1.0, amps.real], np.r_[0.0, amps.imag],
         np.r_[1.0, np.abs(amps)]))]}


def _sweep_files(cfg: ExperimentConfig) -> dict:
    times = _sample_times(cfg)
    lattice, layout = cfg.lattice, cfg.emitters
    H = build_total_hamiltonian(replace(lattice, gamma=0.0), layout)
    # averaged as the samples are stepped: no (n_steps, n_gamma, N) stack,
    # and no stepping past the window
    weights = time_average(times, stacked_cell_weights(
        H, cfg.gamma_values, excited_emitter_state(lattice, layout),
        layout.n_emitters, times), cfg.t_av)
    probs = localization_report(weights, cfg.cells[0], lattice.periodic)
    return {"sweep.csv": [_localization_csv(cfg.gamma_values, probs)]}


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

    All results are computed, and every file's text built as a list of
    blocks, before anything is written, so a failing run leaves no partial
    files.  Returns the list of paths written (the manifest last).
    Identical configs produce byte-identical files.
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
            fh.writelines(files[name])
        written.append(path)
    mpath = os.path.join(cfg.output_dir, "manifest.json")
    with open(mpath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(mpath)
    return written
