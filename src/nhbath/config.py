"""Experiment configuration: flat JSON schema, full-file validation,
canonical serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .params import BOUNDARIES, EmitterLayout, LatticeParams

EXPERIMENTS = ("spectrum", "emit", "transfer", "heff", "dressed", "sweep_gamma")

# every legal flat key -> short description (doubles as the schema doc)
KNOWN_KEYS = {
    "experiment": "one of " + ", ".join(EXPERIMENTS),
    "N": "number of unit cells (int >= 2)",
    "t1": "intra-cell hopping (> 0)",
    "t2": "inter-cell hopping scale (> 0)",
    "gamma": "loss rate of the lossy sublattice (>= 0)",
    "boundary": "'periodic' or 'open'",
    "g": "emitter-photon coupling (> 0)",
    "cells": "1-based cells hosting emitters (list of distinct ints)",
    "excited_emitter": "1-based emitter that starts excited (transfer)",
    "t_max": "end of the time grid (> 0)",
    "n_points": "number of time samples (int >= 2)",
    "t_av": "averaging window for localization reports (> 0)",
    "gamma_values": "loss rates for sweep_gamma (list of reals >= 0)",
    "heff_method": "'numeric', 'finite' or 'asymptotic' (heff)",
    "dressed_kind": "'bulk' or 'edge' (dressed)",
    "output_dir": "directory for result files",
    "tol": "numerical tolerance for propagation checks (> 0)",
}

_DEFAULTS = {
    "boundary": "periodic",
    "excited_emitter": 1,
    "t_max": 20.0,
    "n_points": 201,
    "t_av": 20.0,
    "heff_method": "numeric",
    "dressed_kind": "bulk",
    "output_dir": "out",
    "tol": 1e-9,
}

_NEEDS_EMITTERS = ("emit", "transfer", "heff", "dressed", "sweep_gamma")


class ConfigError(ValueError):
    """Raised with the complete list of problems found in a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass
class ExperimentConfig:
    experiment: str
    lattice: LatticeParams
    emitters: Optional[EmitterLayout]
    excited_emitter: int = 1
    t_max: float = 20.0
    n_points: int = 201
    t_av: float = 20.0
    gamma_values: Optional[tuple] = None
    heff_method: str = "numeric"
    dressed_kind: str = "bulk"
    output_dir: str = "out"
    tol: float = 1e-9

    def flat_dict(self) -> dict:
        d = {
            "experiment": self.experiment,
            "N": self.lattice.n_cells,
            "t1": self.lattice.t1,
            "t2": self.lattice.t2,
            "gamma": self.lattice.gamma,
            "boundary": self.lattice.boundary,
            "output_dir": self.output_dir,
            "tol": self.tol,
        }
        if self.emitters is not None:
            d["g"] = self.emitters.g
            d["cells"] = list(self.emitters.cells)
        if self.experiment == "transfer":
            d["excited_emitter"] = self.excited_emitter
        if self.experiment in ("emit", "transfer", "sweep_gamma"):
            d["t_max"] = self.t_max
            d["n_points"] = self.n_points
        if self.experiment in ("emit", "sweep_gamma"):
            d["t_av"] = self.t_av
        if self.gamma_values is not None:
            d["gamma_values"] = list(self.gamma_values)
        if self.experiment == "heff":
            d["heff_method"] = self.heff_method
        if self.experiment == "dressed":
            d["dressed_kind"] = self.dressed_kind
        return d


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text; parse(serialize(cfg)) reproduces cfg."""
    return json.dumps(cfg.flat_dict(), sort_keys=True, indent=2) + "\n"


def _finite(val) -> bool:
    """True for NaN-free, infinity-free numbers inside the float range."""
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def _check_number(raw, key, problems, *, integer=False, minimum=None,
                  strict=False):
    val = raw.get(key)
    if val is None:
        return None
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"{key}: expected a number, got {val!r}")
        return None
    if integer and not isinstance(val, int):
        problems.append(f"{key}: expected an integer, got {val!r}")
        return None
    if not _finite(val):
        problems.append(f"{key}: must be a finite number, got {val!r}")
        return None
    if minimum is not None and (val <= minimum if strict else val < minimum):
        op = ">" if strict else ">="
        problems.append(f"{key}: must be {op} {minimum}, got {val!r}")
        return None
    return val


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config, reporting every problem at once."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])

    problems = []
    for key in sorted(set(raw) - set(KNOWN_KEYS)):
        problems.append(f"unknown key {key!r}")

    experiment = raw.get("experiment")
    if experiment is None:
        problems.append("experiment: required")
    elif experiment not in EXPERIMENTS:
        problems.append(f"experiment: must be one of {EXPERIMENTS}, got {experiment!r}")
        experiment = None

    n = _check_number(raw, "N", problems, integer=True, minimum=2)
    t1 = _check_number(raw, "t1", problems, minimum=0, strict=True)
    t2 = _check_number(raw, "t2", problems, minimum=0, strict=True)
    gamma = _check_number(raw, "gamma", problems, minimum=0)
    for key in ("N", "t1", "t2", "gamma"):
        if key not in raw:
            problems.append(f"{key}: required")
    boundary = raw.get("boundary", _DEFAULTS["boundary"])
    if boundary not in BOUNDARIES:
        problems.append(f"boundary: must be one of {BOUNDARIES}, got {boundary!r}")
        boundary = None

    lattice = None
    if None not in (n, t1, t2, gamma, boundary):
        try:
            lattice = LatticeParams(n, float(t1), float(t2), float(gamma), boundary)
        except ValueError as exc:
            problems.append(str(exc))

    emitters = None
    if experiment in _NEEDS_EMITTERS:
        g = _check_number(raw, "g", problems, minimum=0, strict=True)
        cells = raw.get("cells")
        if "g" not in raw:
            problems.append("g: required for experiment " + experiment)
        if cells is None:
            problems.append("cells: required for experiment " + experiment)
        elif (not isinstance(cells, list) or len(cells) == 0
              or not all(isinstance(c, int) and not isinstance(c, bool) for c in cells)):
            problems.append(f"cells: expected a non-empty list of integers, got {cells!r}")
            cells = None
        if cells is not None and g is not None:
            try:
                emitters = EmitterLayout(cells, float(g))
            except ValueError as exc:
                problems.append(f"cells/g: {exc}")
        if emitters is not None and n is not None:
            bad = [c for c in emitters.cells if not 1 <= c <= n]
            if bad:
                problems.append(f"cells: {bad} out of range 1..{n}")
        if experiment == "transfer" and emitters is not None and emitters.n_emitters < 2:
            problems.append("cells: transfer needs at least two emitters")
        if experiment in ("dressed", "sweep_gamma", "emit") and emitters is not None \
                and emitters.n_emitters != 1:
            problems.append(f"cells: experiment {experiment} takes exactly one emitter")

    excited = _check_number(raw, "excited_emitter", problems, integer=True, minimum=1)
    if excited is None:
        excited = _DEFAULTS["excited_emitter"]
    elif emitters is not None and excited > emitters.n_emitters:
        problems.append(f"excited_emitter: {excited} exceeds the number of emitters")

    t_max = _check_number(raw, "t_max", problems, minimum=0, strict=True)
    if t_max is None:
        t_max = _DEFAULTS["t_max"]
    n_points = _check_number(raw, "n_points", problems, integer=True, minimum=2)
    if n_points is None:
        n_points = _DEFAULTS["n_points"]
    t_av = _check_number(raw, "t_av", problems, minimum=0, strict=True)
    if t_av is None:
        t_av = _DEFAULTS["t_av"]
    if experiment in ("emit", "sweep_gamma"):
        step = t_max / (n_points - 1)
        if t_av > t_max:
            problems.append(f"t_av: averaging window {t_av} exceeds t_max {t_max}")
        elif t_av + 1e-12 < step:
            problems.append(f"t_av: averaging window {t_av} is shorter than "
                            f"the time step {step}")
    tol = _check_number(raw, "tol", problems, minimum=0, strict=True)
    if tol is None:
        tol = _DEFAULTS["tol"]

    gamma_values = raw.get("gamma_values")
    if experiment == "sweep_gamma":
        if gamma_values is None:
            problems.append("gamma_values: required for experiment sweep_gamma")
        elif (not isinstance(gamma_values, list) or len(gamma_values) == 0
              or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         and _finite(v) and v >= 0 for v in gamma_values)):
            problems.append("gamma_values: expected a non-empty list of finite reals >= 0, "
                            f"got {gamma_values!r}")
            gamma_values = None
    elif gamma_values is not None and not isinstance(gamma_values, list):
        problems.append(f"gamma_values: expected a list, got {gamma_values!r}")
        gamma_values = None

    heff_method = raw.get("heff_method", _DEFAULTS["heff_method"])
    if heff_method not in ("numeric", "finite", "asymptotic"):
        problems.append("heff_method: must be 'numeric', 'finite' or "
                        f"'asymptotic', got {heff_method!r}")
    dressed_kind = raw.get("dressed_kind", _DEFAULTS["dressed_kind"])
    if dressed_kind not in ("bulk", "edge"):
        problems.append(f"dressed_kind: must be 'bulk' or 'edge', got {dressed_kind!r}")

    output_dir = raw.get("output_dir", _DEFAULTS["output_dir"])
    if not isinstance(output_dir, str) or not output_dir:
        problems.append(f"output_dir: expected a non-empty string, got {output_dir!r}")

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        experiment=experiment,
        lattice=lattice,
        emitters=emitters,
        excited_emitter=int(excited),
        t_max=float(t_max),
        n_points=int(n_points),
        t_av=float(t_av),
        gamma_values=tuple(float(v) for v in gamma_values) if gamma_values else None,
        heff_method=heff_method,
        dressed_kind=dressed_kind,
        output_dir=output_dir,
        tol=float(tol),
    )
