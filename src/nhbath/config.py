"""Experiment configuration: flat JSON schema, full-file validation,
canonical serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .dressed import dressed_state_problems
from .effective import closed_form_problems
from .params import BOUNDARIES, EmitterLayout, LatticeParams

# experiment -> the keys it reads beyond the lattice keys, output_dir, tol
# and any gamma_values given; an experiment that reads cells has emitters
_READS = {
    "spectrum": (),
    "emit": ("g", "cells", "t_max", "n_points", "t_av"),
    "transfer": ("g", "cells", "excited_emitter", "t_max", "n_points"),
    "heff": ("g", "cells", "heff_method"),
    "dressed": ("g", "cells", "dressed_kind"),
    "sweep_gamma": ("g", "cells", "t_max", "n_points", "t_av", "gamma_values"),
}
EXPERIMENTS = tuple(_READS)
# kept in the canonical text of every experiment (gamma_values when given)
_COMMON = ("experiment", "N", "t1", "t2", "gamma", "boundary", "output_dir",
           "tol", "gamma_values")

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

# numeric key -> (integer only, lower bound, bound excluded)
_NUMBERS = {
    "N": (True, 2, False),
    "t1": (False, 0, True),
    "t2": (False, 0, True),
    "gamma": (False, 0, False),
    "g": (False, 0, True),
    "excited_emitter": (True, 1, False),
    "t_max": (False, 0, True),
    "n_points": (True, 2, False),
    "t_av": (False, 0, True),
    "tol": (False, 0, True),
}
_CHOICES = {
    "experiment": EXPERIMENTS,
    "boundary": BOUNDARIES,
    "heff_method": ("numeric", "finite", "asymptotic"),
    "dressed_kind": ("bulk", "edge"),
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
# input a `dressed_state_problems` reason names -> the config key it comes from
_DRESSED_INPUTS = {"params": "dressed", "kind": "dressed_kind", "cell": "cells"}


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
    excited_emitter: int
    t_max: float
    n_points: int
    t_av: float
    gamma_values: Optional[tuple]
    heff_method: str
    dressed_kind: str
    output_dir: str
    tol: float

    def flat_dict(self) -> dict:
        lat, em = self.lattice, self.emitters
        values = {
            "experiment": self.experiment,
            "N": lat.n_cells,
            "t1": lat.t1,
            "t2": lat.t2,
            "gamma": lat.gamma,
            "boundary": lat.boundary,
            "g": None if em is None else em.g,
            "cells": None if em is None else list(em.cells),
            "excited_emitter": self.excited_emitter,
            "t_max": self.t_max,
            "n_points": self.n_points,
            "t_av": self.t_av,
            "gamma_values": (None if self.gamma_values is None
                             else list(self.gamma_values)),
            "heff_method": self.heff_method,
            "dressed_kind": self.dressed_kind,
            "output_dir": self.output_dir,
            "tol": self.tol,
        }
        keep = _COMMON + _READS[self.experiment]
        return {k: v for k, v in values.items() if k in keep and v is not None}


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text of the keys the experiment reads.

    The lattice keys, `output_dir`, `tol` and any `gamma_values` given are
    always kept; the other keys only for the experiments that read them (see
    `_READS`).  An ignored key is dropped, so parsing the text can give a
    config that holds the default there, but serialization is idempotent:
    serialize(parse(serialize(cfg))) == serialize(cfg).
    """
    return json.dumps(cfg.flat_dict(), sort_keys=True, indent=2) + "\n"


def _finite(val) -> bool:
    """True for NaN-free, infinity-free numbers inside the float range."""
    try:
        return math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def _number_problem(val, integer, minimum, strict) -> Optional[str]:
    """What is wrong with a given number under its rule (see `_NUMBERS`)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return f"expected a number, got {val!r}"
    if integer and not isinstance(val, int):
        return f"expected an integer, got {val!r}"
    if not _finite(val):
        return f"must be a finite number, got {val!r}"
    if val <= minimum if strict else val < minimum:
        return f"must be {'>' if strict else '>='} {minimum}, got {val!r}"
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config, reporting every problem at once.

    Every key given is checked by its own rule, whatever the experiment; the
    rules that join keys apply only where the experiment reads them.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])

    problems = [f"unknown key {key!r}" for key in sorted(set(raw) - set(KNOWN_KEYS))]
    # null means absent: an optional key takes its default, a required key
    # is missing
    raw = {key: value for key, value in raw.items() if value is not None}
    # a key's value, or its default (None if it has none) when the key is
    # absent or, for a number, invalid; an invalid choice is None
    val = {}
    for key, rule in _NUMBERS.items():
        problem = _number_problem(raw[key], *rule) if key in raw else None
        if problem:
            problems.append(f"{key}: {problem}")
        val[key] = raw[key] if key in raw and not problem else _DEFAULTS.get(key)
    for key, allowed in _CHOICES.items():
        val[key] = raw.get(key, _DEFAULTS.get(key))
        if key in raw and val[key] not in allowed:
            problems.append(f"{key}: must be one of {allowed}, got {val[key]!r}")
            val[key] = None
    cells = raw.get("cells")
    if cells is not None and (
            not isinstance(cells, list) or len(cells) == 0
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in cells)):
        problems.append(f"cells: expected a non-empty list of integers, got {cells!r}")
        cells = None
    experiment = val["experiment"]
    reads = _READS.get(experiment, ())
    gamma_values = raw.get("gamma_values")
    if gamma_values is not None and (
            not isinstance(gamma_values, list)
            or (not gamma_values and "gamma_values" in reads)
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and _finite(v) and v >= 0 for v in gamma_values)):
        problems.append("gamma_values: expected a non-empty list of finite "
                        f"reals >= 0, got {gamma_values!r}")
        gamma_values = None
    output_dir = raw.get("output_dir", _DEFAULTS["output_dir"])
    if not isinstance(output_dir, str) or not output_dir:
        problems.append(f"output_dir: expected a non-empty string, got {output_dir!r}")

    for key in ("experiment", "N", "t1", "t2", "gamma"):
        if key not in raw:
            problems.append(f"{key}: required")
    for key in reads:
        if key not in _DEFAULTS and key not in raw:
            problems.append(f"{key}: required for experiment {experiment}")

    n = val["N"]
    lattice = None
    if None not in (n, val["t1"], val["t2"], val["gamma"], val["boundary"]):
        # cannot raise: _NUMBERS and _CHOICES hold LatticeParams' own rules
        lattice = LatticeParams(n, float(val["t1"]), float(val["t2"]),
                                float(val["gamma"]), val["boundary"])

    emitters = None
    if "cells" in reads and cells is not None and val["g"] is not None:
        try:
            emitters = EmitterLayout(cells, float(val["g"]))
        except ValueError as exc:
            problems.append(f"cells/g: {exc}")
    if emitters is not None:
        bad = [c for c in emitters.cells if n is not None and not 1 <= c <= n]
        if bad:
            problems.append(f"cells: {bad} out of range 1..{n}")
        if experiment == "transfer" and emitters.n_emitters < 2:
            problems.append("cells: transfer needs at least two emitters")
        if experiment in ("dressed", "sweep_gamma", "emit") \
                and emitters.n_emitters != 1:
            problems.append(f"cells: experiment {experiment} takes exactly one emitter")
        if val["excited_emitter"] > emitters.n_emitters:
            problems.append(f"excited_emitter: {val['excited_emitter']} "
                            "exceeds the number of emitters")

    if "t_av" in reads:
        t_max, t_av = val["t_max"], val["t_av"]
        step = t_max / (val["n_points"] - 1)
        if t_av > t_max:
            problems.append(f"t_av: averaging window {t_av} exceeds t_max {t_max}")
        elif t_av + 1e-12 < step:
            problems.append(f"t_av: averaging window {t_av} is shorter than "
                            f"the time step {step}")

    # models the computation rejects, by the rules of the modules that own them
    if lattice is not None and emitters is not None:
        if experiment == "dressed":
            problems += [f"{_DRESSED_INPUTS[arg]}: {reason}" for arg, reason in
                         dressed_state_problems(lattice, val["dressed_kind"],
                                                emitters.cells[0])]
        if experiment == "heff" and val["heff_method"] in ("finite", "asymptotic"):
            problems += [f"heff_method: {reason}" for reason in
                         closed_form_problems(lattice, val["heff_method"])]

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        experiment=experiment,
        lattice=lattice,
        emitters=emitters,
        excited_emitter=int(val["excited_emitter"]),
        t_max=float(val["t_max"]),
        n_points=int(val["n_points"]),
        t_av=float(val["t_av"]),
        gamma_values=tuple(float(v) for v in gamma_values) if gamma_values else None,
        heff_method=val["heff_method"],
        dressed_kind=val["dressed_kind"],
        output_dir=output_dir,
        tol=float(val["tol"]),
    )
