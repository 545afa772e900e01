"""Experiment configuration: flat JSON schema, full-file validation,
canonical serialization."""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .dressed import dressed_state_problems
from .effective import closed_form_problems
from .params import BOUNDARIES, EmitterLayout, LatticeParams, finite, integer

# experiment -> the keys it reads beyond the lattice keys, output_dir and
# any gamma_values given; an experiment that reads cells has emitters
_READS = {
    "spectrum": (),
    "emit": ("g", "cells", "t_max", "n_points", "t_av"),
    "transfer": ("g", "cells", "excited_emitter", "t_max", "n_points"),
    "heff": ("g", "cells", "heff_method"),
    "dressed": ("g", "cells"),
    "sweep_gamma": ("g", "cells", "t_max", "n_points", "t_av", "gamma_values"),
}
EXPERIMENTS = tuple(_READS)
_LATTICE = ("N", "t1", "t2", "gamma", "boundary")  # LatticeParams' arguments
# read by every experiment and kept in its canonical text (gamma_values when
# given)
_COMMON = ("experiment", *_LATTICE, "output_dir", "gamma_values")


def _number(whole, minimum, strict):
    """Rule of a number: an integer if `whole`, finite, and >= `minimum`
    (> if `strict`)."""
    def rule(val):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            return f"expected a number, got {val!r}"
        if whole and not isinstance(val, int):
            return f"expected an integer, got {val!r}"
        if not finite(val):
            return f"must be a finite number, got {val!r}"
        if val <= minimum if strict else val < minimum:
            return f"must be {'>' if strict else '>='} {minimum}, got {val!r}"
        return None
    return rule


_POSITIVE = _number(False, 0, True)
_NON_NEGATIVE = _number(False, 0, False)


def _one_of(*allowed):
    return lambda val: (None if val in allowed
                        else f"must be one of {allowed}, got {val!r}")


def _cells(val):
    if isinstance(val, list) and val and all(map(integer, val)):
        return None
    return f"expected a non-empty list of integers, got {val!r}"


def _reals(val):
    if isinstance(val, list) and not any(map(_NON_NEGATIVE, val)):
        return None
    return f"expected a list of finite reals >= 0, got {val!r}"


def _text(val):
    return (None if isinstance(val, str) and val
            else f"expected a non-empty string, got {val!r}")


# every legal flat key -> (rule: given value -> problem or None, default,
# type it is stored as).  A key without a default (None) is required where
# it is read; the lattice keys are read by every experiment.
KNOWN_KEYS = {
    "experiment": (_one_of(*EXPERIMENTS), None, str),
    "N": (_number(True, 2, False), None, int),  # number of unit cells
    "t1": (_POSITIVE, None, float),  # intra-cell hopping
    "t2": (_POSITIVE, None, float),  # inter-cell hopping scale
    "gamma": (_NON_NEGATIVE, None, float),  # loss rate of the lossy sublattice
    "boundary": (_one_of(*BOUNDARIES), "periodic", str),
    "g": (_POSITIVE, None, float),  # emitter-photon coupling
    "cells": (_cells, None, tuple),  # 1-based, distinct cells hosting emitters
    "excited_emitter": (_number(True, 1, False), 1, int),  # 1-based (transfer)
    "t_max": (_POSITIVE, 20.0, float),  # end of the time grid
    "n_points": (_number(True, 2, False), 201, int),  # number of time samples
    "t_av": (_POSITIVE, 20.0, float),  # averaging window of the localization
    # loss rates swept by sweep_gamma; an empty list gives none
    "gamma_values": (_reals, None, lambda v: tuple(map(float, v)) or None),
    "heff_method": (_one_of("numeric", "finite", "asymptotic"), "numeric", str),
    "output_dir": (_text, "out", str),  # directory for result files
}


class ConfigError(ValueError):
    """Raised with the complete list of problems found in a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per key of `KNOWN_KEYS`; a key the experiment does not read
    holds its default."""

    experiment: str
    N: int
    t1: float
    t2: float
    gamma: float
    boundary: str
    g: Optional[float]
    cells: Optional[tuple]
    excited_emitter: int
    t_max: float
    n_points: int
    t_av: float
    gamma_values: Optional[tuple]
    heff_method: str
    output_dir: str

    @cached_property
    def lattice(self) -> LatticeParams:
        return LatticeParams(*(getattr(self, key) for key in _LATTICE))

    @cached_property
    def emitters(self) -> Optional[EmitterLayout]:
        return None if self.cells is None else EmitterLayout(self.cells, self.g)

    def flat_dict(self) -> dict:
        keep = _COMMON + _READS[self.experiment]
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in vars(self).items()
                if key in keep and value is not None}


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text of the keys the experiment reads.

    The lattice keys, `output_dir` and any `gamma_values` given are always
    kept; the other keys only for the experiments that read them (see
    `_READS`).  parse_config(serialize_config(cfg)) == cfg.
    """
    return json.dumps(cfg.flat_dict(), sort_keys=True, indent=2) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat JSON config, reporting every problem at once.

    Every key given is checked by its own rule, whatever the experiment; the
    rules that join keys see only the valid values of keys the experiment
    reads.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])

    problems = [f"unknown key {key!r}" for key in sorted(set(raw) - set(KNOWN_KEYS))]
    valid, invalid = {}, set()
    for key, (rule, _, store) in KNOWN_KEYS.items():
        if raw.get(key) is None:  # null means absent
            continue
        if problem := rule(raw[key]):
            problems.append(f"{key}: {problem}")
            invalid.add(key)
        else:
            valid[key] = store(raw[key])
    experiment = valid.get("experiment")
    reads = _READS.get(experiment, ())
    # the values the experiment reads, the default standing in for a key not
    # given; an invalid value is dropped and None marks a missing key
    val = {key: valid.get(key, KNOWN_KEYS[key][1])
           for key in _COMMON + reads if key not in invalid}
    problems += [f"{key}: required" for key in ("experiment", *_LATTICE)
                 if key in val and val[key] is None]
    problems += [f"{key}: required for experiment {experiment}" for key in reads
                 if key in val and val[key] is None]
    val = {key: value for key, value in val.items() if value is not None}

    lattice = emitters = None
    if all(key in val for key in _LATTICE):
        lattice = LatticeParams(*(val[key] for key in _LATTICE))
    if "cells" in val and "g" in val:
        try:
            emitters = EmitterLayout(val["cells"], val["g"])
        except ValueError as exc:
            problems.append(f"cells/g: {exc}")
    if emitters is not None:
        n = val.get("N")
        bad = [c for c in emitters.cells if n is not None and not 1 <= c <= n]
        if bad:
            problems.append(f"cells: {bad} out of range 1..{n}")
        if experiment == "transfer" and emitters.n_emitters < 2:
            problems.append("cells: transfer needs at least two emitters")
        if experiment in ("dressed", "sweep_gamma", "emit") \
                and emitters.n_emitters != 1:
            problems.append(f"cells: experiment {experiment} takes exactly one emitter")
        if "excited_emitter" in val and val["excited_emitter"] > emitters.n_emitters:
            problems.append(f"excited_emitter: {val['excited_emitter']} "
                            "exceeds the number of emitters")

    if all(key in val for key in ("t_max", "n_points", "t_av")):
        t_max, t_av = val["t_max"], val["t_av"]
        step = t_max / (val["n_points"] - 1)
        if t_av > t_max:
            problems.append(f"t_av: averaging window {t_av} exceeds t_max {t_max}")
        elif t_av + 1e-12 < step:
            problems.append(f"t_av: averaging window {t_av} is shorter than "
                            f"the time step {step}")

    # models the computation rejects, by the rules of the modules that own
    # them; both read the lattice alone
    if lattice is not None:
        if experiment == "dressed":
            problems += [f"dressed: {r}" for r in dressed_state_problems(lattice)]
        if val.get("heff_method") in ("finite", "asymptotic"):
            problems += [f"heff_method: {reason}" for reason in
                         closed_form_problems(lattice, val["heff_method"])]

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**{key: val.get(key, default)
                               for key, (_, default, _) in KNOWN_KEYS.items()})
