"""Experiment configuration: flat JSON schema, full-file validation,
canonical serialization."""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields
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
    if not (isinstance(val, list) and val and all(map(integer, val))):
        return f"expected a non-empty list of integers, got {val!r}"
    repeated = sorted({cell for cell in val if val.count(cell) > 1})
    return f"repeated cell(s) {repeated}" if repeated else None


def _reals(val):
    if isinstance(val, list) and not any(map(_NON_NEGATIVE, val)):
        return None
    return f"expected a list of finite reals >= 0, got {val!r}"


def _text(val):
    return (None if isinstance(val, str) and val
            else f"expected a non-empty string, got {val!r}")


def _key(rule, store, default=None):
    """One config key: `rule` maps a given value to a problem or None, `store`
    to the value kept; a key whose default is None is required where it is
    read (the lattice keys are read by every experiment)."""
    return field(default=default, metadata={"rule": rule, "store": store})


class ConfigError(ValueError):
    """Raised with the complete list of problems found in a config."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join(f"  - {p}" for p in self.problems))


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config key, declaring its rule, the type it is stored as
    and its default; a key the experiment does not read holds its default."""

    experiment: str = _key(_one_of(*EXPERIMENTS), str)
    N: int = _key(_number(True, 2, False), int)  # number of unit cells
    t1: float = _key(_POSITIVE, float)  # intra-cell hopping
    t2: float = _key(_POSITIVE, float)  # inter-cell hopping scale
    gamma: float = _key(_NON_NEGATIVE, float)  # loss rate of the lossy sublattice
    boundary: str = _key(_one_of(*BOUNDARIES), str, "periodic")
    g: Optional[float] = _key(_POSITIVE, float)  # emitter-photon coupling
    cells: Optional[tuple] = _key(_cells, tuple)  # 1-based, distinct emitter cells
    excited_emitter: int = _key(_number(True, 1, False), int, 1)  # 1-based (transfer)
    t_max: float = _key(_POSITIVE, float, 20.0)  # end of the time grid
    n_points: int = _key(_number(True, 2, False), int, 201)  # number of time samples
    t_av: float = _key(_POSITIVE, float, 20.0)  # averaging window of the localization
    # loss rates swept by sweep_gamma; an empty list gives none
    gamma_values: Optional[tuple] = _key(
        _reals, lambda v: tuple(map(float, v)) or None)
    heff_method: str = _key(_one_of("numeric", "finite", "asymptotic"), str,
                            "numeric")
    output_dir: str = _key(_text, str, "out")  # directory for result files

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


# every legal flat key -> its field
KNOWN_KEYS = {spec.name: spec for spec in fields(ExperimentConfig)}


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text of the keys the experiment reads.

    The lattice keys, `output_dir` and any `gamma_values` given are always
    kept; the other keys only for the experiments that read them (see
    `_READS`).  parse_config(serialize_config(cfg)) == cfg.
    """
    return json.dumps(cfg.flat_dict(), sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs):
    """object_pairs_hook of json.loads: the object as a dict, or ConfigError
    naming each key it gives more than once."""
    counts = Counter(key for key, _ in pairs)
    if len(counts) < len(pairs):
        raise ConfigError([f"repeated key {key!r}"
                           for key, n in counts.items() if n > 1])
    return dict(pairs)


def parse_config(text: str, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Parse and validate a flat JSON config, reporting every problem at once.

    The keys of `overrides` replace those of the text; a key given twice in
    the text is an error.  Every key given is checked by its own rule,
    whatever the experiment; the rules that join keys see only the valid
    values of keys the experiment reads.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top-level JSON value must be an object"])
    raw.update(overrides or {})

    problems = [f"unknown key {key!r}" for key in sorted(set(raw) - set(KNOWN_KEYS))]
    valid, invalid = {}, set()
    for key, spec in KNOWN_KEYS.items():
        if raw.get(key) is None:  # null means absent
            continue
        if problem := spec.metadata["rule"](raw[key]):
            problems.append(f"{key}: {problem}")
            invalid.add(key)
        else:
            valid[key] = spec.metadata["store"](raw[key])
    experiment = valid.get("experiment")
    reads = _READS.get(experiment, ())
    # the values the experiment reads, the default standing in for a key not
    # given; an invalid value is dropped and None marks a missing key
    val = {key: valid.get(key, KNOWN_KEYS[key].default)
           for key in _COMMON + reads if key not in invalid}
    problems += [f"{key}: required" for key in ("experiment", *_LATTICE)
                 if key in val and val[key] is None]
    problems += [f"{key}: required for experiment {experiment}" for key in reads
                 if key in val and val[key] is None]
    val = {key: value for key, value in val.items() if value is not None}

    if "cells" in val and "g" in val:
        cells, n = val["cells"], val.get("N")
        bad = [c for c in cells if n is not None and not 1 <= c <= n]
        if bad:
            problems.append(f"cells: {bad} out of range 1..{n}")
        if experiment == "transfer" and len(cells) < 2:
            problems.append("cells: transfer needs at least two emitters")
        if experiment in ("dressed", "sweep_gamma", "emit") and len(cells) != 1:
            problems.append(f"cells: experiment {experiment} takes exactly one emitter")
        if "excited_emitter" in val and val["excited_emitter"] > len(cells):
            problems.append(f"excited_emitter: {val['excited_emitter']} "
                            "exceeds the number of emitters")

    if all(key in val for key in ("t_max", "n_points", "t_av")):
        t_max, t_av = val["t_max"], val["t_av"]
        step = t_max / (val["n_points"] - 1)
        if t_av > t_max + 1e-12:  # the overshoot time_average allows
            problems.append(f"t_av: averaging window {t_av} exceeds t_max {t_max}")
        elif t_av + 1e-12 < step:
            problems.append(f"t_av: averaging window {t_av} is shorter than "
                            f"the time step {step}")

    # models the computation rejects, by the rules of the modules that own
    # them; both read the lattice alone
    if all(key in val for key in _LATTICE):
        lattice = LatticeParams(*(val[key] for key in _LATTICE))
        if experiment == "dressed":
            problems += [f"dressed: {r}" for r in dressed_state_problems(lattice)]
        if val.get("heff_method") in ("finite", "asymptotic"):
            problems += [f"heff_method: {reason}" for reason in
                         closed_form_problems(lattice, val["heff_method"])]

    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**val)
