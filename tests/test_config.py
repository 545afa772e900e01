import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbath import (ConfigError, EmitterLayout, ExperimentConfig,
                    LatticeParams, bulk_dressed_state, edge_dressed_state,
                    heff_closed_form, heff_numeric, parse_config,
                    serialize_config)
from nhbath.config import EXPERIMENTS, KNOWN_KEYS

MINIMAL_SPECTRUM = ('{"N": 8, "t1": 1, "t2": 1, "gamma": 1, '
                    '"boundary": "periodic", "experiment": "spectrum"}')


class TestParseConfig:
    def test_minimal_spectrum(self):
        cfg = parse_config(MINIMAL_SPECTRUM)
        assert cfg.experiment == "spectrum"
        assert cfg.lattice.n_cells == 8
        assert cfg.lattice.periodic
        assert cfg.emitters is None
        assert cfg.tol == 1e-9  # documented default

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("N: 8")

    def test_negative_gamma_names_the_field(self):
        bad = MINIMAL_SPECTRUM.replace('"gamma": 1', '"gamma": -0.5')
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(bad)

    def test_unknown_key_is_an_error(self):
        raw = json.loads(MINIMAL_SPECTRUM)
        raw["gama"] = 1.0
        with pytest.raises(ConfigError, match="unknown key 'gama'"):
            parse_config(json.dumps(raw))

    def test_all_problems_reported_at_once(self):
        raw = {"experiment": "emit", "N": 1, "t1": -1.0, "gamma": 1.0,
               "boundary": "möbius", "bogus": True}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        problems = "\n".join(exc.value.problems)
        for fragment in ("unknown key 'bogus'", "N", "t1", "t2: required",
                         "boundary", "g: required", "cells: required"):
            assert fragment in problems, fragment

    @pytest.mark.parametrize("experiment, key, default", [
        ("spectrum", "boundary", "periodic"), ("heff", "heff_method", "numeric"),
        ("dressed", "dressed_kind", "bulk"), ("emit", "output_dir", "out")])
    def test_null_optional_key_takes_its_default(self, experiment, key, default):
        raw = {"experiment": experiment, "N": 8, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "g": 0.05, "cells": [3]}
        cfg = parse_config(json.dumps(dict(raw, **{key: None})))
        assert cfg == parse_config(json.dumps(raw))
        assert cfg.flat_dict()[key] == default

    @pytest.mark.parametrize("key, problem", [
        ("N", "N: required"), ("cells", "cells: required for experiment heff")])
    def test_null_required_key_is_missing(self, key, problem):
        raw = {"experiment": "heff", "N": 8, "t1": 1.0, "t2": 1.0,
               "gamma": 1.0, "g": 0.05, "cells": [3], key: None}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert problem in exc.value.problems

    def test_spectrum_checks_the_emitter_keys_it_ignores(self):
        raw = json.loads(MINIMAL_SPECTRUM)
        assert parse_config(json.dumps(dict(raw, g=0.1, cells=[2, 3]))).emitters is None
        with pytest.raises(ConfigError, match="cells"):
            parse_config(json.dumps(dict(raw, cells="junk")))

    def test_emitter_cells_cross_checked(self):
        raw = {"experiment": "heff", "N": 5, "t1": 1, "t2": 1, "gamma": 1,
               "g": 0.1, "cells": [1, 9]}
        with pytest.raises(ConfigError, match="out of range"):
            parse_config(json.dumps(raw))

    def test_transfer_needs_two_emitters(self):
        raw = {"experiment": "transfer", "N": 5, "t1": 1, "t2": 1, "gamma": 1,
               "g": 0.1, "cells": [2]}
        with pytest.raises(ConfigError, match="two emitters"):
            parse_config(json.dumps(raw))

    def test_sweep_needs_gamma_values(self):
        raw = {"experiment": "sweep_gamma", "N": 5, "t1": 1, "t2": 1,
               "gamma": 1, "g": 0.1, "cells": [2]}
        with pytest.raises(ConfigError, match="gamma_values"):
            parse_config(json.dumps(raw))

    def test_fig2_style_sweep_round_trips(self):
        raw = {"experiment": "sweep_gamma", "N": 100, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "boundary": "open", "g": 0.1, "cells": [15],
               "t_max": 20.0, "n_points": 201, "t_av": 20.0,
               "gamma_values": [round(0.1 * k, 10) for k in range(1, 41)],
               "output_dir": "out", "tol": 1e-9}
        cfg = parse_config(json.dumps(raw))
        text = serialize_config(cfg)
        again = parse_config(text)
        assert serialize_config(again) == text
        assert again == cfg

    def test_round_trip_every_experiment(self):
        base = {"N": 9, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "open",
                "g": 0.05, "cells": [3]}
        variants = {
            "spectrum": {},
            "emit": {"t_max": 10.0, "n_points": 51, "t_av": 10.0},
            "transfer": {"cells": [3, 4], "excited_emitter": 2},
            "heff": {"heff_method": "finite"},
            "dressed": {"dressed_kind": "edge", "cells": [9]},
            "sweep_gamma": {"gamma_values": [1.0, 2.0]},
        }
        for experiment, extra in variants.items():
            raw = dict(base, experiment=experiment, **extra)
            cfg = parse_config(json.dumps(raw))
            assert parse_config(serialize_config(cfg)) == cfg, experiment

    def test_serialization_keeps_read_keys_and_is_idempotent(self):
        # every key set, none at its default: the text keeps exactly the keys
        # the experiment reads, with their values, and is a fixed point
        full = {"N": 9, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "open",
                "g": 0.05, "cells": [3], "excited_emitter": 1, "t_max": 3.0,
                "n_points": 31, "t_av": 3.0, "gamma_values": [1.0, 2.0],
                "heff_method": "finite", "dressed_kind": "bulk",
                "output_dir": "o", "tol": 1e-8}
        common = {"experiment", "N", "t1", "t2", "gamma", "boundary",
                  "output_dir", "tol", "gamma_values"}
        emitters = {"g", "cells"}
        cases = {
            "spectrum": ({}, common),
            "emit": ({}, common | emitters | {"t_max", "n_points", "t_av"}),
            "transfer": ({"cells": [3, 4], "excited_emitter": 2},
                         common | emitters | {"excited_emitter", "t_max",
                                              "n_points"}),
            "heff": ({}, common | emitters | {"heff_method"}),
            "dressed": ({"dressed_kind": "edge", "cells": [9]},
                        common | emitters | {"dressed_kind"}),
            "sweep_gamma": ({}, common | emitters | {"t_max", "n_points", "t_av"}),
        }
        assert set(cases) == set(EXPERIMENTS)
        for experiment, (extra, kept) in cases.items():
            raw = dict(full, experiment=experiment, **extra)
            text = serialize_config(parse_config(json.dumps(raw)))
            flat = json.loads(text)
            assert set(flat) == kept, experiment
            assert flat == {k: raw[k] for k in kept}, experiment
            assert serialize_config(parse_config(text)) == text, experiment
            assert parse_config(text) == parse_config(json.dumps(raw)), experiment

    @pytest.mark.parametrize("experiment", ["emit", "heff", "dressed",
                                            "sweep_gamma"])
    def test_excited_emitter_is_checked_only_where_read(self, experiment):
        raw = {"experiment": experiment, "N": 8, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "g": 0.05, "cells": [3], "gamma_values": [1.0],
               "excited_emitter": 5}
        assert parse_config(json.dumps(raw)).excited_emitter == 1  # default
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(dict(raw, experiment="transfer")))
        assert exc.value.problems == ["cells: transfer needs at least two emitters",
                                      "excited_emitter: 5 exceeds the number "
                                      "of emitters"]

    def test_join_rules_see_only_valid_values(self):
        # the t_av window is not compared against a default standing in for
        # the invalid t_max, nor the dressed model checked for an invalid kind
        raw = {"experiment": "emit", "N": 8, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "g": 0.05, "cells": [3], "t_max": -1, "t_av": 30}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert exc.value.problems == ["t_max: must be > 0, got -1"]
        raw = dict(raw, experiment="dressed", gamma=1.0, dressed_kind="x")
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert exc.value.problems == [
            "t_max: must be > 0, got -1",
            "dressed_kind: must be one of ('bulk', 'edge'), got 'x'"]

    def test_empty_gamma_values_gives_none(self):
        raw = json.loads(MINIMAL_SPECTRUM)
        cfg = parse_config(json.dumps(dict(raw, gamma_values=[])))
        assert cfg == parse_config(MINIMAL_SPECTRUM)
        raw = dict(raw, experiment="sweep_gamma", g=0.05, cells=[3],
                   gamma_values=[])
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(raw))
        assert exc.value.problems == [
            "gamma_values: required for experiment sweep_gamma"]


def _library_computes(lattice, cell, option):
    """Whether the library computes `option` (a dressed_kind or heff_method)
    for one emitter in `cell`."""
    layout = EmitterLayout([cell], 0.05)
    try:
        if option == "bulk":
            bulk_dressed_state(lattice, cell, 0.05)
        elif option == "edge":  # the edge state has its emitter in cell N
            return edge_dressed_state(lattice, 0.05).source_cell == cell
        elif option == "numeric":
            heff_numeric(lattice, layout)
        else:
            heff_closed_form(lattice, layout, form=option)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("experiment, key, option", [
    ("dressed", "dressed_kind", "bulk"), ("dressed", "dressed_kind", "edge"),
    ("heff", "heff_method", "numeric"), ("heff", "heff_method", "finite"),
    ("heff", "heff_method", "asymptotic")])
def test_config_accepts_exactly_what_the_library_computes(experiment, key,
                                                          option):
    verdicts = set()
    for t2, gamma, boundary, n in itertools.product(
            (1.0, 1.5), (0.0, 1.0, 2.0), ("periodic", "open"), (2, 3, 7)):
        for cell in sorted({1, (n + 1) // 2, n}):
            raw = {"experiment": experiment, "N": n, "t1": 1.0, "t2": t2,
                   "gamma": gamma, "boundary": boundary, "g": 0.05,
                   "cells": [cell], key: option}
            try:
                parse_config(json.dumps(raw))
                accepted = True
            except ConfigError:
                accepted = False
            lattice = LatticeParams(n, 1.0, t2, gamma, boundary)
            assert accepted == _library_computes(lattice, cell, option), raw
            verdicts.add(accepted)
    # every model rule is met and broken somewhere on the grid
    assert verdicts == ({True} if option == "numeric" else {True, False})


_NAMES = ("spectrum", "emit", "transfer", "heff", "dressed", "sweep_gamma",
          "periodic", "open", "numeric", "finite", "asymptotic", "bulk", "edge")
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                     st.integers(), st.floats(), st.sampled_from(_NAMES),
                     st.text(max_size=4))
_lists = st.lists(_scalars, min_size=1, max_size=3)
_json = st.one_of(_scalars, _lists,
                  st.dictionaries(st.text(max_size=3), _scalars, max_size=2))
_keys = st.sampled_from(sorted(KNOWN_KEYS) + ["bogus"])
# a valid config of each experiment with one key replaced, so that the fuzzed
# value reaches the checks behind the required-key ones; a list-valued key
# gets a list of any scalars
_VALID = {"N": 8, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "open",
          "g": 0.05, "cells": [3], "t_max": 2.0, "n_points": 11, "t_av": 2.0,
          "gamma_values": [1.0, 2.0], "output_dir": "out"}
_one_key_off = st.builds(
    lambda e, kv: {**_VALID, "experiment": e, kv[0]: kv[1]},
    st.sampled_from(EXPERIMENTS),
    _keys.flatmap(lambda k: st.tuples(
        st.just(k), _lists if isinstance(_VALID.get(k), list) else _json)))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(raw=_one_key_off)
def test_parsing_the_canonical_text_gives_the_config_back(raw):
    try:
        cfg = parse_config(json.dumps(raw))
    except ConfigError:
        return
    assert parse_config(serialize_config(cfg)) == cfg


def _accepts_or_raises_config_error(raw):
    # any JSON object either validates or is refused with the list of its
    # problems; no other exception may reach the command line (exit 1)
    try:
        cfg = parse_config(json.dumps(raw))
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    serialize_config(cfg)  # the runner hashes it before writing anything


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(raw=_one_key_off)
def test_one_bad_key_raises_config_error(raw):
    _accepts_or_raises_config_error(raw)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(raw=st.dictionaries(_keys, _json))
def test_any_json_object_raises_config_error(raw):
    _accepts_or_raises_config_error(raw)
