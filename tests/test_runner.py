import importlib
import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nhbath.runner
from nhbath import (emitter_populations, parse_config, photon_density,
                    run_experiment)
from nhbath.cli import main
from nhbath.runner import _FILES, _csv, _reprs

ROOT = Path(__file__).resolve().parents[1]


class TestCsv:
    def test_matches_row_wise_repr(self):
        values = np.array([-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, -2.5, 3.0])
        index = np.arange(values.size)  # integers print as floats: 3 -> 3.0
        labels = [f"s{k}" for k in range(values.size)]
        got = _csv(("label", "i", "v"), (labels, index, values))
        want = "label,i,v\n" + "".join(
            f"{s},{repr(float(i))},{repr(float(v))}\n"
            for s, i, v in zip(labels, index, values))
        assert got == want
        assert got.splitlines()[4] == "s3,3.0,1e+16"
        assert got.splitlines()[1] == "s0,0.0,-0.0"


class TestReprs:
    @pytest.mark.parametrize("values", [
        np.array([[0.5, -1.25, 0.5], [-1.25, 0.5, 3.0]]),
        np.array([[-0.0, 1.0], [0.0, 1.0], [-0.0, 2.0]]),
        np.array([5e-324, 1e16, 0.1 + 0.2, -1e-05, 5e-324, 0.3])])
    def test_equals_repr_of_every_value(self, values):
        assert _reprs(values) == list(map(repr, values.ravel().tolist()))


def _oracle_rows(times, values, first):
    """(t, index, value) rows, time-major, every field repr(float(x))."""
    return "".join(f"{repr(float(t))},{repr(float(first + i))},{repr(float(v))}\n"
                   for t, row in zip(times, values) for i, v in enumerate(row))


class TestTrajectoryFiles:
    @pytest.mark.parametrize("negative_zero", [False, True])
    @pytest.mark.parametrize("experiment, cells, excited", [
        ("emit", [3], 1), ("transfer", [2, 5], 2)])
    def test_matches_row_wise_oracle(self, tmp_path, monkeypatch, experiment,
                                     cells, excited, negative_zero):
        raw = {"experiment": experiment, "N": 6, "t1": 1.0, "t2": 1.0,
               "gamma": 2.0, "boundary": "open", "g": 0.1, "cells": cells,
               "excited_emitter": excited, "t_max": 3.0, "n_points": 7,
               "t_av": 3.0, "output_dir": str(tmp_path)}
        evolve, runs = nhbath.runner.evolve, []

        def evolve_spy(hamiltonian, initial, n_emitters, times):
            runs.append((n_emitters, times,
                         evolve(hamiltonian, initial, n_emitters, times)))
            return runs[-1][2]

        monkeypatch.setattr(nhbath.runner, "evolve", evolve_spy)
        if negative_zero:  # evolve accepts a grid that starts at -0.0
            monkeypatch.setattr(
                nhbath.runner, "_sample_times", lambda cfg: np.r_[
                    -0.0, np.linspace(0.0, cfg.t_max, cfg.n_points)[1:]])
        run_experiment(parse_config(json.dumps(raw)))
        ((n_emitters, times, amps),) = runs
        first = "-0.0" if negative_zero else "0.0"
        pops = (tmp_path / "populations.csv").read_text()
        assert pops == "t,emitter_index,p\n" + _oracle_rows(
            times, emitter_populations(amps, n_emitters), 1)
        assert pops.splitlines()[excited] == f"{first},{excited}.0,1.0"
        dens = (tmp_path / "density.csv").read_text()
        assert dens == "t,site_index,density\n" + _oracle_rows(
            times, photon_density(amps, n_emitters), 0)
        assert dens.splitlines()[1] == f"{first},0.0,0.0"
        assert dens.splitlines()[13].startswith("0.5,0.0,")


_SMALL = {"N": 6, "t1": 1.0, "t2": 1.0, "gamma": 2.0, "boundary": "open",
          "g": 0.1, "t_max": 3.0, "n_points": 7, "t_av": 3.0}


@pytest.mark.parametrize("experiment, extra", [
    ("spectrum", {}), ("emit", {"cells": [3]}),
    ("transfer", {"cells": [2, 5], "excited_emitter": 2}),
    ("heff", {"cells": [2, 4], "gamma": 1.5}), ("dressed", {"cells": [3]}),
    ("sweep_gamma", {"cells": [3], "gamma_values": [1.0, 2.0]})])
def test_files_are_lists_of_blocks_written_as_given(tmp_path, experiment,
                                                    extra):
    cfg = parse_config(json.dumps({**_SMALL, **extra, "experiment": experiment,
                                   "output_dir": str(tmp_path)}))
    files = _FILES[experiment](cfg)
    assert files and all(isinstance(blocks, list) and blocks
                         and all(isinstance(b, str) for b in blocks)
                         for blocks in files.values())
    run_experiment(cfg)
    for name, blocks in files.items():
        assert (tmp_path / name).read_text() == "".join(blocks)


@pytest.mark.parametrize("experiment, extra", [
    ("emit", {"cells": [50], "t_av": 20.0}),
    ("transfer", {"cells": [30, 60], "excited_emitter": 1})])
def test_trajectory_text_is_built_in_about_its_own_size(experiment, extra):
    # formatting every value at once held 6.5 (emit) and 7.1 (transfer)
    # times the text; one block per time sample holds the text, the
    # populations and densities and one sample's values, 1.8 and 1.4 times
    cfg = parse_config(json.dumps({
        "experiment": experiment, "N": 100, "t1": 1.0, "t2": 1.0,
        "gamma": 2.0, "boundary": "open", "g": 0.1, "t_max": 20.0,
        "n_points": 201, **extra}))
    _FILES[experiment](cfg)  # first-call allocations are not the run's
    tracemalloc.start()
    try:
        files = _FILES[experiment](cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sum(len(b) for blocks in files.values() for b in blocks)
    assert peak <= 3 * text, peak / text


def _heff_raw(tmp_path, method, boundary, cells):
    return {"experiment": "heff", "N": 6, "t1": 1.0, "t2": 1.0, "gamma": 1.5,
            "boundary": boundary, "g": 0.1, "cells": cells,
            "heff_method": method, "output_dir": str(tmp_path / "out")}


def _heff_oracles(entries, raw):
    """heff.json as json.dumps writes the whole payload, and heff.csv row by
    row with every value repr(float(x)), labelled from the config `raw`."""
    method, cells = raw["heff_method"], raw["cells"]
    if method != "numeric":
        method = f"closed_form_{method}"
    payload = {"method": method, "boundary": raw["boundary"],
               "params": {"N": raw["N"], "t1": raw["t1"], "t2": raw["t2"],
                          "gamma": raw["gamma"], "g": raw["g"], "cells": cells},
               "entries": [[z.real, z.imag] for z in entries.ravel().tolist()]}
    rows = "".join(f"{m},{n},{repr(float(z.real))},{repr(float(z.imag))}\n"
                   for m, row in zip(cells, entries)
                   for n, z in zip(cells, row))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", "m,n,re,im\n" + rows


def _return_matrix(monkeypatch, entries):
    entries = np.array(entries, dtype=complex)
    monkeypatch.setattr(nhbath.runner, "heff_numeric", lambda *args: entries)
    return entries


def _run_spied(monkeypatch, name, raw):
    """Run the heff config `raw` and return the matrix that the runner's
    `name` computed for it."""
    compute, results = getattr(nhbath.runner, name), []

    def compute_spy(*args, **kwargs):
        results.append(compute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(nhbath.runner, name, compute_spy)
    run_experiment(parse_config(json.dumps(raw)))
    (entries,) = results
    return entries


class TestHeffFiles:
    @pytest.mark.parametrize("cells", [[2, 3, 5], [4]])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("method, name", [
        ("numeric", "heff_numeric"), ("finite", "heff_closed_form"),
        ("asymptotic", "heff_closed_form")])
    def test_matches_json_dumps_and_row_wise_oracle(self, tmp_path, monkeypatch,
                                                    method, name, boundary, cells):
        raw = _heff_raw(tmp_path, method, boundary, cells)
        entries = _run_spied(monkeypatch, name, raw)
        assert entries.shape == (len(cells), len(cells))
        want_json, want_csv = _heff_oracles(entries, raw)
        assert (tmp_path / "out" / "heff.json").read_text() == want_json
        assert (tmp_path / "out" / "heff.csv").read_text() == want_csv

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("method, name", [
        ("numeric", "heff_numeric"), ("finite", "heff_closed_form"),
        ("asymptotic", "heff_closed_form")])
    def test_every_cell_an_emitter(self, tmp_path, monkeypatch, method, name,
                                   boundary):
        # translation-invariant couplings: most of the 1600 values repeat
        raw = {**_heff_raw(tmp_path, method, boundary, list(range(1, 41))),
               "N": 40}
        entries = _run_spied(monkeypatch, name, raw)
        want_json, want_csv = _heff_oracles(entries, raw)
        assert (tmp_path / "out" / "heff.json").read_text() == want_json
        assert (tmp_path / "out" / "heff.csv").read_text() == want_csv

    def test_signed_zeros_in_one_column(self, tmp_path, monkeypatch):
        entries = _return_matrix(monkeypatch, [
            [complex(-0.0, 1.0), complex(0.0, -0.0)],
            [complex(0.0, 1.0), complex(-0.0, 0.0)]])
        raw = _heff_raw(tmp_path, "numeric", "open", [2, 4])
        run_experiment(parse_config(json.dumps(raw)))
        want_json, want_csv = _heff_oracles(entries, raw)
        got_csv = (tmp_path / "out" / "heff.csv").read_text()
        assert (tmp_path / "out" / "heff.json").read_text() == want_json
        assert got_csv == want_csv
        assert got_csv.splitlines()[1:] == [
            "2,2,-0.0,1.0", "2,4,0.0,-0.0", "4,2,0.0,1.0", "4,4,-0.0,0.0"]

    def test_shortest_round_trip_values(self, tmp_path, monkeypatch):
        entries = _return_matrix(monkeypatch, [
            [complex(-0.0, 5e-324), complex(1e16, 0.1 + 0.2)],
            [complex(1.2345678901234567, -2.5), complex(3.0, -1e-5)]])
        raw = _heff_raw(tmp_path, "numeric", "open", [2, 4])
        run_experiment(parse_config(json.dumps(raw)))
        want_json, want_csv = _heff_oracles(entries, raw)
        got_json = (tmp_path / "out" / "heff.json").read_text()
        got_csv = (tmp_path / "out" / "heff.csv").read_text()
        assert got_json == want_json
        assert got_csv == want_csv
        assert got_csv.splitlines()[1:] == [
            "2,2,-0.0,5e-324", "2,4,1e+16,0.30000000000000004",
            "4,2,1.2345678901234567,-2.5", "4,4,3.0,-1e-05"]
        assert json.loads(got_json)["entries"][0] == [-0.0, 5e-324]

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                     complex(-np.inf, np.nan)])
    def test_non_finite_entry_exits_1_writing_nothing(self, tmp_path, monkeypatch,
                                                      capsys, bad):
        _return_matrix(monkeypatch, [[1.0, bad], [0.5j, 1.0]])
        raw = _heff_raw(tmp_path, "numeric", "open", [2, 4])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["heff", "--config", str(path)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ValueError, match="non-finite"):
            run_experiment(parse_config(json.dumps(raw)))


def _traced_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTS]


@pytest.mark.parametrize("module, name", _traced_names())
def test_benchmark_traced_name_resolves(module, name):
    # the benchmark's per-layer metrics wrap these module attributes; a name
    # that no longer resolves silently reads as zero time
    assert callable(getattr(importlib.import_module(module), name))
