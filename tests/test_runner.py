import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import nhbath.runner
from nhbath import (EffectiveCouplingMatrix, emitter_populations, parse_config,
                    photon_density, run_experiment)
from nhbath.cli import main
from nhbath.runner import _csv

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
        evolve, trajs = nhbath.runner.evolve, []

        def evolve_spy(*args, **kwargs):
            trajs.append(evolve(*args, **kwargs))
            return trajs[-1]

        monkeypatch.setattr(nhbath.runner, "evolve", evolve_spy)
        if negative_zero:  # evolve accepts a grid that starts at -0.0
            monkeypatch.setattr(nhbath.runner, "_time_grid", lambda cfg: np.r_[
                -0.0, np.linspace(0.0, cfg.t_max, cfg.n_points)[1:]])
        run_experiment(parse_config(json.dumps(raw)))
        (traj,) = trajs
        first = "-0.0" if negative_zero else "0.0"
        pops = (tmp_path / "populations.csv").read_text()
        assert pops == "t,emitter_index,p\n" + _oracle_rows(
            traj.times, emitter_populations(traj), 1)
        assert pops.splitlines()[excited] == f"{first},{excited}.0,1.0"
        dens = (tmp_path / "density.csv").read_text()
        assert dens == "t,site_index,density\n" + _oracle_rows(
            traj.times, photon_density(traj), 0)
        assert dens.splitlines()[1] == f"{first},0.0,0.0"
        assert dens.splitlines()[13].startswith("0.5,0.0,")


def _heff_raw(tmp_path, method, boundary, cells):
    return {"experiment": "heff", "N": 6, "t1": 1.0, "t2": 1.0, "gamma": 1.5,
            "boundary": boundary, "g": 0.1, "cells": cells,
            "heff_method": method, "output_dir": str(tmp_path / "out")}


def _heff_oracles(mat, raw):
    """heff.json as json.dumps writes the whole payload, and heff.csv row by
    row with every value repr(float(x))."""
    payload = {"method": mat.method, "boundary": mat.boundary,
               "params": {"N": raw["N"], "t1": raw["t1"], "t2": raw["t2"],
                          "gamma": raw["gamma"], "g": mat.g,
                          "cells": list(mat.cells)},
               "entries": [[z.real, z.imag] for z in mat.entries.ravel().tolist()]}
    rows = "".join(f"{m},{n},{repr(float(z.real))},{repr(float(z.imag))}\n"
                   for m, row in zip(mat.cells, mat.entries)
                   for n, z in zip(mat.cells, row))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", "m,n,re,im\n" + rows


def _return_matrix(monkeypatch, entries, cells):
    mat = EffectiveCouplingMatrix(np.array(entries, dtype=complex), "numeric",
                                  "open", tuple(cells), 0.1)
    monkeypatch.setattr(nhbath.runner, "heff_numeric", lambda *args: mat)
    return mat


class TestHeffFiles:
    @pytest.mark.parametrize("cells", [[2, 3, 5], [4]])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("method, name", [
        ("numeric", "heff_numeric"), ("finite", "heff_closed_form"),
        ("asymptotic", "heff_closed_form")])
    def test_matches_json_dumps_and_row_wise_oracle(self, tmp_path, monkeypatch,
                                                    method, name, boundary, cells):
        compute, mats = getattr(nhbath.runner, name), []

        def compute_spy(*args, **kwargs):
            mats.append(compute(*args, **kwargs))
            return mats[-1]

        monkeypatch.setattr(nhbath.runner, name, compute_spy)
        raw = _heff_raw(tmp_path, method, boundary, cells)
        run_experiment(parse_config(json.dumps(raw)))
        (mat,) = mats
        assert mat.entries.shape == (len(cells), len(cells))
        want_json, want_csv = _heff_oracles(mat, raw)
        assert (tmp_path / "out" / "heff.json").read_text() == want_json
        assert (tmp_path / "out" / "heff.csv").read_text() == want_csv

    def test_shortest_round_trip_values(self, tmp_path, monkeypatch):
        mat = _return_matrix(monkeypatch, [
            [complex(-0.0, 5e-324), complex(1e16, 0.1 + 0.2)],
            [complex(1.2345678901234567, -2.5), complex(3.0, -1e-5)]], [2, 4])
        raw = _heff_raw(tmp_path, "numeric", "open", [2, 4])
        run_experiment(parse_config(json.dumps(raw)))
        want_json, want_csv = _heff_oracles(mat, raw)
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
        _return_matrix(monkeypatch, [[1.0, bad], [0.5j, 1.0]], [2, 4])
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
    names = [(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTS]
    # the tracer also swaps the sweep's pool class
    return names + [("nhbath.runner", "ThreadPoolExecutor")]


@pytest.mark.parametrize("module, name", _traced_names())
def test_benchmark_traced_name_resolves(module, name):
    # the benchmark's per-layer metrics wrap these module attributes; a name
    # that no longer resolves silently reads as zero time
    assert callable(getattr(importlib.import_module(module), name))
