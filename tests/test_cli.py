import csv
import hashlib
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbath import (EmitterLayout, LatticeParams, __version__, parse_config,
                    run_experiment, weak_coupling_warnings)
from nhbath.cli import main
from nhbath.runner import max_workers


def write_config(tmp_path, **raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def spectrum_config(tmp_path, **extra):
    raw = dict(N=8, t1=1.0, t2=1.0, gamma=1.0, boundary="periodic",
               experiment="spectrum", output_dir=str(tmp_path / "out"))
    raw.update(extra)
    return write_config(tmp_path, **raw)


# sha256 of dressed.csv for the N=6 open chain at gamma = 2J, g = 0.05 and
# cells [6], the edge state
EDGE_N6_SHA256 = "55a6e59d35481417c0d777f782730b677d2f5a82d435b0837f0527e55c26e81f"


class TestCli:
    def test_spectrum_writes_csv_and_manifest(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        assert main(["spectrum", "--config", cfg]) == 0
        out = tmp_path / "out"
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "re_E,im_E,boundary,q_or_index"
        assert len(lines) == 17  # header + 2N eigenvalues
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == __version__
        assert manifest["files"] == ["spectrum.csv"]
        assert len(manifest["config_sha256"]) == 64
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1].endswith("manifest.json")

    def test_invalid_config_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path, gamma=-0.5)
        assert main(["spectrum", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # fail-fast: no partial output

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"N": 8, "t1": 1.0, "t2": 1.0,
                                     "gamma": 2.0, "g": 0.05, "cells": [3],
                                     "output_dir": str(tmp_path / "out")}]),
                        encoding="utf-8")
        assert main(["emit", "--config", str(path)]) == 2
        assert "must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", ["gamma=NaN", "g=Infinity",
                                          "t_max=Infinity"])
    @pytest.mark.parametrize("command", ["heff", "emit", "spectrum"])
    def test_non_finite_number_exits_2_and_writes_nothing(
            self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=1.0,
                           boundary="open", g=0.05, cells=[3],
                           output_dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg, "--set", override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["heff", "emit", "spectrum"])
    def test_tol_is_an_unknown_key(self, tmp_path, capsys, command):
        # the propagation is bounded a priori and has no tolerance to set
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=1.0,
                           boundary="open", g=0.05, cells=[3],
                           output_dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg, "--set", "tol=1e-9"]) == 2
        assert "unknown key 'tol'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["emit", "sweep-gamma"])
    def test_t_av_shorter_than_time_step_exits_2(self, tmp_path, capsys,
                                                 command):
        # t_max/(n_points - 1) = 0.1: a shorter window averages one sample
        extra = {"gamma_values": [1.0, 2.0]} if command == "sweep-gamma" else {}
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[3], t_max=4.0,
                           n_points=41, output_dir=str(tmp_path / "out"),
                           **extra)
        assert main([command, "--config", cfg, "--set", "t_av=0.01"]) == 2
        assert "t_av" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main([command, "--config", cfg, "--set", "t_av=0.1"]) == 0

    @pytest.mark.parametrize("command, overrides, key", [
        ("dressed", ["gamma=1.0"], "dressed"),
        ("dressed", ["t2=1.5"], "dressed"),
        # gamma = 2 t1 with t1 != t2, and gamma != 2J on the ring
        ("dressed", ["t1=1.5", "gamma=3.0"], "dressed"),
        ("dressed", ["boundary=\"periodic\"", "gamma=0.0"], "dressed"),
        ("heff", ["heff_method=\"finite\"", "t2=1.5"], "heff_method"),
        ("heff", ["heff_method=\"asymptotic\"", "t2=1.5"], "heff_method"),
        ("heff", ["heff_method=\"finite\"", "gamma=0.0"], "heff_method"),
    ])
    def test_model_the_computation_rejects_exits_2(self, tmp_path, capsys,
                                                    command, overrides, key):
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[3],
                           output_dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg]) == 0
        args = [command, "--config", cfg, "--output-dir", str(tmp_path / "bad")]
        for o in overrides:
            args += ["--set", o]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path), "--output-dir",
                     str(out)]) == 2
        assert "error: cannot read config: " in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_key_in_the_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"N": 8, "t1": 1.0, "t2": 1.0, "gamma": 1.0, "N": 9, '
                        f'"output_dir": {json.dumps(str(tmp_path / "out"))}}}',
                        encoding="utf-8")
        assert main(["spectrum", "--config", str(path)]) == 2
        assert "repeated key 'N'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overrides_apply_in_order(self, tmp_path, capsys):
        # the subcommand's experiment, then the --set pairs (the last of a
        # repeated key wins), then --output-dir; a key set to null is absent
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[3],
                           output_dir=str(tmp_path / "out"))
        flag, via_set = tmp_path / "flag", tmp_path / "set"
        assert main(["heff", "--config", cfg, "--set", "cells=[4]",
                     "--set", "cells=[3, 5]", "--set", f"output_dir={via_set}",
                     "--output-dir", str(flag)]) == 0
        assert len(json.loads((flag / "heff.json").read_text())["entries"]) == 4
        assert not via_set.exists() and not (tmp_path / "out").exists()
        bad = tmp_path / "bad"
        assert main(["heff", "--config", cfg, "--set", "g=null",
                     "--output-dir", str(bad)]) == 2
        assert "g: required for experiment heff" in capsys.readouterr().err
        assert not bad.exists()
        assert main(["heff", "--config", cfg, "--set", "heff_method=null",
                     "--output-dir", str(bad)]) == 0
        assert json.loads((bad / "heff.json").read_text())["method"] == "numeric"

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2

    def test_set_overrides(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        out2 = str(tmp_path / "other")
        assert main(["spectrum", "--config", cfg, "--set", "N=10",
                     "--output-dir", out2]) == 0
        lines = (tmp_path / "other" / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 21

    def test_bad_set_pair(self, tmp_path, capsys):
        cfg = spectrum_config(tmp_path)
        assert main(["spectrum", "--config", cfg, "--set", "N10"]) == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = spectrum_config(tmp_path)
        main(["spectrum", "--config", cfg])
        first = (tmp_path / "out" / "spectrum.csv").read_bytes()
        mfirst = (tmp_path / "out" / "manifest.json").read_bytes()
        main(["spectrum", "--config", cfg])
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first
        assert (tmp_path / "out" / "manifest.json").read_bytes() == mfirst

    def test_weak_coupling_banner(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=4, t1=1.0, t2=1.0, gamma=1.0,
                           boundary="open", experiment="heff", g=0.6,
                           cells=[1, 2], output_dir=str(tmp_path / "out"))
        # g = 0.6 >= t2/sqrt(N) = 0.5: the rule is printed by the CLI, once,
        # and the library raises no warning of its own
        msgs = weak_coupling_warnings(LatticeParams(4, 1.0, 1.0, 1.0, "open"),
                                      EmitterLayout([1, 2], 0.6))
        assert any("t2/sqrt(N)" in m for m in msgs)
        for method in ("numeric", "finite", "asymptotic"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["heff", "--config", cfg, "--set",
                             f"heff_method={method}"]) == 0
            err = capsys.readouterr().err
            for m in msgs:
                assert err.count(m) == 1, (method, m)
            assert err.count("warning") == len(msgs)

    @pytest.mark.parametrize("cell", [2, 6])
    def test_edge_dressed_state_names_the_last_cell(self, tmp_path, cell):
        cfg = write_config(tmp_path, N=6, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[cell],
                           output_dir=str(tmp_path / "out"))
        assert main(["dressed", "--config", cfg]) == 0
        path = tmp_path / "out" / "dressed.csv"
        if cell == 6:  # frozen bytes of the N=6 edge state
            assert hashlib.sha256(path.read_bytes()).hexdigest() == EDGE_N6_SHA256
        else:  # a bulk cloud: beta of the cell and alpha of the next
            rows = list(csv.reader(path.open(encoding="utf-8")))[2:]
            assert [r[0] for r in rows if float(r[3])] == ["beta2", "alpha3"]

    def test_dressed_kind_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N=6, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[6],
                           dressed_kind="edge", output_dir=str(tmp_path / "out"))
        assert main(["dressed", "--config", cfg]) == 2
        assert "unknown key 'dressed_kind'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gamma, gamma_values, warned", [
        (0.01, [2.0, 4.0], False), (2.0, [0.01, 0.02], True),
        (2.0, [0.0, 0.01], True), (0.01, [0.0], True)])
    def test_sweep_warns_at_its_smallest_loss_rate(self, tmp_path, capsys,
                                                   gamma, gamma_values, warned):
        # g = 0.05 >= gamma/sqrt(N) only below gamma = 0.5; the sweep steps
        # gamma_values alone, so its smallest positive value is checked, and
        # the config's gamma only where there is none
        cfg = write_config(tmp_path, N=100, t1=1.0, t2=1.0, gamma=gamma,
                           boundary="periodic", g=0.05, cells=[50],
                           gamma_values=gamma_values, t_max=1.0, n_points=3,
                           t_av=1.0, output_dir=str(tmp_path / "out"))
        assert main(["sweep-gamma", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert ("gamma/sqrt(N) = 0.001;" in err) == warned
        assert err.count("warning") == warned

    @pytest.mark.parametrize("command, name, raw, digest", [
        ("spectrum", "spectrum.csv",
         dict(N=8, t1=1.0, t2=1.5, gamma=1.0, boundary="periodic"),
         "9905b75cfbc7130afb641d8fb749f5357ca5f6c570067ca5242aed430450deee"),
        # gamma < 2 t1: the real symmetric gauge chain
        ("spectrum", "spectrum.csv",
         dict(N=8, t1=1.0, t2=1.5, gamma=1.0, boundary="open"),
         "30db783ec4f5fc5b58904a14e2188d947db264004bc5f55ce54e55afae507828"),
        # gamma > 2 t1: dense eigvals
        ("spectrum", "spectrum.csv",
         dict(N=8, t1=1.0, t2=1.5, gamma=3.0, boundary="open"),
         "f1919a8797122b0ceedea1314e2f47bba8750310f2a809f0e88ce007a54402b9"),
        ("dressed", "dressed.csv",
         dict(N=6, t1=1.0, t2=1.0, gamma=2.0, boundary="open", g=0.05,
              cells=[3]),
         "9c74c1535cfa735ab10b13eac659824c72e142044ab101163d1780318ecae570"),
        # even uniform ring: the q = pi Bloch block is singular
        ("heff", "heff.json",
         dict(N=8, t1=1.0, t2=1.0, gamma=1.0, boundary="periodic", g=0.1,
              cells=[1, 4, 5]),
         "5eb56e9a00035d1118fc4e0266213fd5c9a30de32e9f7a02899e93c48bf727ff"),
    ], ids=["spectrum-ring", "spectrum-open-below-ep",
            "spectrum-open-above-ep", "dressed-bulk", "heff-even-ring"])
    def test_frozen_bytes(self, tmp_path, command, name, raw, digest):
        cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"), **raw)
        assert main([command, "--config", cfg]) == 0
        assert hashlib.sha256(
            (tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command, name, digest", [
        ("emit", "localization.csv",
         "4a61dc733f627d9e159832d9470d83dc346c7196f04a3aa47c6df6e0c1a10929"),
        ("sweep-gamma", "sweep.csv",
         "e476159494a18d8dc2ca65070ca3b9f377ad5bfa154c4a7ed4ea1a5bc88f4b0a")],
        ids=["emit", "sweep-gamma"])
    def test_ring_localization_is_the_same_in_every_cell(self, tmp_path,
                                                         command, name, digest):
        rows = {}
        for cell in (5, 10):
            out = tmp_path / f"cell{cell}"
            cfg = write_config(tmp_path, N=10, t1=1.0, t2=1.0, gamma=2.0,
                               boundary="periodic", g=0.1, cells=[cell],
                               t_max=20.0, n_points=201, t_av=20.0,
                               gamma_values=[1.0, 2.0], output_dir=str(out))
            assert main([command, "--config", cfg]) == 0
            rows[cell] = np.loadtxt(out / name, delimiter=",", skiprows=1,
                                    ndmin=2)
            if cell == 5:  # frozen bytes: the wrap leaves cells 1..N-1 alone
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() \
                    == digest
        # cell N's cloud partner is cell 1 on the ring
        np.testing.assert_allclose(rows[10][:, 1], rows[5][:, 1], rtol=1e-12)
        assert (rows[10][:, 3] == 0.0).all()

    @pytest.mark.parametrize("values", [["x"], [None], [1.0, "2"], [True],
                                        [float("nan")], [-1.0], "1.0"])
    @pytest.mark.parametrize("command", ["emit", "sweep-gamma", "spectrum"])
    def test_bad_gamma_values_exit_2(self, tmp_path, capsys, command, values):
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[3], t_max=2.0,
                           n_points=11, t_av=2.0, gamma_values=values,
                           output_dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg]) == 2
        assert "gamma_values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, code", [("spectrum", 2), ("heff", 2),
                                             ("emit", 0)])
    def test_set_experiment_must_agree_with_subcommand(self, tmp_path, capsys,
                                                       value, code):
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=2.0,
                           boundary="open", g=0.05, cells=[3], t_max=2.0,
                           n_points=11, t_av=2.0,
                           output_dir=str(tmp_path / "out"))
        assert main(["emit", "--config", cfg, "--set",
                     f"experiment={value}"]) == code
        if code:
            assert "experiment" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


@st.composite
def _small_chain(draw):
    """Spectrum config of a short non-uniform chain, N = 1 (rejected) to 6;
    gamma in [0, 4] with its ends and the exceptional point 2*t1 drawn
    explicitly."""
    t1 = draw(st.floats(0.1, 2.0))
    t2 = draw(st.floats(0.1, 2.0).filter(lambda t: t != t1))
    gamma = draw(st.one_of(st.sampled_from([0.0, 4.0, 2 * t1]),
                           st.floats(0.0, 4.0)))
    return dict(N=draw(st.integers(1, 6)), t1=t1, t2=t2, gamma=gamma,
                boundary=draw(st.sampled_from(["open", "periodic"])),
                experiment="spectrum")


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(raw=_small_chain())
def test_spectrum_cli_exits_0_with_a_passive_spectrum_or_2_writing_nothing(raw):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cfg = write_config(Path(tmp), output_dir=out, **raw)
        code = main(["spectrum", "--config", cfg])
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)
            return
        with open(os.path.join(out, "spectrum.csv"), encoding="utf-8") as fh:
            header, *body = list(csv.reader(fh))
    assert header == ["re_E", "im_E", "boundary", "q_or_index"]
    assert len(body) == 2 * raw["N"]
    assert {row[2] for row in body} == {raw["boundary"]}
    re, im, label = np.array([(r[0], r[1], r[3]) for r in body], dtype=float).T
    assert np.isfinite(re).all() and np.isfinite(im).all()
    assert im.max() <= 1e-12  # passive: no mode grows
    if raw["boundary"] == "open":  # by real part, ties by imaginary part
        np.testing.assert_array_equal(np.lexsort((im, re)), np.arange(re.size))
        np.testing.assert_array_equal(label, np.arange(re.size))
    else:  # Bloch order: by quasimomentum
        assert (np.diff(label) >= 0).all()


@st.composite
def _emitter_chain(draw):
    """Config of a short chain with emitters, N = 1 (rejected) to 6 and 2-3
    distinct cells; gamma in [0, 4] with 0 and the exceptional point 2*t1
    drawn explicitly, and t2 = t1 drawn explicitly too (the dressed states
    and the closed forms need both)."""
    n = draw(st.integers(1, 6))
    t1 = draw(st.floats(0.1, 2.0))
    gamma = st.one_of(st.just(2 * t1), st.just(0.0), st.floats(0.0, 4.0))
    cells = draw(st.lists(st.integers(1, max(n, 2)), min_size=2, max_size=3,
                          unique=True))
    return dict(N=n, t1=t1, t2=draw(st.one_of(st.just(t1), st.floats(0.1, 2.0))),
                gamma=draw(gamma),
                boundary=draw(st.sampled_from(["open", "periodic"])),
                g=draw(st.floats(0.01, 1.0)), cells=cells,
                excited_emitter=draw(st.integers(1, len(cells))), t_max=2.0,
                n_points=11, t_av=2.0,
                gamma_values=draw(st.lists(gamma, min_size=1, max_size=3)),
                heff_method=draw(st.sampled_from(["numeric", "finite",
                                                  "asymptotic"])))


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(raw=_emitter_chain())
def test_emitter_cli_exits_0_with_finite_csvs_or_2_writing_nothing(raw):
    for command in ("emit", "transfer", "heff", "dressed", "sweep-gamma"):
        run = dict(raw)
        if command not in ("transfer", "heff"):  # one emitter, the first
            run.update(cells=raw["cells"][:1], excited_emitter=1)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            cfg = write_config(Path(tmp), **dict(run, output_dir=out))
            code = main([command, "--config", cfg])
            assert code in (0, 2), command
            if code == 2:
                assert not os.path.exists(out), command
                continue
            for name in sorted(os.listdir(out)):
                if name.endswith(".json"):  # strict JSON: no NaN or Infinity
                    with open(os.path.join(out, name), encoding="utf-8") as fh:
                        data = json.loads(fh.read(), parse_constant=_no_constant)
                    for value in (v for pair in data.get("entries", ())
                                  for v in pair):
                        assert math.isfinite(value), (command, name, value)
                    continue
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    header, *body = list(csv.reader(fh))
                assert body, (command, name)
                for field in (f for row in body for f in row):
                    try:
                        value = float(field)
                    except ValueError:  # a site label or the boundary
                        continue
                    assert math.isfinite(value), (command, name, field)


class TestRunExperiment:
    def test_emit_outputs(self, tmp_path):
        raw = dict(N=20, t1=1.0, t2=1.0, gamma=2.0, boundary="open",
                   experiment="emit", g=0.1, cells=[5], t_max=10.0,
                   n_points=41, t_av=10.0, output_dir=str(tmp_path / "o"))
        cfg = parse_config(json.dumps(raw))
        written = run_experiment(cfg)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["density.csv", "localization.csv", "manifest.json",
                         "populations.csv"]
        pop = np.loadtxt(tmp_path / "o" / "populations.csv", delimiter=",",
                         skiprows=1)
        assert pop.shape == (41, 3)
        assert pop[0, 2] == 1.0  # starts fully excited

    def test_transfer_excites_chosen_emitter(self, tmp_path):
        raw = dict(N=10, t1=1.0, t2=1.0, gamma=2.0, boundary="open",
                   experiment="transfer", g=0.1, cells=[4, 5],
                   excited_emitter=2, t_max=5.0, n_points=11,
                   output_dir=str(tmp_path / "o"))
        run_experiment(parse_config(json.dumps(raw)))
        pop = np.loadtxt(tmp_path / "o" / "populations.csv", delimiter=",",
                         skiprows=1)
        first = pop[pop[:, 0] == 0.0]
        assert first[first[:, 1] == 2][0, 2] == 1.0
        assert first[first[:, 1] == 1][0, 2] == 0.0

    def test_heff_json_matrix(self, tmp_path):
        raw = dict(N=9, t1=1.0, t2=1.0, gamma=2.0, boundary="periodic",
                   experiment="heff", g=0.1, cells=list(range(1, 10)),
                   output_dir=str(tmp_path / "o"))
        run_experiment(parse_config(json.dumps(raw)))
        data = json.loads((tmp_path / "o" / "heff.json").read_text())
        assert data["method"] == "numeric"
        assert data["params"]["N"] == 9
        entries = np.array(data["entries"])
        assert entries.shape == (81, 2)
        h = (entries[:, 0] + 1j * entries[:, 1]).reshape(9, 9)
        gam_eff = 0.1 ** 2 / 4
        np.testing.assert_allclose(np.diag(h), -1j * gam_eff, atol=1e-12)
        assert h[0, 8] == pytest.approx(1j * gam_eff, abs=1e-12)

    def test_dressed_csv(self, tmp_path):
        raw = dict(N=6, t1=1.0, t2=1.0, gamma=2.0, boundary="open",
                   experiment="dressed", g=0.05, cells=[3],
                   output_dir=str(tmp_path / "o"))
        run_experiment(parse_config(json.dumps(raw)))
        lines = (tmp_path / "o" / "dressed.csv").read_text().splitlines()
        assert lines[0] == "site_label,re_amp,im_amp,modulus"
        assert lines[1].startswith("emitter,")
        assert len(lines) == 1 + 1 + 12  # header + emitter + 2N sites

    def test_sweep_gamma_rows(self, tmp_path):
        raw = dict(N=20, t1=1.0, t2=1.0, gamma=1.0, boundary="open",
                   experiment="sweep_gamma", g=0.05, cells=[5],
                   t_max=10.0, n_points=41, t_av=10.0,
                   gamma_values=[1.5, 2.0, 2.5], output_dir=str(tmp_path / "o"))
        run_experiment(parse_config(json.dumps(raw)))
        rows = np.loadtxt(tmp_path / "o" / "sweep.csv", delimiter=",",
                          skiprows=1)
        assert rows.shape == (3, 4)
        np.testing.assert_array_equal(rows[:, 0], [1.5, 2.0, 2.5])
        np.testing.assert_allclose(rows[:, 1:].sum(axis=1), 1.0, atol=1e-12)


class TestMaxWorkers:
    def test_auto(self):
        assert max_workers() == (os.cpu_count() or 1)
