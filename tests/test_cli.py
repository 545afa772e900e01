import json
import os

import numpy as np
import pytest

from nhbath import __version__, parse_config, run_experiment
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

    @pytest.mark.parametrize("override", ["gamma=NaN", "g=Infinity",
                                          "t_max=Infinity", "tol=NaN"])
    @pytest.mark.parametrize("command", ["heff", "emit"])
    def test_non_finite_number_exits_2_and_writes_nothing(
            self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, N=8, t1=1.0, t2=1.0, gamma=1.0,
                           boundary="open", g=0.05, cells=[3],
                           output_dir=str(tmp_path / "out"))
        assert main([command, "--config", cfg, "--set", override]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
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
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["heff", "--config", cfg]) == 0
        assert "warning" in capsys.readouterr().err


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

    def test_sweep_gamma_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NHBATH_THREADS", "2")
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
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("NHBATH_THREADS", "3")
        assert max_workers() == 3

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("NHBATH_THREADS", "0")
        assert max_workers() >= 1
        monkeypatch.delenv("NHBATH_THREADS")
        assert max_workers() >= 1

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("NHBATH_THREADS", "many")
        with pytest.raises(ValueError):
            max_workers()
        monkeypatch.setenv("NHBATH_THREADS", "-1")
        with pytest.raises(ValueError):
            max_workers()
