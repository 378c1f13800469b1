import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import random_configs
from qndsim import montecarlo
from qndsim.cli import FIGURES, build_figure, compare, main, run
from qndsim.config import (
    build_config,
    config_values,
    default_config,
    parse_config,
    parse_config_text,
    serialize_config,
)
from qndsim.errors import ConfigError, TruncationError
from qndsim.estimators import quiet_detectors
from qndsim.sorter import SORTER_CONFIG, SorterConfig


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        config = parse_config(str(path))
        assert config == default_config()
        assert config.node1.cqed.g == 7.6
        assert config.node2.cqed.kappa == 2.8
        assert config.channel.transmission == 0.53
        assert config.detection_efficiency == 0.5
        assert config.detector_a.efficiency == 0.9
        assert config.detector_a.dark_rate == 40.0
        assert config.node1.imperfections.dark_count == 0.014
        assert config.node2.imperfections.dark_count == 0.004
        assert config.node1.imperfections.t_coherence == 420.0
        assert config.node2.imperfections.t_coherence == 470.0

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match="channel.transmission"):
            parse_config_text("channel.transmission = 1.2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("channel.bogus = 1\n")

    def test_parse_error_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("# comment\nchannel.transmission == 0.5\n")

    def test_sweep_list(self):
        config = parse_config_text("sweep.mu = 0.04, 0.084, 0.45, 3.11\n")
        assert config.mean_photon_sweep == (0.04, 0.084, 0.45, 3.11)

    def test_truncation_infeasible_sweep_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("sweep.mu = 80.0\n")

    def test_round_trip(self):
        config = parse_config_text("node1.g = 8.0\nrun.mode = monte_carlo\nrun.trials = 777\n")
        assert parse_config_text(serialize_config(config)) == config

    def test_round_trip_defaults(self):
        config = default_config()
        assert parse_config_text(serialize_config(config)) == config

    @pytest.mark.parametrize(
        "line",
        [
            "node1.g = nan",
            "sweep.mu = nan",
            "sweep.mu = 0.1, inf",
            "node1.kappa = inf",
            "node2.delta_c = -inf",
            "detector_a.dark_rate = nan",
            "detector_b.gate_window = inf",
            "node1.t_coherence = nan",
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, line):
        key = line.split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"line 2: {key} = .* not a finite number"):
            parse_config_text(f"# comment\n{line}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        assert main(["table1", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_infinite_coherence_time_accepted(self):
        # an infinite coherence time means no dephasing, as in NodeImperfections
        config = parse_config_text("node1.t_coherence = inf\nnode2.t_coherence = inf\n")
        assert config.node1.imperfections.t_coherence == math.inf
        assert config.node2.imperfections.visibility() == 1.0
        assert parse_config_text(serialize_config(config)) == config

    def test_repeated_key_rejected(self, tmp_path):
        text = "node1.g = 1\n# comment\nnode1.g = 2\n"
        with pytest.raises(ConfigError, match="line 3: key 'node1.g' already set on line 1"):
            parse_config_text(text)
        path = tmp_path / "twice.cfg"
        path.write_text(text)
        assert main(["table1", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_kappa_r_follows_kappa(self):
        config = parse_config_text("node1.kappa = 2.0\nnode2.kappa = 5.0\n")
        assert config.node1.cqed.kappa_r == 2.0
        assert config.node2.cqed.kappa_r == 5.0
        explicit = parse_config_text("node1.kappa = 5.0\nnode1.kappa_r = 4.0\n")
        assert explicit.node1.cqed.kappa_r == 4.0
        assert explicit.node2.cqed.kappa_r == 2.8
        for cfg in (config, explicit):
            assert parse_config_text(serialize_config(cfg)) == cfg

    def test_fock_input_capped_at_cutoff_cap(self, tmp_path):
        assert parse_config_text("input.kind = fock\ninput.fock_n = 24\n").fock_space().n_max == 24
        text = "input.kind = fock\ninput.fock_n = 25\n"
        with pytest.raises(TruncationError, match="cap n_max = 24"):
            parse_config_text(text)
        path = tmp_path / "fock.cfg"
        path.write_text(text)
        assert main(["table1", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "table1.csv").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**400])
    def test_seed_outside_64_bits_rejected(self, seed):
        # Seeds key 64-bit Philox streams: a wider seed would alias a valid one.
        with pytest.raises(ConfigError, match="line 1: run.seed = "):
            parse_config_text(f"run.seed = {seed}\n")
        with pytest.raises(ConfigError, match=r"seed must be in \[0, 18446744073709551615\]"):
            replace(default_config(), seed=seed)

    def test_mc_alias_normalized_by_config(self):
        assert parse_config_text("run.mode = mc\n").mode == "monte_carlo"
        assert replace(default_config(), mode="mc").mode == "monte_carlo"

    def test_every_key_maps_to_a_field(self):
        config = default_config()
        file_keys = {line.split(" = ")[0] for line in serialize_config(config).splitlines()}
        assert len(file_keys) == 40
        assert file_keys == set(config_values(config))

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(config=random_configs())
    def test_round_trip_random_configs(self, config):
        assert build_config(config_values(config)) == config
        assert parse_config_text(serialize_config(config)) == config


class TestFigureBuilders:
    def test_fig2_columns_and_anchor(self, base_config):
        header, rows = build_figure("fig2", base_config)
        assert header[:5] == ["mu", "p_up1", "p_up1_stderr", "p_up2", "p_up2_stderr"]
        assert "p_up1_given_up2" in header
        col = header.index("p_up1_given_up2")
        values = [float(r[col]) for r in rows if r[col]]
        assert max(values) == pytest.approx(0.684, abs=0.05)

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_absent_cell_has_empty_stderr(self, base_config, figure):
        # No light and no detector dark counts: nothing clicks, so every
        # click-conditioned cell is absent, and so is its standard error.
        config = replace(quiet_detectors(base_config), mean_photon_sweep=(0.0,))
        header, (row,) = build_figure(figure, config)
        cells = dict(zip(header, row))
        assert cells["p_up2_given_click"] == ""
        for col, value in cells.items():
            if f"{col}_stderr" in cells:
                assert cells[f"{col}_stderr"] == ("" if value == "" else "0"), col

    @staticmethod
    def assert_nodark_is_quiet_figure(config):
        header, rows = build_figure("figS1", config)
        quiet_header, quiet_rows = build_figure("figS1", quiet_detectors(config))
        for node in (1, 2):
            nodark = header.index(f"p_up{node}_given_click_nodark")
            quiet = quiet_header.index(f"p_up{node}_given_click")
            assert [row[nodark] for row in rows] == [row[quiet] for row in quiet_rows]

    def test_figS1_nodark_is_figS1_of_quiet_detectors(self, base_config):
        self.assert_nodark_is_quiet_figure(base_config)

    @settings(derandomize=True, max_examples=1, deadline=None)
    @given(config=random_configs())
    def test_figS1_nodark_is_figS1_of_quiet_detectors_random(self, config):
        self.assert_nodark_is_quiet_figure(config)

    def test_table1_rows(self, base_config):
        header, rows = build_figure("table1", base_config)
        assert [r[0] for r in rows] == ["none", "up1", "up2", "up1_and_up2"]

    def test_sorter_rows(self, base_config):
        header, rows = build_figure("sorter", base_config)
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        probs = [float(r[1]) for r in rows]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


# The stored default-config CSVs that the benchmark's output check also reads.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "default"


def read_reference(figure):
    header, *rows = (line.split(",") for line in (REFERENCE_DIR / f"{figure}.csv").read_text().splitlines())
    return header, rows


class TestCsvSchema:
    """Every figure's header and cells against the stored reference CSVs."""

    @pytest.mark.parametrize("figure", FIGURES)
    def test_exact_figure_matches_reference(self, base_config, figure):
        header, rows = build_figure(figure, base_config)
        ref_header, ref_rows = read_reference(figure)
        assert header == ref_header
        assert len(rows) == len(ref_rows)
        for index, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for column, cell, ref_cell in zip(header, row, ref_row, strict=True):
                try:
                    diff = abs(float(cell) - float(ref_cell))
                except ValueError:  # an empty cell or a text one
                    assert cell == ref_cell, (index, column)
                else:
                    assert diff <= 1e-12, (index, column, cell, ref_cell)

    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "table1"])
    def test_monte_carlo_header_is_the_exact_one(self, base_config, figure):
        config = replace(base_config, mode="monte_carlo", trials=2_000)
        header, _ = build_figure(figure, config)
        assert header == read_reference(figure)[0]


class TestRunAndCompare:
    def test_run_writes_csv_and_manifest(self, tmp_path, base_config):
        manifest = run("fig4", base_config, str(tmp_path))
        assert (tmp_path / "fig4.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["files"][0]["name"] == "fig4.csv"
        assert payload["seed"] == base_config.seed

    def test_exact_mode_rerun_byte_identical(self, tmp_path, base_config):
        run("fig2", base_config, str(tmp_path / "a"))
        run("fig2", base_config, str(tmp_path / "b"))
        csv_a = (tmp_path / "a" / "fig2.csv").read_bytes()
        csv_b = (tmp_path / "b" / "fig2.csv").read_bytes()
        assert csv_a == csv_b

    def test_compare_identical_runs(self, tmp_path, base_config):
        run("fig2", base_config, str(tmp_path / "a"))
        run("fig2", base_config, str(tmp_path / "b"))
        report = compare(str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json"))
        assert report["pass"]
        assert report["max_abs_diff"] == 0.0

    def test_compare_exact_vs_monte_carlo_within_3_sigma(self, tmp_path, base_config):
        small = replace(base_config, mean_photon_sweep=(0.04, 0.2, 0.9))
        run("fig3", small, str(tmp_path / "exact"))
        run("fig3", small, str(tmp_path / "mc"), mode="monte_carlo", trials=100_000)
        report = compare(
            str(tmp_path / "exact" / "manifest.json"), str(tmp_path / "mc" / "manifest.json")
        )
        assert report["pass"], report

    def test_compare_flags_perturbed_transmission(self, tmp_path, base_config):
        small = replace(base_config, mean_photon_sweep=(0.084,))
        perturbed = replace(small, channel=replace(small.channel, transmission=0.54))
        run("fig2", small, str(tmp_path / "a"))
        run("fig2", perturbed, str(tmp_path / "b"))
        report = compare(str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json"))
        assert not report["pass"]
        assert report["max_abs_diff"] > 0
        worst = report["worst"]
        assert 0 < len(worst) <= 5 and worst[0]["file"] == "fig2.csv"
        assert worst[0]["diff"] == report["max_abs_diff"]
        assert [w["diff"] for w in worst] == sorted((w["diff"] for w in worst), reverse=True)
        # the sweep axis itself is untouched
        header, rows_a = build_figure("fig2", small)
        _, rows_b = build_figure("fig2", perturbed)
        assert rows_a[0][0] == rows_b[0][0]

    @pytest.mark.parametrize(
        "edits",
        [{"g2_zero": "nan"}, {"g2_zero": "inf"}, {"g2_zero": ""}, {"g2_zero": "5.0", "g2_zero_stderr": "inf"}],
    )
    def test_compare_fails_a_cell_it_cannot_difference(self, tmp_path, base_config, edits):
        run("table1", base_config, str(tmp_path / "a"))
        run("table1", base_config, str(tmp_path / "b"))
        csv_b = tmp_path / "b" / "table1.csv"
        header, *rows = [line.split(",") for line in csv_b.read_text().splitlines()]
        for column, text in edits.items():
            rows[1][header.index(column)] = text
        csv_b.write_text("".join(",".join(line) + "\n" for line in (header, *rows)))
        report = compare(str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json"))
        assert not report["pass"]
        cell = {"file": "table1.csv", "row": 1, "column": "g2_zero", "diff": None, "sigma": None}
        assert report["worst"] == [cell]
        # a cell both runs write as the same text passes, whether or not it is a number
        report = compare(str(tmp_path / "b" / "manifest.json"), str(tmp_path / "b" / "manifest.json"))
        assert report["pass"]


class TestCliMain:
    def test_full_cli_run(self, tmp_path):
        rc = main(["figS1", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "figS1.csv").exists()

    @pytest.mark.parametrize("figure", ["figS1", "sorter"])
    def test_exact_only_figure_rejects_mc_mode(self, tmp_path, capsys, figure):
        rc = main([figure, "--mode", "mc", "--trials", "1000", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["category"] == "config"
        assert error["message"].startswith(f"{figure} is exact-only")
        assert not (tmp_path / f"{figure}.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_sorter_refuses_config(self, tmp_path, capsys):
        # The sorter runs SORTER_CONFIG whatever the file says, so a file
        # would only be recorded, never read.
        config_path = tmp_path / "changed.cfg"
        config_path.write_text("channel.transmission = 0.2\nnode1.g = 3.0\n")
        rc = main(["sorter", "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"category": "config", "message": "sorter runs a fixed SorterConfig and reads no --config"}
        assert not (tmp_path / "out").exists()

    def test_sorter_manifest_records_the_config_that_ran(self, tmp_path):
        assert main(["sorter", "--out", str(tmp_path)]) == 0
        recorded = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert recorded == asdict(SORTER_CONFIG)
        assert SorterConfig(**recorded) == SORTER_CONFIG
        assert (recorded["k"], recorded["mean_photon"], recorded["n_max"]) == (2, 0.5, 3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        rc = main(["table1", "--mode", "mc", "--trials", "1000", "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["category"] == "config"
        assert not (tmp_path / "table1.csv").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_64_bit_bounds_runs(self, tmp_path, seed):
        rc = main(["table1", "--mode", "mc", "--trials", "1000", "--seed", str(seed), "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == seed

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exits_2_in_exact_mode(self, tmp_path, capsys, trials):
        # The manifest would record run.trials, which the parser refuses below 1.
        rc = main(["fig2", "--trials", trials, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["category"] == "config"
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_2_and_leaves_it(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"not a directory\n")
        rc = main(["fig2", "--out", str(taken)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["category"] == "config"
        assert error["message"].startswith(f"cannot write {taken}")
        assert taken.read_bytes() == b"not a directory\n"

    def test_unwritable_output_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "one_point.cfg"
        cfg.write_text("sweep.mu = 0.084\n")
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        rc = main(["fig2", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["category"] == "config"
        assert error["message"].startswith(f"cannot write {out / 'manifest.json'}")
        # The CSV written before the manifest failed is removed again.
        assert not (out / "fig2.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("channel.transmission = 2.0\n")
        rc = main(["fig2", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_compare_cli_identical(self, tmp_path, base_config):
        small = replace(base_config, mean_photon_sweep=(0.084,))
        run("fig2", small, str(tmp_path / "a"))
        run("fig2", small, str(tmp_path / "b"))
        rc = main(
            ["compare", str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json")]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "damage", ["missing_manifest", "manifest_without_files", "missing_csv", "empty_csv", "short_row"]
    )
    def test_compare_bad_input_exits_2(self, tmp_path, capsys, base_config, damage):
        small = replace(base_config, mean_photon_sweep=(0.084,))
        run("fig2", small, str(tmp_path / "a"))
        run("fig2", small, str(tmp_path / "b"))
        broken = tmp_path / "b" / ("manifest.json" if "manifest" in damage else "fig2.csv")
        if damage == "manifest_without_files":
            broken.write_text(json.dumps({"figure": "fig2"}))
        elif damage == "empty_csv":
            broken.write_text("")
        elif damage == "short_row":
            header, row = broken.read_text().splitlines()
            broken.write_text(f"{header}\n{row.rsplit(',', 2)[0]}\n")
        else:
            broken.unlink()
        rc = main(["compare", str(tmp_path / "a" / "manifest.json"), str(tmp_path / "b" / "manifest.json")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err)
        assert error["category"] == "config"
        assert str(broken) in error["message"]

    def test_negative_zero_mean_photon_is_zero(self, tmp_path):
        # -0.0 passes the >= 0 check; it must serialize, key the Monte Carlo
        # streams and write its CSV as 0.0 does.
        configs = {text: parse_config_text(f"sweep.mu = {text}, 0.45\n") for text in ("0.0", "-0.0")}
        assert serialize_config(configs["-0.0"]) == serialize_config(configs["0.0"])
        for text, config in configs.items():
            run("fig2", config, str(tmp_path / text), mode="mc", trials=1_000, seed=7)
        assert (tmp_path / "-0.0" / "fig2.csv").read_bytes() == (tmp_path / "0.0" / "fig2.csv").read_bytes()
        assert montecarlo._mu_tag(-0.0) == montecarlo._mu_tag(0.0)

    def test_mc_figure_deterministic(self, tmp_path, base_config):
        small = replace(base_config, mean_photon_sweep=(0.084,))
        run("fig3", small, str(tmp_path / "a"), mode="mc", trials=20_000, seed=99)
        run("fig3", small, str(tmp_path / "b"), mode="mc", trials=20_000, seed=99)
        assert (tmp_path / "a" / "fig3.csv").read_bytes() == (tmp_path / "b" / "fig3.csv").read_bytes()

    def test_default_figure_within_time_budget(self, tmp_path):
        import time

        start = time.time()
        rc = main(["fig3", "--out", str(tmp_path)])  # heaviest: two full sweeps
        assert rc == 0
        assert time.time() - start < 60

    def test_runtime_does_not_import_scipy(self, tmp_path):
        import os
        import subprocess
        import sys

        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("sweep.mu = 0.04, 0.2, 0.9\n")
        script = (
            "import sys\n"
            "from qndsim.cli import main\n"
            f"assert main(['fig3', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'fig3')!r}]) == 0\n"
            f"assert main(['table1', '--out', {str(tmp_path / 'table1')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "[]"


class TestImportBudget:
    """A CLI run imports only the engine it runs: every child compiles what it imports."""

    @staticmethod
    def modules_after(runs, tmp_path):
        """Modules a fresh interpreter holds after importing numpy alone, then after main(args) for each run."""
        import os
        import subprocess
        import sys

        script = (
            "import json, sys\n"
            "import numpy\n"
            "bare = sorted(sys.modules)\n"
            "from qndsim.cli import main\n"
            f"for i, args in enumerate({runs!r}):\n"
            f"    assert main([*args, '--out', {str(tmp_path)!r} + f'/{{i}}']) == 0, args\n"
            "print(json.dumps([bare, sorted(sys.modules)]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.setdefault("OPENBLAS_NUM_THREADS", "1")  # numpy loads before the CLI could set it
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        bare, loaded = json.loads(out.stdout.strip().splitlines()[-1])
        return set(bare), set(loaded)

    def test_exact_runs_load_neither_sampler_nor_sorter(self, tmp_path):
        figures = [f for f in FIGURES if f != "sorter"]
        bare, loaded = self.modules_after([[f] for f in figures], tmp_path)
        # numpy.random is a cost only where numpy itself does not import it.
        banned = {"qndsim.montecarlo", "qndsim.sorter"} | ({"numpy.random"} - bare)
        assert not loaded & banned

    def test_monte_carlo_runs_do_not_load_the_sorter(self, tmp_path):
        figures = [f for f in FIGURES if f not in ("figS1", "sorter")]
        runs = [[f, "--mode", "mc", "--trials", "2000"] for f in figures]
        _, loaded = self.modules_after(runs, tmp_path)
        assert "qndsim.montecarlo" in loaded
        assert "qndsim.sorter" not in loaded


class TestBlasThreads:
    """The CLI runs numpy's BLAS on one thread unless the caller chose a count; the library leaves it alone."""

    BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @classmethod
    def fresh_interpreter(cls, module, **preset):
        """`import module` in a new interpreter without the BLAS thread variables but `preset`.

        Returns OPENBLAS_NUM_THREADS as the child reads it after the import,
        and the child's thread count, None where /proc is absent.
        """
        import os
        import subprocess
        import sys

        script = (
            "import json, os\n"
            f"import {module}\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if k not in cls.BLAS_VARIABLES}
        env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_cli_runs_blas_on_one_thread(self):
        variable, tasks = self.fresh_interpreter("qndsim.cli")
        assert variable == "1"
        if tasks is not None:
            assert tasks == 1  # numpy loaded, and no BLAS worker beside the main thread

    def test_an_explicit_count_wins(self):
        variable, _ = self.fresh_interpreter("qndsim.cli", OPENBLAS_NUM_THREADS="2")
        assert variable == "2"

    def test_library_import_leaves_blas_alone(self):
        variable, _ = self.fresh_interpreter("qndsim.protocol")
        assert variable is None
