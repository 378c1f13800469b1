"""Tests of the benchmark's own parts: tracer counts, output checks, config generator."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import configs
import outcheck
import run
import tracer

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from qndsim.config import parse_config_text  # noqa: E402

TINY_SWEEP = (0.1, 0.2, 0.3)
TINY = "sweep.mu = " + ", ".join(map(str, TINY_SWEEP)) + "\n"


def test_tracer_counts_match_hand_counts(tmp_path):
    runner = run.Runner([run.Invocation("fig3", (), lambda path: [], TINY)], str(tmp_path))
    plain = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert [r["exit_code"] for r in plain["invocations"] + traced["invocations"]] == [0, 0]
    layers = traced["layers"]
    points = len(TINY_SWEEP)
    # fig3 sweeps twice (with and without detector dark counts); every cascade
    # point reads out four atomic branches, each split once onto the detectors.
    assert layers["estimators.sweep_estimates.calls"] == 2
    assert layers["protocol.run_cascade.calls"] == 2 * points
    assert layers["detectors.hbt_split_and_count.calls"] == 4 * 2 * points
    assert layers["fock.beam_splitter.calls"] == 4 * 2 * points
    for idle in ("protocol.run_single.calls", "montecarlo.estimate.calls", "sorter.run_sorter.calls"):
        assert layers[idle] == 0
    assert layers["fock.apply_channel.gflop"] > 0 and layers["fock._check_density.eig_dim3"] > 0
    # Tracing must not change what the program writes.
    runner.check_reruns()
    assert traced["invocations"][0]["problems"] == []


def test_missing_private_stage_counts_as_zero():
    code = (
        "import tracer, qndsim.fock as fock\n"
        "del fock._check_density\n"
        "print(tracer.install(tracer.Recorder()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(run.ROOT, "src"), run.BENCH_DIR]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['fock._check_density']"
    layers = tracer.layer_metrics([])
    assert layers["fock._check_density.calls"] == 0 and layers["fock._check_density.self_s"] == 0.0


def test_output_check_flags_corrupted_cell(tmp_path):
    ref = os.path.join(run.REFERENCE_DIR, "default", "fig3.csv")
    copy = tmp_path / "fig3.csv"
    shutil.copy(ref, copy)
    assert outcheck.compare_exact(str(copy), ref) == []
    assert outcheck.compare_mc(str(copy), ref) == []
    header, rows = outcheck.read_csv(ref)
    col = header.index("p_up1_given_click")
    rows[3][col] = repr(float(rows[3][col]) + 1e-9)
    copy.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    problems = outcheck.compare_exact(str(copy), ref)
    assert len(problems) == 1 and "row 3 p_up1_given_click" in problems[0]
    assert len(outcheck.compare_mc(str(copy), ref)) == 1
    assert outcheck.check_invariants(str(copy), "fig3", len(rows)) == []
    rows[0][col] = "1.5"
    copy.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    assert len(outcheck.check_invariants(str(copy), "fig3", len(rows))) == 1


def test_output_check_flags_nonzero_exit(tmp_path):
    bad = run.Invocation("fig3", (), lambda path: [], "no_such.key = 1\n")
    record = run.Runner([bad], str(tmp_path)).run_pass(traced=False)["invocations"][0]
    assert record["exit_code"] == 2
    assert record["problems"] and record["problems"][0].startswith("exit code 2")


def test_generator_is_deterministic_and_covers_forced_branches():
    texts = configs.generate(7)
    assert texts == configs.generate(7)
    assert texts != configs.generate(8)
    parsed = [parse_config_text(t) for t in texts]
    first, second = parsed[0], parsed[1]
    assert 1.0 in (
        first.node1.imperfections.reflection_contrast,
        first.node2.imperfections.reflection_contrast,
    )
    assert second.channel.depolarization + second.channel.birefringence_residual == 0.0
    for config in parsed:
        assert len(config.mean_photon_sweep) == configs.SWEEP_POINTS
        assert max(config.mean_photon_sweep) <= configs.MU_MAX
