"""Smoke tests: the CLI and every example script actually run."""

import importlib.util
import json
import pathlib
import sys

from repro.__main__ import main as cli_main

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, argv, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    old_argv = sys.argv
    sys.argv = [f"{name}.py"] + argv
    try:
        module.main()
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestCli:
    def test_experiments_listing(self, capsys):
        assert cli_main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig7" in out

    def test_run_table1(self, capsys):
        assert cli_main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "TSV" in out and "PASS" in out

    def test_run_unknown_experiment(self, capsys):
        assert cli_main(["run", "table99"]) == 2

    def test_block_command(self, capsys):
        assert cli_main(["block", "ncu", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "total power (mW)" in out
        assert "worst slack" in out

    def test_block_folded_command(self, capsys):
        assert cli_main(["block", "l2t", "--fold", "--bonding", "F2F",
                         "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "# TSV/F2F via" in out

    def test_chip_command(self, capsys):
        assert cli_main(["chip", "2d", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "inter-block wirelength" in out


class TestEcoCli:
    def test_eco_closes_the_base_scenario(self, capsys):
        assert cli_main(["eco", "ncu", "--scale", "0.4",
                         "--target-wns", "60"]) == 0
        out = capsys.readouterr().out
        assert "closure: met after 1 round(s), 9 move(s) applied" in out

    def test_eco_derives_a_neighboring_scenario(self, capsys):
        assert cli_main(["eco", "l2t", "--scale", "0.5", "--io-budget",
                         "60", "--derive-io-budget", "120"]) == 0
        out = capsys.readouterr().out
        assert "closure: met after 1 round(s), 32 move(s) applied" in out
        assert "0 full STA rebuilds" in out


class TestServiceCli:
    SWEEP = ["--ids", "table1,table2", "--scale", "0.3"]

    def test_submit_json_matches_bench_byte_for_byte(self, tmp_path,
                                                     capsys):
        from repro.service import ServiceConfig, serve_background
        submitted = tmp_path / "submit.json"
        benched = tmp_path / "bench.json"
        with serve_background(ServiceConfig(port=0,
                                            parallel=0)) as handle:
            assert cli_main(["submit", "--port", str(handle.port),
                             *self.SWEEP, "--json-out",
                             str(submitted)]) == 0
        assert cli_main(["bench", *self.SWEEP, "--json-out",
                         str(benched)]) == 0
        assert submitted.read_bytes() == benched.read_bytes()

    def test_chaos_serve_retries_through_the_default_crash(self, tmp_path,
                                                           capsys):
        report_out = tmp_path / "serve-chaos.json"
        assert cli_main(["chaos", "--serve", "--ids", "table1",
                         "--scale", "0.3", "--report-out",
                         str(report_out)]) == 0
        report = json.loads(report_out.read_text())
        assert report["plan"].startswith("crash task=table1 stage=task")
        assert report["completed"]
        assert [(r["status"], r["attempts"]) for r in report["runs"]] \
            == [("ok", 2)]
        assert report["counters"]["tasks.retried"] == 1
        assert "sweep survived" in capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", ["--block", "l2t",
                                         "--scale", "0.5"], capsys)
        assert "2D vs folded 3D" in out
        assert "meet timing" in out

    def test_f2f_via_flow(self, capsys):
        out = run_example("f2f_via_flow", ["--block", "l2t"], capsys)
        assert "step 1" in out and "step 3" in out
        assert "F2F vias" in out

    def test_floorplan_annealer(self, capsys):
        out = run_example("floorplan_annealer",
                          ["--iterations", "300"], capsys)
        assert "annealed floorplan" in out

    def test_fullchip_styles(self, capsys):
        out = run_example("fullchip_styles",
                          ["--scale", "0.3", "--styles", "2d",
                           "core_cache"], capsys)
        assert "Full-chip comparison" in out
        assert "core_cache" in out

    def test_thermal_tradeoff(self, capsys):
        out = run_example("thermal_tradeoff",
                          ["--scale", "0.3", "--styles", "2d",
                           "core_cache"], capsys)
        assert "power, " in out and "C vs 2D" in out

    def test_folding_study(self, capsys):
        out = run_example("folding_study", ["--scale", "0.3"], capsys)
        assert "step 1" in out and "step 2" in out
        assert "spc" in out


class TestExtendedCli:
    def test_signoff_command(self, capsys):
        rc = cli_main(["signoff", "core_cache", "--scale", "0.3",
                       "--iterations", "1"])
        out = capsys.readouterr().out
        assert "chip-level sign-off" in out
        assert rc in (0, 1)


def test_physical_integrity_example(capsys):
    out = run_example("physical_integrity",
                      ["--scale", "0.3", "--styles", "2d",
                       "core_cache"], capsys)
    assert "thermal and power-grid integrity" in out
    assert "manufacturing cost" in out
    assert "multi-corner" in out


def test_render_layouts_example(tmp_path, capsys):
    out = run_example("render_layouts", ["--out", str(tmp_path)], capsys)
    assert "ccx_folded.svg" in out
    assert (tmp_path / "chip_fold_f2f.svg").exists()


def test_design_space_example(capsys):
    out = run_example("design_space", ["--scale", "0.25"], capsys)
    assert "Pareto-optimal" in out
    assert "lowest power" in out


def test_eco_session_example(capsys):
    out = run_example("eco_session", ["--block", "ncu"], capsys)
    assert "ECO 1" in out and "ECO 3" in out
    assert "final power" in out


class TestReportCard:
    def test_report_command(self, capsys, tmp_path):
        out_file = tmp_path / "card.md"
        rc = cli_main(["report", "2d", "--scale", "0.3",
                       "--out", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "# Design report" in text
        assert "Headline metrics" in text
        assert "Per block type" in text
        assert "Physical integrity" in text

    def test_report_card_api(self, process):
        from repro.analysis import chip_report_card
        from repro.core import ChipConfig, build_chip
        chip = build_chip(ChipConfig(style="core_cache", scale=0.3),
                          process)
        text = chip_report_card(chip, process, include_signoff=True)
        assert "chip-level sign-off" in text.lower() or \
            "Chip-level timing sign-off" in text
        assert "| spc | 8 |" in text
