"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sort_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.technique == "arraysort"
        assert args.num_arrays == 10_000

    def test_rejects_unknown_technique(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--technique", "bogo"])


class TestSortCommand:
    def test_arraysort_with_verify(self, capsys):
        rc = main(["sort", "-N", "200", "-n", "100", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GPU-ArraySort" in out
        assert "verification: OK" in out

    def test_sta(self, capsys):
        rc = main(["sort", "-N", "100", "-n", "60", "--technique", "sta", "--verify"])
        assert rc == 0
        assert "STA" in capsys.readouterr().out

    def test_segmented(self, capsys):
        rc = main(["sort", "-N", "100", "-n", "60", "--technique", "segmented"])
        assert rc == 0
        assert "segmented" in capsys.readouterr().out

    def test_sequential(self, capsys):
        rc = main(["sort", "-N", "50", "-n", "60", "--technique", "sequential"])
        assert rc == 0

    def test_model_engine(self, capsys):
        rc = main(["sort", "-N", "100", "-n", "100", "--engine", "model"])
        assert rc == 0
        assert "modeled device time" in capsys.readouterr().out

    def test_sim_engine_micro_scale(self, capsys):
        rc = main(["sort", "-N", "2", "-n", "64", "--engine", "sim", "--verify"])
        assert rc == 0

    @pytest.mark.parametrize(
        "workload", ["uniform", "normal", "clustered", "duplicates", "spectra"]
    )
    def test_all_workloads(self, workload, capsys):
        rc = main([
            "sort", "-N", "50", "-n", "80", "--workload", workload, "--verify",
        ])
        assert rc == 0

    def test_custom_tuning_flags(self, capsys):
        rc = main([
            "sort", "-N", "50", "-n", "100", "--bucket-size", "10",
            "--sampling-rate", "0.2", "--verify",
        ])
        assert rc == 0


class TestFiguresCommand:
    def test_all_figures(self, capsys):
        rc = main(["figures"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig 2" in out
        for fig in ("FIG4", "FIG5", "FIG6", "FIG7"):
            assert fig in out

    def test_single_figure(self, capsys):
        rc = main(["figures", "--which", "fig4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FIG4" in out
        assert "FIG5" not in out

    def test_fig2_reports_r2(self, capsys):
        rc = main(["figures", "--which", "fig2"])
        assert rc == 0
        assert "R^2" in capsys.readouterr().out


class TestTable1Command:
    def test_prints_table(self, capsys):
        rc = main(["table1", "--no-measure"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "2000000" in out

    def test_with_measurement(self, capsys):
        rc = main(["table1"])
        assert rc == 0
        assert "2000000" in capsys.readouterr().out


class TestDevicesCommand:
    def test_lists_catalog(self, capsys):
        rc = main(["devices"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tesla K40c" in out
        assert "2880" in out


class TestPairsCommand:
    def test_sorts_by_mz(self, capsys):
        rc = main(["pairs", "-N", "20", "-n", "50"])
        assert rc == 0
        assert "by mz" in capsys.readouterr().out

    def test_sorts_by_intensity(self, capsys):
        rc = main(["pairs", "-N", "20", "-n", "50", "--by", "intensity"])
        assert rc == 0
        assert "by intensity" in capsys.readouterr().out


class TestOutOfCoreCommand:
    def test_plans_chunks(self, capsys):
        rc = main(["outofcore", "-N", "5000000", "-n", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunks" in out
        assert "overlapped" in out

    def test_other_device(self, capsys):
        rc = main(["outofcore", "-N", "2000000", "-n", "1000",
                   "--device", "c2050"])
        assert rc == 0
        assert "C2050" in capsys.readouterr().out


class TestTopkCommand:
    def test_keeps_top_peaks(self, capsys):
        rc = main(["topk", "-N", "50", "-n", "200", "-k", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kept top 20/200" in out
        assert "identical" in out


class TestMemcheckCommand:
    def test_pipeline_is_clean(self, capsys):
        rc = main(["memcheck", "-N", "2", "-n", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CLEAN" in out
        assert "conflict-free" in out


class TestWorkloadsCommand:
    def test_lists_suite(self, capsys):
        rc = main(["workloads"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "paper_uniform_small" in out
        assert "spectra_intensity" in out


class TestCalibrateCommand:
    def test_reports_fits(self, capsys):
        rc = main(["calibrate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "time calibration" in out
        assert "memory fraction" in out

    def test_show_anchors(self, capsys):
        rc = main(["calibrate", "--show-anchors"])
        assert rc == 0
        assert "Fig 4 right edge" in capsys.readouterr().out


class TestSortPlannerFlag:
    def test_planner_alone_is_fine(self, capsys):
        rc = main(["sort", "-N", "50", "-n", "40", "--planner", "fused"])
        assert rc == 0
        assert "planner: chose" in capsys.readouterr().out

    def test_planner_needs_vectorized_engine(self, capsys):
        rc = main(["sort", "-N", "2", "-n", "40", "--engine", "model",
                   "--planner", "auto"])
        assert rc == 2
        assert "vectorized engine only" in capsys.readouterr().err


@pytest.mark.service
class TestServeBenchCommand:
    def test_reports_throughput_and_occupancy(self, capsys):
        rc = main([
            "serve-bench", "--requests", "64", "--clients", "4",
            "--array-size", "32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "service traffic" in out
        assert "throughput" in out
        assert "Batch occupancy" in out

    def test_unbatched_comparison(self, capsys):
        rc = main([
            "serve-bench", "--requests", "64", "--clients", "4",
            "--array-size", "32", "--unbatched",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unbatched baseline" in out
        assert "batched speedup" in out

    def test_deadline_and_open_arrival(self, capsys):
        rc = main([
            "serve-bench", "--requests", "64", "--clients", "4",
            "--array-size", "32", "--arrival", "open", "--rate", "5000",
            "--deadline-ms", "250",
        ])
        assert rc == 0
        assert "service traffic (open loop" in capsys.readouterr().out

    def test_bad_size_mix_is_a_usage_error(self, capsys):
        rc = main(["serve-bench", "--size-mix", "nonsense"])
        assert rc == 2
        assert "--size-mix" in capsys.readouterr().err
