"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["serve", "--cache-dir", "cache"],
        ["trends", "--cache-dir", "cache"],
        ["check", "--backend", "serial"],
        ["trace", "two.trc", "--strict"],
        ["schemes", "--backend", "serial"],
    ], ids=["serve-cache-dir", "trends-cache-dir", "check-backend",
            "trace-strict", "schemes-backend"])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIddCommand:
    def test_default_device(self, capsys):
        out = run(capsys, "idd")
        assert "2G-DDR3-1600-x16-55nm" in out
        assert "idd4r" in out
        assert "idd6" in out

    def test_custom_device(self, capsys):
        out = run(capsys, "idd", "--node", "65", "--interface", "DDR2",
                  "--density", "1Gb", "--width", "8",
                  "--datarate", "800Mbps")
        assert "DDR2" in out
        assert "x8" in out

    def test_from_file(self, capsys, tmp_path, ddr3_device):
        from repro.dsl import dump
        path = tmp_path / "dev.dram"
        dump(ddr3_device, path)
        out = run(capsys, "idd", "--file", str(path))
        assert ddr3_device.name in out


class TestPatternCommand:
    def test_paper_pattern(self, capsys):
        out = run(capsys, "pattern")
        assert "act nop wr nop rd nop pre nop" in out
        assert "energy/bit" in out

    def test_custom_loop(self, capsys):
        out = run(capsys, "pattern", "--loop", "rd nop nop nop")
        assert "rd nop nop nop" in out


class TestAnalysisCommands:
    def test_verify_ddr3_only(self, capsys):
        out = run(capsys, "verify", "ddr3")
        assert "Figure 9" in out
        assert "Figure 8" not in out

    def test_trends(self, capsys):
        out = run(capsys, "trends")
        assert "170" in out
        assert "energy reduction per generation" in out

    def test_sensitivity(self, capsys):
        out = run(capsys, "sensitivity", "--variation", "0.1")
        assert "Internal voltage Vint" in out

    def test_schemes(self, capsys):
        out = run(capsys, "schemes")
        assert "selective-bitline-activation" in out


class TestCornersCommand:
    def test_corner_bands(self, capsys):
        out = run(capsys, "corners")
        assert "spread" in out
        assert "idd4r" in out

    def test_with_monte_carlo(self, capsys):
        out = run(capsys, "corners", "--samples", "5", "--vendor")
        assert "Monte-Carlo" in out
        assert "p95/mean" in out


class TestEventsCommand:
    def test_activate_catalog(self, capsys):
        out = run(capsys, "events", "--operation", "act")
        assert "bitline swing" in out
        assert "total:" in out


class TestInfoCommand:
    def test_device_summary(self, capsys):
        out = run(capsys, "info")
        assert "organisation" in out
        assert "Power breakdown" in out


class TestTraceCommand:
    def test_random_workload(self, capsys):
        out = run(capsys, "trace", "--accesses", "300",
                  "--hit-rate", "0.7")
        assert "row hit rate" in out
        assert "energy/bit" in out

    def test_streaming_workload(self, capsys):
        out = run(capsys, "trace", "--workload", "streaming",
                  "--accesses", "300")
        assert "streaming" in out

    @pytest.mark.parametrize("clock", ["0", "1e400"])
    def test_bad_file_clock_is_an_error(self, capsys, tmp_path, clock):
        path = tmp_path / "t.trc"
        path.write_text("0x0 READ 0\n0x40 READ 8\n")
        assert main(["trace", str(path), "--clock", clock]) == 1
        assert ("error: clock must be positive and finite"
                in capsys.readouterr().err)


    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_non_finite_record_time_is_an_error(self, capsys, tmp_path,
                                                backend):
        path = tmp_path / "big.trc"
        path.write_text("0x0 P_MEM_RD 1\n0x40 P_MEM_RD 1"
                        + "0" * 400 + "\n")
        assert main(["trace", str(path), "--backend", backend]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "big.trc:2: cycle stamp gives no finite time" in err
        assert "Traceback" not in err


class TestCheckCommand:
    def test_feasible_device_exits_zero(self, capsys):
        out = run(capsys, "check", "--node", "55")
        assert "Feasibility" in out
        assert "sa_stripe_share" in out
        assert "engine: hits=" in out
        assert "misses=1 " in out

    def test_infeasible_device_exits_nonzero(self, capsys, tmp_path,
                                             ddr3_device):
        from repro.dsl import dump
        bloated = ddr3_device.replace_path(
            "floorplan.array.width_sa_stripe",
            ddr3_device.floorplan.array.width_sa_stripe * 3,
        )
        path = tmp_path / "bloated.dram"
        dump(bloated, path)
        code = main(["check", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "warning" in captured.out


class TestExportCommand:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        out = run(capsys, "export", str(tmp_path / "exports"))
        assert out.count("wrote") == 4
        assert (tmp_path / "exports"
                / "fig11_13_trends.json").exists()


class TestDumpCommand:
    def test_dump_to_stdout(self, capsys):
        out = run(capsys, "dump", "--node", "65")
        assert "FloorplanPhysical" in out
        assert "Pattern loop=" in out

    def test_dump_round_trips(self, capsys, tmp_path):
        path = tmp_path / "out.dram"
        run(capsys, "dump", "--node", "65", "-o", str(path))
        out = run(capsys, "idd", "--file", str(path))
        assert "idd0" in out
