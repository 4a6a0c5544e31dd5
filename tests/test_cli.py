"""Tests for the command-line interface."""

import pytest

from repro._version import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scale == 0.005
        assert args.gpus == 50
        assert not args.no_real_ml

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    @pytest.mark.parametrize(
        "command, scale",
        [("run", "2"), ("lint", "2"), ("inventory", "0"), ("trace", "nan")],
    )
    def test_scale_out_of_range_is_usage_error(self, command, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scale", scale])
        assert exc.value.code == 2
        assert "scale must be in (0, 1]" in capsys.readouterr().err

    def test_scale_bounds(self):
        assert build_parser().parse_args(["run", "--scale", "1"]).scale == 1.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scale", "abc"])


class TestCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_inventory(self, capsys):
        assert main(["inventory", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "PRP partner sites" in out

    def test_describe(self, capsys):
        assert main(["describe", "--gpus", "8"]) == 0
        out = capsys.readouterr().out
        assert "download" in out and "visualization" in out

    def test_run_small(self, capsys):
        code = main(
            ["run", "--scale", "0.0005", "--no-real-ml", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "# of GPUs" in out

    def test_run_with_figures(self, capsys):
        code = main(
            ["run", "--scale", "0.0005", "--no-real-ml", "--figures"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for figure in ("Figure 3", "Figure 4", "Figure 5", "Figure 6"):
            assert figure in out

    def test_run_custom_shape(self, capsys):
        code = main([
            "run", "--scale", "0.0005", "--no-real-ml",
            "--workers", "4", "--gpus", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "| 10" in out  # 10 GPUs in the table
