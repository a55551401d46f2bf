"""Tests for the `python -m repro` command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert name in out
    assert "perf" not in out  # performance lives in bench/run.py, not here


def test_no_command_lists(capsys):
    assert main([]) == 0
    assert "available experiments" in capsys.readouterr().out


def test_parser_accepts_every_command():
    parser = build_parser()
    others = ["list", "all", "trace", "chaos", "serve", "views"]
    for name in list(COMMANDS) + others:
        args = parser.parse_args([name])
        assert args.command == name


def test_parser_client_lists():
    parser = build_parser()
    args = parser.parse_args(["fig6", "--clients", "2,4,8"])
    assert args.clients == "2,4,8"


def test_table2_command_runs(capsys):
    assert main(["table2", "--writes", "150"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "speedup" in out


def test_fig12_command_runs(capsys):
    assert main(["fig12", "--lookups", "400"]) == 0
    out = capsys.readouterr().out
    assert "Figure 12" in out
    assert "no-EBP" in out


@pytest.mark.parametrize("name", ["not-a-figure", "perf"])
def test_unknown_command_rejected(name, capsys):
    with pytest.raises(SystemExit):
        main([name])
    assert "invalid choice" in capsys.readouterr().err


def test_chaos_parser_wiring():
    parser = build_parser()
    args = parser.parse_args(["chaos", "--seed", "11", "--short"])
    assert args.command == "chaos"
    assert args.seed == 11
    assert args.short is True
    args = parser.parse_args(["chaos"])
    assert args.seed == 7
    assert args.short is False


def test_chaos_command_prints_report_and_exit_codes(capsys, monkeypatch):
    import json

    from repro.harness import soak

    calls = []

    def fake_soak(seed, short):
        calls.append((seed, short))
        ok = seed != 99
        return {
            "seed": seed, "short": short, "ok": ok,
            "violations": [] if ok else ["district (1,1): lost update"],
        }

    monkeypatch.setattr(soak, "run_chaos_soak", fake_soak)
    assert main(["chaos", "--seed", "5", "--short"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["seed"] == 5 and report["short"] is True
    assert calls == [(5, True)]

    assert main(["chaos", "--seed", "99"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "invariant violation" in captured.err


@pytest.mark.parametrize("flag", [
    ["--shards", "2"], ["--tenants", "3"], ["--read-limit", "4"],
])
def test_serve_mux_refuses_unmultiplexed_flags(flag, capsys):
    # These configure the unmultiplexed scenario only; --mux used to drop
    # them silently and print an ok report for a run nobody asked for.
    argv = ["serve", "--mux", "--sessions", "50", "--duration", "0.05"]
    assert main(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "python -m repro serve: error: %s does not apply to --mux\n" % flag[0]
    )


@pytest.mark.parametrize("argv", [
    ["serve"], ["serve", "--mux"], ["views"],
])
def test_zero_replicas_is_a_one_line_error(argv, capsys):
    assert main(argv + ["--replicas", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "python -m repro %s: error: replicas must be >= 1, got 0\n" % argv[0]
    )
