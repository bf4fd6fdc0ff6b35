"""Trace export/import and CLI tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.estimator import SizeEstimator
from repro.experiments.session import SessionConfig, run_session
from repro.simnet.export import load_trace, packet_from_dict, packet_to_dict, save_trace
from repro.simnet.middlebox import SERVER_TO_CLIENT


def test_trace_roundtrip(tmp_path):
    result = run_session(SessionConfig(seed=0))
    path = tmp_path / "capture.jsonl"
    count = save_trace(result.trace, path)
    assert count == len(result.trace.packets(include_dropped=True))

    loaded = load_trace(path)
    assert len(loaded) == count
    original = result.trace.packets(SERVER_TO_CLIENT)
    reloaded = loaded.packets(SERVER_TO_CLIENT)
    assert len(reloaded) == len(original)
    assert [p.view.size for p in reloaded] == [p.view.size for p in original]


def test_analysis_works_on_reloaded_capture(tmp_path):
    result = run_session(SessionConfig(seed=1))
    path = tmp_path / "capture.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)
    original_estimates = SizeEstimator().estimate_from_trace(result.trace)
    loaded_estimates = SizeEstimator().estimate_from_trace(loaded)
    assert [e.size for e in loaded_estimates] == \
           [e.size for e in original_estimates]


def test_packet_dict_roundtrip_fields():
    result = run_session(SessionConfig(seed=0))
    captured = result.trace.packets()[0]
    data = json.loads(json.dumps(packet_to_dict(captured)))
    restored = packet_from_dict(data)
    assert restored.view == captured.view
    assert restored.time == captured.time


def test_parser_lists_all_experiments():
    parser = build_parser()
    commands = {"attack", "baseline", "table1", "figure5", "drops",
                "table2", "defenses", "size-estimation", "fingerprint",
                "streaming", "quic", "recovery-ablation",
                "scheduler-ablation", "dupserve-ablation"}
    text = parser.format_help()
    for command in commands:
        assert command in text


def test_cli_attack_runs(capsys):
    assert main(["attack", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "adversary decoded" in out
    assert "positions recovered" in out


def test_cli_size_estimation_runs(capsys):
    assert main(["size-estimation"]) == 0
    out = capsys.readouterr().out
    assert "serialized" in out and "multiplexed" in out


def test_cli_prints_claims_and_exits_on_their_verdict(capsys, monkeypatch):
    assert main(["size-estimation"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["serialized case recovers both sizes: PASS",
                          "multiplexed case does not: PASS"]

    from repro.experiments import size_estimation
    inexact = size_estimation.SizeEstimationResult(
        serialized_estimates=[41_000], multiplexed_estimates=[69_000],
        serialized_exact=False, multiplexed_exact=False)
    monkeypatch.setattr(size_estimation, "run_size_estimation",
                        lambda: inexact)
    assert main(["size-estimation"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["serialized case recovers both sizes: FAIL",
                          "multiplexed case does not: PASS"]


def test_cli_drops_small_n(capsys):
    # Two loads per point is too few for the 80 % claims to be judged
    # fairly, so only the exit status's agreement with the printed
    # claim lines is asserted, not the verdict itself.
    code = main(["drops", "-n", "2"])
    out = capsys.readouterr().out
    assert "drop rate" in out
    verdicts = [line.rsplit(": ", 1)[1] for line in out.splitlines()
                if line.startswith("80 % drops: ")]
    assert len(verdicts) == 2 and set(verdicts) <= {"PASS", "FAIL"}
    assert code == (1 if "FAIL" in verdicts else 0)


@pytest.mark.parametrize("command", [
    "baseline", "table1", "figure5", "drops", "table2", "defenses",
    "faults", "dos", "fingerprint", "streaming", "quic",
    "recovery-ablation", "scheduler-ablation", "dupserve-ablation"])
@pytest.mark.parametrize("loads", ["0", "-3"])
def test_cli_rejects_loads_below_one(command, loads, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "-n", loads])
    assert excinfo.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])
