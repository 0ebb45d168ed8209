import json
import signal
import subprocess
import sys

import pytest

from biokm.cli import main
from biokm.phylo import DistanceMatrix, from_newick
from biokm.route_filter import build_filter
from biokm.telemetry import run_record, write_capture
from synthetic import synthesize_capture


def make_reference_captures(tmp_path):
    counters = {
        "ircd": (6452, 5868, 111687, 73328),
        "ftp": (4067, 3653, 152297, 111922),
        "mixed": (6832, 6214, 155672, 113625),
    }
    return [
        str(
            synthesize_capture(
                tmp_path / f"{name}.jsonl", name,
                packets=p, payload_bytes=b, elapsed_ms=t, service_ms=s,
            )
        )
        for name, (p, b, t, s) in counters.items()
    ]


def test_queue_prints_stats(capsys):
    assert main(["queue", "--lambda", "42.8", "--mu", "61.4"]) == 0
    out = capsys.readouterr().out
    assert "0.697068" in out
    assert "2.301075" in out


def test_queue_table_csv(tmp_path, capsys):
    out = tmp_path / "steady.csv"
    code = main(
        ["queue", "--lambda", "42.8", "--mu", "61.4", "--table", "--jmax", "10",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "Messages,Steady-State Probability,Expected Idle Time"
    assert len(lines) == 12


def test_queue_simulate(capsys):
    code = main(
        ["queue", "--lambda", "5", "--mu", "9", "--simulate", "--horizon", "200",
         "--seed", "3"]
    )
    assert code == 0
    assert "simulated:" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_queue_simulate_non_finite_horizon_exits_1_at_once(horizon):
    # times the command in the child, not the interpreter's start-up
    script = (
        "import sys, time\nfrom biokm import cli\nt0 = time.perf_counter()\n"
        "code = cli.main(sys.argv[1:])\nprint(time.perf_counter() - t0)\nsys.exit(code)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, "queue", "--lambda", "1", "--mu", "2",
         "--simulate", "--horizon", horizon],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 1
    assert "error: horizon must be positive and finite" in done.stderr
    assert float(done.stdout.splitlines()[-1]) < 1.0


def test_queue_unstable_is_module_error(capsys):
    assert main(["queue", "--lambda", "10", "--mu", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["queue", "--lambda", "1"])  # --mu missing
    assert excinfo.value.code == 2


def test_mode_choices_match_the_enums(capsys):
    from biokm import cli, loadgen, report

    assert list(cli._LOAD_MODES) == [m.value for m in loadgen.Mode]
    assert list(cli._REPORT_MODES) == [m.value for m in report.Mode]
    with pytest.raises(SystemExit) as excinfo:
        main(["load", "--server", "127.0.0.1:1", "--out", "x.jsonl", "--mode", "bogus"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_filter_subcommand(tmp_path, capsys):
    matrix = build_filter([("P1", ["L1", "L4"])], ("L1", "L2", "L3", "L4"))
    path = matrix.to_csv(tmp_path / "r.csv")
    code = main(
        ["filter", "--matrix", str(path), "--fail", "L2", "--print-range-domain"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "range: P1" in out
    assert "domain: L1,L4" in out
    assert "surviving: P1" in out

    out_csv = tmp_path / "rt.csv"
    assert main(["filter", "--matrix", str(path), "--transpose", "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[1] == "P1,1,0,0,1"


def test_filter_unknown_link_is_module_error(tmp_path, capsys):
    matrix = build_filter([("P1", ["L1"])], ("L1",))
    path = matrix.to_csv(tmp_path / "r.csv")
    assert main(["filter", "--matrix", str(path), "--fail", "L9"]) == 1


def test_tree_from_matrix(tmp_path, capsys):
    dm = DistanceMatrix(
        ["A", "B", "C", "D"],
        [[0, 5, 7, 8], [5, 0, 8, 9], [7, 8, 0, 9], [8, 9, 9, 0]],
    )
    path = dm.to_csv(tmp_path / "dist.csv")
    out = tmp_path / "tree.nwk"
    assert main(["tree", "--matrix", str(path), "--out", str(out)]) == 0
    assert out.read_text().strip() == "((A:2,B:3):1,C:4,D:5);"


def test_tree_from_capture(tmp_path, capsys):
    records = [
        {
            "nick": nick, "packets_sent": 10, "packets_received": 10,
            "bytes_sent": 100, "bytes_received": 100,
            "start_mono_ms": 0.0, "departure_mono_ms": 50.0, "rtt_ms": rtt,
        }
        for nick, rtt in (("c1", 2.0), ("c2", 3.0))
    ]
    records.append(run_record("demo", server_start_mono_ms=0.0, end_mono_ms=200.0))
    capture = write_capture(tmp_path / "cap.jsonl", records)
    assert main(["tree", "--from-capture", str(capture)]) == 0
    text = capsys.readouterr().out.strip()
    tree = from_newick(text)
    assert sorted(tree.leaf_labels) == ["c1", "c2", "server"]


def test_analyze_writes_metrics_csv(tmp_path, capsys):
    captures = make_reference_captures(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["analyze", *captures, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "Measurement Factors,ircd,ftp,mixed"


def test_report_subcommand(tmp_path, capsys):
    captures = make_reference_captures(tmp_path)
    md, csv_path = tmp_path / "report.md", tmp_path / "report.csv"
    code = main(
        ["report", "--captures", *captures, "--mode", "table",
         "--out", str(md), "--csv", str(csv_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0.6957203674658301" in out
    assert md.exists() and csv_path.exists()


def test_report_missing_capture_is_module_error(tmp_path, capsys):
    assert main(["report", "--captures", str(tmp_path / "nope.jsonl")]) == 1


def test_load_accepts_config_file(tmp_path):
    from biokm.server import ServerConfig, start_server

    config = tmp_path / "scenario.cfg"
    config.write_text(
        "mode = ircd\nclients = 2\nmessages_per_client = 3\n"
        "message_size = 50\ninter_event_gap_ms = 2\nseed = 4\n"
    )
    capture = tmp_path / "cap.jsonl"
    with start_server(ServerConfig()) as server:
        code = main(
            ["load", "--server", f"{server.config.host}:{server.port}",
             "--config", str(config), "--out", str(capture)]
        )
    assert code == 0
    assert capture.exists()


def test_serve_and_load_subprocess_round_trip(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "biokm.cli", "serve", "--port", "0",
         "--log", str(tmp_path / "events.jsonl"), "--runtime", "120"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        address = banner.removeprefix("listening on ")
        capture = tmp_path / "cap.jsonl"
        code = main(
            ["load", "--server", address, "--mode", "mixed", "--clients", "2",
             "--messages", "4", "--files", "1", "--size", "64", "--gap", "2",
             "--seed", "6", "--out", str(capture)]
        )
        assert code == 0
        assert capture.exists()
        assert main(["report", "--captures", str(capture), "--mode", "exact"]) == 0
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_serve_stops_on_a_signal_with_sigint_ignored(tmp_path, signum):
    # a shell starts a background job with SIGINT ignored, and then Python
    # raises no KeyboardInterrupt: the server must still stop and log it
    log = tmp_path / "events.jsonl"
    proc = subprocess.Popen(
        ["sh", "-c", 'trap "" INT; exec "$0" -m biokm.cli serve --port 0 --log "$1"',
         sys.executable, str(log)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline().startswith("listening on ")
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert json.loads(log.read_text().splitlines()[-1])["kind"] == "server_stop"
