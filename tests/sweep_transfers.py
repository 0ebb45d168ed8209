"""Seed sweep of file-transfer scenarios, each against a fresh in-process server.

    PYTHONPATH=src python tests/sweep_transfers.py [--seeds 1-8] [--clients 2-8] [--files 1-4]
        [--size 3000]

Runs ``ftp`` and ``mixed`` (2 messages of 64 B each way) scenarios with
files of ``--size`` bytes and a 2 ms gap, over every client count, file
count and seed in the ranges: 448 scenarios with the defaults.  On return from each
``run_scenario`` it checks, without waiting, that the server's event log
holds every ``transfer_complete``, ``message`` and ``quit`` and no
``transfer_aborted`` or ``malformed`` (a data end whose chunks were read
as control lines), that its history holds every departure, and that
``threading.active_count()`` is what it was before the call; then that
``stop()`` returns within a second and leaves no ``biokm-`` thread.
Prints one line per failure and a summary; exits 1 if any scenario
failed.
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from biokm.loadgen import Mode, ScenarioSpec, generate_schedule, run_scenario
from biokm.server import ServerConfig, start_server


def _range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def check_one(spec: ScenarioSpec) -> str | None:
    """Run one scenario; return what went wrong, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        server = start_server(ServerConfig(log_path=log))
        try:
            threads = threading.active_count()
            run_scenario(spec, server.address, Path(tmp) / "cap.jsonl")
            threads_after = threading.active_count()
            history = server.session_history()
            kinds = [json.loads(line)["kind"] for line in log.read_text().splitlines()]
        finally:
            started = time.monotonic()
            server.stop()
            stop_s = time.monotonic() - started
    want = {
        "transfer_complete": spec.clients * spec.files_per_client,
        "message": spec.clients * spec.messages_per_client,
        "quit": spec.clients,
        "transfer_aborted": 0,
        "malformed": 0,
    }
    got = {kind: kinds.count(kind) for kind in want}
    if got != want:
        return f"events {got}, expected {want}"
    departed = sorted(r.nick for r in history if r.metrics.departure_mono_ms is not None)
    if departed != sorted(generate_schedule(spec).nicks):
        return f"departures {departed} in the history"
    if threads_after != threads:
        return f"{threads} threads before run_scenario, {threads_after} after"
    if stop_s >= 1.0:
        return f"stop() took {stop_s:.2f} s"
    left = [t.name for t in threading.enumerate() if t.name.startswith("biokm-")]
    if left:
        return f"threads left after stop(): {left}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_range, default=_range("1-8"))
    parser.add_argument("--clients", type=_range, default=_range("2-8"))
    parser.add_argument("--files", type=_range, default=_range("1-4"))
    parser.add_argument("--size", type=int, default=3000, help="file size in bytes")
    args = parser.parse_args(argv)
    failed = total = 0
    slowest = (0.0, "")
    started = time.monotonic()
    for mode in (Mode.FTP, Mode.MIXED):
        for clients in args.clients:
            for files in args.files:
                for seed in args.seeds:
                    spec = ScenarioSpec(
                        mode=mode, clients=clients, files_per_client=files, file_size=args.size,
                        messages_per_client=2 if mode is Mode.MIXED else 0, message_size=64,
                        inter_event_gap_ms=2.0, seed=seed,
                    )
                    t0 = time.monotonic()
                    try:
                        problem = check_one(spec)
                    except Exception as exc:  # noqa: BLE001 - reported per scenario
                        problem = f"{type(exc).__name__}: {exc}"
                    spent = time.monotonic() - t0
                    name = f"{mode.value} clients={clients} files={files} seed={seed}"
                    slowest = max(slowest, (spent, name))
                    total += 1
                    if problem is not None:
                        failed += 1
                        print(f"FAIL {name}: {problem}", flush=True)
    print(f"{failed} of {total} failed in {time.monotonic() - started:.0f} s; "
          f"slowest {slowest[0]:.2f} s ({slowest[1]})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
