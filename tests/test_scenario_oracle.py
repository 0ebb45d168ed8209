"""Scenario oracle: whole ftp and mixed runs against an in-process server,
checked only through what a run leaves behind (the server's event log and
session history, and how ``stop()`` ends), never through the wire format.

Every file a scenario schedules must give exactly one ``transfer_complete``
carrying its sender, recipient, file name and size; nothing may abort; the
history must hold every departure; and ``stop()`` must return within a
second without leaving a server thread behind.
"""

import json
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from biokm.loadgen import Mode, ScenarioSpec, generate_schedule, run_scenario
from biokm.server import ServerConfig, start_server

SPECS = st.builds(
    lambda mode, **kwargs: ScenarioSpec(
        mode=mode, messages_per_client=2 if mode is Mode.MIXED else 0, message_size=64,
        **kwargs,
    ),
    mode=st.sampled_from([Mode.FTP, Mode.MIXED]),
    clients=st.integers(2, 5),
    files_per_client=st.integers(1, 3),
    file_size=st.sampled_from([0, 1, 3000, 70000]),
    inter_event_gap_ms=st.sampled_from([0.0, 1.0]),
    seed=st.integers(1, 10_000),
)


def expected_transfers(spec: ScenarioSpec) -> Counter:
    """(sender, recipient, file name) of every file the schedule sends."""
    return Counter(
        (e.client, e.peer, f"f{e.index}.bin")
        for e in generate_schedule(spec).events
        if e.action == "transfer"
    )


def server_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("biokm-") and t.is_alive()]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(SPECS)
def test_every_scheduled_file_completes_once(spec):
    assert server_threads() == []
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        server = start_server(ServerConfig(log_path=log))
        try:
            run_scenario(spec, server.address, Path(tmp) / "cap.jsonl")
            history = server.session_history()
        finally:
            started = time.monotonic()
            server.stop()
            stop_s = time.monotonic() - started
        events = [json.loads(line) for line in log.read_text().splitlines()]

    nicks = generate_schedule(spec).nicks
    assert sorted(r.nick for r in history) == sorted(nicks)
    assert all(r.metrics.departure_mono_ms is not None for r in history)
    complete = [e for e in events if e["kind"] == "transfer_complete"]
    assert all(e["bytes"] == spec.file_size for e in complete)
    # the file name is the last token of the detail, whatever precedes it
    got = Counter((e["nick"], e["peer"], e["detail"].split()[-1]) for e in complete)
    assert got == expected_transfers(spec)
    assert [e for e in events if e["kind"] == "transfer_aborted"] == []
    assert stop_s < 1.0
    assert server_threads() == []
