import dataclasses
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biokm.queueing import (
    NonPositiveServiceRate,
    UnstableQueue,
    _lindley_block,
    mm1_stats,
    simulate_mm1,
    steady_state_table,
    write_steady_csv,
)

NAN, INF = math.nan, math.inf

# recorded steady-state figures for arrival 42.8/s, service 61.4/s
FIG_REFERENCE = dict(
    rho=0.697068404,
    L=2.301075269,
    Lq=1.604006865,
    Ls=0.697068404,
    W=0.053763441,
    Wq=0.037476796,
    Ws=0.016286645,
    idle=0.302931596,
)

PI_REFERENCE = [
    0.302931596, 0.211164044, 0.147195783, 0.10260553, 0.071523073,
    0.049856474, 0.034753373, 0.024225478, 0.016886815, 0.011771265,
    0.008205377,
]


def test_reference_point_all_nine_quantities():
    stats = mm1_stats(42.8, 61.4)
    for name, expected in FIG_REFERENCE.items():
        assert getattr(stats, name) == pytest.approx(expected, abs=1e-9), name


def test_reference_utilization_per_run():
    # recorded cells carry four truncated decimals, so errors reach 1e-4
    for lam, mu, printed in ((57.8, 87.9, 0.6575), (26.7, 36.3, 0.7355), (43.9, 60.1, 0.7304)):
        rho = mm1_stats(lam, mu).rho
        assert rho == pytest.approx(printed, abs=1e-4)
        assert int(rho * 10_000) / 10_000 == printed


def test_empty_system():
    stats = mm1_stats(0.0, 10.0)
    assert stats.rho == 0.0
    assert stats.L == 0.0
    assert stats.idle == 1.0
    assert stats.W == stats.Wq == stats.Ws == 0.0


def test_unstable_and_invalid_inputs():
    with pytest.raises(UnstableQueue):
        mm1_stats(10.0, 10.0)
    with pytest.raises(UnstableQueue):
        mm1_stats(11.0, 10.0)
    with pytest.raises(NonPositiveServiceRate):
        mm1_stats(1.0, 0.0)
    with pytest.raises(ValueError):
        mm1_stats(-1.0, 10.0)


def test_identity_suite_1000_random_rate_pairs():
    rng = random.Random(42)
    for _ in range(1000):
        mu = rng.uniform(0.1, 1000.0)
        lam = mu * rng.uniform(0.001, 0.999)
        s = mm1_stats(lam, mu)
        assert s.L == pytest.approx(s.Lq + s.Ls, rel=1e-12)
        assert s.W == pytest.approx(s.Wq + s.Ws, rel=1e-12)
        assert s.L == pytest.approx(lam * s.W, rel=1e-12)
        assert s.Lq == pytest.approx(lam * s.Wq, rel=1e-12)
        assert s.Ls == pytest.approx(lam * s.Ws, rel=1e-12)
        assert s.idle == pytest.approx(1.0 - s.rho, rel=1e-12)


def test_steady_state_reference_rows():
    rows = steady_state_table(42.8, 61.4, epsilon=1e-6, j_max=10)
    assert len(rows) == 11
    for row, expected in zip(rows, PI_REFERENCE):
        assert row.probability == pytest.approx(expected, abs=1e-9)


def test_in_queue_rule():
    rows = steady_state_table(42.8, 61.4, j_max=5)
    assert [r.in_queue for r in rows] == [0, 0, 1, 2, 3, 4]


def test_idle_server_single_row():
    rows = steady_state_table(0.0, 5.0)
    assert len(rows) == 1
    assert rows[0].j == 0
    assert rows[0].probability == 1.0
    assert rows[0].in_queue == 0


def test_epsilon_stops_emission():
    rows = steady_state_table(1.0, 2.0, epsilon=0.2)
    # pi = 0.5, 0.25, 0.125: stops before the first value below 0.2
    assert [r.j for r in rows] == [0, 1]


def test_probabilities_decrease_and_normalize():
    rng = random.Random(5)
    for _ in range(20):
        mu = rng.uniform(1.0, 100.0)
        lam = mu * rng.uniform(0.05, 0.95)
        epsilon = 1e-9
        rows = steady_state_table(lam, mu, epsilon=epsilon, j_max=10_000)
        probs = [r.probability for r in rows]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        rho = lam / mu
        assert sum(probs) >= 1.0 - epsilon / (1.0 - rho) - 1e-12


def test_steady_csv_layout(tmp_path):
    rows = steady_state_table(42.8, 61.4, j_max=10)
    out = write_steady_csv(tmp_path / "steady.csv", rows, idle=rows[0].probability)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "Messages,Steady-State Probability,Expected Idle Time"
    assert len(lines) == 12
    # the idle column repeats the same figure on every row
    idles = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert len(idles) == 1


def test_simulator_matches_analytics():
    stats = mm1_stats(42.8, 61.4)
    sim = simulate_mm1(42.8, 61.4, horizon_s=3600.0, seed=1)
    assert sim.arrivals >= 100_000
    assert sim.n_in_system == pytest.approx(stats.L, rel=0.05)
    assert sim.sojourn_s == pytest.approx(stats.W, rel=0.05)
    assert sim.utilization == pytest.approx(stats.rho, rel=0.05)


def test_simulator_satisfies_littles_identity():
    sim = simulate_mm1(42.8, 61.4, horizon_s=3600.0, seed=1)
    assert sim.n_in_system / sim.arrival_rate == pytest.approx(sim.sojourn_s, rel=0.02)


def test_simulator_deterministic_per_seed():
    a = simulate_mm1(10.0, 15.0, horizon_s=100.0, seed=7)
    b = simulate_mm1(10.0, 15.0, horizon_s=100.0, seed=7)
    c = simulate_mm1(10.0, 15.0, horizon_s=100.0, seed=8)
    assert a == b
    assert a != c


def test_simulator_no_arrivals():
    sim = simulate_mm1(0.0, 5.0, horizon_s=10.0, seed=1)
    assert sim.n_in_system == 0.0
    assert sim.utilization == 0.0
    assert sim.arrivals == 0


def test_simulator_oracle_agreement_ten_seeded_pairs():
    rng = random.Random(2026)
    for seed in range(10):
        mu = rng.uniform(5.0, 50.0)
        rho = rng.uniform(0.2, 0.9)
        lam = mu * rho
        stats = mm1_stats(lam, mu)
        horizon = 120_000.0 / lam  # >= 1e5 expected arrivals
        sim = simulate_mm1(lam, mu, horizon_s=horizon, seed=seed)
        assert sim.n_in_system == pytest.approx(stats.L, rel=0.05)
        assert sim.sojourn_s == pytest.approx(stats.W, rel=0.05)


@pytest.mark.parametrize("lam, mu", [(NAN, 2.0), (1.0, NAN), (INF, 2.0), (1.0, INF)])
def test_non_finite_rates_raise(lam, mu):
    with pytest.raises(ValueError, match="finite"):
        mm1_stats(lam, mu)
    with pytest.raises(ValueError, match="finite"):
        simulate_mm1(lam, mu, horizon_s=1.0, seed=1)


@pytest.mark.parametrize("lam, mu", [(5.0, 1e-320), (1e-320, 2.0)])
def test_rates_without_a_finite_reciprocal_raise(lam, mu):
    # a subnormal rate draws infinite times: the simulator returned nan
    with pytest.raises(ValueError, match="1/rate"):
        simulate_mm1(lam, mu, horizon_s=10.0, seed=1)
    with pytest.raises(ValueError, match="1/rate"):
        mm1_stats(lam, mu)


@pytest.mark.parametrize("horizon", [NAN, INF, -INF])
def test_non_finite_horizon_raises(horizon):
    with pytest.raises(ValueError, match="horizon"):
        simulate_mm1(1.0, 2.0, horizon_s=horizon, seed=1)


@pytest.mark.parametrize("epsilon", [NAN, INF])
def test_non_finite_epsilon_raises(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        steady_state_table(1.0, 2.0, epsilon=epsilon)


def test_simulator_memory_does_not_grow_with_horizon():
    simulate_mm1(0.9, 1.0, horizon_s=10.0, seed=1)  # numpy's import stays untraced
    peaks = {}
    for horizon in (2.2e5, 2.2e6):  # about 2e5 and 2e6 arrivals
        tracemalloc.start()
        try:
            sim = simulate_mm1(0.9, 1.0, horizon_s=horizon, seed=3)
            peaks[horizon] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sim.arrivals == pytest.approx(0.9 * horizon, rel=0.01)
    assert peaks[2.2e6] < 16 * 2**20
    assert peaks[2.2e5] >= 0.8 * peaks[2.2e6]


FAULTS_PER_CALL = """
import resource, sys
from biokm.queueing import simulate_mm1
simulate_mm1(0.9, 1.0, 10.0, 0)  # numpy's lazy imports stay out of the count
if sys.argv[1] == "freed":
    block = bytes(4 << 20)
    del block
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(20):
    simulate_mm1(0.9, 1.0, 5e4, seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_simulator_page_faults_do_not_depend_on_what_the_process_freed():
    # glibc maps blocks above its mmap threshold afresh on every call, and
    # freeing a large mapped block raises that threshold; the arrays of
    # one call used to be mapped (and faulted) anew unless a 4 MiB block
    # had been freed first
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for history in ("fresh", "freed"):
        done = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL, history], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert float(done.stdout) < 100, history


def simulate_mm1_reference(arrival_rate, service_rate, horizon_s, seed):
    """The simulator as it was before its one workspace, with the block
    kernel inlined: fresh arrays for every step.  Returns the fields of
    ``SimulationResult`` in order."""
    rng = np.random.default_rng(seed)
    expected = arrival_rate * horizon_s
    block = int(min(2**16, expected + 6.0 * math.sqrt(expected) + 64))
    arrived = departures = 0
    area = busy = sojourn_total = last = 0.0
    a, k = np.zeros(1), block
    while arrival_rate > 0 and k == block:
        a = a[-1] + np.cumsum(rng.exponential(1.0 / arrival_rate, block))
        k = int(np.searchsorted(a, horizon_s, side="right"))
        arrivals, services = a[:k], rng.exponential(1.0 / service_rate, k)
        c = np.cumsum(services)
        d = np.maximum.accumulate(arrivals - (c - services))
        np.maximum(d, last, out=d)
        d += c
        j = int(np.searchsorted(d, horizon_s, side="right"))
        sojourn = float((d[:j] - arrivals[:j]).sum())
        area += sojourn + float((horizon_s - arrivals[j:]).sum())
        busy += float(c[j - 1]) if j else 0.0
        if j < len(d):
            busy += max(horizon_s - float(d[j] - services[j]), 0.0)
        last = float(d[-1]) if len(d) else last
        arrived, departures = arrived + len(d), departures + j
        sojourn_total += sojourn
    return (area / horizon_s, sojourn_total / departures if departures else 0.0,
            busy / horizon_s, arrived, departures, arrived / horizon_s)


@pytest.mark.parametrize("lam, mu, horizon", [
    (0.9, 1.0, 10.0), (0.9, 1.0, 2e4), (0.9, 1.0, 5e4), (0.9, 1.0, 2.2e5),  # 1 to 4 blocks
    (42.8, 61.4, 2800.0),
])
def test_simulator_matches_its_former_body_bit_for_bit(lam, mu, horizon):
    for seed in range(30):
        got = dataclasses.astuple(simulate_mm1(lam, mu, horizon_s=horizon, seed=seed))
        assert got == simulate_mm1_reference(lam, mu, horizon, seed), seed


# --- the block kernel against the former event loop ---------------------------


def event_loop_reference(gaps, services, horizon_s):
    """The simulator's former event loop, drawing interarrival gaps and
    service times from two iterators in place of its generator.

    Returns (arrivals, departures, area, busy, sojourn_total).
    """
    gaps, services = iter(gaps), iter(services)
    inf = float("inf")
    now = 0.0
    next_arrival = next(gaps, inf)
    next_departure = inf
    waiting: list[float] = []  # arrival stamps, FIFO
    n = 0
    area = 0.0
    busy = 0.0
    arrivals = departures = 0
    sojourn_total = 0.0

    while True:
        t_next = min(next_arrival, next_departure)
        if t_next > horizon_s:
            area += n * (horizon_s - now)
            if n > 0:
                busy += horizon_s - now
            break
        area += n * (t_next - now)
        if n > 0:
            busy += t_next - now
        now = t_next
        if next_arrival <= next_departure:
            arrivals += 1
            waiting.append(now)
            n += 1
            if n == 1:
                next_departure = now + next(services)
            next_arrival = now + next(gaps, inf)
        else:
            departures += 1
            sojourn_total += now - waiting.pop(0)
            n -= 1
            next_departure = now + next(services) if n > 0 else inf
    return arrivals, departures, area, busy, sojourn_total


def run_blocks(arrivals, services, horizon_s, size):
    """``_lindley_block`` over consecutive blocks of ``size`` customers,
    with scratch rows cut from a workspace of NaNs as the simulator cuts
    them."""
    size = size or max(len(arrivals), 1)
    work = np.full((3, size), np.nan)
    carry = (0, 0, 0.0, 0.0, 0.0, 0.0)
    for i in range(0, len(arrivals), size):
        a, s = arrivals[i:i + size], services[i:i + size]
        carry = _lindley_block(a, s, horizon_s, carry, work[1:, :len(a)])
    return carry[:5]


def assert_kernel_matches_loop(customers, horizon_s, exact):
    gaps = [g for g, _ in customers]
    services = [s for _, s in customers]
    want = event_loop_reference(gaps, services, horizon_s)
    arrivals = np.array(list(accumulate(gaps)))
    k = int(np.searchsorted(arrivals, horizon_s, side="right"))
    # cancellation in a departure time costs up to an ulp of the largest time
    scale = 1e-12 * k * (horizon_s + sum(services))
    for size in (None, 1, 2, 7):
        got = run_blocks(arrivals[:k], np.array(services[:k]), horizon_s, size)
        assert got[:2] == want[:2], size
        for g, w in zip(got[2:], want[2:]):
            assert g == (w if exact else pytest.approx(w, rel=1e-9, abs=scale)), size


ORACLE = settings(derandomize=True, deadline=None, max_examples=300)
# multiples of 1/4 add exactly, so ties at the horizon and between events
# are resolved alike on both sides
QUARTERS = st.integers(0, 40).map(lambda q: q / 4)
FLOATS = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


@ORACLE
@given(
    st.lists(st.tuples(QUARTERS, QUARTERS), max_size=40),
    st.integers(1, 400).map(lambda q: q / 4),
)
def test_block_kernel_matches_event_loop_on_quarter_grid(customers, horizon_s):
    assert_kernel_matches_loop(customers, horizon_s, exact=True)


@ORACLE
@given(st.lists(st.tuples(FLOATS, FLOATS), max_size=40), st.floats(1e-3, 200.0))
def test_block_kernel_matches_event_loop_on_floats(customers, horizon_s):
    assert_kernel_matches_loop(customers, horizon_s, exact=False)
