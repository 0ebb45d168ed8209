"""Single-server queue analytics and a simulation cross-check.

For a stable M/M/1 queue (Poisson arrivals at rate lambda, exponential
service at rate mu, lambda < mu) the steady-state quantities are

    rho = lambda / mu              busy fraction, idle = 1 - rho
    L   = rho / (1 - rho)          mean number in system
    Lq  = rho**2 / (1 - rho)       mean number waiting
    Ls  = rho                      mean number in service
    W   = L / lambda               mean time in system (Little's law)
    Wq  = Lq / lambda
    Ws  = Ls / lambda
    pi_j = rho**j * (1 - rho)      probability of j packets in system

``simulate_mm1`` is an independent simulator of the same queue, Lindley's
FIFO recursion over seeded draws, used to validate the closed forms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path


class UnstableQueue(ValueError):
    """Arrival rate at or above service rate: no steady state exists."""


class NonPositiveServiceRate(ValueError):
    pass


@dataclass(frozen=True)
class QueueStats:
    arrival_rate: float
    service_rate: float
    rho: float
    L: float
    Lq: float
    Ls: float
    W: float
    Wq: float
    Ws: float
    idle: float


def _check_rates(arrival_rate: float, service_rate: float) -> None:
    if not (math.isfinite(arrival_rate) and math.isfinite(service_rate)):
        raise ValueError(f"rates must be finite, got {arrival_rate} and {service_rate}")
    if service_rate <= 0:
        raise NonPositiveServiceRate(f"service rate must be positive, got {service_rate}")
    if arrival_rate < 0:
        raise ValueError(f"arrival rate must be nonnegative, got {arrival_rate}")
    for rate in (arrival_rate, service_rate):
        if rate > 0 and not math.isfinite(1.0 / rate):  # a subnormal rate
            raise ValueError(f"rate {rate} has no finite mean time 1/rate")


def mm1_stats(arrival_rate: float, service_rate: float) -> QueueStats:
    """Closed-form steady-state quantities of the M/M/1 queue.

    Waiting times are defined as 0 when the arrival rate is 0, which
    keeps L = lambda * W valid in the empty-system limit.
    """
    _check_rates(arrival_rate, service_rate)
    if arrival_rate >= service_rate:
        raise UnstableQueue(
            f"arrival rate {arrival_rate} >= service rate {service_rate}"
        )
    rho = arrival_rate / service_rate
    L = rho / (1.0 - rho)
    Lq = rho * rho / (1.0 - rho)
    Ls = rho
    if arrival_rate > 0:
        W, Wq, Ws = L / arrival_rate, Lq / arrival_rate, Ls / arrival_rate
    else:
        W = Wq = Ws = 0.0
    return QueueStats(
        arrival_rate=arrival_rate,
        service_rate=service_rate,
        rho=rho,
        L=L,
        Lq=Lq,
        Ls=Ls,
        W=W,
        Wq=Wq,
        Ws=Ws,
        idle=1.0 - rho,
    )


@dataclass(frozen=True)
class SteadyStateRow:
    """Probability of j packets in the system; j - 1 of them queue."""

    j: int
    probability: float
    in_queue: int


def steady_state_table(
    arrival_rate: float,
    service_rate: float,
    epsilon: float = 1e-6,
    j_max: int = 1000,
) -> list[SteadyStateRow]:
    """Rows j = 0, 1, ... of pi_j = rho**j * (1 - rho).

    Emission stops before the first row whose probability falls below
    ``epsilon``, or after row ``j_max``, whichever comes first.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    stats = mm1_stats(arrival_rate, service_rate)
    rho, pi0 = stats.rho, stats.idle
    rows = []
    for j in range(j_max + 1):
        pi_j = rho**j * pi0
        if pi_j < epsilon:
            break
        rows.append(SteadyStateRow(j=j, probability=pi_j, in_queue=max(j - 1, 0)))
    return rows


@dataclass(frozen=True)
class SimulationResult:
    """Empirical estimates from one seeded simulation run."""

    n_in_system: float      # time-averaged number in system
    sojourn_s: float        # mean time in system of departed packets
    utilization: float      # busy fraction of the horizon
    arrivals: int
    departures: int
    arrival_rate: float     # observed arrivals / horizon


def simulate_mm1(
    arrival_rate: float,
    service_rate: float,
    horizon_s: float,
    seed: int,
) -> SimulationResult:
    """Single-FIFO-server simulation over a fixed horizon.

    Draws come from ``numpy.random.default_rng(seed)``: deterministic per
    seed.  At most 2**16 arrivals are held at once, so memory is bounded.
    The sojourn mean covers packets that departed within the horizon.
    Every array lives in one workspace allocated per call, so the call
    maps and faults the same memory whatever the process freed before.
    """
    _check_rates(arrival_rate, service_rate)
    if not (math.isfinite(horizon_s) and horizon_s > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon_s}")
    import numpy as np

    rng = np.random.default_rng(seed)
    expected = arrival_rate * horizon_s  # a block covers it and six standard deviations
    block = int(min(2**16, expected + 6.0 * math.sqrt(expected) + 64))
    work = np.empty((4, block))  # arrivals, services, the kernel's two scratch rows
    a, s = work[0], work[1]
    carry, start, k = (0, 0, 0.0, 0.0, 0.0, 0.0), 0.0, block
    while arrival_rate > 0 and k == block:  # until a block passes the horizon
        rng.standard_exponential(out=a)
        a *= 1.0 / arrival_rate  # as rng.exponential scales its draws
        np.cumsum(a, out=a)
        a += start
        start = a[-1]
        k = int(np.searchsorted(a, horizon_s, side="right"))
        rng.standard_exponential(out=s[:k])
        s[:k] *= 1.0 / service_rate
        carry = _lindley_block(a[:k], s[:k], horizon_s, carry, work[2:, :k])
    arrivals, departures, area, busy, sojourn_total, _ = carry
    return SimulationResult(
        n_in_system=area / horizon_s,
        sojourn_s=sojourn_total / departures if departures else 0.0,
        utilization=busy / horizon_s,
        arrivals=arrivals,
        departures=departures,
        arrival_rate=arrivals / horizon_s,
    )


def _lindley_block(arrivals, services, horizon_s: float, carry: tuple, scratch) -> tuple:
    """Add FIFO customers (sorted arrivals within the horizon, a service
    time each) to ``carry`` = (arrivals, departures, area, busy, sojourn,
    D_0), where D_0 is the latest departure: with C = cumsum(S), Lindley's
    D_i = max(A_i, D_{i-1}) + S_i is C_i + max(D_0, max_{k<=i} A_k - C_{k-1}).
    ``scratch`` holds two rows of len(arrivals) that every step writes into.
    """
    import numpy as np

    arrived, departures, area, busy, sojourn_total, last = carry
    n = len(arrivals)
    c, d = scratch
    np.cumsum(services, out=c)
    np.subtract(c, services, out=d)
    np.subtract(arrivals, d, out=d)
    np.maximum.accumulate(d, out=d)
    np.maximum(d, last, out=d)
    d += c
    j = int(np.searchsorted(d, horizon_s, side="right"))  # d is sorted
    # services are disjoint: j end within the horizon, the next may be under way
    busy += float(c[j - 1]) if j else 0.0
    if j < n:
        busy += max(horizon_s - float(d[j] - services[j]), 0.0)
    last = float(d[-1]) if n else last
    sojourn = float(np.subtract(d[:j], arrivals[:j], out=c[:j]).sum())
    area += sojourn + float(np.subtract(horizon_s, arrivals[j:], out=c[j:]).sum())
    return arrived + n, departures + j, area, busy, sojourn_total + sojourn, last


def write_steady_csv(path, rows: list[SteadyStateRow], idle: float) -> Path:
    """Steady-state table with the idle column repeated on every row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Messages", "Steady-State Probability", "Expected Idle Time"])
        for row in rows:
            writer.writerow([row.j, repr(row.probability), repr(idle)])
    return path
