"""Single-server queue: closed forms against a simulation.

Sweeps the closed-form quantities over a range of loads, prints the
steady-state probability table at one operating point, and cross-checks
the analytics with the simulator, which runs Lindley's FIFO recursion
over seeded exponential draws.
"""

from biokm.queueing import mm1_stats, simulate_mm1, steady_state_table

MU = 61.4

print(f"service rate fixed at {MU}/s; sweeping arrival rate:")
print("  load   rho      L        Lq       W(ms)    idle")
for load in (0.1, 0.3, 0.5, 0.7, 0.9, 0.97):
    s = mm1_stats(MU * load, MU)
    print(
        f"  {load:4.2f}  {s.rho:6.4f}  {s.L:7.4f}  {s.Lq:7.4f}  "
        f"{1000 * s.W:7.3f}  {s.idle:6.4f}"
    )

print("\nsteady-state probabilities at arrival 42.8/s:")
rows = steady_state_table(42.8, MU, j_max=10)
for row in rows:
    bar = "#" * round(row.probability * 120)
    print(f"  j={row.j:<2d} pi={row.probability:.9f} |{bar}")
print(f"  (tail beyond j=10 holds {1 - sum(r.probability for r in rows):.6f})")

print("\nsimulator cross-check at 42.8/61.4 (one hour of queue time):")
analytic = mm1_stats(42.8, MU)
sim = simulate_mm1(42.8, MU, horizon_s=3600.0, seed=1)
print(f"  arrivals simulated: {sim.arrivals}")
print(f"  L:    simulated {sim.n_in_system:.4f}   analytic {analytic.L:.4f}")
print(f"  W:    simulated {sim.sojourn_s:.6f} analytic {analytic.W:.6f}")
print(f"  busy: simulated {sim.utilization:.4f}   analytic {analytic.rho:.4f}")
little = sim.n_in_system / sim.arrival_rate
print(f"  L/lambda = {little:.6f} vs W = {sim.sojourn_s:.6f}  (Little's identity)")
