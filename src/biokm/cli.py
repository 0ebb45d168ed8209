"""Command-line surface: serve, load, analyze, tree, filter, queue, report.

Exit codes: 0 on success, 1 when a module reports an error, 2 on usage
errors (argparse's convention).  Each command imports the modules it
drives, so only ``tree``, ``filter`` and ``queue --simulate`` load numpy.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

# loadgen.Mode and report.Mode values, spelled out so that building the
# parser imports neither module; tests pin them to the enums
_LOAD_MODES = ("ircd", "ftp", "mixed")
_REPORT_MODES = ("exact", "table")


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_serve(args) -> int:
    from . import server

    config = server.ServerConfig(host=args.host, control_port=args.port, log_path=args.log)
    # both end the wait below, set before the server starts: a shell starts
    # a background job with SIGINT ignored, and then Python raises no
    # KeyboardInterrupt of its own
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.default_int_handler)
    handle = None
    try:
        handle = server.start_server(config)
        print(f"listening on {handle.config.host}:{handle.port}", flush=True)
        if args.runtime is not None:
            time.sleep(args.runtime)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        if handle is not None:
            handle.stop()
    return 0


def _cmd_load(args) -> int:
    from . import loadgen

    if args.config:
        spec = loadgen.ScenarioSpec.from_config(args.config)
    else:
        mode = loadgen.Mode(args.mode)
        messages = args.messages
        if messages is None:
            messages = 0 if mode is loadgen.Mode.FTP else 10
        files = args.files
        if files is None:
            files = 0 if mode is loadgen.Mode.IRCD else 2
        spec = loadgen.ScenarioSpec(
            mode=mode,
            clients=args.clients,
            messages_per_client=messages,
            message_size=args.size,
            files_per_client=files,
            file_size=args.file_size if args.file_size is not None else args.size,
            inter_event_gap_ms=args.gap,
            seed=args.seed,
        )
    path = loadgen.run_scenario(spec, args.server, args.out, label=args.label)
    print(f"capture written to {path}")
    return 0


def _cmd_analyze(args) -> int:
    from . import telemetry

    summaries = [telemetry.analyze_capture(p) for p in args.captures]
    telemetry.write_metrics_csv(args.out, summaries)
    for summary in summaries:
        m = summary.metrics
        print(
            f"{summary.label}: packets={m.packets:.0f} bytes={m.payload_bytes:.0f} "
            f"arrival={m.arrival_rate:.4g}/s service={m.service_rate:.4g}/s "
            f"throughput={m.throughput:.4g}bit/s capacity={m.capacity:.4g}bit/s"
        )
    print(f"metrics written to {args.out}")
    return 0


def _cmd_tree(args) -> int:
    from . import phylo, telemetry

    if args.matrix:
        matrix = phylo.DistanceMatrix.from_csv(args.matrix)
    else:
        sessions, _ = telemetry.read_capture(args.from_capture)
        rtt = {rec["nick"]: float(rec.get("rtt_ms") or 0.0) for rec in sessions}
        matrix = phylo.star_distances(rtt)
    tree = phylo.nj_build(matrix)
    text = phylo.to_newick(tree)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"tree written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_filter(args) -> int:
    from . import route_filter

    matrix = route_filter.FilterMatrix.from_csv(args.matrix)
    if args.transpose:
        matrix = route_filter.transpose(matrix)
    if args.print_range_domain:
        print("range:", ",".join(sorted(route_filter.relation_range(matrix))))
        print("domain:", ",".join(sorted(route_filter.relation_domain(matrix))))
    if args.fail is not None:
        failed = [x for x in args.fail.split(",") if x]
        survivors = route_filter.surviving_paths(matrix, failed)
        print("surviving:", ",".join(sorted(survivors)))
    if args.out:
        matrix.to_csv(args.out)
        print(f"matrix written to {args.out}")
    return 0


def _cmd_queue(args) -> int:
    from . import queueing

    stats = queueing.mm1_stats(args.lam, args.mu)
    for name, value in (
        ("arrival rate", stats.arrival_rate),
        ("service rate", stats.service_rate),
        ("utilization (rho)", stats.rho),
        ("L (in system)", stats.L),
        ("Lq (in queue)", stats.Lq),
        ("Ls (in service)", stats.Ls),
        ("W (time in system)", stats.W),
        ("Wq (time in queue)", stats.Wq),
        ("Ws (time in service)", stats.Ws),
        ("idle", stats.idle),
    ):
        print(f"{name:20s} {value!r}")
    if args.table:
        rows = queueing.steady_state_table(
            args.lam, args.mu, epsilon=args.epsilon, j_max=args.jmax
        )
        if args.out:
            queueing.write_steady_csv(args.out, rows, stats.idle)
            print(f"steady-state table written to {args.out}")
        else:
            for row in rows:
                print(f"j={row.j:<4d} pi={row.probability:.9f} in_queue={row.in_queue}")
    if args.simulate:
        sim = queueing.simulate_mm1(args.lam, args.mu, args.horizon, args.seed)
        print(
            f"simulated: L={sim.n_in_system:.4f} (analytic {stats.L:.4f}) "
            f"W={sim.sojourn_s:.4f} (analytic {stats.W:.4f}) "
            f"busy={sim.utilization:.4f} (analytic {stats.rho:.4f}) "
            f"arrivals={sim.arrivals}"
        )
    return 0


def _cmd_report(args) -> int:
    from . import report

    result = report.full_pipeline(
        args.captures,
        mode=report.Mode(args.mode),
        out_md=args.out,
        out_csv=args.csv,
    )
    c = result.comparison
    print(f"aggregate response: {c.bio_utilization!r} (idle {c.bio_idle!r})")
    print(f"little's law:       {c.little_utilization!r} (idle {c.little_idle!r})")
    print(f"difference:         {c.util_diff_pct!r}% / {c.idle_diff_pct!r}%")
    if args.out:
        print(f"report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biokm",
        description="TCP messenger measurement workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the relay server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=6667)
    p.add_argument("--log", default=None, help="event log path (JSON lines)")
    p.add_argument("--runtime", type=float, default=None,
                   help="exit after this many seconds (default: run forever)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("load", help="run a scripted workload scenario")
    p.add_argument("--server", type=_parse_address, required=True, metavar="HOST:PORT")
    p.add_argument("--mode", choices=_LOAD_MODES, default="ircd")
    p.add_argument("--clients", type=int, default=2)
    p.add_argument("--messages", type=int, default=None)
    p.add_argument("--files", type=int, default=None)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--file-size", type=int, default=None)
    p.add_argument("--gap", type=float, default=5.0, help="base inter-event gap (ms)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--config", default=None, help="key=value scenario file")
    p.add_argument("--label", default=None)
    p.add_argument("--out", required=True, help="capture output path (JSON lines)")
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("analyze", help="derive run metrics from captures")
    p.add_argument("captures", nargs="+")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("tree", help="build a topology tree")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="distance matrix CSV")
    group.add_argument("--from-capture", help="capture with per-client round trips")
    p.add_argument("--out", default=None, help="Newick output path")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("filter", help="link/path incidence matrix queries")
    p.add_argument("--matrix", required=True, help="incidence matrix CSV")
    p.add_argument("--fail", default=None, help="comma-separated failed links")
    p.add_argument("--print-range-domain", action="store_true")
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--out", default=None, help="matrix CSV output")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("queue", help="single-server queue analytics")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--table", action="store_true")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--jmax", type=int, default=1000)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--horizon", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="steady-state CSV path")
    p.set_defaults(func=_cmd_queue)

    p = sub.add_parser("report", help="end-to-end comparison report")
    p.add_argument("--captures", nargs="+", required=True)
    p.add_argument("--mode", choices=_REPORT_MODES, default="exact")
    p.add_argument("--out", default=None, help="Markdown report path")
    p.add_argument("--csv", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
