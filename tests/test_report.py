import pytest

from biokm.queueing import UnstableQueue, mm1_stats
from biokm.report import (
    Mode,
    ParseError,
    averaged_rates,
    compare,
    full_pipeline,
    round_to_decimal,
    table_rates,
    truncate_to_decimal,
)
from biokm.telemetry import (
    RunMetrics,
    aggregate_response,
    analyze_capture,
)
from synthetic import synthesize_capture

REFERENCE_COUNTERS = {
    "ircd": dict(packets=6452, payload=5868, elapsed=111687, service=73328),
    "ftp": dict(packets=4067, payload=3653, elapsed=152297, service=111922),
    "mixed": dict(packets=6832, payload=6214, elapsed=155672, service=113625),
}

# recorded one-decimal cells: arrival, service, throughput, capacity
REFERENCE_CELLS = {
    "ircd": (57.8, 87.9, 420.3, 640.2),
    "ftp": (26.7, 36.3, 191.9, 261.1),
    "mixed": (43.9, 60.1, 319.3, 437.5),
}


def reference_runs() -> list[RunMetrics]:
    return [
        RunMetrics.from_counters(name, c["packets"], c["payload"], c["elapsed"], c["service"])
        for name, c in REFERENCE_COUNTERS.items()
    ]


def reference_captures(tmp_path) -> list:
    return [
        synthesize_capture(
            tmp_path / f"{name}.jsonl", name,
            packets=c["packets"], payload_bytes=c["payload"],
            elapsed_ms=c["elapsed"], service_ms=c["service"],
        )
        for name, c in REFERENCE_COUNTERS.items()
    ]


def test_decimal_reductions():
    assert round_to_decimal(57.768) == 57.8
    assert round_to_decimal(446.2666) == 446.3
    assert round_to_decimal(61.433) == 61.4
    assert truncate_to_decimal(87.988) == 87.9
    assert truncate_to_decimal(36.337) == 36.3


def test_table_rates_reproduce_recorded_cells():
    for run in reference_runs():
        cells = table_rates(run)
        lam, mu, bs, c = REFERENCE_CELLS[run.label]
        assert cells.arrival_rate == pytest.approx(lam, abs=1e-12)
        assert cells.service_rate == pytest.approx(mu, abs=1e-12)
        assert cells.throughput == pytest.approx(bs, abs=1e-12)
        assert cells.capacity == pytest.approx(c, abs=1e-12)


def test_averaged_rates_table_precision():
    mean = averaged_rates(reference_runs(), Mode.TABLE_PRECISION)
    assert mean.arrival_rate == pytest.approx(42.8, abs=1e-12)
    assert mean.service_rate == pytest.approx(61.4, abs=1e-12)
    assert mean.throughput == pytest.approx(310.5, abs=1e-12)
    assert mean.capacity == pytest.approx(446.3, abs=1e-12)


def test_averaged_rates_exact_mode_keeps_precision():
    runs = reference_runs()
    mean = averaged_rates(runs, Mode.EXACT)
    assert mean.arrival_rate == pytest.approx(
        sum(r.arrival_rate for r in runs) / 3, rel=1e-15
    )


def test_compare_reference_differences():
    bio = aggregate_response(310.5, 446.3)
    little = mm1_stats(42.8, 61.4)
    report = compare(bio, little, Mode.TABLE_PRECISION)
    assert report.util_diff_pct == pytest.approx(0.193386616, abs=1e-6)
    assert report.idle_diff_pct == pytest.approx(0.443025708, abs=1e-6)
    assert report.bio_utilization == pytest.approx(0.695720367, abs=1e-9)
    assert report.little_utilization == pytest.approx(0.697068404, abs=1e-9)


def test_compare_is_symmetric():
    bio = aggregate_response(310.5, 446.3)
    little = mm1_stats(42.8, 61.4)
    forward = compare(bio, little, Mode.EXACT)
    swapped = compare(
        aggregate_response(little.rho, 1.0), mm1_stats(bio.utilization, 1.0), Mode.EXACT
    )
    assert forward.util_diff_pct == pytest.approx(swapped.util_diff_pct, rel=1e-12)


def test_compare_identical_inputs():
    bio = aggregate_response(42.8, 61.4)
    little = mm1_stats(42.8, 61.4)
    report = compare(bio, little, Mode.EXACT)
    assert report.util_diff_pct == 0.0
    assert report.idle_diff_pct == 0.0


def test_pipeline_reproduces_recorded_chain(tmp_path):
    paths = reference_captures(tmp_path)
    result = full_pipeline(paths, mode=Mode.TABLE_PRECISION)
    assert result.averaged.throughput == pytest.approx(310.5, abs=1e-12)
    assert result.averaged.capacity == pytest.approx(446.3, abs=1e-12)
    assert result.averaged.arrival_rate == pytest.approx(42.8, abs=1e-12)
    assert result.averaged.service_rate == pytest.approx(61.4, abs=1e-12)
    assert result.bio.utilization == pytest.approx(0.695720367, abs=1e-9)
    assert result.bio.idle == pytest.approx(0.304279633, abs=1e-9)
    assert result.little.rho == pytest.approx(0.697068404, abs=1e-9)
    assert result.comparison.util_diff_pct == pytest.approx(0.193386616, abs=1e-6)
    assert result.comparison.idle_diff_pct == pytest.approx(0.443025708, abs=1e-6)
    # per-run table cells match the recorded per-run utilizations
    by_label = {run.summary.label: run for run in result.runs}
    assert by_label["ircd"].bio.utilization == pytest.approx(420.3 / 640.2, rel=1e-12)
    assert by_label["ircd"].little.rho == pytest.approx(57.8 / 87.9, rel=1e-12)


def test_pipeline_exact_mode_identity(tmp_path):
    paths = reference_captures(tmp_path)
    result = full_pipeline(paths[:1], mode=Mode.EXACT)
    assert result.comparison.util_diff_pct < 1e-10
    for run in result.runs:
        assert run.comparison.util_diff_pct < 1e-8


def test_pipeline_empty_input():
    with pytest.raises(ParseError):
        full_pipeline([])


def test_pipeline_unreadable_capture(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ParseError):
        full_pipeline([path])


def test_pipeline_unstable_run_names_the_label(tmp_path):
    path = synthesize_capture(
        tmp_path / "hot.jsonl", "hot", packets=100, payload_bytes=1000,
        elapsed_ms=1000, service_ms=1500,
    )
    with pytest.raises(UnstableQueue, match="hot"):
        full_pipeline([path], mode=Mode.EXACT)


def test_report_files_are_deterministic(tmp_path):
    paths = reference_captures(tmp_path)
    md1, csv1 = tmp_path / "r1.md", tmp_path / "r1.csv"
    md2, csv2 = tmp_path / "r2.md", tmp_path / "r2.csv"
    full_pipeline(paths, mode=Mode.TABLE_PRECISION, out_md=md1, out_csv=csv1)
    full_pipeline(paths, mode=Mode.TABLE_PRECISION, out_md=md2, out_csv=csv2)
    assert md1.read_bytes() == md2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    text = md1.read_text()
    assert "0.695720367" in text.replace(" ", "")


CSV_HEADER = ("run,arrival_rate,service_rate,throughput_bps,capacity_bps,aggregate_response,"
              "aggregate_idle,little_utilization,little_idle,util_diff_pct,idle_diff_pct")

# write_csv's rows for the reference captures, every float as repr gives it
REFERENCE_CSV_ROWS = {
    Mode.EXACT: (
        "ircd,57.76858542175903,87.98821732489635,420.31749442638807,640.192013964652,"
        "0.6565491059836865,0.34345089401631346,0.6565491059836867,0.34345089401631335,"
        "1.6909976946229248e-14,3.232552437532518e-14",
        "ftp,26.7043999553504,36.33780668679974,191.8882184153332,261.11041618269866,"
        "0.7348930051150055,0.26510699488499445,0.7348930051150054,0.26510699488499456,"
        "1.5107274350113247e-14,4.187829993345818e-14",
        "mixed,43.8871473354232,60.127612761276126,319.33809548281,437.5093509350935,"
        "0.7299000462510921,0.27009995374890794,0.7299000462510922,0.27009995374890783,"
        "1.5210617266398007e-14,4.1104154562619775e-14",
        "average,42.78671090417754,61.48454559099074,310.51460277484375,446.2705936941481,"
        "0.6957989326710045,0.30420106732899554,0.6958937484681846,0.30410625153181536,"
        "0.01362503936684178,0.03116879175102865",
    ),
    Mode.TABLE_PRECISION: (
        "ircd,57.8,87.9,420.3,640.2,0.6565135895032802,0.3434864104967198,"
        "0.6575654152445961,0.3424345847554039,0.15995758245963312,0.3062204818510421",
        "ftp,26.7,36.3,191.9,261.1,0.7349674454232095,0.26503255457679054,"
        "0.7355371900826446,0.2644628099173554,0.0774596671816336,0.2149715759805192",
        "mixed,43.9,60.1,319.3,437.5,0.7298285714285715,0.2701714285714285,"
        "0.73044925124792,0.26955074875207996,0.08497233973313813,0.22973555073180127",
        "average,42.8,61.4,310.5,446.3,0.6957203674658301,0.3042796325341699,"
        "0.6970684039087948,0.30293159609120524,0.19338653644399587,0.44302552613779717",
    ),
}


@pytest.mark.parametrize("mode", list(Mode))
def test_csv_bytes_are_pinned(tmp_path, mode):
    out = tmp_path / "report.csv"
    full_pipeline(reference_captures(tmp_path), mode=mode, out_csv=out)
    want = "".join(f"{row}\r\n" for row in (CSV_HEADER, *REFERENCE_CSV_ROWS[mode]))
    assert out.read_bytes() == want.encode("utf-8")


def test_analyze_then_pipeline_consistency(tmp_path):
    paths = reference_captures(tmp_path)
    summaries = [analyze_capture(p) for p in paths]
    result = full_pipeline(paths, mode=Mode.EXACT)
    for summary, run in zip(summaries, result.runs):
        assert summary.metrics == run.summary.metrics
