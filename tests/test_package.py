"""The package's lazy exports and the modules each entry point imports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import biokm

SRC = Path(biokm.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport sys\nprint(' '.join(sys.modules))"
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=60, check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def test_relay_and_analysis_modules_import_without_numpy():
    loaded = modules_after(
        "import biokm, biokm.cli, biokm.server, biokm.loadgen, biokm.queueing, "
        "biokm.report, biokm.telemetry"
    )
    assert "numpy" not in loaded
    assert "biokm.phylo" not in loaded and "biokm.route_filter" not in loaded


def test_no_module_takes_a_lock():
    # one thread owns each counter: the server's loop or the load generator's
    primitive = re.compile(r"threading\.(Lock|RLock|Event|Condition|Semaphore)\b")
    for module in sorted((SRC / "biokm").glob("*.py")):
        assert not primitive.findall(module.read_text(encoding="utf-8")), module.name


def test_import_biokm_imports_no_submodule():
    assert not {m for m in modules_after("import biokm") if m.startswith("biokm.")}


def test_queue_command_imports_only_queueing():
    loaded = modules_after(
        "from biokm import cli\nassert cli.main(['queue', '--lambda', '1', '--mu', '2']) == 0"
    )
    assert "biokm.queueing" in loaded
    assert not loaded & {"numpy", "biokm.server", "biokm.loadgen", "biokm.report"}


def test_queue_simulate_loads_numpy():
    loaded = modules_after(
        "from biokm import cli\nassert cli.main(['queue', '--lambda', '1', '--mu', '2', "
        "'--simulate', '--horizon', '10']) == 0"
    )
    assert "numpy" in loaded


def test_serve_command_runs_without_numpy():
    loaded = modules_after(
        "from biokm import cli\n"
        "assert cli.main(['serve', '--port', '0', '--runtime', '0']) == 0"
    )
    assert "biokm.server" in loaded
    assert not loaded & {"numpy", "biokm.loadgen", "biokm.report"}


def test_topology_names_load_numpy_on_first_use():
    # the positive control for the checks above
    assert "numpy" in modules_after("from biokm import nj_build")


def test_every_export_is_its_home_modules_object():
    assert biokm.__all__ == sorted(biokm.__all__) and len(biokm.__all__) == 41
    for name in biokm.__all__:
        value = getattr(biokm, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("biokm.")
        assert getattr(home, value.__name__) is value, name
    assert biokm.ScenarioMode is biokm.loadgen.Mode
    assert biokm.ReportMode is biokm.report.Mode


def test_dir_lists_every_export():
    assert set(biokm.__all__) <= set(dir(biokm))
    assert "__version__" in dir(biokm)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        biokm.no_such_name
    with pytest.raises(ImportError):
        from biokm import no_such_name  # noqa: F401


def test_readme_library_import_runs_as_written():
    block = re.search(r"^from biokm import \(.*?\)$", README.read_text(), re.M | re.S)
    namespace: dict = {}
    exec(block.group(0), namespace)
    assert namespace["ScenarioMode"] is biokm.ScenarioMode
    assert namespace["to_newick"] is biokm.to_newick
