"""The README's examples must be what the package reads, writes and runs."""

import ast
import importlib
import io
import json
import re
import sys
from pathlib import Path

from mcsched import analysis, sim
from mcsched.experiment import CSV_HEADER, run_experiment
from mcsched.model import load_scenario, load_taskset

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _example(marker, lang="json"):
    """The first `lang` code block after the text `marker`."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(rf"```{lang}\n(.*?)```", re.S)
    return block.search(text, text.index(marker)).group(1)


def test_readme_file_format_examples_load_and_match_a_run():
    ts, platform = load_taskset(io.StringIO(_example("**Task set**")))
    sc = load_scenario(io.StringIO(_example("**Scenario**")), ts)
    trace_text = _example("**Trace**")
    trace = sim.trace_from_jsonl(trace_text)
    assert (trace.horizon, trace.m, trace.levels) == \
        (sc.horizon, platform.m, ts.levels)

    res = analysis.opa_assign(ts, platform.m)
    run = sim.simulate(ts, platform, res.assignment, res.wcrt_table, sc,
                       sim.ProtocolConfig(trace.protocol, trace.rem_order))
    assert run.to_jsonl().startswith(trace_text)


def test_readme_library_example_runs():
    exec(_example("## Library use", "python"), {})


def test_readme_experiment_example_runs():
    out = io.StringIO()
    run_experiment(json.loads(_example("### `mcsched experiment")), out)
    lines = out.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3  # three protocols, three scenarios


def test_package_imports_only_the_standard_library():
    """The README's "no dependencies outside the standard library"."""
    sources = sorted((ROOT / "src" / "mcsched").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}: {name}"


def test_readme_names_only_what_the_package_defines():
    """Every backticked `module.name` (or `mcsched.module.name`) in the
    README is an attribute of that mcsched module."""
    modules = "|".join(path.stem for path in
                       (ROOT / "src" / "mcsched").glob("[!_]*.py"))
    named = re.findall(rf"`(?:mcsched\.)?({modules})\.([A-Za-z_]\w*)",
                       README.read_text(encoding="utf-8"))
    assert named
    for module, name in named:
        assert hasattr(importlib.import_module(f"mcsched.{module}"), name), \
            f"{module}.{name}"
