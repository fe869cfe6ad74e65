"""The README's file-format examples must be what the package reads and
writes."""

import io
import re
from pathlib import Path

from mcsched import analysis, sim
from mcsched.model import load_scenario, load_taskset

README = Path(__file__).resolve().parent.parent / "README.md"


def _example(label):
    """The first code block after the paragraph that starts with **label**."""
    text = README.read_text(encoding="utf-8")
    block = re.compile(r"```json\n(.*?)```", re.S)
    return block.search(text, text.index(f"**{label}**")).group(1)


def test_readme_file_format_examples_load_and_match_a_run():
    ts, platform = load_taskset(io.StringIO(_example("Task set")))
    sc = load_scenario(io.StringIO(_example("Scenario")), ts)
    trace_text = _example("Trace")
    trace = sim.trace_from_jsonl(trace_text)
    assert (trace.horizon, trace.m, trace.levels) == \
        (sc.horizon, platform.m, ts.levels)

    res = analysis.opa_assign(ts, platform.m)
    run = sim.simulate(ts, platform, res.assignment, res.wcrt_table, sc,
                       sim.ProtocolConfig(trace.protocol, trace.rem_order))
    assert run.to_jsonl().startswith(trace_text)
