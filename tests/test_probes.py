"""The probe scripts, which pytest does not collect, still run."""

from pathlib import Path

import pytest

import long_run
import walk_diff
from mcsched import sim

ROOT = Path(__file__).resolve().parent.parent


def test_long_run_prints_a_row_per_distinct_event_list(capsys):
    ts, platform, pa, wt, sc = long_run.inputs(3000)
    lists = []
    for protocol in sim.PROTOCOLS:
        events = sim.simulate(ts, platform, pa, wt, sc,
                              sim.ProtocolConfig(protocol)).events
        if events not in lists:
            lists.append(events)
    long_run.main(["--rounds", "1", "--horizons", "3000"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == len(lists) + 1 and rows[-1][-1] == "naive+rel"
    assert [name for row in rows[:-1] for name in row[7:]] == \
        list(sim.PROTOCOLS)


def test_walk_diff_finds_no_difference_against_this_tree(capsys):
    with pytest.raises(SystemExit) as done:
        walk_diff.main([str(ROOT), "--runs", "20"])
    assert done.value.code == 0
    assert capsys.readouterr().out.endswith(" 0 differ\n")
