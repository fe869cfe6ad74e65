"""The long-run probe script, which pytest does not collect, still runs."""

import long_run
from mcsched import sim


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

