"""The probe scripts, which pytest does not collect, still run."""

import analysis_probe
import long_run
from mcsched import analysis, sim


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


def test_analysis_probe_prints_a_row_per_shape(capsys, monkeypatch):
    sets = analysis_probe.inputs(5, [8], [(2, 0.30, 2)])[8, 2, 0.30]
    kernel, fixed = analysis._bounds, analysis._response
    tally = {"kernel": 0, "fixed": 0}

    def counted(name, fn):
        def wrapped(*args):
            tally[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(analysis, "_bounds", counted("kernel", kernel))
    monkeypatch.setattr(analysis, "_response", counted("fixed", fixed))
    schedulable = sum(analysis.opa_assign(ts, m).schedulable
                      for _, ts, m in sets)
    monkeypatch.undo()
    analysis_probe.main(["--seed", "5", "--rounds", "2", "--sizes", "8",
                         "--regimes", "2:0.30:2", "--slowest", "1"])
    lines = capsys.readouterr().out.splitlines()
    row = lines[2].split()
    assert len(lines) == 4
    assert lines[3].split()[-1] in {key for key, _, _ in sets}
    assert row[:5] == ["8", "2", "0.30", "2", str(schedulable)]
    assert row[7:] == [str(tally["kernel"]), str(tally["fixed"])]
    assert (analysis._bounds, analysis._response) == (kernel, fixed)
