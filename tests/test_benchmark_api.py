"""The benchmark's workloads drive cathseg through its public API
(``perfbench/workloads.py``); each one must still set up and run one item
cleanly, so that an API change shows here rather than only when the
benchmark runs.  In process and on one item per workload: seconds, where
three short ``perfbench/run.py`` runs take most of a minute."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["three-mode", "hybrid-latency", "phantom-gen"])
def test_workload_sets_up_and_runs_its_first_item(tmp_path, name):
    wl = workloads.make(name, tmp_path)
    state = wl.setup(7)
    item = wl.items(state)[0]
    record = wl.inspect(state, item, wl.run(state, item))
    assert record.ok, record.info
