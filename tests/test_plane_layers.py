"""``tools/plane_layers.py``: one timed run per mechanism prints every
plane layer and the digest, and the timers come off afterwards."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import plane_layers  # noqa: E402


def test_one_run_prints_every_layer_and_unwraps(capsys):
    originals = {
        label: getattr(owner, name)
        for label, (owner, name) in plane_layers.WRAPPED.items()
    }
    assert plane_layers.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: [float(x) for x in line.split()[-2:]]
            for line in lines[2:]}
    assert set(rows) == {*plane_layers.LAYERS, "whole"}
    assert {"_MarketPlane.collect", "ShardedRunResult.outcome_digest"} <= set(rows)
    qant = {name: seconds[0] for name, seconds in rows.items()}
    assert 0.0 < qant["_MarketPlane._period_solve"] < qant["_MarketPlane.boundary"]
    assert qant["_MarketPlane.boundary"] < qant["whole"]
    assert rows["_MarketPlane.boundary"][1] == 0.0  # greedy takes none
    assert min(rows["_MarketPlane.collect"]) > 0.0  # both render rows
    for label, method in originals.items():
        owner, name = plane_layers.WRAPPED[label]
        assert getattr(owner, name) is method
