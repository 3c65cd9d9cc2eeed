"""``tools/plane_layers.py``: one timed run per mechanism prints every
plane layer, and the timers come off ``_MarketPlane`` afterwards."""

import pathlib
import sys

from repro.sim.shards import _MarketPlane

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))

import plane_layers  # noqa: E402


def test_one_run_prints_every_layer_and_unwraps(capsys):
    originals = {name: getattr(_MarketPlane, name) for name in plane_layers.LAYERS}
    assert plane_layers.main(["--runs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: [float(x) for x in line.split()[-2:]]
            for line in lines[2:]}
    assert set(rows) == {
        *("_MarketPlane." + name for name in plane_layers.LAYERS), "whole",
    }
    qant = {name: seconds[0] for name, seconds in rows.items()}
    assert 0.0 < qant["_MarketPlane._period_solve"] < qant["_MarketPlane.boundary"]
    assert qant["_MarketPlane.boundary"] < qant["whole"]
    assert rows["_MarketPlane.boundary"][1] == 0.0  # greedy takes none
    for name, method in originals.items():
        assert getattr(_MarketPlane, name) is method
