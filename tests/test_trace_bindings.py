"""The benchmark's outside-in tracer still binds to the package.

``perfbench/tracer.py`` rebinds names in ``latreach.cli``, ``latreach.engine``
and ``latreach.layers``.  A refactor that stops calling those names through
the module globals would leave ``perfbench/run.py --trace 1`` blind or
failing its cross-check; this test makes that a tier-1 failure instead.
"""

import json
import sys
from pathlib import Path

import numpy as np

import latreach.cli
import latreach.engine
import latreach.layers

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_crosscheck_on_relu_maxpool_verify(tmp_path, capsys):
    # affine 4 -> 8, relu, two 2x2 pools -> 2 logits
    rng = np.random.default_rng(3)
    doc = {"input_width": 4, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": rng.normal(size=(8, 4)).tolist(),
                       "b": (rng.normal(size=8) * 0.2).tolist()},
                      {"kind": "relu"},
                      {"kind": "maxpool",
                       "pools": [{"dims": [0, 1, 2, 3], "out": 0},
                                 {"dims": [4, 5, 6, 7], "out": 1}]}]}
    model = tmp_path / "net.json"
    model.write_text(json.dumps(doc))
    x = tmp_path / "x.csv"
    x.write_text("0.1,-0.2,0.3,0.0")
    argv = ["verify", "--model", str(model), "--input", str(x),
            "--pixels", "0,1", "--epsilon", "0.5"]

    tracer = Tracer({"cli": latreach.cli, "engine": latreach.engine,
                     "layers": latreach.layers})
    tracer.install()
    try:
        code = tracer.run_span("cli.main", latreach.cli.main, argv)
    finally:
        tracer.uninstall()
    assert code == 1, capsys.readouterr().err  # UNSAFE

    assert tracer.crosscheck() == []
    summary = tracer.summary()
    assert summary["engine.reach.calls"] == 1
    assert summary["model.forward.calls"] >= 1  # verify's baseline class
    # both nonlinear layers split, so the cross-check compares real counts
    assert summary["layers.L1.relu.splits"] >= 1
    assert summary["layers.L2.maxpool.splits"] >= 1
    assert summary["lattice.split.calls"] == (
        summary["layers.L1.relu.splits"] + summary["layers.L2.maxpool.splits"])
