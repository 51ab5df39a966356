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
from conftest import write_conv_pool_model  # noqa: E402


def relu_maxpool_verify_argv(tmp_path):
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
    return ["verify", "--model", str(model), "--input", str(x),
            "--pixels", "0,1", "--epsilon", "0.5"]


def traced_main(argv):
    tracer = Tracer({"cli": latreach.cli, "engine": latreach.engine,
                     "layers": latreach.layers})
    tracer.install()
    try:
        code = tracer.run_span("cli.main", latreach.cli.main, argv)
    finally:
        tracer.uninstall()
    return tracer, code


def test_tracer_crosscheck_on_relu_maxpool_verify(tmp_path, capsys):
    tracer, code = traced_main(relu_maxpool_verify_argv(tmp_path))
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


def test_tracer_crosscheck_on_verify_cut_by_the_set_cap(tmp_path, capsys):
    # the cap stops the maxpool layer inside its worklist (15 sets go in,
    # 26 come out of an uncut run): the span's partial sets_out and the
    # split leaf calls must still match the run's counters
    argv = relu_maxpool_verify_argv(tmp_path) + ["--max-sets", "20"]
    tracer, code = traced_main(argv)
    out = capsys.readouterr()
    assert code == 3, out.err  # TIMEOUT: truncated, no violation found
    assert json.loads(out.out)["set_count"] == 0

    assert tracer.crosscheck() == []
    summary = tracer.summary()
    assert summary["layers.L1.relu.sets_out"] == 15
    assert 0 < summary["layers.L2.maxpool.sets_out"] < 26


def test_tracer_crosscheck_on_falsify_one_gradient_per_pixel(tmp_path,
                                                             capsys):
    model = write_conv_pool_model(tmp_path / "net.json", 11)
    image = np.random.default_rng(11).uniform(0, 1, 48)
    x = tmp_path / "x.csv"
    x.write_text(",".join(map(str, image)))
    argv = ["falsify", "--model", str(model), "--image", str(x),
            "--shape", "3,4,4", "--epsilon", "0.05", "--max-pixels", "4",
            "--relaxation", "0.5"]

    tracer, code = traced_main(argv)
    out = capsys.readouterr()
    assert code in (0, 1, 2), out.err
    tried = json.loads(out.out.strip().splitlines()[-1])["pixels_tried"]
    assert tried >= 2

    assert tracer.crosscheck() == []
    summary = tracer.summary()
    assert summary["engine.reach.calls"] == tried
    assert summary["engine.select_neurons.calls"] == tried
    # falsify's own gradient feeds the neuron selection: one per step
    assert summary["model.gradient.calls"] == tried
