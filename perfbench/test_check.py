"""Tests of the benchmark's own checker and generators.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

TOY = {"input_width": 2, "labels": ["a", "b"],
       "layers": [{"kind": "affine", "W": [[1.0, 0.5], [-0.5, 1.0]],
                   "b": [0.1, -0.2]},
                  {"kind": "relu"},
                  {"kind": "affine", "W": [[1.0, -1.0], [-1.0, 1.0]],
                   "b": [0.0, 0.3]}]}


@pytest.fixture
def toy(tmp_path):
    """A toy model, an exact-looking dump of two sets, and a matching plan."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TOY))
    model = check.Model(path)
    regions = [np.array([[-0.5, -0.5], [0.0, -0.5], [0.0, 0.5]]),
               np.array([[0.0, -0.5], [0.5, -0.5], [0.5, 0.5], [0.0, 0.5]])]
    dump = {"mode": "exact", "relaxation": 1.0, "wall_time_s": 0.25,
            "truncated": False, "set_count": 2,
            "sets": [{"faces": [], "region": r.tolist(),
                      "vertices": model.forward(r).tolist()}
                     for r in regions]}
    plan = {"model": str(path), "dump": str(tmp_path / "reach.json"),
            "baseline": [0.0, 0.0], "coords": [0, 1], "epsilon": 0.5,
            "expect_sets": 2, "expect_status": "UNSAFE",
            "constraint": [1, 0, 0.0]}
    return model, dump, plan


def reach_record(set_count):
    return {"name": "reach_out", "rc": 0, "pass": 0, "argv": [],
            "stdout": json.dumps({"set_count": set_count})}


def verify_record(doc, rc=1):
    return {"name": "verify", "rc": rc, "pass": 0, "argv": [],
            "stdout": json.dumps(doc)}


def test_exact_dump_passes(toy):
    model, dump, plan = toy
    assert check.check_dump(dump, model, [0, 0], [0, 1], 0.5) == []
    Path(plan["dump"] + ".0").write_text(json.dumps(dump))
    fails, _ = run.check_batches(plan, [[reach_record(2)]])
    assert fails == {}


def test_perturbed_vertex_row_counts_as_failed(toy):
    model, dump, plan = toy
    dump["sets"][1]["vertices"][2][0] += 1e-3
    assert check.check_dump(dump, model, [0, 0], [0, 1], 0.5) == [
        "set 1: region rows do not map to vertex rows"]
    Path(plan["dump"] + ".0").write_text(json.dumps(dump))
    fails, _ = run.check_batches(plan, [[reach_record(2)]])
    assert list(fails) == [(0, 0)]


def test_region_outside_box_counts_as_failed(toy):
    model, dump, plan = toy
    region = np.array(dump["sets"][0]["region"]) * 2.0
    dump["sets"][0]["region"] = region.tolist()
    dump["sets"][0]["vertices"] = model.forward(region).tolist()
    assert check.check_dump(dump, model, [0, 0], [0, 1], 0.5)


def witness_doc(model, x):
    k = int(model.predict(x)[0])
    return {"status": "UNSAFE", "set_count": 2,
            "witnesses": [{"input": list(x), "class": k}]}


def test_genuine_witness_passes(toy):
    model, _, plan = toy
    base_cls = int(model.predict([0.0, 0.0])[0])
    grid = [[a, b] for a in np.linspace(-0.5, 0.5, 11)
            for b in np.linspace(-0.5, 0.5, 11)]
    x = next(p for p in grid if model.predict(p)[0] != base_cls)
    doc = witness_doc(model, x)
    assert check.check_witnesses(doc, model, [0, 0], [0, 1], 0.5) == []
    fails, _ = run.check_batches(plan, [[verify_record(doc)]])
    assert fails == {}


def test_forged_witness_counts_as_failed(toy):
    model, _, plan = toy
    # the baseline itself is correctly classified: not a witness
    doc = witness_doc(model, [0.0, 0.0])
    doc["witnesses"][0]["class"] = 1 - doc["witnesses"][0]["class"]
    assert check.check_witnesses(doc, model, [0, 0], [0, 1], 0.5)
    fails, _ = run.check_batches(plan, [[verify_record(doc)]])
    assert list(fails) == [(0, 0)]


def test_witness_outside_box_counts_as_failed(toy):
    model, _, _ = toy
    far = [3.0, -3.0]
    doc = witness_doc(model, far)
    assert any("outside" in f for f in
               check.check_witnesses(doc, model, [0, 0], [0, 1], 0.5))


def test_wrong_exit_code_counts_as_failed(toy):
    model, _, plan = toy
    doc = {"status": "UNSAFE", "set_count": 2, "witnesses": []}
    assert check.check_exit("verify", 0, doc)
    fails, _ = run.check_batches(plan, [[verify_record(doc, rc=0)]])
    assert list(fails) == [(0, 0)]


def test_backtrack_vertex_violating_constraint_fails(toy):
    model, dump, _ = toy
    X = np.array(dump["sets"][1]["region"])
    Y = model.forward(X)
    ok = X[Y[:, 1] - Y[:, 0] >= 0]
    bad = X[Y[:, 1] - Y[:, 0] < 0]
    assert len(ok) and len(bad)
    args = (dump["sets"][1], model, [1, 0, 0.0], [0, 0], [0, 1], 0.5)
    assert check.check_backtrack({"vertices": ok.tolist()}, *args) == []
    assert check.check_backtrack({"vertices": X.tolist()}, *args)
    # an empty answer is wrong when some output vertex satisfies it
    assert check.check_backtrack({"empty": True}, *args)


def test_digest_ignores_set_and_row_order(toy):
    _, dump, _ = toy
    d0 = check.digest(dump)
    shuffled = json.loads(json.dumps(dump))
    shuffled["sets"].reverse()
    for s in shuffled["sets"]:
        order = np.random.default_rng(0).permutation(len(s["vertices"]))
        s["vertices"] = [s["vertices"][i] for i in order]
        s["region"] = [s["region"][i] for i in order]
    shuffled["wall_time_s"] = 9.75
    assert check.digest(shuffled) == d0
    shuffled["sets"][0]["vertices"][0][0] += 1e-12
    assert check.digest(shuffled) != d0


def test_generators_are_deterministic(tmp_path):
    for wl in gen.WORKLOADS:
        gen.generate(wl, 7, tmp_path / "a" / wl)
        gen.generate(wl, 7, tmp_path / "b" / wl)
        files = sorted(p.name for p in (tmp_path / "a" / wl).iterdir())
        for name in files:
            assert ((tmp_path / "a" / wl / name).read_bytes()
                    == (tmp_path / "b" / wl / name).read_bytes())


def test_reparametrisations_keep_the_function(tmp_path):
    for seed in (1, 2, 3):
        gen.generate("mlp_exact", seed, tmp_path / f"m{seed}")
    # seeds mirror input axes, which permutes the corners of the input box:
    # the corners' logits agree as a multiset
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * 4)).reshape(4, -1).T
    imgs = [np.sort(check.Model(tmp_path / f"m{s}" / "model.json")
                    .forward(corners), axis=0) for s in (1, 2, 3)]
    np.testing.assert_allclose(imgs[1], imgs[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(imgs[2], imgs[0], rtol=1e-12, atol=1e-12)

    logits = []
    for seed in (1, 2, 3):
        plan = gen.generate("conv_verify", seed, tmp_path / f"c{seed}")
        y = check.Model(plan["model"]).forward(plan["baseline"])[0]
        logits.append(np.sort(y))
    np.testing.assert_allclose(logits[1], logits[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(logits[2], logits[0], rtol=1e-12, atol=1e-12)


def test_checker_forward_matches_program(tmp_path):
    src = HERE.parent / "src"
    if not (src / "latreach").is_dir():
        pytest.skip("latreach sources not present")
    sys.path.insert(0, str(src))
    from latreach import forward, load_model
    for wl in gen.WORKLOADS:
        plan = gen.generate(wl, 5, tmp_path / wl)
        ours = check.Model(plan["model"])
        net = load_model(plan["model"])
        X = np.random.default_rng(1).uniform(0, 1, size=(5, ours.input_width))
        want = np.array([forward(net, x) for x in X])
        np.testing.assert_allclose(ours.forward(X), want, rtol=1e-9,
                                   atol=1e-9)
