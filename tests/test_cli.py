"""CLI end-to-end tests: subcommands, exit codes, file formats."""

import csv
import itertools
import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from latreach import ModelError
from latreach.cli import main, _hull2d, load_input_vector, _parse_constraint


def write(path, text):
    path.write_text(text)
    return str(path)


def model_identity2(tmp_path):
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1, 0], [0, 1]],
                       "b": [0, 0]}]}
    return write(tmp_path / "id2.json", json.dumps(doc))


def model_relu_quadrants(tmp_path):
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "relu"},
                      {"kind": "affine", "W": [[1, 0], [0, 1]],
                       "b": [0, 0]}]}
    return write(tmp_path / "reluq.json", json.dumps(doc))


def model_two_pixel_race(tmp_path):
    # logit a reads pixel 0, logit b reads pixel 3
    doc = {"input_width": 4, "labels": ["a", "b"],
           "layers": [{"kind": "affine",
                       "W": [[1, 0, 0, 0], [0, 0, 0, 1]], "b": [0, 0]}]}
    return write(tmp_path / "race.json", json.dumps(doc))


def baseline_csv(tmp_path, values, name="x.csv"):
    return write(tmp_path / name, ",".join(str(v) for v in values))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reach_writes_result(tmp_path, capsys):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    code, stdout, _ = run(["reach", "--model", model, "--input", x,
                           "--pixels", "0,1", "--epsilon", "1.0",
                           "--out", str(out)], capsys)
    assert code == 0
    stats = json.loads(stdout)
    assert stats["set_count"] == 4 and stats["truncated"] is False
    doc = json.loads(out.read_text())
    assert set(doc) == {"mode", "relaxation", "sets", "set_count",
                        "wall_time_s", "truncated"}
    assert doc["mode"] == "exact" and len(doc["sets"]) == 4


def test_reach_shape_addresses_pixels(tmp_path, capsys):
    # --shape 2,2,2: pixel 1 is cell (0, 1), i.e. coordinates 1 and 5
    doc = {"input_width": 8, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1.0] * 8, [0.0] * 8],
                       "b": [0, 0]}]}
    model = write(tmp_path / "m.json", json.dumps(doc))
    x = baseline_csv(tmp_path, [0.1 * i for i in range(8)])
    out = tmp_path / "R.json"
    argv = ["reach", "--model", model, "--input", x, "--shape", "2,2,2",
            "--epsilon", "0.5", "--out", str(out), "--pixels"]
    code, _, _ = run(argv + ["1"], capsys)
    assert code == 0
    region = np.array([r for s in json.loads(out.read_text())["sets"]
                       for r in s["region"]])
    moved = np.nonzero(np.ptp(region, axis=0) > 0)[0]
    assert moved.tolist() == [1, 5]
    code, _, err = run(argv + ["4"], capsys)
    assert code == 4 and "out of range" in err


def test_reach_timeout_exit_code(tmp_path, capsys):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    code, stdout, _ = run(["reach", "--model", model, "--input", x,
                           "--pixels", "0,1", "--epsilon", "1.0",
                           "--timeout", "1e-9", "--out", str(out)], capsys)
    assert code == 3
    assert json.loads(stdout)["truncated"] is True


def verify_args(model, x, eps, extra=()):
    return ["verify", "--model", model, "--input", x, "--pixels", "0,1",
            "--epsilon", str(eps), *extra]


def test_verify_safe_unsafe_boundary(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])

    code, stdout, _ = run(verify_args(model, x, 0.1), capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (0, "SAFE")
    assert "boundary_contact" not in v
    assert v["class"] == 0 and v["witnesses"] == []

    code, stdout, _ = run(verify_args(model, x, 0.2), capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (1, "UNSAFE")
    assert v["witnesses"]
    # every witness is a concrete misclassified input
    for w in v["witnesses"]:
        assert w["class"] == 1
        x0, x1 = w["input"]
        assert x1 >= x0 - 1e-9

    # margin hits exactly zero at the corner: safe but flagged
    code, stdout, _ = run(verify_args(model, x, 0.15), capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (0, "SAFE")
    assert v["boundary_contact"] is True


def test_verify_fast_never_safe(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    code, stdout, _ = run(verify_args(model, x, 0.1, ["--fast",
                                                      "--relaxation", "0.5"]),
                          capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (2, "UNKNOWN")
    assert v["mode"] == "fast"


def test_verify_fast_can_prove_unsafe(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    code, stdout, _ = run(verify_args(model, x, 0.5, ["--fast",
                                                      "--relaxation", "1.0"]),
                          capsys)
    assert code == 1
    assert json.loads(stdout)["status"] == "UNSAFE"


def test_verify_writes_optional_dump(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "dump.json"
    code, _, _ = run(verify_args(model, x, 0.1, ["--out", str(out)]), capsys)
    assert code == 0
    assert json.loads(out.read_text())["set_count"] == 1


def test_falsify_finds_planted_flip(tmp_path, capsys):
    model = model_two_pixel_race(tmp_path)
    img = baseline_csv(tmp_path, [0.9, 0.5, 0.5, 0.2], "img.csv")
    code, stdout, _ = run(["falsify", "--model", model, "--image", img,
                           "--epsilon", "0.5", "--max-pixels", "4"], capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (1, "UNSAFE")
    assert v["pixels_tried"] <= 4
    adv = np.array(v["witnesses"][0]["input"])
    assert np.abs(adv - [0.9, 0.5, 0.5, 0.2]).max() <= 0.5 + 1e-9
    # margins never increase across targeted pixels
    margins = [p["margin"] for p in v["per_pixel"]]
    assert all(a >= b - 1e-12 for a, b in zip(margins, margins[1:]))
    assert all("time_s" in p and "sets" in p for p in v["per_pixel"])


def test_falsify_budget_exhausted_unknown(tmp_path, capsys):
    model = model_two_pixel_race(tmp_path)
    img = baseline_csv(tmp_path, [0.9, 0.5, 0.5, 0.2], "img.csv")
    code, stdout, _ = run(["falsify", "--model", model, "--image", img,
                           "--epsilon", "0.05", "--max-pixels", "4"], capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (2, "UNKNOWN")
    assert v["final_margin"] > 0


def test_falsify_ranks_pixels_like_per_pixel_norm(tmp_path, capsys, rng):
    # the 24 pixels' gradients hold the same 4 values in every order, so the
    # norms tie up to rounding and the visiting order pins the rounding of
    # np.linalg.norm taken pixel by pixel
    perms = list(itertools.permutations(range(4)))
    g = rng.normal(size=4)[perms].T.ravel()  # (4, 4, 6) channel-major
    doc = {"input_width": 96, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [g.tolist(), [0.0] * 96],
                       "b": [10.0, 0.0]}]}
    model = write(tmp_path / "m.json", json.dumps(doc))
    img = baseline_csv(tmp_path, [0.5] * 96, "img.csv")
    code, stdout, _ = run(["falsify", "--model", model, "--image", img,
                           "--shape", "4,4,6", "--epsilon", "0.01",
                           "--max-pixels", "24"], capsys)
    assert code == 2
    norms = [np.linalg.norm(g.reshape(4, 24)[:, p]) for p in range(24)]
    want = sorted(range(24), key=lambda p: -norms[p])
    assert [r["pixel"] for r in json.loads(stdout)["per_pixel"]] == want


def test_backtrack_subcommand(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "0.1", "--out", str(out)], capsys)

    # a region satisfying logit0 - logit1 >= 0.2
    code, stdout, _ = run(["backtrack", "--result", str(out), "--set-id", "0",
                           "--constraint", "0-1>=0.2"], capsys)
    doc = json.loads(stdout)
    assert code == 0 and doc["empty"] is False
    V = np.array(doc["vertices"])
    assert (V[:, 0] - V[:, 1] >= 0.2 - 1e-9).all()
    assert (V[:, 0] >= 0.5 - 1e-9).all() and (V[:, 0] <= 0.7 + 1e-9).all()
    assert (V[:, 1] >= 0.2 - 1e-9).all() and (V[:, 1] <= 0.4 + 1e-9).all()

    # class 1 can never win on this box
    code, stdout, _ = run(["backtrack", "--result", str(out), "--set-id", "0",
                           "--constraint", "1-0>=0"], capsys)
    doc = json.loads(stdout)
    assert code == 0 and doc["empty"] is True

    code, _, err = run(["backtrack", "--result", str(out), "--set-id", "9",
                        "--constraint", "1-0>=0"], capsys)
    assert code == 4 and "set id" in err


def test_backtrack_bad_constraint(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "0.1", "--out", str(out)], capsys)
    code, _, err = run(["backtrack", "--result", str(out), "--set-id", "0",
                        "--constraint", "nonsense"], capsys)
    assert code == 4 and "constraint" in err


@pytest.mark.parametrize("corrupt, message", [
    ("unknown_child", "child id names no face"),
    ("duplicate_id", "duplicate face id")])
def test_corrupt_dump_exits_4(tmp_path, capsys, corrupt, message):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "1.0", "--out", str(out)], capsys)
    doc = json.loads(out.read_text())
    faces = doc["sets"][1]["faces"]
    if corrupt == "unknown_child":
        faces[-1]["children"][0] = max(f["id"] for f in faces) + 1
    else:
        faces[1]["id"] = faces[0]["id"]
    out.write_text(json.dumps(doc))

    back = ["backtrack", "--result", str(out), "--constraint", "1-0>=0"]
    code, _, err = run(back + ["--set-id", "1"], capsys)
    assert code == 4 and message in err
    # backtrack rebuilds only the set it was asked for
    code, _, _ = run(back + ["--set-id", "0"], capsys)
    assert code == 0
    # project rebuilds every set
    code, _, err = run(["project", "--result", str(out), "--axes", "0,1",
                        "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 4 and message in err


def test_project_subcommand(tmp_path, capsys):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "1.0", "--out", str(out)], capsys)

    csv_path = tmp_path / "proj.csv"
    code, stdout, _ = run(["project", "--result", str(out),
                           "--axes", "class:0,class:1",
                           "--out", str(csv_path)], capsys)
    assert code == 0
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["set_id", "vertex_order", "x", "y"]
    data = rows[1:]
    # four quadrant images: square, two segments, a point
    per_set = {}
    for sid, order, px, py in data:
        per_set.setdefault(int(sid), []).append((float(px), float(py)))
        assert 0.0 - 1e-9 <= float(px) <= 1.0 + 1e-9
        assert 0.0 - 1e-9 <= float(py) <= 1.0 + 1e-9
    assert sorted(len(v) for v in per_set.values()) == [1, 2, 2, 4]


def test_project_axis_errors(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "0.1", "--out", str(out)], capsys)
    code, _, err = run(["project", "--result", str(out), "--axes",
                        "0,second", "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 4 and "second" in err
    code, _, _ = run(["project", "--result", str(out), "--axes", "0",
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 4
    code, _, _ = run(["project", "--result", str(out), "--axes", "0,1",
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 0


def test_usage_and_error_exit_codes(tmp_path, capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["reach"]) == 4  # missing required arguments
    capsys.readouterr()
    assert main(["no-such-command"]) == 4
    capsys.readouterr()
    x = baseline_csv(tmp_path, [0.0, 0.0])
    code, _, err = run(["verify", "--model", str(tmp_path / "missing.json"),
                        "--input", x, "--pixels", "0", "--epsilon", "0.1"],
                       capsys)
    assert code == 4 and err.startswith("error:")


def test_hull2d_matches_qhull(rng):
    for trial in range(12):
        pts = rng.normal(size=(int(rng.integers(5, 40)), 2))
        got = _hull2d(pts)
        want = pts[ConvexHull(pts).vertices]  # counterclockwise
        assert got.shape == want.shape
        # same cycle up to rotation
        start = int(np.argmin(np.linalg.norm(want - got[0], axis=1)))
        rolled = np.roll(want, -start, axis=0)
        assert np.allclose(got, rolled, atol=1e-12)


def test_hull2d_degenerate_inputs():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5], [0.25, 0.75]])
    hull = _hull2d(square)
    assert hull.shape == (4, 2)
    assert {tuple(p) for p in hull} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    line = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0], [0.25, 0.25]])
    hull = _hull2d(line)
    assert hull.shape == (2, 2)
    assert {tuple(p) for p in hull} == {(0, 0), (1, 1)}

    point = np.array([[2.0, 3.0], [2.0, 3.0]])
    assert _hull2d(point).shape == (1, 2)


def test_load_input_vector(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("0.1, 0.2\n0.3 0.4")
    assert np.allclose(load_input_vector(p), [0.1, 0.2, 0.3, 0.4])

    raw = tmp_path / "img.bin"
    raw.write_bytes(bytes([0, 128, 255, 51]))
    x = load_input_vector(raw, shape=(1, 2, 2))
    assert np.allclose(x, [0.0, 128 / 255, 1.0, 0.2])

    with pytest.raises(ModelError):
        load_input_vector(raw, shape=(1, 3, 3))


def test_parse_constraint():
    h = _parse_constraint("1-0>=0.5", 3)
    assert np.allclose(h.normal, [-1.0, 1.0, 0.0]) and h.offset == -0.5
    h = _parse_constraint("2-0", 3)
    assert np.allclose(h.normal, [-1.0, 0.0, 1.0]) and h.offset == 0.0
    with pytest.raises(ModelError):
        _parse_constraint("2>=0", 3)
    with pytest.raises(ModelError):
        _parse_constraint("5-0>=0", 3)
