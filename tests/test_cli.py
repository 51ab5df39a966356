"""CLI end-to-end tests: subcommands, exit codes, file formats."""

import csv
import io
import itertools
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

import latreach.cli
import latreach.lattice
from latreach import (InputSpec, LatticeSet, LayerDesc, ModelError, Network,
                      ReachConfig, ReachResult, build_box_lattice, reach,
                      verify)
from latreach.cli import (main, _hull2d, load_input_vector, _parse_constraint,
                          _read_sets, _write_result)
from latreach.engine import iter_set_records, result_to_dict
from latreach.lattice import DUMP_CHUNK_VALUES, FaceLattice, sets_json
from conftest import random_toy_net


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


def model_overflow(tmp_path, scale):
    # W1 = scale * [[1, 0], [0, 1], [1, -1]], W2 = [[s, s, 1], [1, -s, s]]
    s = scale
    doc = {"input_width": 2, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[s, 0], [0, s], [s, -s]],
                       "b": [0, 0, 0]},
                      {"kind": "relu"},
                      {"kind": "affine", "W": [[s, s, 1], [1, -s, s]],
                       "b": [1, 0]}]}
    return write(tmp_path / "overflow.json", json.dumps(doc))


def baseline_csv(tmp_path, values, name="x.csv"):
    return write(tmp_path / name, ",".join(str(v) for v in values))


def strict_json(text):
    """``json.loads`` that rejects NaN and +-Infinity, as RFC 8259 does."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


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
    # text that is not an integer names its option
    code, _, err = run(argv + ["0,x"], capsys)
    assert code == 4 and "--pixels takes integers, got 'x'" in err
    code, _, err = run([a.replace("2,2,2", "1,2,1.0") for a in argv]
                       + ["1"], capsys)
    assert code == 4 and "--shape takes integers, got '1.0'" in err


@pytest.mark.parametrize("shape", ["1,-4,-4", "2,-2,-4", "0,4,4", "4,4"])
@pytest.mark.parametrize("command", ["reach", "falsify"])
def test_shape_must_be_three_positive_sizes(tmp_path, capsys, command, shape):
    # only the product is compared with the input width, so 1,-4,-4 on 16
    # values would run as a 1x16 grid; "--shape=" keeps argparse from
    # reading "-4" as a flag
    doc = {"input_width": 16, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[1.0] * 16, [0.0] * 16],
                       "b": [0, 0]}]}
    model = write(tmp_path / "m.json", json.dumps(doc))
    x = baseline_csv(tmp_path, [0.1] * 16)
    argv = {"reach": ["reach", "--input", x, "--pixels", "0",
                      "--out", str(tmp_path / "R.json")],
            "falsify": ["falsify", "--image", x, "--max-pixels", "4"]}[command]
    code, stdout, err = run(argv + ["--model", model, f"--shape={shape}",
                                    "--epsilon", "0.1"], capsys)
    assert (code, stdout) == (4, "")
    assert "shape must be three positive integers c,h,w" in err


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


def test_verify_nan_margin_is_no_boundary_contact():
    net = Network((LayerDesc("affine", 2, 2, np.eye(2), np.zeros(2)),), 2,
                  ("a", "b"))
    spec = InputSpec(np.array([0.6, 0.3]), (0, 1), 0.1)
    seg = build_box_lattice([0.0], [1.0])
    s = LatticeSet(seg.lattice, [[1.0, 0.0], [np.nan, 0.0]], seg.vertices)
    v = verify(net, spec, ReachConfig(), ReachResult([s], 1, 0.0, 1, False))
    assert (v.status, v.boundary_contact) == ("UNKNOWN", False)


def test_verify_overflow_is_never_safe(tmp_path, capsys):
    # at 1e200 the vertices overflow to inf, and inf - inf gives nan: an
    # exact run whose vertices are not all finite proves nothing
    x = baseline_csv(tmp_path, [0.0, 0.0])
    argv = verify_args(model_overflow(tmp_path, 1e200), x, 1.0)
    with (pytest.warns(RuntimeWarning, match="invalid value"),
          pytest.warns(RuntimeWarning, match="overflow")):
        code, stdout, _ = run(argv, capsys)
    assert (code, json.loads(stdout)["status"]) == (2, "UNKNOWN")
    code, stdout, _ = run(verify_args(model_overflow(tmp_path, 1e2), x, 1.0),
                          capsys)
    assert (code, json.loads(stdout)["status"]) == (1, "UNSAFE")


@pytest.mark.parametrize("B", [1e3, 1e6, 1e9])
def test_verify_rechecks_margins_inside_the_band(tmp_path, capsys, B):
    # logits B + 0.01 x and B + 0.005: class 1 at the baseline, class 0 at
    # x = 1, by a margin of 0.005 that lies inside the band when B is large
    doc = {"input_width": 1, "labels": ["a", "b"],
           "layers": [{"kind": "affine", "W": [[0.01], [0]],
                       "b": [B, B + 0.005]}]}
    model = write(tmp_path / "band.json", json.dumps(doc))
    x = baseline_csv(tmp_path, [0.0])
    code, stdout, _ = run(["verify", "--model", model, "--input", x,
                           "--pixels", "0", "--epsilon", "1"], capsys)
    v = json.loads(stdout)
    assert (code, v["status"]) == (1, "UNSAFE")
    assert "boundary_contact" not in v


def test_falsify_overflowed_logits_are_no_witness(tmp_path, capsys):
    # the second pixel reaches (0, -1), where the 1e200 net's logits are
    # (1e200, inf): an argmax that only overflow moved off the baseline's
    # class 0, as in test_verify_overflow_is_never_safe
    img = baseline_csv(tmp_path, [0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        code, stdout, _ = run(["falsify", "--model",
                               model_overflow(tmp_path, 1e200), "--image",
                               img, "--epsilon", "1", "--relaxation", "1",
                               "--max-pixels", "2"], capsys)
    v = strict_json(stdout)
    assert (code, v["status"], v["witnesses"]) == (2, "UNKNOWN", [])
    # a vertex whose margin overflowed to -inf is not adopted, so the
    # image's own margin of 1 stands
    assert v["final_margin"] == 1.0


def test_falsify_overflowed_image_prints_strict_json(tmp_path, capsys):
    # at the image (1, 1) the 1e200 net's own logits overflow, so its
    # margin is not finite; stdout holds it as null, and nothing is a
    # witness
    img = baseline_csv(tmp_path, [1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        code, stdout, _ = run(["falsify", "--model",
                               model_overflow(tmp_path, 1e200), "--image",
                               img, "--epsilon", "1", "--relaxation", "1",
                               "--max-pixels", "2"], capsys)
    v = strict_json(stdout)
    assert (code, v["status"], v["witnesses"]) == (2, "UNKNOWN", [])
    assert v["final_margin"] is None


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


@pytest.mark.parametrize("ticks, tried", [([0.0, 11.0], 0),
                                          ([0.0, 0.0, 0.0, 11.0], 1)],
                         ids=["before_first_pixel", "after_a_pixel"])
def test_falsify_timeout_exits_3(tmp_path, capsys, monkeypatch, ticks, tried):
    # falsify reads the clock for its deadline, before each pixel, for the
    # reach's budget and after each pixel; this clock passes the 10 s
    # deadline at its last tick and stays there
    clock = itertools.chain(ticks, itertools.repeat(ticks[-1]))
    monkeypatch.setattr(latreach.cli, "time", SimpleNamespace(
        monotonic=lambda: next(clock), perf_counter=time.perf_counter))
    model = model_two_pixel_race(tmp_path)
    img = baseline_csv(tmp_path, [0.9, 0.5, 0.5, 0.2], "img.csv")
    code, stdout, _ = run(["falsify", "--model", model, "--image", img,
                           "--epsilon", "0.05", "--max-pixels", "4",
                           "--timeout", "10"], capsys)
    v = json.loads(stdout)
    assert (code, v["status"], v["pixels_tried"]) == (3, "TIMEOUT", tried)


@pytest.mark.parametrize("flag, value", [
    ("--max-pixels", "0"), ("--max-pixels", "-3"),
    ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan")])
def test_falsify_bad_budget_exits_4(tmp_path, capsys, flag, value):
    # checked before any work, as reach checks its own budgets
    model = model_two_pixel_race(tmp_path)
    img = baseline_csv(tmp_path, [0.9, 0.5, 0.5, 0.2], "img.csv")
    opts = {"--epsilon": "0.5", "--max-pixels": "4", flag: value}
    code, stdout, err = run(["falsify", "--model", model, "--image", img,
                             *(x for kv in opts.items() for x in kv)], capsys)
    assert (code, stdout) == (4, "")
    assert ("max_pixels" if flag == "--max-pixels" else "timeout") in err


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

    # --out holds the line backtrack prints
    region = tmp_path / "region.json"
    code, stdout, _ = run(["backtrack", "--result", str(out), "--set-id", "0",
                           "--constraint", "0-1>=0.2", "--out", str(region)],
                          capsys)
    assert code == 0 and region.read_text() + "\n" == stdout


def test_backtrack_bad_constraint(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "0.1", "--out", str(out)], capsys)
    code, _, err = run(["backtrack", "--result", str(out), "--set-id", "0",
                        "--constraint", "nonsense"], capsys)
    assert code == 4 and "constraint" in err
    code, _, err = run(["backtrack", "--result", str(out), "--set-id", "0",
                        "--constraint", "1.5-0>=0"], capsys)
    assert code == 4 and "--constraint takes integers, got '1.5'" in err
    for text, rhs in (("1-0>=x", "'x'"), ("1-0>=", "''")):
        code, stdout, err = run(["backtrack", "--result", str(out),
                                 "--set-id", "0", "--constraint", text],
                                capsys)
        assert (code, stdout) == (4, "") and \
            f"--constraint takes a number after '>=', got {rhs}" in err, text
    # a non-finite threshold has no side to keep: an error, not the whole set
    for text in ("1-0>=inf", "1-0>=-inf", "1-0>=nan"):
        code, stdout, err = run(["backtrack", "--result", str(out),
                                 "--set-id", "0", "--constraint", text],
                                capsys)
        assert (code, stdout) == (4, "") and "finite" in err, text


@pytest.mark.parametrize("corrupt, message", [
    ("unknown_child", "child id names no face"),
    ("duplicate_id", "duplicate face id"),
    ("id_past_int32", "does not fit int32"),
    ("fractional_id", "face id must be an integer"),
    ("duplicate_child", "duplicate child within a face"),
    # well-formed records that no reach could have made
    ("edge_with_one_child", "a k-face with k >= 1 has fewer than 2 children"),
    ("self_child", "a child does not precede its parent"),
    ("infinite_vertex", "non-finite vertex coordinates"),
    ("top_lists_vertex", "containment skips a dimension"),
    ("vertex_with_child", "a 0-face has children"),
    ("second_top", "top face is not unique"),
    ("vertex_dim_minus_1", "vertex positions contain non-vertex faces"),
    ("short_region", "region matrix rows do not match lattice vertices"),
    ("short_vertices", "vertex matrix rows do not match lattice vertices"),
    # malformed fields name themselves, not Python's lookup or sort error
    ("dim_string", "face dim must be an integer, got '1'"),
    ("dim_null", "face dim must be an integer, got None"),
    ("no_children", "face record has no 'children'"),
    ("children_int", "face record 'children' is not an array"),
    ("face_list", "face record is not a JSON object"),
    ("faces_int", "set record 'faces' is not an array"),
    ("no_region", "set record has no 'region'")])
def test_corrupt_dump_exits_4(tmp_path, capsys, corrupt, message):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "1.0", "--out", str(out)], capsys)
    doc = json.loads(out.read_text())
    # set 1 is a square: 4 vertex records, 4 edges (records 4-7), a top face
    rec = doc["sets"][1]
    faces = rec["faces"]
    if corrupt == "unknown_child":
        faces[-1]["children"][0] = max(f["id"] for f in faces) + 1
    elif corrupt == "id_past_int32":
        faces[-1]["id"] = 2 ** 31  # the top face: no child list names it
    elif corrupt == "fractional_id":
        faces[-1]["id"] += 0.7
    elif corrupt == "duplicate_child":
        faces[-1]["children"].append(faces[-1]["children"][0])
    elif corrupt == "duplicate_id":
        faces[1]["id"] = faces[0]["id"]
    elif corrupt == "edge_with_one_child":
        faces[4]["children"].pop()
    elif corrupt == "self_child":
        faces[4]["children"][1] = faces[4]["id"]
    elif corrupt == "infinite_vertex":
        rec["vertices"][0][0] = float("inf")  # dumped as Infinity
    elif corrupt == "top_lists_vertex":
        faces[-1]["children"].append(faces[0]["id"])
    elif corrupt == "vertex_with_child":
        faces[0]["children"] = [faces[1]["id"]]
    elif corrupt == "second_top":
        faces[4]["dim"] = 2
    elif corrupt == "vertex_dim_minus_1":
        faces[0]["dim"] = -1
    elif corrupt == "short_region":
        rec["region"] = rec["region"][:2]  # 4 values, as if 4 rows of 1
    elif corrupt == "dim_string":
        faces[4]["dim"] = "1"
    elif corrupt == "dim_null":
        faces[4]["dim"] = None
    elif corrupt == "no_children":
        del faces[4]["children"]
    elif corrupt == "children_int":
        faces[4]["children"] = 3
    elif corrupt == "face_list":
        faces[4] = list(faces[4].values())
    elif corrupt == "faces_int":
        rec["faces"] = 5
    elif corrupt == "no_region":
        del rec["region"]
    else:
        rec["vertices"] = rec["vertices"][:2]
    out.write_text(json.dumps(doc))

    back = ["backtrack", "--result", str(out), "--constraint", "1-0>=0"]
    code, _, err = run(back + ["--set-id", "1"], capsys)
    assert code == 4 and message in err
    # without a constraint backtrack returns the set as read, so only the
    # reader can refuse it
    code, stdout, err = run(back[:3] + ["--set-id", "1"], capsys)
    assert (code, stdout) == (4, "") and message in err
    # backtrack rebuilds only the set it was asked for
    code, _, _ = run(back + ["--set-id", "0"], capsys)
    assert code == 0
    # project rebuilds every set
    code, _, err = run(["project", "--result", str(out), "--axes", "0,1",
                        "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 4 and message in err


def fixed_result(sets, truncated=False):
    """A ReachResult with a fixed wall time, so two dumps of it compare."""
    return ReachResult(list(sets), len(sets), 0.125, 1, truncated)


def polygon(n):
    """The regular n-gon: its 2-face lists all n edges as children."""
    kids = [[]] * n + [[i, (i + 1) % n] for i in range(n)] + [
        list(range(n, 2 * n))]
    lat = FaceLattice(np.arange(2 * n + 1), [0] * n + [1] * n + [2],
                      np.cumsum([0] + [len(k) for k in kids]),
                      list(itertools.chain(*kids)), 2 * n + 1)
    t = 2 * np.pi * np.arange(n) / n
    v = np.column_stack((np.cos(t), np.sin(t)))
    return LatticeSet(lat, v, v)


def dump_values(s):
    """The face ids, child ids and coordinates ``s`` adds to a dump chunk."""
    return (s.lattice.n_faces + s.lattice.child_idx.size + s.vertices.size
            + s.region_vertices.size)


def dump_case(case):
    """``(result, cfg)`` of one case of the streamed-dump differential test."""
    exact = ReachConfig()
    if case == "overflow":
        # the net of test_verify_overflow_is_never_safe at 1e200
        s = 1e200
        net = Network((
            LayerDesc("affine", 2, 3, s * np.array([[1, 0], [0, 1], [1, -1]]),
                      np.zeros(3)),
            LayerDesc("relu", 3, 3),
            LayerDesc("affine", 3, 2, np.array([[s, s, 1], [1, -s, s]]),
                      np.array([1.0, 0.0]))), 2, ("a", "b"))
        with np.errstate(over="ignore", invalid="ignore"):
            sets = reach(net, InputSpec(np.zeros(2), (0, 1), 1.0), exact).sets
        v = np.concatenate([s.vertices for s in sets])
        assert np.isposinf(v).any() and np.isneginf(v).any()
        return fixed_result(sets), exact
    if case == "signed_zero_and_nan":
        box = build_box_lattice([-0.0, -1.0], [0.0, 1.0])
        odd = np.array([[-0.0, np.nan], [0.0, -np.nan], [np.inf, -0.0],
                        [-np.inf, 5e-324]])
        return fixed_result([box, LatticeSet(box.lattice, odd, odd)]), exact
    if case == "wide_face":
        return fixed_result([polygon(70), polygon(3)]), exact

    net, spec = random_toy_net(22)
    sets = reach(net, spec, exact).sets
    assert len(sets) == 65
    if case == "truncated":
        return fixed_result([], True), exact
    if case == "one_set":
        return fixed_result(sets[:1]), ReachConfig(mode="fast",
                                                   relaxation=0.3)
    if case == "exact_run":
        return fixed_result(sets), exact
    # the first chunk closes after the first `full` sets
    full = int(np.searchsorted(
        np.cumsum([dump_values(s) for s in sets]), DUMP_CHUNK_VALUES, "right"))
    n = full + {"chunk_below": -1, "chunk_at": 0, "chunk_above": 1}[case]
    assert len(list(sets_json(sets[:n]))) == (2 if n > full else 1)
    return fixed_result(sets[:n]), exact


@pytest.mark.parametrize("case", [
    "truncated", "one_set", "exact_run", "chunk_below", "chunk_at",
    "chunk_above", "overflow", "signed_zero_and_nan", "wide_face"])
def test_streamed_dump_is_the_whole_document(tmp_path, case):
    res, cfg = dump_case(case)
    out = tmp_path / "R.json"
    _write_result(out, res, cfg)
    assert out.read_text() == json.dumps(
        result_to_dict(res, cfg.mode, cfg.relaxation))
    assert [p.name for p in tmp_path.iterdir()] == ["R.json"]


@pytest.mark.parametrize("before", [None, "old dump"])
def test_failed_dump_leaves_out_untouched(tmp_path, monkeypatch, before):
    net, spec = random_toy_net(5)
    res = fixed_result(reach(net, spec, ReachConfig()).sets)
    out = tmp_path / "R.json"
    if before is not None:
        out.write_text(before)
    calls = []
    chunk_json = latreach.lattice._chunk_json

    def second_chunk_fails(sets):
        calls.append(sets)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        return chunk_json(sets)

    monkeypatch.setattr(latreach.lattice, "_chunk_json", second_chunk_fails)
    with pytest.raises(RuntimeError, match="disk full"):
        _write_result(out, res, ReachConfig())
    assert len(calls) == 2
    if before is None:
        assert not out.exists()
    else:
        assert out.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if before is None else ["R.json"])


@pytest.mark.parametrize("target", ["missing_dir", "a_dir"])
def test_unwritable_out_names_out(tmp_path, capsys, target):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "nodir" / "R.json"
    if target == "a_dir":
        out = tmp_path / "R.json"
        out.mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(["reach", "--model", model, "--input", x, "--pixels",
                        "0,1", "--epsilon", "1.0", "--out", str(out)], capsys)
    assert code == 4 and err.strip().endswith(f"directory: {str(out)!r}")
    assert sorted(tmp_path.rglob("*")) == before


def reach_quadrants(tmp_path, capsys):
    model = model_relu_quadrants(tmp_path)
    x = baseline_csv(tmp_path, [0.0, 0.0])
    out = tmp_path / "R.json"
    code, _, _ = run(["reach", "--model", model, "--input", x, "--pixels",
                      "0,1", "--epsilon", "1.0", "--out", str(out)], capsys)
    assert code == 0
    return out


def backtrack_and_project(dump, tmp_path, capsys):
    """Every command's exit code and output on one dump."""
    got = []
    for sid in range(4):
        got.append(run(["backtrack", "--result", str(dump), "--set-id",
                        str(sid), "--constraint", "1-0>=0"], capsys))
    csv_path = tmp_path / "p.csv"
    code, stdout, err = run(["project", "--result", str(dump), "--axes",
                             "0,1", "--out", str(csv_path)], capsys)
    got.append((code, stdout.replace(str(csv_path), "P"), err))
    got.append(csv_path.read_text())
    return got


def test_dump_reader_takes_any_layout(tmp_path, capsys):
    out = reach_quadrants(tmp_path, capsys)
    want = backtrack_and_project(out, tmp_path, capsys)
    assert [g[0] for g in want[:5]] == [0] * 5
    doc = json.loads(out.read_text())
    sets_last = {k: v for k, v in doc.items() if k != "sets"}
    sets_last["sets"] = doc["sets"]
    for text in (json.dumps(doc, indent=2), json.dumps(sets_last),
                 json.dumps(sets_last, indent="\t", separators=(" ,", " : "))):
        again = tmp_path / "again.json"
        again.write_text(text)
        assert backtrack_and_project(again, tmp_path, capsys) == want


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_dump_reader_window_sizes(tmp_path, capsys, monkeypatch, chunk):
    # values cut at every place by the read window, numbers included
    out = reach_quadrants(tmp_path, capsys)
    sets = json.loads(out.read_text())["sets"]
    doc = {"set_count": 4, "wall_time_s": 0.125,
           "other": [1.5e-07, {"sets": None}], "sets": sets, "truncated": 12}
    out.write_text(json.dumps(doc, indent=1))
    monkeypatch.setattr(latreach.engine, "_CHUNK", chunk)
    assert list(iter_set_records(out)) == sets


@pytest.mark.parametrize("cut", ["after_set_0", "half", "last_byte",
                                 "trailing", "no_sets"])
def test_cut_dump_exits_4(tmp_path, capsys, cut):
    out = reach_quadrants(tmp_path, capsys)
    text = out.read_text()
    doc = json.loads(text)
    del doc["sets"]
    text = {"after_set_0": text[:text.index('}, {"faces"') + 1],
            "half": text[:len(text) // 2], "last_byte": text[:-1],
            "trailing": text + ' {"sets": []}',  # data after the closing brace
            "no_sets": json.dumps(doc)}[cut]
    out.write_text(text)
    want = ("error: result dump has no 'sets' array" if cut == "no_sets"
            else "line 1 column")
    code, _, err = run(["backtrack", "--result", str(out), "--set-id", "0",
                        "--constraint", "1-0>=0"], capsys)
    assert code == 4 and want in err
    code, _, err = run(["project", "--result", str(out), "--axes", "0,1",
                        "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 4 and want in err


@pytest.mark.parametrize("fault, message", [
    ("sets_prefix", "has 2 'sets' keys"),
    ("sets_suffix", "has 2 'sets' keys"),
    ("sets_null", "'sets' value is not an array"),
    ("sets_object", "'sets' value is not an array")])
def test_dump_without_one_sets_array_exits_4(tmp_path, capsys, fault,
                                             message):
    # json.loads reads each of these without error: a repeated key keeps
    # its last value
    out = reach_quadrants(tmp_path, capsys)
    text = out.read_text()
    first = json.dumps(json.loads(text)["sets"][:1])
    text = {"sets_prefix": '{"sets": ' + first + ", " + text[1:],
            "sets_suffix": text[:-1] + ', "sets": ' + first + "}",
            "sets_null": '{"sets": null}',
            "sets_object": '{"sets": {"0": 1}}'}[fault]
    out.write_text(text)
    json.loads(text)
    code, stdout, err = run(["backtrack", "--result", str(out), "--set-id",
                             "0", "--constraint", "1-0>=0"], capsys)
    assert (code, stdout) == (4, "") and message in err
    code, stdout, err = run(["project", "--result", str(out), "--axes",
                             "0,1", "--out", str(tmp_path / "p.csv")], capsys)
    assert (code, stdout) == (4, "") and message in err
    assert not (tmp_path / "p.csv").exists()


def test_empty_dump_set_id_out_of_range(tmp_path, capsys):
    dump = write(tmp_path / "R.json", '{"sets": []}')
    code, _, err = run(["backtrack", "--result", dump, "--set-id", "0",
                        "--constraint", "1-0>=0"], capsys)
    assert code == 4 and "set id 0 out of range (0 sets)" in err
    code, stdout, _ = run(["project", "--result", dump, "--axes", "0,1",
                           "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 0 and json.loads(stdout)["sets"] == 0


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dump_write_and_read_hold_no_whole_document(tmp_path):
    # 155 exact sets, a 1 MB dump: the write must not hold a tree of the
    # whole document, nor the read the whole text next to such a tree
    net, spec = random_toy_net(281)
    res = reach(net, spec, ReachConfig())
    assert res.set_count == 155
    out = tmp_path / "R.json"
    peak = traced_peak(_write_result, out, res, ReachConfig())
    size = out.stat().st_size
    assert peak < size
    k = 100
    peak = traced_peak(_read_sets, out, k)
    assert peak < 2 * size
    s, = _read_sets(out, k)
    assert np.array_equal(s.vertices, res.sets[k].vertices)
    assert np.array_equal(s.region_vertices, res.sets[k].region_vertices)


@pytest.fixture(scope="module")
def quadrants_dump(tmp_path_factory):
    """The text of the 4-set dump of ``reach_quadrants``."""
    tmp = tmp_path_factory.mktemp("quadrants")
    out = tmp / "R.json"
    with redirect_stdout(io.StringIO()):
        assert main(["reach", "--model", model_relu_quadrants(tmp), "--input",
                     baseline_csv(tmp, [0.0, 0.0]), "--pixels", "0,1",
                     "--epsilon", "1.0", "--out", str(out)]) == 0
    return out.read_text()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(where=st.floats(0, 1), op=st.sampled_from(["insert", "delete",
                                                  "replace", "cut"]),
       c=st.sampled_from('0123456789-+.eE,[]{}": \t\n\r\\uNaIfinty\x01'),
       chunk=st.sampled_from([1, 7, 64, 1 << 16]), set_id=st.integers(0, 3),
       indent=st.sampled_from([None, 1]))
def test_malformed_dump_gives_json_loads_message(
        quadrants_dump, tmp_path_factory, where, op, c, chunk, set_id,
        indent):
    # one-character edits of the dump, as written or one line per value,
    # read through windows of several sizes: the first error is reported
    # from the stream with json.loads' message, line and column
    text = quadrants_dump
    if indent:
        text = json.dumps(json.loads(text), indent=indent)
    i = int(where * len(text))
    text = {"insert": text[:i] + c + text[i:],
            "delete": text[:i] + text[i + 1:],
            "replace": text[:i] + c + text[i + 1:], "cut": text[:i]}[op]
    try:
        json.loads(text)
        return
    except json.JSONDecodeError as e:
        want = f"error: {e}"
    tmp = tmp_path_factory.getbasetemp()
    dump = tmp / "edited.json"
    with open(dump, "w", newline="") as f:
        f.write(text)
    for argv in (["backtrack", "--result", str(dump), "--set-id",
                  str(set_id), "--constraint", "1-0>=0"],
                 ["project", "--result", str(dump), "--axes", "0,1",
                  "--out", str(tmp / "p.csv")]):
        err = io.StringIO()
        with mock.patch.object(latreach.engine, "_CHUNK", chunk), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue().strip()) == (4, want), argv[0]


@pytest.mark.parametrize("chunk", [1, 1 << 16])
@pytest.mark.parametrize("old,new", [("], ", ", ], "), ("], ", ",\n\n], "),
                                     ("false}", "false,}"),
                                     ("false}", "false, \r\n }")])
def test_trailing_comma_gives_json_loads_message(quadrants_dump, tmp_path,
                                                  capsys, old, new, chunk):
    # a comma before the end of the sets array or of the dump: the words
    # and place of the running json, which Python 3.13 changed
    text = new.join(quadrants_dump.rsplit(old, 1))
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    dump = tmp_path / "R.json"
    dump.write_bytes(text.encode())
    for argv in (["backtrack", "--result", str(dump), "--set-id", "3",
                  "--constraint", "1-0>=0"],
                 ["project", "--result", str(dump), "--axes", "0,1",
                  "--out", str(tmp_path / "p.csv")]):
        with mock.patch.object(latreach.engine, "_CHUNK", chunk):
            code, stdout, err = run(argv, capsys)
        assert (code, stdout, err.strip()) == (4, "", f"error: {want.value}")


def read_error_peak(path, *args):
    """Peak traced bytes of ``_read_sets(path, *args)`` and the message of
    the JSONDecodeError it raises."""
    tracemalloc.start()
    try:
        with pytest.raises(json.JSONDecodeError) as e:
            _read_sets(path, *args)
        return tracemalloc.get_traced_memory()[1], str(e.value)
    finally:
        tracemalloc.stop()


def test_malformed_dump_costs_what_a_good_one_does(tmp_path):
    # a 4 MB dump, cut near its end or with one delimiter broken halfway:
    # the error is found in the stream, not by reading the file once more
    net, spec = random_toy_net(281)
    sets = reach(net, spec, ReachConfig()).sets * 4
    good = tmp_path / "R.json"
    _write_result(good, fixed_result(sets), ReachConfig())
    text = good.read_text()
    half = text.index("], [", len(text) // 2)
    for bad in (text[:-len(text) // 20], text[:half + 1] + text[half + 2:]):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(bad)
        cut = tmp_path / "cut.json"
        cut.write_text(bad)
        for args in ((300,), ()):  # backtrack's read, then project's
            peak, message = read_error_peak(cut, *args)
            assert message == str(want.value)
            assert peak < 2 * traced_peak(_read_sets, good, *args)
        assert read_error_peak(cut, 300)[0] < len(text) / 4


def test_backtrack_decodes_only_its_record(tmp_path, monkeypatch):
    net, spec = random_toy_net(5)
    res = reach(net, spec, ReachConfig())
    out = tmp_path / "R.json"
    _write_result(out, res, ReachConfig())
    records = json.loads(out.read_text())["sets"]
    assert len(records) == 17
    assert max(len(json.dumps(r)) for r in records) < latreach.engine._CHUNK
    starts = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, s, idx=0):
        if s[idx] == "{":
            starts.append(idx)
        return raw_decode(self, s, idx)

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    s, = _read_sets(out, 9)
    assert np.array_equal(s.vertices, res.sets[9].vertices)
    assert len(starts) == 1
    starts.clear()
    assert len(_read_sets(out)) == 17
    assert len(starts) == 17

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


def test_project_second_highest_axis(tmp_path, capsys):
    # logits (x0 - x1, x0, x1) over [0.1, 0.9]^2: against class 0, the
    # highest other logit is x0 at some corners and x1 at others
    model = write(tmp_path / "three.json", json.dumps(
        {"input_width": 2, "labels": ["a", "b", "c"],
         "layers": [{"kind": "affine", "W": [[1, -1], [1, 0], [0, 1]],
                     "b": [0, 0, 0]}]}))
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input",
         baseline_csv(tmp_path, [0.5, 0.5]), "--pixels", "0,1",
         "--epsilon", "0.4", "--out", str(out)], capsys)
    csv_path = tmp_path / "p.csv"
    code, _, _ = run(["project", "--result", str(out), "--axes",
                      "class:0,second", "--out", str(csv_path)], capsys)
    assert code == 0
    with open(csv_path, newline="") as f:
        got = np.array([[float(x), float(y)]
                        for _, _, x, y in list(csv.reader(f))[1:]])
    V = np.array(json.loads(out.read_text())["sets"][0]["vertices"])
    corners = np.column_stack((V[:, 0], V[:, 1:].max(axis=1)))
    # every hull point is a corner's (logit 0, highest other logit)
    assert all(np.isclose(corners, p).all(axis=1).any() for p in got)
    assert np.allclose(sorted(got.tolist()),
                       [[-0.8, 0.9], [0.0, 0.1], [0.8, 0.9]])


def test_project_axis_errors(tmp_path, capsys):
    model = model_identity2(tmp_path)
    x = baseline_csv(tmp_path, [0.6, 0.3])
    out = tmp_path / "R.json"
    run(["reach", "--model", model, "--input", x, "--pixels", "0,1",
         "--epsilon", "0.1", "--out", str(out)], capsys)
    csv_path = tmp_path / "p.csv"
    code, _, err = run(["project", "--result", str(out), "--axes",
                        "0,second", "--out", str(csv_path)], capsys)
    assert code == 4 and "second" in err
    code, _, _ = run(["project", "--result", str(out), "--axes", "0",
                      "--out", str(csv_path)], capsys)
    assert code == 4
    # malformed axes and indices outside the 2 logits, negative ones too,
    # fail before --out is opened
    for axes in ["0,x", "0,5", "-1,0", "class:-1,0", "class:2,second",
                 "0,1,0"]:
        code, _, err = run(["project", "--result", str(out),
                            f"--axes={axes}", "--out", str(csv_path)],
                           capsys)
        assert code == 4 and err.startswith("error:"), axes
        assert not csv_path.exists(), axes
    # an index that is not an integer names the option
    for axes in ["0,x", "class:x,second"]:
        code, _, err = run(["project", "--result", str(out),
                            f"--axes={axes}", "--out", str(csv_path)],
                           capsys)
        assert code == 4 and "--axes takes integers, got 'x'" in err, axes
    # a malformed axis fails before the dump is read
    for axes in ["0,second", "0,x", "0"]:
        code, _, err = run(["project", "--result", str(tmp_path / "no.json"),
                            f"--axes={axes}", "--out", str(csv_path)], capsys)
        assert code == 4 and "no.json" not in err, axes
    code, _, _ = run(["project", "--result", str(out), "--axes", "0,1",
                      "--out", str(csv_path)], capsys)
    assert code == 0
    # an earlier --out survives a later failed projection unchanged
    before = csv_path.read_bytes()
    code, _, err = run(["project", "--result", str(out), "--axes=0,5",
                        "--out", str(csv_path)], capsys)
    assert code == 4 and "out of range" in err
    assert csv_path.read_bytes() == before
    # one logit leaves nothing for second_highest to rank
    one = write(tmp_path / "one.json", json.dumps(
        {"input_width": 1, "labels": ["a"],
         "layers": [{"kind": "affine", "W": [[1.0]], "b": [0.0]}]}))
    run(["reach", "--model", one, "--input", baseline_csv(tmp_path, [0.5]),
         "--pixels", "0", "--epsilon", "0.1", "--out", str(out)], capsys)
    code, _, err = run(["project", "--result", str(out), "--axes",
                        "class:0,second", "--out", str(csv_path)], capsys)
    assert code == 4 and "second" in err
    assert csv_path.read_bytes() == before


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


@pytest.mark.parametrize("command", ["verify", "falsify"])
def test_one_label_model_exits_4(tmp_path, capsys, command):
    # a model file may hold one label, but no verdict can be wrong
    doc = {"input_width": 2, "labels": ["a"],
           "layers": [{"kind": "affine", "W": [[1, 1]], "b": [0]}]}
    model = write(tmp_path / "one.json", json.dumps(doc))
    x = baseline_csv(tmp_path, [0.5, 0.5])
    argv = {"verify": verify_args(model, x, 0.1),
            "falsify": ["falsify", "--model", model, "--image", x,
                        "--epsilon", "0.1", "--max-pixels", "2"]}[command]
    code, stdout, err = run(argv, capsys)
    noun = {"verify": "verification", "falsify": "falsification"}[command]
    assert (code, stdout) == (4, "")
    assert err.strip() == f"error: {noun} needs at least two classes"


def test_dump_with_a_non_string_key_exits_4(tmp_path, capsys):
    # the streamed reader fails with json.loads' own message
    text = '{"mode": "exact", 1: 2, "sets": []}'
    dump = write(tmp_path / "R.json", text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    code, stdout, err = run(["backtrack", "--result", dump, "--set-id", "0",
                             "--constraint", "1-0>=0"], capsys)
    assert (code, stdout) == (4, "")
    assert err.strip() == f"error: {want.value}"
    code, stdout, err = run(["project", "--result", dump, "--axes", "0,1",
                             "--out", str(tmp_path / "p.csv")], capsys)
    assert (code, stdout) == (4, "") and err.strip() == f"error: {want.value}"


@pytest.mark.parametrize("text", ["", "\ufeff{\"sets\": []}", "[1, 2",
                                  '{"sets": []} x', '{"sets": [1 2]}',
                                  '{"sets": [],\r\n "x": tru}'])
def test_dump_top_level_errors_are_json_loads_own(tmp_path, capsys, text):
    # the reader's own walk of the top level words and places its errors as
    # json.loads does, a byte order mark and \r\n line ends included
    dump = tmp_path / "R.json"
    dump.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    code, stdout, err = run(["backtrack", "--result", str(dump), "--set-id",
                             "0", "--constraint", "1-0>=0"], capsys)
    assert (code, stdout, err.strip()) == (4, "", f"error: {want.value}")


def test_dump_that_is_no_object_exits_4(tmp_path, capsys):
    dump = write(tmp_path / "R.json", " [1, 2]")
    code, _, err = run(["project", "--result", dump, "--axes", "0,1",
                        "--out", str(tmp_path / "p.csv")], capsys)
    assert (code, err.strip()) == (
        4, "error: Expecting '{': line 1 column 2 (char 1)")


def test_falsify_shape_must_match_the_input_width(tmp_path):
    # the CLI checks --shape against the image first, so only a library
    # caller reaches this check
    net = latreach.load_model(model_two_pixel_race(tmp_path))
    with pytest.raises(ModelError,
                       match=r"shape \(1, 2, 3\) does not match input width 4"):
        latreach.cli.falsify(net, [0.9, 0.5, 0.5, 0.2], 0.5, 1.0, 4,
                             shape=(1, 2, 3))


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
