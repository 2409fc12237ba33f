import json
import math
import os
from pathlib import Path

import pytest

from steiner_ladder import cli
from steiner_ladder.cli import main
from steiner_ladder.ladder import LadderParams, build_ladder_tree_A0, build_ladder_tree_A1
from steiner_ladder.serialization import (
    InstanceFormatError,
    instance_from_json,
    instance_to_json,
    svg_render,
    tree_from_json,
    tree_to_json,
)
from steiner_ladder.trees import TERMINAL, EmbeddedTree, TerminalSet

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SQRT3 = math.sqrt(3)


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_square(tmp_path, capsys):
    out = tmp_path / "tree.json"
    fig = tmp_path / "tree.svg"
    code, stdout = run(
        capsys, "solve", fixture("square.json"), "--out", str(out), "--render", str(fig)
    )
    assert code == 0
    rec = json.loads(stdout)
    assert float(rec["length"]) == pytest.approx(1 + SQRT3, abs=1e-9)
    assert rec["co_optima"] == 2
    tree = tree_from_json(out.read_text())
    assert tree.length == pytest.approx(1 + SQRT3, abs=1e-9)
    assert fig.read_text().startswith("<svg")


def test_solve_five_point_block_is_full(tmp_path, capsys):
    out = tmp_path / "tree.json"
    code, stdout = run(capsys, "solve", fixture("a5.json"), "--out", str(out))
    assert code == 0
    tree = tree_from_json(out.read_text())
    deg = tree.degrees()
    assert all(deg[i] == 1 for i, r in enumerate(tree.roles) if r == TERMINAL)
    assert sum(1 for r in tree.roles if r == "steiner") == 3


def test_solve_rejects_the_removed_workers_flag(tmp_path, capsys):
    out = tmp_path / "tree.json"
    with pytest.raises(SystemExit) as exc:
        main(["solve", fixture("a5.json"), "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_solve_two_points(tmp_path, capsys):
    out = tmp_path / "tree.json"
    code, stdout = run(capsys, "solve", fixture("two_points.json"), "--out", str(out))
    assert code == 0
    assert float(json.loads(stdout)["length"]) == pytest.approx(5.0, abs=1e-12)


def test_solve_rejects_segment_instances(tmp_path, capsys):
    code, _ = run(
        capsys, "solve", fixture("a0_family.json"), "--out", str(tmp_path / "t.json")
    )
    assert code == 3


def test_solve_rejects_oversized(tmp_path, capsys):
    ts = TerminalSet.of([complex(k, (k * k) % 5) for k in range(10)])
    inst = tmp_path / "big.json"
    inst.write_text(instance_to_json(ts))
    code, _ = run(capsys, "solve", str(inst), "--out", str(tmp_path / "t.json"))
    assert code == 3


@pytest.mark.parametrize("tol", ["-1", "nan", "-1e-12"])
def test_solve_rejects_bad_tol(tmp_path, capsys, tol):
    out = tmp_path / "t.json"
    code = main(["solve", fixture("square.json"), "--out", str(out), f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "fixture_name, path, value",
    [
        ("a0_family.json", ["family", "depth"], "x"),
        ("a0_family.json", ["family", "depth"], None),
        ("a0_family.json", ["family", "depth"], 2.5),
        ("a0_family.json", ["family"], ["A0", 4]),
        ("a0_family.json", ["family"], "A0"),
        ("a5.json", ["segment"], 5),
        ("a5.json", ["segment"], "A1"),
        ("a5.json", ["segment"], ["A1"]),
        ("a5.json", ["segment"], ["A1", "A2", "A3"]),
        ("a5.json", ["terminals", 0, "label"], ["A", 1]),
        ("a5.json", ["terminals", 0, "label"], 7),
    ],
    ids=[
        "depth-string", "depth-null", "depth-float", "family-list", "family-string",
        "segment-number", "segment-string", "segment-one-label", "segment-three-labels",
        "label-list", "label-number",
    ],
)
def test_solve_malformed_instance_exits_2(tmp_path, capsys, fixture_name, path, value):
    doc = json.loads(Path(fixture(fixture_name)).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "t.json"
    code = main(["solve", str(inst), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert not out.exists()


def test_solve_bad_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "solve", str(bad), "--out", str(tmp_path / "t.json"))
    assert code == 2
    code, _ = run(capsys, "solve", str(tmp_path / "missing.json"), "--out", str(tmp_path / "t.json"))
    assert code == 2


def test_construct_a0_record(tmp_path, capsys):
    out = tmp_path / "a0.json"
    code, stdout = run(
        capsys,
        "construct", "--family", "A0", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
        "--depth", "20", "--out", str(out),
    )
    assert code == 0
    rec = json.loads(stdout)
    closed = float(rec["closed_form"])
    maxwell = float(rec["maxwell"])
    tail = float(rec["tail_bound"])
    assert abs(float(rec["length"]) - closed) <= 1e-6 + tail
    assert abs(maxwell - closed) <= 1e-6 + tail
    assert rec["classification"] == "full"


def test_construct_a1_reports_blocks(tmp_path, capsys):
    out = tmp_path / "a1.json"
    code, stdout = run(
        capsys,
        "construct", "--family", "A1", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
        "--depth", "9", "--word", "0101", "--out", str(out),
    )
    assert code == 0
    rec = json.loads(stdout)
    assert len(rec["blocks"]) == 4
    assert all(len(b) == 5 for b in rec["blocks"])


def test_construct_inadmissible_exits_4(tmp_path, capsys):
    code, _ = run(
        capsys,
        "construct", "--family", "A0", "--alpha", repr(math.pi / 6), "--lambda", "0.5",
        "--depth", "5", "--out", str(tmp_path / "t.json"),
    )
    assert code == 4


@pytest.mark.parametrize(
    "extra",
    [
        ["--periodic", "13"],
        ["--periodic", "2", "--tree-out", "t.json", "--depth", "-3"],
        ["--periodic", "2", "--steps", "6", "--tree-out", "t.json", "--depth", "0"],
        ["--t0", "0.3", "--steps", "-5"],
        ["--t0", "nan"],
        ["--t0", "7"],
        ["--beta", "nan", "--t0", "0.3"],
    ],
    ids=["period-13", "negative-depth", "zero-depth", "negative-steps", "t0-nan", "t0-above-one",
         "beta-nan"],
)
def test_dynamics_parameter_error_exits_4(tmp_path, monkeypatch, capsys, extra):
    monkeypatch.chdir(tmp_path)
    code = main(["dynamics", "--alpha", "0.0872664626", "--lambda", "0.5", "--out", "o.csv"]
                + extra)
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["region", "--alpha-steps", "-3"],
        ["render", "{tree}", "--width", "0"],
    ],
    ids=["region-negative-steps", "render-zero-width"],
)
def test_nonpositive_size_exits_4(tmp_path, capsys, argv):
    tree = tmp_path / "t.json"
    tree.write_text(tree_to_json(EmbeddedTree.build([0, 1], [TERMINAL, TERMINAL], [(0, 1)])))
    out = tmp_path / "out"
    code = main([a.format(tree=tree) for a in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out.exists()


def test_dynamics_deep_periodic_tree(tmp_path, capsys):
    tree_out = tmp_path / "t.json"
    code, _ = run(
        capsys,
        "dynamics", "--alpha", "0.0872664626", "--lambda", "0.5", "--periodic", "2",
        "--steps", "1100", "--out", str(tmp_path / "o.csv"), "--tree-out", str(tree_out),
    )
    assert code == 0
    assert tree_from_json(tree_out.read_text()).length > 0


def test_dynamics_periodic_csv(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code, _ = run(
        capsys,
        "dynamics", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
        "--periodic", "2", "--steps", "6", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,nu_k,mu_k,branch"
    nus = [float(line.split(",")[1]) for line in lines[1:]]
    for j, v in enumerate(nus):
        assert v == pytest.approx(1 / 6 if j % 2 == 0 else 5 / 6, abs=1e-12)


def test_dynamics_escape_status_row(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code, _ = run(
        capsys,
        "dynamics", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
        "--t0", "0.4", "--direction", "forward", "--steps", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[-1].endswith(",escaped")


def test_dynamics_tree_out_round_trip(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    tree_out = tmp_path / "net.json"
    code, _ = run(
        capsys,
        "dynamics", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
        "--beta", repr(math.pi / 72), "--t0", "0.37", "--steps", "40",
        "--out", str(out), "--tree-out", str(tree_out), "--depth", "8",
    )
    assert code == 0
    tree = tree_from_json(tree_out.read_text())
    assert tree.length > 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 42  # header + 41 orbit rows


def test_region_csv(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code, _ = run(
        capsys, "region", "--alpha-steps", "12", "--lambda-steps", "12", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,lambda,condition,separation"
    assert len(lines) == 1 + 12 * 12
    for line in lines[1:]:
        _a, _l, cond, sep = line.split(",")
        if cond == "1":
            assert sep == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--alpha", repr(math.pi / 36), "--lambda", "0.5",
         "--periodic", "2", "--steps", "6", "--out", "orbit.csv"],
        ["region", "--alpha-steps", "3", "--lambda-steps", "3", "--out", "region.csv"],
    ],
    ids=["dynamics", "region"],
)
def test_record_reports_measured_wall_time(tmp_path, capsys, monkeypatch, argv):
    ticks = iter([100.0, 102.5])
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks))
    argv = argv[:-1] + [str(tmp_path / argv[-1])]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["wall_time_s"] == 2.5


def test_render_deterministic(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    code, _ = run(capsys, "solve", fixture("square.json"), "--out", str(tree_path))
    assert code == 0
    s1 = tmp_path / "a.svg"
    s2 = tmp_path / "b.svg"
    for target in (s1, s2):
        code, _ = run(
            capsys, "render", str(tree_path), "--out", str(target),
            "--instance", fixture("square.json"),
        )
        assert code == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_render_empty_tree(tmp_path, capsys):
    empty = EmbeddedTree.build([], [], [])
    path = tmp_path / "empty.json"
    path.write_text(tree_to_json(empty))
    out = tmp_path / "empty.svg"
    code, _ = run(capsys, "render", str(path), "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


@pytest.mark.parametrize(
    "key, value",
    [
        ("edges", [[0, 1.7]]),
        ("edges", [["0", 1]]),
        ("edges", [[0, True]]),
        ("edges", [[0, 1, 1]]),
        ("edges", [[1, 1]]),
        ("length", "9"),
    ],
    ids=["float-index", "string-index", "bool-index", "triple", "self-loop", "wrong-length"],
)
def test_render_malformed_tree_exits_2(tmp_path, capsys, key, value):
    doc = json.loads(tree_to_json(EmbeddedTree.build([0, 1], [TERMINAL, TERMINAL], [(0, 1)])))
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "bad.svg"
    code = main(["render", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert not out.exists()


def test_tree_round_trip_bit_exact():
    params = LadderParams(math.pi / 36, 0.5, 9)
    for tree in (build_ladder_tree_A0(params, "upper"), build_ladder_tree_A1(params, "0101")):
        assert tree_from_json(tree_to_json(tree)) == tree


def test_render_failure_leaves_no_partial_file(tmp_path, capsys):
    tree_path = tmp_path / "tree.json"
    run(capsys, "solve", fixture("two_points.json"), "--out", str(tree_path))
    missing_dir = tmp_path / "nope" / "fig.svg"
    code, _ = run(capsys, "render", str(tree_path), "--out", str(missing_dir))
    assert code == 2
    assert not missing_dir.exists()


def test_instance_round_trip_bit_exact():
    text = Path(fixture("a5.json")).read_text()
    ts = instance_from_json(text)
    again = instance_from_json(instance_to_json(ts))
    assert all(complex(p) == complex(q) for p, q in zip(ts.points, again.points))
    assert ts.labels == again.labels


def test_family_descriptor_regenerates_and_validates(tmp_path):
    text = Path(fixture("a0_family.json")).read_text()
    ts = instance_from_json(text)
    assert ts.segment == ("A0", "B0")
    doc = json.loads(text)
    doc["terminals"][0]["x"] = "0.5"
    with pytest.raises(InstanceFormatError):
        instance_from_json(json.dumps(doc))


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--fast"])
    assert exc.value.code == 2
