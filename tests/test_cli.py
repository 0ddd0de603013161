import json

import numpy as np
import pytest

from manhattan_slam.cli import main
from manhattan_slam.geometry import PointCloud
from manhattan_slam.mapping import PlaneMap, save_map
from manhattan_slam.pipeline import write_scans_dir
from manhattan_slam.simulator import (
    LidarConfig,
    raycast_scan,
    standard_scene,
)


@pytest.fixture()
def room_scans_dir(tmp_path):
    scene, spec = standard_scene("room")
    cfg = LidarConfig(points_per_scan=2500, channels=32, vertical_fov_deg=120)
    clouds = [raycast_scan(scene, spec.waypoints[0], cfg, frame_id=k)
              for k in range(3)]
    d = tmp_path / "scans"
    write_scans_dir(d, clouds)
    return d


def test_run_from_scans_dir(room_scans_dir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scans-dir", str(room_scans_dir), "--out", str(out)])
    assert rc == 0
    assert (out / "map.json").exists()
    assert (out / "trajectory.txt").exists()
    assert (out / "report.json").exists()
    assert (out / "graph.txt").exists()
    assert (out / "plots" / "map_corners.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["n_frames"] == 3


def test_plan_and_metrics(room_scans_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scans-dir", str(room_scans_dir),
                 "--out", str(out)]) == 0
    tree_path = tmp_path / "tree.json"
    rc = main(["plan", "--map", str(out / "map.json"), "--out", str(tree_path),
               "--start", "0,0,1.1", "--n-nodes", "50", "--step", "0.4",
               "--seed", "1"])
    assert rc == 0
    tree = json.loads(tree_path.read_text())
    assert len(tree["nodes"]) == 50
    assert tree_path.with_suffix(".edges.csv").exists()


def test_metrics_output_shape(room_scans_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scans-dir", str(room_scans_dir),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["metrics", "--est", str(out / "trajectory.txt"),
               "--gt", str(out / "trajectory.txt")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rmse_translation"] == 0.0


def test_error_is_machine_readable(tmp_path, capsys):
    rc = main(["run", "--scans-dir", str(tmp_path / "void"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def test_bad_config_rejected(room_scans_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "extraction": {"bogus": 1}}))
    rc = main(["run", "--scans-dir", str(room_scans_dir),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_mistyped_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps({"extraction": {"max_edge": "2"}}))
    rc = main(["run", "--scans-dir", str(tmp_path / "void"),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and "max_edge" in err["message"]


def test_plan_on_empty_map_names_the_map(tmp_path, capsys):
    map_path = tmp_path / "empty.json"
    save_map(map_path, PlaneMap())
    rc = main(["plan", "--map", str(map_path), "--out",
               str(tmp_path / "tree.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PipelineError" and "no planes" in err["message"]


@pytest.mark.parametrize("doc", [{"extraction": 5}, {"mapping": None}, [1, 2]])
def test_config_section_not_an_object_rejected(doc, tmp_path, capsys):
    cfg = tmp_path / "sections.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["run", "--scans-dir", str(tmp_path / "void"),
               "--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    if isinstance(doc, dict):
        assert next(iter(doc)) in err["message"]


def test_plan_on_malformed_map_names_the_problem(tmp_path, capsys):
    plane = {"center": [0, 0, 0], "span_x": [1, 0, 0], "span_y": [0, 1, 0]}
    docs = {"span_x": {"planes": [{"center": plane["center"],
                                   "span_y": plane["span_y"]}]},
            "'planes' list": {"planes": 5},
            "JSON object": [plane]}
    for k, (problem, doc) in enumerate(docs.items()):
        map_path = tmp_path / f"map{k}.json"
        map_path.write_text(json.dumps(doc))
        rc = main(["plan", "--map", str(map_path), "--out",
                   str(tmp_path / "tree.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MapFormatError" and problem in err["message"]


@pytest.mark.parametrize("flags, flag", [
    (["--bounds", "0,0,0,1,1"], "--bounds"),
    (["--bounds", "0,0,0,1,x,1"], "--bounds"),
    (["--bounds", "0,0,0,1,inf,1"], "--bounds"),
    (["--bounds", "0,0,0,1,-1,1"], "--bounds"),
    (["--start", "0,0"], "--start"),
    (["--start", "0,nan,1"], "--start"),
])
def test_plan_names_the_bad_flag(flags, flag, tmp_path, capsys):
    map_path = tmp_path / "empty.json"
    save_map(map_path, PlaneMap())
    rc = main(["plan", "--map", str(map_path), "--out", str(tmp_path / "tree.json"),
               "--bounds=-1,-1,-1,1,1,1", *flags])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and flag in err["message"]
