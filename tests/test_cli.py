"""Command-line orchestration: configs, artifacts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from cageintime import ball, cli, config
from cageintime import oracle
from cageintime.config import build_ball, build_push, build_sweep, load_config

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def push_doc(out, **kw):
    doc = {
        "task": "push",
        "trajectory": {"kind": "circle", "radius_mm": 60.0, "steps": 48},
        "cage_size_mm": 20.0,
        "K": 16,
        "d_push_mm": 20.0,
        "rollouts": 3,
        "seed": 0,
        "out": out,
    }
    doc.update(kw)
    return doc


def ball_doc(out, **kw):
    doc = {
        "task": "ball",
        "mode": "balance",
        "n": 1,
        "trajectory": {"kind": "stationary", "horizon_s": 1.0},
        "rollouts": 3,
        "seed": 0,
        "out": out,
    }
    doc.update(kw)
    return doc


class TestConfigValidation:
    def test_missing_file(self, capsys):
        assert cli.main(["push", "--config", "/nonexistent.yaml"]) == 1

    def test_missing_task_field(self, tmp_path):
        path = write_config(tmp_path, "c.yaml", {"trajectory": {"kind": "circle"}})
        assert cli.main(["push", "--config", path]) == 1

    def test_unknown_trajectory_kind(self, tmp_path, capsys):
        doc = push_doc(str(tmp_path / "out"))
        doc["trajectory"] = {"kind": "spiral", "steps": 10}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: unknown trajectory kind 'spiral'")
        assert not (tmp_path / "out").exists()

    def test_missing_polyline_file(self, tmp_path):
        doc = push_doc(str(tmp_path / "out"))
        doc["trajectory"] = {"kind": "polyline", "file": "/missing.csv",
                             "spacing_mm": 5.0, "steps": 10}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["push", "--config", path]) == 1
        assert not (tmp_path / "out").exists()  # no partial artifacts

    def test_sweep_requires_grids(self, tmp_path):
        path = write_config(tmp_path, "c.yaml", {"task": "sweep", "v0_grid": []})
        assert cli.main(["sweep", "--config", path]) == 1

    def test_task_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "c.yaml", push_doc(str(tmp_path / "out")))
        assert cli.main(["ball", "--config", path]) == 1

    @pytest.mark.parametrize("task", ["push", "ball"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_rejected(self, tmp_path, capsys, task, trials):
        out = tmp_path / "out"
        doc = push_doc(str(out)) if task == "push" else ball_doc(str(out))
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([task, "--config", path, "--trials", trials]) == 1
        assert capsys.readouterr().err.startswith("error: rollouts must be at least 1")
        assert not out.exists()  # rejected before planning

    @pytest.mark.parametrize("task", ["push", "ball"])
    def test_zero_rollouts_in_config_rejected(self, tmp_path, capsys, task):
        out = tmp_path / "out"
        doc = (push_doc if task == "push" else ball_doc)(str(out), rollouts=0)
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([task, "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: rollouts must be at least 1")
        assert not out.exists()

    def test_initial_position_outside_first_cage(self, tmp_path, capsys):
        out = tmp_path / "out"
        # the first waypoint of the 60 mm circle is 60 mm from the origin
        doc = push_doc(str(out), initial_position_mm=[0.0, 0.0])
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: initial_position_mm:")
        assert not out.exists()

    @pytest.mark.parametrize("q0", [5.0, [1.0], [1.0, 2.0, 3.0], ["a", 0.0], [float("nan"), 0.0]])
    def test_malformed_initial_position(self, tmp_path, capsys, q0):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), initial_position_mm=q0))
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: initial_position_mm must be two")
        assert not out.exists()

    def test_waypoint_spacing_too_large(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = push_doc(str(out))
        # 24 steps on a 60 mm circle are 15.7 mm apart, over cage_size/2
        doc["trajectory"]["steps"] = 24
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: waypoint spacing")
        assert not out.exists()

    @pytest.mark.parametrize("task,field,value", [
        ("push", "K", 2),
        ("push", "margin_mm", 25.0),
        ("push", "steps", "many"),
        ("ball", "N", 80),
        ("ball", "n", 3),
        ("ball", "beta_max", -1.0),
        ("push", "radius_mm", None),  # a required field left out
    ])
    def test_invalid_value_rejected(self, tmp_path, capsys, task, field, value):
        out = tmp_path / "out"
        doc = (push_doc if task == "push" else ball_doc)(str(out))
        target = doc["trajectory"] if field in ("steps", "radius_mm") else doc
        if value is None:
            del target[field]
        else:
            target[field] = value
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([task, "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("mode, kind, horizon_s", [
        ("balance", "stationary", 0),
        ("balance", "stationary", 0.005),  # rounds to 0 steps of 0.02 s
        ("catch", "retreat", 0.005),
    ])
    def test_horizon_under_one_step_rejected(self, tmp_path, capsys, mode, kind, horizon_s):
        out = tmp_path / "out"
        doc = ball_doc(str(out), mode=mode, trajectory={"kind": kind, "horizon_s": horizon_s})
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: horizon_s")
        assert not out.exists()

    @pytest.mark.parametrize("mode, kind", [("balance", "stationary"), ("catch", "retreat")])
    def test_infinite_horizon_rejected(self, tmp_path, capsys, mode, kind):
        out = tmp_path / "out"
        doc = ball_doc(str(out), mode=mode, trajectory={"kind": kind, "horizon_s": float("inf")})
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: horizon_s must be finite, got inf")
        assert not out.exists()

    def test_even_smooth_window_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with open(os.path.join(CONFIGS, "ball_rice.yaml")) as fh:
            doc = yaml.safe_load(fh)
        doc["trajectory"].update(file=os.path.abspath(os.path.join(CONFIGS, "rice.csv")),
                                 smooth_window=10)
        doc["out"] = str(out)
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: smooth_window must be odd")
        assert not out.exists()

    @pytest.mark.parametrize("dv0, N, message", [
        (0.0, 81, "error: axis 0: the velocity range [0.81, 0.81] holds no cell; "
                  "the cells lie 0.025 apart"),
        (0.05, 3, "error: axis 0: the position range [-0.079, -0.071] holds no cell; "
                  "the cells lie 0.15 apart"),
    ])
    def test_empty_initial_belief_rejected(self, tmp_path, capsys, dv0, N, message):
        out = tmp_path / "out"
        doc = ball_doc(str(out), mode="catch", trajectory={"kind": "retreat"},
                       v0_m_s=0.81, dv0_m_s=dv0, N=N, half_length_m=0.15)
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"mode": "catchh"}, "error: mode must be 'balance' or 'catch', got 'catchh'"),
        ({"mode": "catch", "n": 2}, "error: a catch runs on the line: n must be 1, got 2"),
        ({"mode": "catch", "n": 2, "N": 81}, "error: a catch runs on the line: n must be 1"),
    ])
    def test_ball_mode_and_catch_dimension_rejected(self, tmp_path, capsys, fields, message):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", ball_doc(str(out), **fields))
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["render"], ["sweep", "--render"]])
    def test_sweep_render_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        doc = {"task": "sweep", "v0_grid": [0.8], "dv0_grid": [0.05],
               "beta_grid": [5.0], "trials": 1, "out": str(out)}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([*command, "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: a sweep has no frames")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("resolution_mm", float("nan")), ("d_push_mm", float("nan")),
        ("cage_size_mm", float("inf")), ("object_radius_mm", float("nan")),
        ("lambda1", float("nan")),
    ])
    def test_non_finite_push_value_rejected(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        with open(os.path.join(CONFIGS, "push_circle.yaml")) as fh:
            doc = yaml.safe_load(fh)
        doc.update({key: value, "out": str(out)})
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be finite, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("weights, message", [
        ({"lambda1": -1.0}, "lambda1 and lambda2 must be non-negative, got -1.0 and 1.0"),
        ({"lambda2": -0.5}, "lambda1 and lambda2 must be non-negative, got 1.0 and -0.5"),
        ({"lambda1": 0.0, "lambda2": 0.0}, "lambda1 and lambda2 must not both be 0"),
    ])
    def test_bad_heuristic_weights_rejected(self, tmp_path, capsys, weights, message):
        out = tmp_path / "out"
        with open(os.path.join(CONFIGS, "push_circle.yaml")) as fh:
            doc = yaml.safe_load(fh)
        doc.update(weights, out=str(out))
        path = write_config(tmp_path, "c.yaml", doc)
        with pytest.raises(ValueError) as err:
            build_push(load_config(path))
        assert str(err.value) == message
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
        # one weight at 0 is a valid heuristic
        doc.update(lambda1=0.0, lambda2=1.0)
        assert build_push(load_config(write_config(tmp_path, "c.yaml", doc)))[0].lambda1 == 0.0

    @pytest.mark.parametrize("name, key, value", [
        ("push_circle.yaml", "radius_mm", float("inf")),
        ("push_circle.yaml", "oracle_radius_mm", float("inf")),
        ("ball_lemniscate.yaml", "k_ve", float("inf")),
        ("ball_lemniscate.yaml", "amplitude_m", float("nan")),
        ("ball_catch.yaml", "beta_max", float("nan")),
        ("ball_catch.yaml", "half_length_m", float("inf")),
        ("ball_catch.yaml", "v_max_m_s", float("nan")),
        ("ball_catch.yaml", "v0_m_s", float("inf")),
        ("ball_catch.yaml", "dv0_m_s", float("nan")),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, name, key, value):
        # every config number is checked where it is read, before anything is built
        out = tmp_path / "out"
        with open(os.path.join(CONFIGS, name)) as fh:
            doc = yaml.safe_load(fh)
        doc["out"] = str(out)
        (doc["trajectory"] if key in doc["trajectory"] else doc)[key] = value
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([doc["task"], "--config", path]) == 1
        assert capsys.readouterr() == ("", f"error: {key} must be finite, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("task, key, value", [
        ("push", "K", 32.9), ("push", "K", True), ("push", "rollouts", 2.5),
        ("push", "steps", 48.5), ("ball", "rollouts", 2.5), ("ball", "N", "81"),
    ])
    def test_non_integral_count_rejected(self, tmp_path, capsys, task, key, value):
        out = tmp_path / "out"
        doc = (push_doc if task == "push" else ball_doc)(str(out))
        (doc["trajectory"] if key == "steps" else doc)[key] = value
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main([task, "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be an integer, got {value!r}")
        assert not out.exists()

    def test_integral_float_count_accepted(self, tmp_path):
        doc = push_doc(str(tmp_path / "out"), K=16.0, rollouts=3.0)
        doc["trajectory"]["steps"] = 48.0
        problem, _, rollouts, _ = build_push(load_config(write_config(tmp_path, "c.yaml", doc)))
        assert (problem.K, rollouts, len(problem.trajectory)) == (16, 3, 48)
        assert type(problem.K) is int

    def test_oracle_radius_too_small(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), oracle_radius_mm=2.0))
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: oracle_radius_mm")
        assert not out.exists()  # no plan that was never validated

    @pytest.mark.parametrize("radius", [1e9, 25.5])
    def test_oracle_radius_above_object_radius(self, tmp_path, capsys, radius):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), oracle_radius_mm=radius))
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: oracle_radius_mm must not exceed object_radius_mm 25.0, got {radius}")
        assert not out.exists()

    @pytest.mark.parametrize("task, key, value", [("push", "lambda1", True),
                                                  ("ball", "beta_max", "25.0")])
    def test_non_numeric_real_rejected(self, tmp_path, capsys, task, key, value):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", (push_doc if task == "push" else ball_doc)(
            str(out), **{key: value}))
        assert cli.main([task, "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be a number, got {value!r}")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("d_push_mm", 10**400, "d_push_mm does not fit a float"),
        ("K", 10**400, "K does not fit a 64-bit integer"),
        ("K", 2**63, "K does not fit a 64-bit integer"),
        # fits 64 bits, but numpy would refuse to size its (K,) angle array
        ("K", 2**62, f"K must be at most 2**53 = {2**53}, the largest count whose "
                     f"angle indices a float holds exactly, got {2**62}"),
    ])
    def test_number_too_large_rejected(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), **{key: value}))
        assert cli.main(["push", "--config", path]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unallocatable_push_grid_rejected(self, tmp_path, capsys):
        # a 2e9-pixel square grid: numpy refuses its 3.47 EiB at once
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), d_push_mm=1.0e9))
        assert cli.main(["push", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate") and captured.out == ""
        assert not out.exists()

    def test_unallocatable_angle_count_rejected(self, tmp_path, capsys):
        # the largest K accepted: its 64 PiB angle array cannot be allocated
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", push_doc(str(out), K=2**53))
        assert cli.main(["push", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate") and captured.out == ""
        assert not out.exists()

    def test_unallocatable_ball_path_rejected(self, tmp_path, capsys, monkeypatch):
        # the path of a 1e9 s horizon, without allocating it
        def unallocatable(*args):
            raise MemoryError

        monkeypatch.setattr(config, "ball_trajectory", unallocatable)
        out = tmp_path / "out"
        doc = ball_doc(str(out), trajectory={"kind": "stationary", "horizon_s": 1.0e9})
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()


class TestPushCommand:
    def test_success_artifacts_and_exit_zero(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, "c.yaml", push_doc(out))
        assert cli.main(["push", "--config", path]) == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert isinstance(plan, list) and {"t", "theta", "k"} <= set(plan[0])
        lines = (tmp_path / "out" / "runlog.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        assert {"t", "action", "contained", "pss_cells", "cage_center"} <= set(rec)
        rollouts = (tmp_path / "out" / "rollouts.csv").read_text().splitlines()
        assert rollouts[0] == "rollout,max_error_mm"
        assert len(rollouts) == 4

    def test_deterministic_artifacts(self, tmp_path):
        p1 = write_config(tmp_path, "a.yaml", push_doc(str(tmp_path / "o1")))
        p2 = write_config(tmp_path, "b.yaml", push_doc(str(tmp_path / "o2")))
        assert cli.main(["push", "--config", p1]) == 0
        assert cli.main(["push", "--config", p2]) == 0
        for name in ("plan.json", "runlog.jsonl", "rollouts.csv"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, name

    def test_oracle_containment_failure_exit_three(self, tmp_path, monkeypatch):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, "c.yaml", push_doc(out))

        def bad_rollout(plan, problem, q0, cfg, rng):
            return [q0], problem.cage_size + 5.0

        monkeypatch.setattr(oracle, "rollout_push_plan", bad_rollout)
        assert cli.main(["push", "--config", path]) == 3

    def test_render_writes_pgm_frames(self, tmp_path):
        out = str(tmp_path / "out")
        doc = push_doc(out)
        doc["trajectory"].update(radius_mm=30.0, steps=24)
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["render", "--config", path]) == 0
        frames = sorted(os.listdir(tmp_path / "out" / "frames"))
        assert frames and frames[0] == "frame_0000.pgm"
        data = (tmp_path / "out" / "frames" / frames[0]).read_bytes()
        assert data.startswith(b"P5\n")


class TestBallCommand:
    def test_balance_success(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, "c.yaml", ball_doc(out))
        assert cli.main(["ball", "--config", path]) == 0
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert "dtheta" in plan[0]
        rec = json.loads(
            (tmp_path / "out" / "runlog.jsonl").read_text().splitlines()[0])
        assert {"E_max", "max_E", "h", "V", "entropy", "lost_mass", "dtheta"} <= set(rec)

    def test_infeasible_catch_exit_two(self, tmp_path):
        out = str(tmp_path / "out")
        doc = ball_doc(out, mode="catch", v0_m_s=0.8, dv0_m_s=0.5, beta_max=5.0)
        doc["trajectory"] = {"kind": "retreat", "horizon_s": 3.0}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 2

    def test_render_frames_follow_the_belief(self, tmp_path):
        out = str(tmp_path / "out")
        doc = ball_doc(out, mode="catch", rollouts=1)
        doc["trajectory"] = {"kind": "retreat", "horizon_s": 0.2}
        path = write_config(tmp_path, "c.yaml", doc)
        cli.main(["ball", "--config", path, "--render"])
        frame_dir = tmp_path / "out" / "frames"
        frames = [(frame_dir / name).read_bytes() for name in sorted(os.listdir(frame_dir))]
        assert len(frames) == 10
        assert any(a != b for a, b in zip(frames, frames[1:]))

    def test_lost_mass_warnings_reach_stderr(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        # a velocity box this narrow loses belief mass on the figure-eight
        doc = ball_doc(out, v_max_m_s=0.06, rollouts=1)
        doc["trajectory"] = {"kind": "lemniscate", "amplitude_m": 0.03,
                             "steps": 251, "loops": 1, "ease": True}
        path = write_config(tmp_path, "c.yaml", doc)
        cli.main(["ball", "--config", path])
        err = capsys.readouterr().err.splitlines()
        assert err and all("lost_mass" in line and "exceeds 1e-3" in line for line in err)
        runlog = (tmp_path / "out" / "runlog.jsonl").read_text()
        assert "warning" not in runlog

    def test_all_mass_lost_exit_two(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        # a velocity box this narrow loses every belief cell on the figure-eight
        doc = ball_doc(out, v_max_m_s=0.02, rollouts=1)
        doc["trajectory"] = {"kind": "lemniscate", "amplitude_m": 0.03,
                             "steps": 51, "loops": 1, "ease": True}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path]) == 2
        stdout = capsys.readouterr().out
        prefix = "planning failed at step "
        assert stdout.startswith(prefix) and "AllMassLost" in stdout
        step = int(stdout[len(prefix):].split(":")[0])
        lines = (tmp_path / "out" / "runlog.jsonl").read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == list(range(step + 1))
        # the plan ends before the step that lost the mass
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert len(plan) == step

    def test_infeasible_action_ends_plan_and_frames(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        doc = ball_doc(out, mode="catch", dv0_m_s=0.5, beta_max=5.0, rollouts=1)
        doc["trajectory"] = {"kind": "stationary", "horizon_s": 3.0}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["ball", "--config", path, "--render"]) == 2
        stdout = capsys.readouterr().out
        prefix = "planning failed at step "
        assert stdout.startswith(prefix) and "InfeasibleAction" in stdout
        step = int(stdout[len(prefix):].split(":")[0])
        assert step > 0
        lines = (tmp_path / "out" / "runlog.jsonl").read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == list(range(step + 1))
        # the plan and the frames hold only the steps the planner took
        plan = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert len(plan) == step
        assert len(os.listdir(tmp_path / "out" / "frames")) == step

    def test_trials_flag_overrides_rollouts(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, "c.yaml", ball_doc(out))
        assert cli.main(["ball", "--config", path, "--trials", "2"]) == 0
        rows = (tmp_path / "out" / "rollouts.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2


class TestSweepCommand:
    def test_writes_csv(self, tmp_path):
        out = str(tmp_path / "out")
        doc = {
            "task": "sweep",
            "v0_grid": [0.8],
            "dv0_grid": [0.05, 0.5],
            "beta_grid": [5.0],
            "trials": 2,
            "out": out,
        }
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["sweep", "--config", path]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0] == "v0,dv0,beta_max,success_rate"
        assert len(rows) == 3

    def test_zero_trials_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {"task": "sweep", "v0_grid": [0.8], "dv0_grid": [0.05],
               "beta_grid": [5.0], "out": str(out)}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["sweep", "--config", path, "--trials", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: trials must be at least 1")
        assert not out.exists()


    @pytest.mark.parametrize("key, value, message", [
        ("beta_grid", [-1.0], "error: beta_max must be nonnegative"),
        ("horizon_s", -1, "error: horizon_s must be positive, got -1.0"),
    ])
    def test_bad_cell_rejected_before_running(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "out"
        doc = {"task": "sweep", "v0_grid": [0.8], "dv0_grid": [0.05],
               "beta_grid": [5.0], "trials": 1, "out": str(out), key: value}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["sweep", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("key, value", [
        ("K_grid", 16), ("v0_grid", 0.8), ("v0_grid", [float("nan")]),
        ("dv0_grid", [float("nan")]), ("v0_grid", [10**400]),
    ])
    def test_grid_of_non_numbers_names_its_field(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        grids = ({"circle_steps": {20: 120}, "K_grid": [16]} if key == "K_grid"
                 else {"v0_grid": [0.8], "dv0_grid": [0.05], "beta_grid": [5.0]})
        doc = {"task": "sweep", **grids, key: value, "trials": 1, "out": str(out)}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["sweep", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {key} must be a nonempty list of finite numbers, got {value!r}")
        assert captured.out == ""
        assert not out.exists()


class TestPushGridSweep:
    def grid_doc(self, out, **kw):
        return {"task": "sweep", "circle_steps": {20: 120, 30: 120}, "K_grid": [16],
                "rollouts": 100, "seed": 1000, "out": out, **kw}

    def test_writes_the_runner_rows(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, "c.yaml", self.grid_doc(str(out)))
        # --trials sets the rollouts per cell
        assert cli.main(["sweep", "--config", path, "--trials", "2"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            written = list(csv.reader(fh))
        header = ["cage", "K", "planned", "mae_mm", "max_mm", "contained"]
        problems = oracle.push_grid_cells({20.0: 120, 30.0: 120}, [16])
        rows = oracle.push_grid(problems, rollouts=2, seed=1000)
        assert written == [header, *([str(r[k]) for k in header] for r in rows)]
        assert [(r["cage"], r["K"], r["planned"]) for r in rows] == [(20.0, 16, True),
                                                                      (30.0, 16, True)]

    @pytest.mark.parametrize("fields", [
        {"v0_grid": [0.8]},  # a catch grid field as well
        {"circle_steps": None, "K_grid": None},  # neither kind
        {"K_grid": [2]},  # a cell PushProblem rejects
        {"circle_steps": [120]},  # not a mapping of cage size to steps
        {"circle_steps": {"20": 120}},  # a cage size that is not a number
        {"circle_steps": {float("nan"): 120}},  # a cage size that is not finite
        {"circle_steps": {}},  # no cage size
    ])
    def test_bad_grid_rejected_before_running(self, tmp_path, capsys, fields):
        out = tmp_path / "out"
        doc = self.grid_doc(str(out), **fields)
        doc = {k: v for k, v in doc.items() if v is not None}
        path = write_config(tmp_path, "c.yaml", doc)
        assert cli.main(["sweep", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()


def test_no_scipy_at_import():
    """The package runs on numpy and pyyaml alone; scipy is a test dependency.
    In a fresh interpreter, since this one has the test helpers' scipy."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys, cageintime, cageintime.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


class TestRepoConfigs:
    def test_all_repo_configs_load(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        builders = {"push": build_push, "ball": build_ball, "sweep": build_sweep}
        loaded = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".yaml"):
                cfg = load_config(os.path.join(root, name))
                builders[cfg.task](cfg)
                loaded.append(name)
        assert "push_grid.yaml" in loaded and "sweep.yaml" in loaded


class TestPolylineFile:
    """A polyline ``file`` is read relative to the config that names it,
    whatever the working directory."""

    def test_shipped_config_from_another_directory(self, tmp_path, monkeypatch):
        path = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "configs",
                                            "ball_rice.yaml"))
        monkeypatch.chdir(tmp_path)
        setup, traj, _ = build_ball(load_config(path))
        assert traj.shape[1] == 1 + setup.grid.n and len(traj) > 100

    def test_relative_and_absolute_files(self, tmp_path, monkeypatch):
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "pts.csv").write_text("0,0\n40,0\n40,30\n")
        doc = push_doc(str(tmp_path / "out"))
        doc["trajectory"] = {"kind": "polyline", "file": "pts.csv", "spacing_mm": 5.0}
        path = write_config(tmp_path / "cfg", "c.yaml", doc)
        monkeypatch.chdir(tmp_path)
        problem, _, _, _ = build_push(load_config(path))
        assert len(problem.trajectory) == 15  # 70 mm at 5 mm
        doc["trajectory"]["file"] = str(tmp_path / "cfg" / "pts.csv")
        path = write_config(tmp_path, "abs.yaml", doc)
        assert build_push(load_config(path))[0] == problem


class TestConfigDefaults:
    @pytest.mark.parametrize("doc, want", [
        ({"task": "ball", "trajectory": {"kind": "stationary"}}, ball.balancing_setup()),
        ({"task": "ball", "mode": "catch", "trajectory": {"kind": "retreat"}},
         ball.catching_setup(0.8, 0.05)),
    ])
    def test_left_out_ball_keys_take_the_setup_defaults(self, tmp_path, doc, want):
        setup, path, ocfg = build_ball(load_config(write_config(tmp_path, "c.yaml", doc)))
        got, ref = setup.grid, want.grid
        assert (got.n, got.N, got.x_max, got.v_max) == (ref.n, ref.N, ref.x_max, ref.v_max)
        assert np.array_equal(got.cells, ref.cells) and np.array_equal(got.p, ref.p)
        assert setup.params == want.params and setup.model == want.model
        assert setup.retreat == want.retreat
        assert np.array_equal(path, want.trajectory(3.0))
        assert ocfg == oracle.BallOracleConfig()
