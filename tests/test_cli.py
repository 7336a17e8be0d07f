import json
import re
from pathlib import Path

import numpy as np
import pytest

from dilocsim import cli
from dilocsim import deployment as dep
from dilocsim import engine as eng
from dilocsim import random_env as renv
from dilocsim import system as sysm

MINIMAL = """
scenario = smoke
dimension = 2
field.source = file
field.path = {path}
algorithm = diloc
stop.step_tol = 1e-10
stop.max_iters = 2000
seed = 5
"""


def demo_path(tmp_path) -> str:
    p = tmp_path / "demo.field"
    dep.save_field(dep.demo_network(), p)
    return str(p)


def minimal_cfg(tmp_path, **overrides):
    lines = {}
    for line in MINIMAL.format(path=demo_path(tmp_path)).strip().splitlines():
        key, _, val = line.partition("=")
        lines[key.strip()] = val.strip()
    lines.update({k: str(v) for k, v in overrides.items()})
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    return cli.parse_config_text(text)


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        cfg = minimal_cfg(tmp_path)
        assert cfg["scenario"] == "smoke"
        assert cfg["stop.max_iters"] == 2000
        assert cfg["noise.link_prob"] == 1.0  # default filled in

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.ConfigInvalidError, match="unknown key"):
            cli.parse_config_text("scenario = x\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(cli.ConfigInvalidError, match="duplicate"):
            cli.parse_config_text("scenario = x\nscenario = y\n")

    def test_missing_required_rejected(self):
        with pytest.raises(cli.ConfigInvalidError, match="missing required"):
            cli.parse_config_text("scenario = x\n")

    def test_alpha_only_for_relaxed(self, tmp_path):
        with pytest.raises(cli.ConfigInvalidError, match="alpha"):
            minimal_cfg(tmp_path, alpha=0.5)

    def test_noise_only_for_dlre(self, tmp_path):
        with pytest.raises(cli.ConfigInvalidError, match="noise"):
            minimal_cfg(tmp_path, **{"noise.link_prob": 0.9})

    def test_dlre_needs_valid_schedule(self, tmp_path):
        text = MINIMAL.format(path=demo_path(tmp_path)).replace(
            "algorithm = diloc", "algorithm = dlre"
        )
        with pytest.raises(cli.ConfigInvalidError, match="schedule"):
            cli.parse_config_text(text)
        text += "schedule.family = power\nschedule.param = 0.5\n"
        with pytest.raises(cli.ConfigInvalidError, match="exponent"):
            cli.parse_config_text(text)

    def test_poisson_needs_anchor_list(self):
        text = (
            "scenario = p\nfield.source = poisson\nfield.gamma = 1.0\n"
            "algorithm = diloc\n"
        )
        with pytest.raises(cli.ConfigInvalidError, match="anchors"):
            cli.parse_config_text(text)

    def test_canonical_text_roundtrip(self, tmp_path):
        cfg = minimal_cfg(tmp_path)
        again = cli.parse_config_text(cfg.canonical_text())
        assert again.values == cfg.values
        assert again.config_hash() == cfg.config_hash()


class TestPresets:
    def test_required_presets_present(self):
        names = cli.preset_names()
        for needed in (
            "deterministic-fixture",
            "deterministic-poisson",
            "lf-cn",
            "noisy-distances",
            "all-random",
        ):
            assert needed in names

    def test_all_presets_validate(self):
        for name in cli.preset_names():
            cfg = cli.parse_config_text(cli.materialize_preset(name))
            assert cfg["scenario"] == name

    def test_unknown_preset(self):
        with pytest.raises(cli.ConfigInvalidError):
            cli.materialize_preset("nope")

    def test_poisson_preset_hashes_unchanged(self):
        # the resolved configs, and so every recorded config_hash, are pinned
        expected = {
            "deterministic-poisson": "dbdd1efa5f77887928ffd4af84aa3e94368f55d4e81a433c4ae8e03564b3ba2c",
            "lf-cn": "f3083766b054c0cb122f457cfeefe1897062024eb33accddb9dea894fc1ff379",
            "noisy-distances": "dc95edd257c9a6bc2dc6c5599a305f103fc7bfe806d6417bd23fd4b0dc00931d",
            "biased-distances": "612e3d4c631d3f4c340a6b7ee6c044ed4ca32b4faea480e38944ddd93e4c3495",
            "all-random": "9963f65d6574948170c0511e2b1fef0d30b09efb3fce83c080ce8539f8e66fda",
        }
        for name, digest in expected.items():
            assert cli.parse_config_text(cli.materialize_preset(name)).config_hash() == digest

    def test_preset_lines_editable(self):
        # scripts rewrite these literal lines of the materialized text
        for name in cli.preset_names():
            lines = cli.materialize_preset(name).splitlines()
            assert lines[0] == f"scenario = {name}"
            if "algorithm = dlre" in lines:
                assert "stop.max_iters = 5000" in lines
            else:
                assert "algorithm = diloc" in lines


class TestRunExperiment:
    def test_fixture_run_artifacts(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-fixture"))
        out = tmp_path / "out"
        summary = cli.run_experiment(cfg, out)
        assert summary["final_oracle_error"] < 1e-8
        assert summary["converged_at"] is not None
        assert (out / "trace.tsv").exists()
        assert (out / "summary.json").exists()
        disk = json.loads((out / "summary.json").read_text())
        assert disk["config_hash"] == cfg.config_hash()
        assert disk["per_sensor_messages"] == 3
        assert disk["per_sensor_flops"] == 5
        assert "e_l" not in disk  # deterministic run carries no bias error

    def test_trace_row_count_matches_convergence(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-fixture"))
        out = tmp_path / "out"
        summary = cli.run_experiment(cfg, out)
        lines = (out / "trace.tsv").read_text().splitlines()
        assert len(lines) == summary["converged_at"] + 1  # header + one row per iteration

    def test_zero_iteration_run_header_only(self, tmp_path):
        cfg = minimal_cfg(tmp_path, **{"stop.max_iters": 0})
        out = tmp_path / "out"
        cli.run_experiment(cfg, out)
        lines = (out / "trace.tsv").read_text().splitlines()
        assert lines == ["iteration\tstep_norm\toracle_error\tmessages_total\talpha_t"]

    def test_plot_series_files(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-fixture"))
        out = tmp_path / "out"
        cli.run_experiment(cfg, out)
        series = sorted(p.name for p in (out / "plot").iterdir())
        assert len(series) == 4 * 2  # four sensors, two coordinates
        assert "sensor4_coord1.tsv" in series and "sensor7_coord2.tsv" in series

    def test_series_terminal_matches_final_state(self, tmp_path):
        field = dep.demo_network()
        tris = dep.triangulate_all(field)
        sys_m = sysm.build_system_matrices(field, tris)
        anchors = sysm.AnchorBlock(field.anchor_block())
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys_m.M, seed=1), sys_m, anchors, step_tol=1e-10
        )
        cli.emit_plot_data(trace, tmp_path / "plot", sys_m.m)
        for row in range(sys_m.M):
            for j in range(sys_m.m):
                lines = (tmp_path / "plot" / f"sensor{4 + row}_coord{j + 1}.tsv").read_text().splitlines()
                terminal = float(lines[-1].split("\t")[1])
                assert terminal == trace.final_state[row, j]  # 17 digits round-trip

    def test_trace_rows_numbered_as_the_run(self, tmp_path):
        # a run resumed from t = 5: trace.tsv used to number its rows 1-12
        field = dep.demo_network()
        sys_m = sysm.build_system_matrices(field, dep.triangulate_all(field))
        anchors = sysm.AnchorBlock(field.anchor_block())
        start = eng.IterationState(eng.initial_state(anchors, sys_m.M, seed=1).X, t=5)
        trace = eng.run_to_convergence(
            start, sys_m, anchors, step_tol=0.0, max_iters=12, snapshot_stride=5,
            oracle=sysm.exact_locations_oracle(sys_m, anchors),
        )
        assert [t for t, _ in trace.snapshots] == [10, 15, 17]
        cli.emit_trace(trace, tmp_path / "trace.tsv")
        rows = [line.split("\t") for line in (tmp_path / "trace.tsv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(6, 18))
        assert [int(r[3]) for r in rows] == [trace.messages_total(k) for k in range(1, 13)]

    def test_trace_without_oracle_leaves_the_cell_empty(self, tmp_path):
        # a trace recorded without oracle= used to end in a bare TypeError
        field = dep.demo_network()
        sys_m = sysm.build_system_matrices(field, dep.triangulate_all(field))
        anchors = sysm.AnchorBlock(field.anchor_block())
        trace = eng.run_to_convergence(
            eng.initial_state(anchors, sys_m.M, seed=1), sys_m, anchors, step_tol=0.0, max_iters=3
        )
        cli.emit_trace(trace, tmp_path / "trace.tsv")
        lines = (tmp_path / "trace.tsv").read_text().splitlines()
        assert lines[0] == "iteration\tstep_norm\toracle_error\tmessages_total\talpha_t"
        rows = [line.split("\t") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [r[2] for r in rows] == ["", "", ""]
        assert [float(r[1]) for r in rows] == list(trace.step_norms)

    def test_violated_bias_assumption_fails_before_the_run(self, tmp_path, monkeypatch):
        # rho(P + S_P) < 1 belongs to the configured system: at bias scale 5
        # the run used to take all 5000 DLRE steps before failing
        runs = []
        monkeypatch.setattr(renv, "run_dlre", lambda *args, **kwargs: runs.append(args))
        cfg = edited_preset("biased-distances", **{"noise.bias_scale": 5})
        with pytest.raises(sysm.SingularSystemError, match="low-error-bias"):
            cli.run_experiment(cfg, tmp_path / "out")
        assert runs == []
        assert not (tmp_path / "out").exists()

    def test_large_stride_single_snapshot(self, tmp_path):
        cfg = minimal_cfg(tmp_path, snapshot_stride=10**6)
        out = tmp_path / "out"
        cli.run_experiment(cfg, out)
        lines = (out / "plot" / "sensor4_coord1.tsv").read_text().splitlines()
        assert len(lines) == 2  # header plus the single terminal snapshot

    def test_byte_identical_reruns(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-fixture"))
        a, b = tmp_path / "a", tmp_path / "b"
        cli.run_experiment(cfg, a)
        cli.run_experiment(cfg, b)
        for name in ("trace.tsv", "summary.json", "field.field"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        for pa in sorted((a / "plot").iterdir()):
            assert pa.read_bytes() == (b / "plot" / pa.name).read_bytes()

    def test_seed_changes_outputs_not_hash(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-fixture"))
        a, b = tmp_path / "a", tmp_path / "b"
        sa = cli.run_experiment(cfg, a, seed=1)
        sb = cli.run_experiment(cfg, b, seed=2)
        assert sa["config_hash"] == sb["config_hash"]
        assert sa["seed"] != sb["seed"]
        assert (a / "trace.tsv").read_bytes() != (b / "trace.tsv").read_bytes()

    def test_lf_cn_preset_summary(self, tmp_path):
        text = cli.materialize_preset("lf-cn").replace(
            "stop.max_iters = 5000", "stop.max_iters = 1500"
        )
        cfg = cli.parse_config_text(text)
        out = tmp_path / "out"
        summary = cli.run_experiment(cfg, out)
        assert summary["e_l"] == 0.0  # unbiased environment
        assert summary["channel_var_effective"] == pytest.approx(1.0 / summary["n_sensors"])
        assert "dist_to_dstar" in summary and "rho_P" in summary
        # distance to d* at the power-of-ten snapshots (stride 10)
        checkpoints = summary["dist_to_dstar_at"]
        assert list(checkpoints) == ["10", "100", "1000"]
        assert checkpoints["1000"] <= checkpoints["10"]
        rows = (out / "trace.tsv").read_text().splitlines()[1:]
        first_err = float(rows[0].split("\t")[2])
        last_err = float(rows[-1].split("\t")[2])
        assert last_err < first_err

    def test_all_random_summary_diagnostics(self, tmp_path):
        text = cli.materialize_preset("all-random").replace(
            "stop.max_iters = 5000", "stop.max_iters = 400"
        )
        summary = cli.run_experiment(cli.parse_config_text(text), tmp_path / "out")
        assert summary["e_l"] == 0.0  # fluctuations are zero-mean, no bias
        assert summary["dist_to_dstar"] > 0.0
        assert summary["schedule"] == "power(0.55)"

    def test_biased_preset_reports_positive_e_l(self, tmp_path):
        text = cli.materialize_preset("biased-distances").replace(
            "stop.max_iters = 5000", "stop.max_iters = 400"
        )
        summary = cli.run_experiment(cli.parse_config_text(text), tmp_path / "out")
        assert summary["e_l"] > 0.0

    def test_relaxed_summary_has_rho_j(self, tmp_path):
        cfg = minimal_cfg(tmp_path)
        text = cfg.canonical_text().replace("algorithm = diloc", "algorithm = diloc_rel")
        text = text.replace("alpha = -", "alpha = 0.5")
        cfg = cli.parse_config_text(text)
        summary = cli.run_experiment(cfg, tmp_path / "out")
        assert summary["rho_J"] < 1.0
        assert summary["alpha"] == 0.5

    def test_rho_j_matches_dense_eigensolve(self, tmp_path):
        # rho(J) is reported in closed form from rho(P); check it against the
        # spectrum of the dense J on a preset field
        text = cli.materialize_preset("deterministic-poisson")
        text = text.replace("algorithm = diloc", "algorithm = diloc_rel")
        cfg = cli.parse_config_text(text + "alpha = 0.3\n")
        summary = cli.run_experiment(cfg, tmp_path / "out")
        field = cli._build_field(cfg, cfg["seed"])
        sys_m = sysm.build_system_matrices(field, dep.triangulate_all(field))
        J = 0.7 * np.eye(sys_m.M) + 0.3 * sys_m.P.toarray()
        dense = np.max(np.abs(np.linalg.eigvals(J)))
        assert summary["rho_J"] == pytest.approx(dense, abs=1e-10)
        assert abs(summary["decay_rate"] - summary["rho_J"]) <= 0.05

    def test_decay_rate_tracks_rho_p(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-poisson"))
        summary = cli.run_experiment(cfg, tmp_path / "out")
        assert abs(summary["decay_rate"] - summary["rho_P"]) <= 0.05

    def test_setup_block_on_deterministic_poisson(self, tmp_path):
        cfg = cli.parse_config_text(cli.materialize_preset("deterministic-poisson"))
        cli.run_experiment(cfg, tmp_path / "out")
        setup = json.loads((tmp_path / "out" / "summary.json").read_text())["setup"]
        field = cli._build_field(cfg, cfg["seed"])
        tris = dep.triangulate_all(field)
        radius = {l: t.radius for l, t in tris.items()}
        assert setup["radius_p50"] == np.median(list(radius.values()))
        assert setup["radius_max"] == max(radius.values())
        assert setup["radius_p50"] <= setup["radius_p99"] <= setup["radius_max"]
        widest = setup["max_radius_sensor"]
        assert radius[widest] == setup["radius_max"]
        assert all(r < setup["radius_max"] for l, r in radius.items() if l < widest)
        on_anchors = [l for l, t in tris.items() if set(t.neighbor_ids) & set(field.anchor_ids)]
        assert setup["sensors_on_anchors"] == len(on_anchors) > 0
        assert set(setup) == {
            "radius_p50", "radius_p99", "radius_max", "max_radius_sensor", "sensors_on_anchors"
        }

    def test_rho_p_bracket_is_tight_on_poisson_presets(self):
        names = [n for n in cli.preset_names() if "field.source = poisson" in cli.materialize_preset(n)]
        assert len(names) == 5
        for name in names:
            cfg = cli.parse_config_text(cli.materialize_preset(name))
            field = cli._build_field(cfg, cfg["seed"])
            P = sysm.build_system_matrices(field, dep.triangulate_all(field)).P
            lo, hi, _ = sysm._perron_bracket(P)
            assert hi - lo <= 1e-10 * hi


    def test_rho_p_failure_is_recorded_not_fatal(self, tmp_path, monkeypatch, capsys):
        def no_convergence(P, *args, **kwargs):
            raise sysm.NoConvergenceError(0.9994, 10_000)

        monkeypatch.setattr(sysm, "spectral_radius", no_convergence)
        cfg_path = tmp_path / "rel.cfg"
        cfg_path.write_text(
            minimal_cfg(tmp_path, algorithm="diloc_rel", alpha=0.5).canonical_text()
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rho_P"] is None and summary["rho_J"] is None
        assert "did not converge" in summary["rho_P_error"]
        assert "[0.9994, 0.9994]" in summary["rho_P_error"]
        assert summary["final_oracle_error"] < 1e-8


def edited_text(name, **values):
    """A preset's config text with ``key = value`` lines replaced, dropped
    (value None) or, for keys the preset does not set, appended."""
    lines = []
    for line in cli.materialize_preset(name).splitlines():
        key = line.partition("=")[0].strip()
        if key not in values:
            lines.append(line)
        elif values[key] is not None:
            lines.append(f"{key} = {values[key]}")
        values.pop(key, None)
    lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def edited_preset(name, **values):
    """A preset's config with some of its ``key = value`` lines edited."""
    return cli.parse_config_text(edited_text(name, **values))


class TestOtherDimensions:
    """End to end through run_experiment on a line and in space."""

    CONFIGS = {
        1: ("deterministic-poisson", {"dimension": 1, "field.anchors": "0; 10", "field.gamma": 3, "seed": 1}),
        # biased DLRE in the regular tetrahedron with 6-unit edges
        3: ("biased-distances", {
            "dimension": 3, "field.gamma": 1.5, "stop.max_iters": 300, "seed": 2,
            "field.anchors": "0 0 0; 6 0 0; 3 5.196152422706632 0; 3 1.7320508075688772 4.898979485566356",
        }),
    }

    @pytest.mark.parametrize("m", sorted(CONFIGS))
    def test_run(self, tmp_path, m):
        name, values = self.CONFIGS[m]
        cfg = edited_preset(name, **values)
        summary = cli.run_experiment(cfg, tmp_path / "out")
        field = cli._build_field(cfg, cfg["seed"])
        assert field.m == m and summary["n_sensors"] == field.n_sensors > 20
        assert len(list((tmp_path / "out" / "plot").iterdir())) == field.n_sensors * m
        tris = dep.triangulate_all(field)
        on_anchors = sum(any(i in field.anchor_ids for i in t.neighbor_ids) for t in tris.values())
        assert summary["setup"]["sensors_on_anchors"] == on_anchors > 0
        if m == 1:
            assert summary["converged_at"] is not None and summary["final_oracle_error"] < 1e-8
        else:
            assert summary["e_l"] > 0


class TestReplicas:
    def test_replica_directories_and_seeds(self, tmp_path):
        cfg = minimal_cfg(tmp_path)
        out = tmp_path / "runs"
        summaries = cli.run_replicas(cfg, out, replicas=3)
        assert sorted(p.name for p in out.iterdir()) == [
            "replica-000",
            "replica-001",
            "replica-002",
        ]
        seeds = [s["seed"] for s in summaries]
        assert len(set(seeds)) == 3

    def test_replicas_deterministic(self, tmp_path):
        cfg = minimal_cfg(tmp_path)
        cli.run_replicas(cfg, tmp_path / "r1", replicas=2)
        cli.run_replicas(cfg, tmp_path / "r2", replicas=2)
        for k in range(2):
            a = tmp_path / "r1" / f"replica-{k:03d}" / "trace.tsv"
            b = tmp_path / "r2" / f"replica-{k:03d}" / "trace.tsv"
            assert a.read_bytes() == b.read_bytes()


class TestMainEntry:
    def test_presets_list(self, capsys):
        assert cli.main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        assert "deterministic-fixture" in out

    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "deterministic-fixture"]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = x\nwhat = 1\n")
        assert cli.main(["validate", str(bad)]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_run_unknown_arg(self, capsys):
        assert cli.main(["run", "no-such-thing"]) == cli.EXIT_CONFIG

    def test_run_writes_to_out(self, tmp_path, capsys):
        rc = cli.main(
            ["run", "deterministic-fixture", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert (tmp_path / "o" / "summary.json").exists()

    def test_run_runtime_error_exit_code(self, tmp_path, capsys):
        # config is well-formed but the field file is geometrically invalid
        bad_field = tmp_path / "bad.field"
        bad_field.write_text(
            "m\t2\ndensity\t-\n"
            "1\tanchor\t0\t0\n2\tanchor\t1\t0\n3\tanchor\t0\t1\n"
            "4\tsensor\t9\t9\n"
        )
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"scenario = x\nfield.source = file\nfield.path = {bad_field}\nalgorithm = diloc\n"
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_dimension_above_three_rejected(self, tmp_path, capsys, command):
        # set-up is defined for dimensions 1 to 3 only, so the config is
        # refused up front
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "scenario = x\ndimension = 4\nfield.source = poisson\nfield.gamma = 2.0\n"
            "field.anchors = 0 0 0 0; 6 0 0 0; 0 6 0 0; 0 0 6 0; 0 0 0 6\nalgorithm = diloc\n"
        )
        out = tmp_path / "o"
        args = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "dimension must be 1, 2 or 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m", [2, 3])
    def test_setup_past_byte_budget(self, tmp_path, capsys, monkeypatch, m):
        # a set-up round that could pass the byte budget ends the run with a
        # runtime error naming the sensor and the radius, and writes nothing
        name, values = TestOtherDimensions.CONFIGS[3] if m == 3 else ("deterministic-fixture", {})
        cfg = tmp_path / "c.cfg"
        cfg.write_text(edited_text(name, **values))
        monkeypatch.setattr(dep, "_SETUP_BYTES", 1)
        out = tmp_path / "o"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert re.search(r"runtime error: sensor \d+: the set-up round at radius \S+ over \d+ candidates", err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "anchors, message",
        [("0 0; 1 0; 2 0", "hyperplane"), ("0 0; 1 0", "must be (3, 2)")],
        ids=["collinear", "too-few"],
    )
    def test_bad_anchor_simplex_rejected(self, tmp_path, capsys, command, anchors, message):
        # the deployment's own rule, applied before any output: before, validate
        # said "config OK" for collinear anchors and run exited 3 leaving an
        # empty output directory
        text = cli.materialize_preset("deterministic-poisson").replace(
            "field.anchors = 0 0; 10.42 0; 5.21 9.024", f"field.anchors = {anchors}"
        )
        assert f"field.anchors = {anchors}\n" in text
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        args = [command, str(cfg)] + (["--out", str(out)] if command == "run" else [])
        assert cli.main(args) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_field_dimension_mismatch_writes_nothing(self, tmp_path, capsys):
        # found only once the field file is read, still before any output
        text = cli.materialize_preset("deterministic-fixture").replace("dimension = 2", "dimension = 3")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "does not match field file dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m, records", [(0, "1\tanchor\n"), (-1, "")], ids=["zero", "negative"])
    def test_nonpositive_field_dimension_exit_code(self, tmp_path, capsys, m, records):
        bad_field = tmp_path / "bad.field"
        bad_field.write_text(f"m\t{m}\ndensity\t-\n{records}")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"scenario = x\nfield.source = file\nfield.path = {bad_field}\nalgorithm = diloc\n"
        )
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_RUNTIME
        assert "runtime error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "preset, key, value",
        [
            ("lf-cn", "noise.channel_var", "nan"),
            ("noisy-distances", "noise.fluct_var", "nan"),
            ("deterministic-poisson", "stop.step_tol", "nan"),
            ("deterministic-poisson", "field.gamma", "nan"),
            ("deterministic-poisson", "field.gamma", "inf"),
            ("deterministic-poisson", "field.anchors", "0 0; 10.42 nan; 5.21 9.024"),
            ("deterministic-poisson", "field.anchors", "0 0; 10.42 0; 5.21 inf"),
            ("lf-cn", "schedule.param", "inf"),
            ("biased-distances", "noise.bias_scale", "inf"),
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, capsys, preset, key, value):
        # nan and inf parse as floats but pass no range check meaningfully: they
        # would run noise-free, spin to max_iters, write NaN into summary.json
        # (invalid JSON) or end in a numpy traceback
        text = "".join(
            f"{key} = {value}\n" if line.startswith(f"{key} = ") else line + "\n"
            for line in cli.materialize_preset(preset).splitlines()
        )
        assert f"{key} = {value}\n" in text
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "preset, values, message",
        [
            ("lf-cn", {"noise.channel_var_scaled_by_M": "maybe"}, "cannot parse 'maybe' as bool"),
            ("deterministic-poisson", {"field.gamma": None}, "need field.gamma > 0"),
            ("deterministic-poisson", {"field.gamma": "0"}, "need field.gamma > 0"),
            ("deterministic-poisson", {"field.gamma": "-2"}, "need field.gamma > 0"),
            ("deterministic-poisson", {"field.path": "demo.field"}, "field.path is meaningless"),
            ("deterministic-fixture", {"field.path": None}, "file fields need field.path"),
            ("deterministic-fixture", {"field.gamma": "1.0"}, "field.gamma is meaningless"),
            ("deterministic-fixture", {"field.anchors": "0 0; 1 0; 0 1"}, "field.anchors is meaningless"),
            ("deterministic-poisson", {"field.source": "lattice"}, "field.source must be"),
            ("deterministic-poisson", {"algorithm": "gossip"}, "algorithm must be"),
            ("deterministic-poisson", {"algorithm": "diloc_rel"}, "diloc_rel needs alpha"),
            ("deterministic-poisson", {"algorithm": "diloc_rel", "alpha": "0"}, "diloc_rel needs alpha"),
            ("deterministic-poisson", {"algorithm": "diloc_rel", "alpha": "1.5"}, "diloc_rel needs alpha"),
            ("deterministic-poisson", {"schedule.family": "harmonic"}, "schedules apply only to dlre"),
            ("lf-cn", {"noise.link_prob": "0"}, "noise.link_prob must lie in (0, 1]"),
            ("lf-cn", {"noise.link_prob": "1.5"}, "noise.link_prob must lie in (0, 1]"),
            ("lf-cn", {"noise.channel_var": "-1"}, "noise.channel_var must be nonnegative"),
            ("noisy-distances", {"noise.fluct_var": "-0.1"}, "noise.fluct_var must be nonnegative"),
            ("deterministic-poisson", {"stop.max_iters": "-1"}, "stop criteria must be nonnegative"),
            ("deterministic-poisson", {"stop.step_tol": "-1e-3"}, "stop criteria must be nonnegative"),
            ("deterministic-poisson", {"snapshot_stride": "-1"}, "snapshot_stride must be nonnegative"),
            ("deterministic-poisson", {"field.anchors": "0 0; 10 x; 5 9"}, "cannot parse field.anchors"),
            ("deterministic-poisson", {"field.anchors": "0 0; 10; 5 9"}, "cannot parse field.anchors"),
        ],
    )
    def test_config_rejected(self, tmp_path, capsys, preset, values, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(edited_text(preset, **values))
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(cli.materialize_preset("deterministic-poisson") + "seed 4\n")
        assert cli.main(["validate", str(cfg)]) == cli.EXIT_CONFIG
        assert "line 10: expected 'key = value'" in capsys.readouterr().err

    def test_field_without_sensors_rejected(self, tmp_path, capsys):
        # found only once the field is drawn, still before any output
        cfg = tmp_path / "c.cfg"
        cfg.write_text(edited_text("deterministic-poisson", **{"field.gamma": "1e-12"}))
        out = tmp_path / "o"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert "field holds no sensors" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "records, message",
        [
            ("m\ttwo\ndensity\t-\n", "malformed field header"),
            ("m\t2\n1\tanchor\t0\t0\n", "malformed field header"),
            ("m\t2\ndensity\t-\n1\tanchor\t0\tzero\n", "bad record"),
            ("m\t2\ndensity\t-\n1\tanchor\t0\t0\n3\tanchor\t6\t0\n", "ids must be contiguous"),
            ("m\t2\ndensity\t-\n1\tanchor\t0\t0\n2\tanchor\t6\t0\n3\tsensor\t3\t1\n"
             "4\tanchor\t3\t5\n", "anchors must precede sensors"),
            ("m\t2\ndensity\t-\n1\tanchor\t0\t0\n2\trelay\t6\t0\n", "unknown role 'relay'"),
            ("m\t2\ndensity\t-\n1\tanchor\t0\t0\n2\tanchor\t6\t0\n3\tsensor\t3\t1\n",
             "need 3 anchors, found 2"),
        ],
        ids=["header-value", "header-missing", "record", "ids", "anchor-after-sensor", "role", "anchor-count"],
    )
    def test_bad_field_file(self, tmp_path, capsys, records, message):
        bad_field = tmp_path / "bad.field"
        bad_field.write_text(records)
        with pytest.raises(dep.FieldLoadError, match=message):
            dep.load_field(bad_field)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = x\nfield.source = file\nfield.path = {bad_field}\nalgorithm = diloc\n")
        out = tmp_path / "o"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_RUNTIME
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_replicas_flag_validation(self, capsys):
        assert cli.main(["run", "deterministic-fixture", "--replicas", "0"]) == cli.EXIT_CONFIG

    def test_env_var_out_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        assert cli.main(["run", "deterministic-fixture"]) == 0
        assert (tmp_path / "root" / "deterministic-fixture" / "summary.json").exists()

    def test_print_config(self, capsys):
        assert cli.main(["validate", "deterministic-fixture", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "stop.step_tol = 1e-10" in out
        assert "algorithm = diloc" in out
