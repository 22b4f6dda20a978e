import dataclasses
import json

import numpy as np
import pytest

from retrivox import cli
from retrivox import pipeline as P
from retrivox import retrievaldb as RDB
from retrivox.grids import (OCCUPANCY_TDF_THRESHOLD, ChunkLayout, ScalarGrid3,
                            occupancy_fraction, read_grid, write_grid)
from tests.test_retrievaldb import loop_build, window_chunks


def tiny_cfg(tmp_path, **overrides):
    base = dict(out_dir=str(tmp_path / "run"), n_train=6, n_test=2,
                retrieval_iters=30, refine_iters=8, seed=11)
    base.update(overrides)
    return P.mini_config(**base)


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    """One tiny pipeline run shared by the read-only stage tests."""
    tmp = tmp_path_factory.mktemp("staged")
    cfg = tiny_cfg(tmp)
    P.run_stage(cfg, "gen_data")
    P.run_stage(cfg, "train_retrieval")
    P.run_stage(cfg, "build_db")
    P.run_stage(cfg, "cache_retrievals")
    return cfg


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = P.mini_config(out_dir="x/y", n_train=13, holdout_category="sphere",
                            retrieval_lr=2e-3)
        path = tmp_path / "c.cfg"
        P.save_config(cfg, path)
        back = P.load_config(path)
        assert back.n_train == 13
        assert back.holdout_category == "sphere"
        assert back.retrieval_lr == 2e-3
        assert back.layout == cfg.layout
        assert back.hp == cfg.hp

    def test_old_file_with_dropped_keys_loads(self, tmp_path):
        """Files written before dataset_kind and obj_dir were removed still
        load: load_config reads only the keys it knows."""
        cfg = P.mini_config(out_dir="x/y", n_train=13, holdout_category="sphere")
        path = tmp_path / "c.cfg"
        P.save_config(cfg, path)
        text = path.read_text().replace("[dataset]\n", "[dataset]\ndataset_kind = obj_dir\n"
                                        "obj_dir = /some/meshes\n")
        path.write_text(text)
        back = P.load_config(path)
        assert back == cfg
        P.save_config(back, path)
        assert "dataset_kind" not in path.read_text() and "obj_dir" not in path.read_text()
        assert P.load_config(path) == cfg

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            P.load_config("/nonexistent/file.cfg")

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            P.ExperimentConfig(task="interpolation")

    def test_sr_factor_must_divide(self):
        with pytest.raises(ValueError):
            P.mini_config(sr_factor=3)


class TestSceneGenerator:
    def test_deterministic_bit_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        a = P.generate_scene(cfg, "train", 0)
        b = P.generate_scene(cfg, "train", 0)
        np.testing.assert_array_equal(a.gt.values, b.gt.values)
        np.testing.assert_array_equal(a.mesh.vertices, b.mesh.vertices)

    def test_occupancy_within_bounds(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        for i in range(5):
            rec = P.generate_scene(cfg, "train", i)
            assert 0.02 <= occupancy_fraction(rec.gt) <= 0.60

    def test_meshes_watertight(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        rec = P.generate_scene(cfg, "train", 1)
        assert rec.mesh.is_watertight()

    def test_holdout_category_split_rules(self, tmp_path):
        cfg = tiny_cfg(tmp_path, holdout_category="sphere",
                       n_holdout_test=1, n_extension=1)
        for i in range(4):
            rec = P.generate_scene(cfg, "train", i)
            assert "sphere" not in rec.categories
        rec = P.generate_scene(cfg, "holdout", 0)
        assert "sphere" in rec.categories
        rec = P.generate_scene(cfg, "extension", 0)
        assert "sphere" in rec.categories

    def test_meshes_built_only_for_accepted_parts(self, tmp_path, monkeypatch):
        built, merged = [], []
        for name in ("box_mesh", "cylinder_mesh", "uv_sphere_mesh"):
            make = getattr(P.G, name)
            monkeypatch.setattr(P.G, name,
                                lambda *a, _make=make, **kw: built.append(1) or _make(*a, **kw))
        merge = P.G.merge_meshes
        monkeypatch.setattr(P.G, "merge_meshes", lambda parts: merged.append(len(parts)) or merge(parts))
        cfg = tiny_cfg(tmp_path)
        dim = cfg.layout.scene_dim
        catalog = P._furniture_catalog(cfg.seed, dim)
        for seed in range(6):
            built.clear()
            merged.clear()
            P._roomlet_mesh(np.random.default_rng(seed), dim, P.CATEGORIES, None,
                            cfg.max_furnishings, catalog)
            assert merged == [len(built)]

    def test_point_input_density(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        rec = P.generate_scene(cfg, "train", 0)
        # 1000 points per window by default; occupancy stored surface-coded
        occupied = (rec.input_points.values < 0.5).sum()
        assert 0 < occupied <= cfg.points_per_window


class TestStages:
    def test_gen_data_writes_artifacts(self, staged_run):
        d = staged_run.paths().split_dir("train")
        assert len(list(d.glob("*.gt.rfg1"))) == 6
        assert len(list(d.glob("*.obj"))) == 6
        assert (staged_run.paths().root / "config.cfg").exists()

    def test_missing_prerequisite_errors_are_actionable(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "fresh")
        with pytest.raises(P.StageError, match="gen_data"):
            P.run_stage(cfg, "train_retrieval")
        P.run_stage(cfg, "gen_data")
        with pytest.raises(P.StageError, match="train_retrieval"):
            P.run_stage(cfg, "build_db")

    def test_unknown_stage_raises(self, tmp_path):
        with pytest.raises(ValueError):
            P.run_stage(tiny_cfg(tmp_path), "deploy")

    def test_cache_files_written(self, staged_run):
        files = list(staged_run.paths().cache.glob("*.approx.rfdb"))
        assert len(files) == 6

    def test_cache_is_one_retrieval_call_byte_identical(self, staged_run, monkeypatch, tmp_path):
        """The stage writes the bytes of one assemble_approximations per
        record, in one retrieve_windows call (or one per window when the
        batch budget holds a single window)."""
        from retrivox import retrievaldb as RDB
        cfg = staged_run
        enc, db = P._load_encoders(cfg), P._load_db(cfg, "base")
        want = {}
        for rec in P.load_scenes(cfg, "train"):
            approxs = RDB.assemble_approximations(db, enc, P.input_grid(rec, cfg),
                                                  cfg.layout, cfg.hp.k)
            ref = RDB.ChunkDatabase(chunk_dim=cfg.layout.scene_dim, embed_dim=1)
            ref.add_entries(np.stack([a.scene.values.ravel() for a in approxs]),
                            np.zeros((len(approxs), 1), dtype=np.float32),
                            [f"rank{a.rank}" for a in approxs])
            RDB.save_db(tmp_path / rec.name, ref)
            want[rec.name] = (tmp_path / rec.name).read_bytes()
        calls = []
        real = RDB.retrieve_windows
        monkeypatch.setattr(RDB, "retrieve_windows",
                            lambda *args: calls.append(len(args[2])) or real(*args))
        for budget, sizes in ((P._CACHE_BATCH_BYTES, [6]), (1, [1] * 6)):
            monkeypatch.setattr(P, "_CACHE_BATCH_BYTES", budget)
            calls.clear()
            P.run_stage(cfg, "cache_retrievals")
            assert calls == sizes
            for name, data in want.items():
                assert P._cache_file(cfg, name).read_bytes() == data, name

    def test_refine_and_reconstruct_and_evaluate(self, staged_run):
        P.run_stage(staged_run, "train_refine")
        P.run_stage(staged_run, "reconstruct")
        agg = P.run_stage(staged_run, "evaluate")
        assert set(agg) >= {"iou", "chamfer_l1", "f_score", "normal_consistency"}
        rep_dir = staged_run.paths().report_dir("attention", 4, "test", "base")
        assert (rep_dir / "aggregate.json").exists()
        per_scene = sorted(rep_dir.glob("test_*.json"))
        assert len(per_scene) == 2
        # aggregate equals the mean of per-scene reports
        ious = [json.loads(p.read_text())["iou"] for p in per_scene]
        agg_file = json.loads((rep_dir / "aggregate.json").read_text())
        assert abs(agg_file["iou"] - np.mean(ious)) < 1e-9

    def test_no_retrieval_mode_ignores_db(self, staged_run):
        P.run_stage(staged_run, "train_refine", mode="no_retrieval")
        P.run_stage(staged_run, "reconstruct", mode="no_retrieval")
        # db not touched: even an extended-variant request is irrelevant
        assert staged_run.paths().recon_dir("no_retrieval", 4, "test", "base").exists()

    def test_evaluate_perfect_when_pred_equals_gt(self, staged_run):
        # plant gt as prediction: near-perfect metrics
        cfg = dataclasses.replace(staged_run, eval_samples=20_000)
        scenes = P.load_scenes(cfg, "test")
        from retrivox import geometry as G
        from retrivox.grids import write_grid
        out = cfg.paths().recon_dir("attention", 4, "test", "base")
        out.mkdir(parents=True, exist_ok=True)
        for rec in scenes:
            write_grid(out / f"{rec.name}.pred.rfg1", rec.gt)
            G.save_obj(out / f"{rec.name}.pred.obj", G.marching_cubes(rec.gt))
        agg = P.run_stage(cfg, "evaluate")
        assert agg["iou"] == 1.0
        assert agg["chamfer_l1"] < 1e-6
        assert agg["f_score"] == 1.0
        assert agg["normal_consistency"] >= 0.999


def loop_training_pairs(cfg, scenes):
    """Reference: the per-window loop that one stacked unfold replaced."""
    f = cfg.input_factor
    in_layout = ChunkLayout(cfg.layout.scene_dim // f, cfg.layout.chunk_dim // f, 1)
    xs, ys = [], []
    for rec in scenes:
        xs.extend(c.ravel() for c in window_chunks(P.input_grid(rec, cfg).values, in_layout))
        ys.extend(c.ravel() for c in window_chunks(rec.gt.values, cfg.layout))
    return RDB.select_training_pairs(np.stack(xs), np.stack(ys))


class TestArrayPath:
    @pytest.mark.parametrize("task", ["super_resolution", "surface_reconstruction"])
    def test_training_pairs_equal_per_window_loop(self, tmp_path, task):
        cfg = tiny_cfg(tmp_path, task=task)
        scenes = [P.generate_scene(cfg, "train", i) for i in range(3)]
        got, want = P._training_pairs(cfg, scenes), loop_training_pairs(cfg, scenes)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float32
            np.testing.assert_array_equal(g, w)
        assert len(got[0]) < 3 * 64  # the keep rule dropped some pairs

    def test_build_and_extend_db_bytes_equal_per_chunk_loop(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_train=3, n_test=1, n_extension=2,
                       holdout_category="sphere", retrieval_iters=10)
        for stage in ("gen_data", "train_retrieval", "build_db", "extend_db"):
            P.run_stage(cfg, stage)
        enc = P._load_encoders(cfg)
        train = P.load_scenes(cfg, "train")
        db = loop_build(enc, [r.gt for r in train], cfg.layout,
                        scene_tags=[r.name for r in train])
        RDB.save_db(tmp_path / "base.rfdb", db)
        assert (tmp_path / "base.rfdb").read_bytes() == cfg.paths().db_file("base").read_bytes()
        rows = [c.ravel() for rec in P.load_scenes(cfg, "extension")
                for c in window_chunks(rec.gt.values, cfg.layout)]
        rows = np.stack([r for r in rows if (r < OCCUPANCY_TDF_THRESHOLD).mean() >= 0.01])
        db.add_entries(rows, enc.encode_targets(rows), ["extension-sphere"] * len(rows))
        RDB.save_db(tmp_path / "extended.rfdb", db)
        assert ((tmp_path / "extended.rfdb").read_bytes()
                == cfg.paths().db_file("extended").read_bytes())


class TestDeterminism:
    def test_gen_data_rerun_byte_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_train=2, n_test=1)
        P.run_stage(cfg, "gen_data")
        d = cfg.paths().split_dir("train")
        before = {p.name: p.read_bytes() for p in d.iterdir()}
        P.run_stage(cfg, "gen_data")
        after = {p.name: p.read_bytes() for p in d.iterdir()}
        assert before == after

    def test_train_retrieval_rerun_byte_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path, n_train=2, n_test=1, retrieval_iters=10)
        P.run_stage(cfg, "gen_data")
        P.run_stage(cfg, "train_retrieval")
        enc = cfg.paths().encoders
        log = cfg.paths().retrieval_log
        first = (enc.read_bytes(), log.read_bytes())
        P.run_stage(cfg, "train_retrieval")
        assert (enc.read_bytes(), log.read_bytes()) == first


class TestCli:
    def test_write_config_and_stage(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        assert cli.main(["write_config", "--out", str(cfg_path), "--profile", "mini"]) == 0
        # shrink for speed, then run gen_data through the CLI
        cfg = P.load_config(cfg_path)
        cfg = dataclasses.replace(cfg, n_train=1, n_test=1,
                                  out_dir=str(tmp_path / "run"))
        P.save_config(cfg, cfg_path)
        assert cli.main(["gen_data", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert '"stage": "gen_data"' in out
        assert (tmp_path / "run" / "data" / "train").exists()

    def test_stage_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cli.main(["write_config", "--out", str(cfg_path), "--profile", "mini"])
        cfg = dataclasses.replace(P.load_config(cfg_path), out_dir=str(tmp_path / "empty"))
        P.save_config(cfg, cfg_path)
        assert cli.main(["build_db", "--config", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cli.main(["write_config", "--out", str(cfg_path), "--profile", "mini"])
        parser = cli.build_parser()
        args = parser.parse_args(["evaluate", "--config", str(cfg_path),
                                  "--seed", "3", "--mode", "naive", "--k", "2",
                                  "--out", "elsewhere"])
        assert args.seed == 3 and args.mode == "naive" and args.k == 2


class TestGridFileFormat:
    def test_written_grids_reload(self, staged_run):
        d = staged_run.paths().split_dir("test")
        path = sorted(d.glob("*.gt.rfg1"))[0]
        g = read_grid(path)
        assert g.dims == (32, 32, 32)
        assert g.voxel_size == pytest.approx(0.054)

    def test_truncated_or_overlong_grid_raises(self, tmp_path):
        path = tmp_path / "g.rfg1"
        grid = ScalarGrid3(np.arange(24, dtype=np.float32).reshape(2, 3, 4), 0.5, (1, 2, 3))
        write_grid(path, grid)
        back = read_grid(path)
        np.testing.assert_array_equal(back.values, grid.values)
        data = path.read_bytes()
        for bad in (data[:10], data[:31], data[:-1], data + b"\0"):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="g.rfg1"):
                read_grid(path)

    def test_failed_write_leaves_earlier_file(self, tmp_path):
        path = tmp_path / "g.rfg1"
        write_grid(path, ScalarGrid3.full((2, 2, 2), 0.5))
        before = path.read_bytes()
        bad = ScalarGrid3(np.array([[["a"]]], dtype=object), 1.0)
        with pytest.raises((ValueError, TypeError)):
            write_grid(path, bad)
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["g.rfg1"]
