"""Smoke test of `scripts/run_ablation.py`: it runs, and it trains on the
very inputs that `geonlf gen` writes for the same preset and seed."""

import importlib.util
from pathlib import Path

import numpy as np

from geonlf.cli import main
from geonlf.formats import read_rimg, read_trajectory
from geonlf.scene import ScannerConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_ablation.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_ablation", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ablation_trains_on_the_gen_dataset(tmp_path, monkeypatch):
    seed, frames = 4, 4
    cfg = tmp_path / "scanner.cfg"
    cfg.write_text("scanner.beams = 8\nscanner.azimuth_steps = 48\n")
    data = tmp_path / "data"
    assert main(["gen", "--preset", "low_overlap", "--frames", str(frames),
                 "--seed", str(seed), "--config", str(cfg),
                 "--out", str(data)]) == 0

    ablation = _load_script()
    real_train, seen = ablation.train, []

    def recording_train(images, init, scanner, cfg):
        seen.append((images, init, cfg))
        return real_train(images, init, scanner, cfg)

    monkeypatch.setattr(ablation, "train", recording_train)
    results = ablation.ablation_once(
        seed, frames=frames, iterations=6,
        scanner=ScannerConfig(beams=8, azimuth_steps=48), verbose=False)

    assert sorted(results) == ["full", "icp", "init", "wo_geo", "wo_sr"]
    assert all(np.isfinite(v) for v in results.values())
    assert [(c.top_k, c.use_geo) for _, _, c in seen] == [
        (5, True), (0, True), (5, False)]
    gen_init = read_trajectory(data / "init_traj.txt")
    for images, init, _ in seen:
        assert init.frame_ids == gen_init.frame_ids
        np.testing.assert_allclose(init.poses, gen_init.poses, rtol=0,
                                   atol=1e-12)
        for i, img in enumerate(images):
            gen = read_rimg(data / f"frame_{i:04d}.rimg")
            np.testing.assert_array_equal(img.valid, gen.valid)
            # The .rimg file stores float32.
            np.testing.assert_array_equal(
                np.where(img.valid, img.depth, -1.0).astype(np.float32),
                gen.depth)
            np.testing.assert_array_equal(img.intensity.astype(np.float32),
                                          gen.intensity)
