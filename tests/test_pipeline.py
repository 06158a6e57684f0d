import logging

import numpy as np
import pytest

import efs.backward
import efs.pipeline
from efs import (
    BackwardConfig,
    DegenerateEnclosureError,
    Enclosure,
    InstabilityError,
    ParticleSet,
    PotentialParams,
    Trajectory,
    efs_generate,
    estimate_enclosure,
    generate_from_trajectory,
    interpolate_latent,
    interpolation_path,
    run_backward,
    run_forward,
    sample_ball,
    sample_sphere,
    spawn_seed,
)
from efs.rng import SplitMix64


def random_set(n, d, seed=0, scale=1.0):
    return ParticleSet(SplitMix64(seed).normals(n * d).reshape(n, d) * scale)


SMALL_P = PotentialParams(1.0, 1e-3)


def small_trajectory(seed=0, n=30, k=4, gamma=0.01):
    ps = random_set(n, 2, seed=seed, scale=2.0)
    return run_forward(ps, gamma, k, SMALL_P)


SMALL_BWD = BackwardConfig(gamma=0.01, beta=0.5, T=300)


# ---------------------------------------------------------------- enclosure

def test_enclosure_symmetric_example():
    ps = ParticleSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    enc = estimate_enclosure(ps)
    np.testing.assert_array_equal(enc.center, [0.0, 0.0])
    assert enc.radius == 1.0


def test_enclosure_translation_equivariance():
    ps = random_set(20, 2, seed=1)
    enc = estimate_enclosure(ps)
    shift = np.array([10.0, -4.0])
    moved = estimate_enclosure(ParticleSet(ps.positions + shift))
    np.testing.assert_allclose(moved.center, enc.center + shift, atol=1e-12)
    assert moved.radius == pytest.approx(enc.radius, rel=1e-12)


def test_enclosure_unit_circle_monte_carlo():
    angles = 2.0 * np.pi * SplitMix64(2).uniforms(10000)
    ps = ParticleSet(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    enc = estimate_enclosure(ps)
    assert enc.radius == pytest.approx(1.0, abs=0.02)


def test_enclosure_degenerate():
    with pytest.raises(DegenerateEnclosureError):
        estimate_enclosure(ParticleSet([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        estimate_enclosure(ParticleSet([[1.0, 2.0]]))


def test_enclosure_type_validation():
    with pytest.raises(ValueError):
        Enclosure(center=np.zeros(2), radius=0.0)
    with pytest.raises(ValueError):
        Enclosure(center=np.zeros(2), radius=float("inf"))


# ---------------------------------------------------------------- draws

def test_sphere_exact_radius():
    enc = Enclosure(center=np.array([1.0, -2.0, 0.5]), radius=3.7)
    rng = SplitMix64(3)
    for _ in range(50):
        v = sample_sphere(enc, 3, rng)
        assert np.linalg.norm(v - enc.center) == pytest.approx(3.7, abs=1e-12)


def test_sphere_rejects_d1():
    enc = Enclosure(center=np.zeros(1), radius=1.0)
    with pytest.raises(ValueError):
        sample_sphere(enc, 1, SplitMix64(0))


def test_sphere_dimension_mismatch():
    enc = Enclosure(center=np.zeros(3), radius=1.0)
    with pytest.raises(ValueError):
        sample_sphere(enc, 2, SplitMix64(0))


def test_sphere_deterministic():
    enc = Enclosure(center=np.zeros(2), radius=1.0)
    a = sample_sphere(enc, 2, SplitMix64(99))
    b = sample_sphere(enc, 2, SplitMix64(99))
    np.testing.assert_array_equal(a, b)


def test_sphere_angle_histogram():
    enc = Enclosure(center=np.zeros(2), radius=1.0)
    rng = SplitMix64(4)
    pts = np.array([sample_sphere(enc, 2, rng) for _ in range(50000)])
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    hist, _ = np.histogram(angles, bins=16, range=(0.0, 2.0 * np.pi))
    freq = hist / 50000.0
    assert np.all(np.abs(freq - 1.0 / 16.0) <= 0.15 / 16.0)


def test_ball_inside_radius():
    enc = Enclosure(center=np.array([2.0, 2.0]), radius=1.5)
    rng = SplitMix64(5)
    radii = [np.linalg.norm(sample_ball(enc, 2, rng) - enc.center) for _ in range(2000)]
    assert max(radii) <= 1.5 + 1e-12
    # u^(1/2) scaling puts half the mass beyond r/sqrt(2)
    inner = sum(r <= 1.5 / np.sqrt(2.0) for r in radii) / 2000.0
    assert inner == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------- interpolation

def test_interpolate_endpoints_and_midpoint():
    ps = ParticleSet([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_array_equal(interpolate_latent(ps, 0, 1, 0.0), [0.0, 0.0])
    np.testing.assert_array_equal(interpolate_latent(ps, 0, 1, 1.0), [2.0, 2.0])
    np.testing.assert_array_equal(interpolate_latent(ps, 0, 1, 0.5), [1.0, 1.0])


def test_interpolate_validation():
    ps = random_set(5, 2)
    with pytest.raises(ValueError):
        interpolate_latent(ps, 2, 2, 0.5)
    with pytest.raises(IndexError):
        interpolate_latent(ps, 0, 9, 0.5)
    with pytest.raises(ValueError):
        interpolate_latent(ps, 0, 1, 1.5)


# ---------------------------------------------------------------- pipeline

def test_generate_shapes_and_sphere_start():
    traj = small_trajectory()
    batch = generate_from_trajectory(traj, SMALL_BWD, 3, seed=5)
    assert batch.generated.shape == (3, 2)
    assert batch.mode == "sphere"
    assert len(batch.seeds) == 3
    assert len(batch.paths) == 3
    enc = estimate_enclosure(traj.snapshots[-1])
    for path in batch.paths:
        assert np.linalg.norm(path.points[0] - enc.center) == pytest.approx(
            enc.radius, abs=1e-12)


def test_generate_replay_from_recorded_seeds():
    traj = small_trajectory()
    batch = generate_from_trajectory(traj, SMALL_BWD, 4, seed=8)
    replay = generate_from_trajectory(traj, SMALL_BWD, 4, seeds=list(batch.seeds))
    np.testing.assert_array_equal(replay.generated, batch.generated)
    assert replay.seeds == batch.seeds


def test_generate_thread_count_invariance():
    traj = small_trajectory()
    one = generate_from_trajectory(traj, SMALL_BWD, 6, seed=2, threads=1)
    four = generate_from_trajectory(traj, SMALL_BWD, 6, seed=2, threads=4)
    np.testing.assert_array_equal(one.generated, four.generated)


def test_generate_interpolation_mode():
    traj = small_trajectory()
    batch = generate_from_trajectory(traj, SMALL_BWD, 5, mode="interpolation", seed=3)
    assert batch.generated.shape == (5, 2)
    assert batch.mode == "interpolation"


def test_generate_ball_mode_starts_are_ball_draws():
    traj = small_trajectory()
    batch = generate_from_trajectory(traj, SMALL_BWD, 4, mode="ball", seed=5)
    assert batch.mode == "ball"
    assert batch.seeds == tuple(spawn_seed(5, i) for i in range(4))
    enc = estimate_enclosure(traj.snapshots[-1])
    for path, child in zip(batch.paths, batch.seeds):
        np.testing.assert_array_equal(path.points[0], sample_ball(enc, 2, SplitMix64(child)))
    replay = generate_from_trajectory(traj, SMALL_BWD, 4, mode="ball", seeds=list(batch.seeds))
    np.testing.assert_array_equal(replay.generated, batch.generated)


def test_generate_validation():
    traj = small_trajectory()
    with pytest.raises(ValueError):
        generate_from_trajectory(traj, SMALL_BWD, 0)
    with pytest.raises(ValueError):
        generate_from_trajectory(traj, SMALL_BWD, 2, mode="teleport")
    with pytest.raises(ValueError):
        generate_from_trajectory(traj, SMALL_BWD, 2, seeds=[1, 2, 3])


def test_efs_generate_end_to_end():
    ps = random_set(25, 2, seed=7, scale=2.0)
    traj, batch = efs_generate(ps, 0.01, 3, SMALL_P, SMALL_BWD, m=2, seed=1)
    assert traj.k == 3
    assert batch.generated.shape == (2, 2)


@pytest.mark.parametrize("request_kwargs", [{"m": 0}])
def test_efs_generate_checks_request_before_forward(monkeypatch, request_kwargs):
    def forward(*args, **kwargs):
        raise AssertionError("the forward ran before the request was checked")

    monkeypatch.setattr(efs.pipeline, "run_forward", forward)
    with pytest.raises(ValueError):
        efs_generate(random_set(10, 2), 0.01, 3, SMALL_P, SMALL_BWD, **request_kwargs)


def test_pipeline_translation_equivariance():
    ps = random_set(25, 2, seed=9, scale=2.0)
    shift = np.array([4.0, -7.0])
    _, batch0 = efs_generate(ps, 0.01, 3, SMALL_P, SMALL_BWD, m=3, seed=6)
    _, batch1 = efs_generate(ParticleSet(ps.positions + shift), 0.01, 3,
                             SMALL_P, SMALL_BWD, m=3, seed=6)
    np.testing.assert_allclose(batch1.generated, batch0.generated + shift, atol=1e-8)


def test_interpolation_path_endpoints_and_determinism():
    traj = small_trajectory(n=25)
    cfg = BackwardConfig(gamma=0.01, beta=0.5, T=500, grad_tol=1e-13)
    batch = interpolation_path(traj, 0, 7, 5, cfg, snapshot_mode="exact")
    assert batch.generated.shape == (5, 2)
    assert batch.seeds is None
    # endpoints reduce to training-data recovery
    assert np.linalg.norm(batch.generated[0] - traj.snapshots[0].positions[0]) <= 5e-2
    assert np.linalg.norm(batch.generated[-1] - traj.snapshots[0].positions[7]) <= 5e-2
    again = interpolation_path(traj, 0, 7, 5, cfg, snapshot_mode="exact")
    np.testing.assert_array_equal(again.generated, batch.generated)


def test_roundtrip_error_is_the_per_particle_recovery_error():
    # criterion 5's computation: each particle walked back alone, in exact mode
    traj = small_trajectory(seed=4, n=12, k=3)
    cfg = BackwardConfig(gamma=0.0, beta=0.1, T=300)
    errors = [float(np.linalg.norm(
        run_backward(traj.snapshots[-1].positions[i], traj, cfg, snapshot_mode="exact").generated
        - traj.snapshots[0].positions[i])) for i in range(5)]
    batch, max_err, verdict = efs.pipeline.roundtrip(traj, cfg, 5)
    assert batch.mode == "roundtrip" and batch.generated.shape == (5, 2)
    assert max_err == max(errors)
    assert verdict == ("pass" if max_err <= efs.pipeline.ROUNDTRIP_TOL else "fail")
    # paper mode is reported without a verdict; indices past n take all n
    batch, max_err, verdict = efs.pipeline.roundtrip(traj, cfg, 50, snapshot_mode="paper")
    assert batch.generated.shape == (12, 2) and max_err >= 0.0 and verdict is None
    with pytest.raises(ValueError, match="indices must be >= 1"):
        efs.pipeline.roundtrip(traj, cfg, 0)


def test_interpolation_path_validation():
    traj = small_trajectory()
    cfg = SMALL_BWD
    with pytest.raises(ValueError):
        interpolation_path(traj, 0, 1, 1, cfg)
    with pytest.raises(IndexError):
        interpolation_path(traj, 0, 99, 3, cfg)
    with pytest.raises(ValueError):
        interpolation_path(traj, 2, 2, 3, cfg)


def test_exponent_window_warning(caplog):
    import logging

    ps = random_set(20, 2, seed=4)
    with caplog.at_level(logging.WARNING, logger="efs.forward"):
        efs_generate(ps, 0.01, 1, PotentialParams(5.0, 1e-3), SMALL_BWD, m=1, seed=0)
    assert sum("cited limit-law theory" in r.message for r in caplog.records) == 1


def test_convexity_guard_warned_once_per_batch(caplog):
    traj = small_trajectory(seed=9)
    above = BackwardConfig(gamma=0.01, beta=0.5, T=20)  # 1/L_W is ~8e-6 here
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        generate_from_trajectory(traj, above, 3, seed=1)
    assert sum("convexity guard" in r.message for r in caplog.records) == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="efs.backward"):
        interpolation_path(traj, 0, 1, 3, above)
    assert sum("convexity guard" in r.message for r in caplog.records) == 1


def test_batch_counts_capped_inversions():
    traj = small_trajectory(seed=9)
    for cfg in (BackwardConfig(gamma=0.01, beta=0.5, T=2), SMALL_BWD):
        for batch in (generate_from_trajectory(traj, cfg, 3, seed=1),
                      interpolation_path(traj, 0, 1, 3, cfg)):
            residuals = np.concatenate([p.inner_residuals for p in batch.paths])
            assert batch.inner_capped == int(np.sum(residuals > cfg.grad_tol))
    assert generate_from_trajectory(traj, BackwardConfig(0.01, 0.5, 2), 3).inner_capped == 12
    # an inversion that wanders instead of descending is counted too: it ends
    # its T = 500 iterations far from stationary (the start rounded to
    # 2.0966962 converges)
    snap = random_set(25, 1, seed=0, scale=2.0)
    wander = Trajectory((snap, snap), gamma=0.01, params=PotentialParams(2.5, 1e-3))
    batch = efs.pipeline.invert_batch([[2.096696196347619]], wander,
                                      BackwardConfig(0.01, 0.3, 500), "paper", "sphere")
    assert batch.inner_capped == 1
    assert batch.paths[0].inner_residuals[0] == pytest.approx(0.885, abs=5e-4)


def test_batch_inverts_with_the_trajectory_gamma(caplog):
    traj = small_trajectory(seed=9)
    other = BackwardConfig(gamma=0.009, beta=0.5, T=300)
    for run in (lambda cfg: generate_from_trajectory(traj, cfg, 3, seed=1),
                lambda cfg: interpolation_path(traj, 0, 1, 3, cfg)):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            batch = run(other)
        # one line: the convexity guard on traj.gamma, which SMALL_BWD shares
        assert len(caplog.records) == 1
        assert caplog.records[0].message.startswith("gamma=0.01 is at or above")
        same = run(SMALL_BWD)
        np.testing.assert_array_equal(batch.generated, same.generated)
        for a, b in zip(batch.paths, same.paths):
            np.testing.assert_array_equal(a.inner_residuals, b.inner_residuals)


def test_capped_batch_logs_one_summary(caplog):
    traj = small_trajectory(seed=9)
    capping = BackwardConfig(gamma=0.01, beta=0.5, T=2)
    for run in (lambda: generate_from_trajectory(traj, capping, 3, seed=1),
                lambda: interpolation_path(traj, 0, 1, 3, capping)):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            batch = run()
        cap_lines = [r.message for r in caplog.records if "cap above grad_tol" in r.message]
        assert batch.inner_capped > 0
        assert cap_lines == [f"{batch.inner_capped} of 12 inversions in the batch stopped "
                             f"at the T=2 cap above grad_tol=1e-10 (worst residual "
                             f"{max(p.inner_residuals.max() for p in batch.paths):.3g})"]


def test_interpolation_path_errors_name_backward_stage():
    traj = small_trajectory(seed=9)
    diverging = BackwardConfig(gamma=0.01, beta=1e12, T=20)
    with pytest.raises(InstabilityError, match="^backward stage: "):
        interpolation_path(traj, 0, 1, 3, diverging)


def test_batch_inverts_each_step_and_start_once(monkeypatch):
    traj = small_trajectory(seed=9)
    y, z = traj.snapshots[-1].positions[:2] + 0.25
    calls = {"invert_step": 0, "run_backward": 0}

    def counted(module, name):
        orig = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(efs.backward, "invert_step")
    counted(efs.pipeline, "run_backward")
    capped = []
    for cfg in (BackwardConfig(gamma=0.01, beta=0.5, T=2), SMALL_BWD):
        calls.update(invert_step=0, run_backward=0)
        batch = efs.pipeline.invert_batch([y, y, z], traj, cfg, "paper", "sphere")
        # the second y finds every step in the batch's memo
        assert calls == {"invert_step": 2 * traj.k, "run_backward": 3}
        alone = [efs.pipeline.invert_batch([start], traj, cfg, "paper", "sphere")
                 for start in (y, y, z)]
        assert batch.generated.tobytes() == np.concatenate(
            [b.generated for b in alone]).tobytes()
        for path, b in zip(batch.paths, alone):
            assert path.points.tobytes() == b.paths[0].points.tobytes()
            assert path.inner_residuals.tobytes() == b.paths[0].inner_residuals.tobytes()
        assert batch.inner_capped == sum(b.inner_capped for b in alone)
        capped.append(batch.inner_capped)
    # a reused inversion counts again, as it would if it were computed again
    assert capped == [3 * traj.k, 0]
