"""End-to-end generation: forward transport, augmentation, backward pass.

A run transports the training set forward, estimates the enclosing sphere of
the final snapshot, augments fresh points (uniform sphere or ball draw, or
latent interpolation), and inverts each augmented point back through the
stored snapshots.  Augmented points never interact with one another; each
sees only the stored snapshots, so samples are independent and are inverted
one after another.  ``generate_from_trajectory(threads=)`` is accepted and
ignored: the per-sample work is small and GIL-bound, and a thread pool
measured slower than one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backward import BackwardConfig, BackwardPath, _warn_capped, _warn_config, run_backward
from .errors import DegenerateEnclosureError
from .forward import ParticleSet, Trajectory, run_forward
from .potential import PotentialParams
from .rng import SplitMix64, spawn_seed

AUGMENTATION_MODES = ("sphere", "ball", "interpolation")


@dataclass(frozen=True)
class Enclosure:
    """Center and radius of the estimated enclosing sphere."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True)
class SampleBatch:
    """Generated points with full provenance.

    ``mode`` names how the starts were drawn: ``"sphere"`` (uniform on the
    enclosing sphere), ``"ball"`` (uniform in the enclosing ball),
    ``"interpolation"`` (a random pair of final-snapshot particles and a
    random t, or the fixed segment of ``interpolation_path``) or
    ``"roundtrip"``.  ``seeds`` holds one recorded RNG seed per sample for
    every random draw, random-pair interpolation included (None for the
    deterministic ``interpolation_path`` and roundtrip batches); a batch
    regenerates bit-exactly from its seeds, mode and configs.
    ``inner_capped`` counts the inversions of the whole batch that stopped at
    the T cap with a residual above ``grad_tol``.
    """

    generated: np.ndarray
    seeds: Optional[tuple]
    mode: str
    inner_capped: int
    paths: Optional[tuple] = None


def estimate_enclosure(ps: ParticleSet) -> Enclosure:
    """Coordinate-wise mean center, mean distance-to-center radius."""
    if ps.n < 2:
        raise ValueError("enclosure estimation needs at least 2 particles")
    c = ps.positions.mean(axis=0)
    r = float(np.linalg.norm(ps.positions - c, axis=1).mean())
    if r <= 0.0:
        raise DegenerateEnclosureError("all points coincide")
    return Enclosure(center=c, radius=r)


def sample_sphere(enc: Enclosure, d: int, rng: SplitMix64) -> np.ndarray:
    """One point uniform on the sphere of the enclosure (exact radius)."""
    if d < 2:
        raise ValueError("sphere sampling needs dimension >= 2")
    if enc.center.shape != (d,):
        raise ValueError(f"enclosure center has dimension {enc.center.shape[0]}, expected {d}")
    while True:
        u = rng.normals(d)
        norm = float(np.linalg.norm(u))
        if norm > 0.0:
            break
    return enc.center + enc.radius * (u / norm)


def sample_ball(enc: Enclosure, d: int, rng: SplitMix64) -> np.ndarray:
    """One point uniform in the ball of the enclosure (direction then radius)."""
    point = sample_sphere(enc, d, rng)
    scale = rng.uniform() ** (1.0 / d)
    return enc.center + scale * (point - enc.center)


def interpolate_latent(ps: ParticleSet, i: int, j: int, t: float) -> np.ndarray:
    """Convex combination (1 - t) * x_i + t * x_j."""
    if not 0 <= i < ps.n or not 0 <= j < ps.n:
        raise IndexError(f"indices ({i}, {j}) out of range for n={ps.n}")
    if i == j:
        raise ValueError("interpolation indices must be distinct")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    return (1.0 - t) * ps.positions[i] + t * ps.positions[j]


def invert_batch(starts, traj: Trajectory, bwd: BackwardConfig, snapshot_mode: str,
                 mode: str, seeds: Optional[list] = None,
                 keep_paths: bool = True) -> SampleBatch:
    """Invert each start back through ``traj`` and collect the batch.

    The convexity guard and a gamma mismatch are checked and logged once per
    batch; ``inner_capped`` counts the batch's T-capped inversions, which are
    reported in one warning per batch with the worst residual.
    """
    _warn_config(bwd, traj)
    try:
        paths = [run_backward(y, traj, bwd, snapshot_mode=snapshot_mode, _warn=False)
                 for y in starts]
    except Exception as e:
        raise type(e)(f"backward stage: {e}") from e
    residuals = np.concatenate([p.inner_residuals for p in paths])
    capped = _warn_capped(residuals, bwd, " in the batch")
    return SampleBatch(generated=np.array([p.generated for p in paths]),
                       seeds=None if seeds is None else tuple(seeds), mode=mode,
                       inner_capped=capped, paths=tuple(paths) if keep_paths else None)


def _check_request(m: int, mode: str = "sphere", seeds: Optional[list] = None) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if mode not in AUGMENTATION_MODES:
        raise ValueError(f"mode must be one of {AUGMENTATION_MODES}, got {mode!r}")
    if seeds is not None and len(seeds) != m:
        raise ValueError(f"got {len(seeds)} replay seeds for m={m}")


def efs_generate(ps0: ParticleSet, gamma: float, k: int, params: PotentialParams,
                 bwd: BackwardConfig, m: int, seed: int = 0):
    """Full pipeline: forward once, draw m sphere starts, invert each.

    Returns ``(Trajectory, SampleBatch)``, with seeds spawned from ``seed``;
    ``m`` is checked before the forward run.  Other starts, seeds and snapshot
    modes go through :func:`run_forward` and :func:`generate_from_trajectory`.
    """
    _check_request(m)
    traj = run_forward(ps0, gamma, k, params)
    return traj, generate_from_trajectory(traj, bwd, m, seed=seed)


def generate_from_trajectory(traj: Trajectory, bwd: BackwardConfig, m: int,
                             mode: str = "sphere", seed: int = 0,
                             snapshot_mode: str = "paper", seeds: Optional[list] = None,
                             keep_paths: bool = True,
                             threads: Optional[int] = None) -> SampleBatch:
    """Augment m points (``mode`` as in ``SampleBatch``) against a stored
    trajectory and invert them."""
    _check_request(m, mode, seeds)
    final = traj.snapshots[-1]
    if seeds is None:
        seeds = [spawn_seed(seed, i) for i in range(m)]
    enc = None if mode == "interpolation" else estimate_enclosure(final)
    starts = []
    for child in seeds:
        rng = SplitMix64(child)
        if mode == "sphere":
            y = sample_sphere(enc, final.d, rng)
        elif mode == "ball":
            y = sample_ball(enc, final.d, rng)
        else:
            a = rng.integer(final.n)
            b = rng.integer(final.n - 1)
            if b >= a:
                b += 1
            y = interpolate_latent(final, a, b, rng.uniform())
        starts.append(y)
    return invert_batch(starts, traj, bwd, snapshot_mode, mode, seeds=seeds,
                        keep_paths=keep_paths)


def interpolation_path(traj: Trajectory, i: int, j: int, steps: int,
                       bwd: BackwardConfig, snapshot_mode: str = "paper") -> SampleBatch:
    """Backward-map the straight segment between x_i^(k) and x_j^(k).

    The segment is sampled at ``steps`` equispaced t values in [0, 1]
    (endpoints included), so the first and last generated points recover the
    two training particles' initial positions up to inversion error.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    final = traj.snapshots[-1]
    starts = [interpolate_latent(final, i, j, t) for t in np.linspace(0.0, 1.0, steps)]
    return invert_batch(starts, traj, bwd, snapshot_mode, "interpolation")
