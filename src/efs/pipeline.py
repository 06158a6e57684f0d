"""End-to-end generation: forward transport, augmentation, backward pass.

A run transports the training set forward, estimates the enclosing sphere of
the final snapshot, augments fresh points (uniform sphere or ball draw, or
latent interpolation), and inverts each augmented point back through the
stored snapshots.  Augmented points never interact with one another; each
sees only the stored snapshots, so samples are independent and are inverted
one after another.  ``generate_from_trajectory(threads=)`` is accepted and
ignored: the per-sample work is small and GIL-bound, and a thread pool
measured slower than one thread.

A batch inverts each (step, start) once: :func:`invert_batch` passes one
dict to every :func:`efs.backward.run_backward` of the batch, so a sample
that reaches the bytes another sample reached at the same step reuses that
inversion, the same bits it would compute.  That pays where samples merge:
on the reference mixture they collapse onto shared paths from about step 16
on, and 14-19 % of a 50-sample batch's inversions are reused.  Merged samples
are copies of one another, so the saving measures the collapse; where
samples stay apart (the Swiss roll, the n = 2000 mixture) nothing is reused.

:func:`roundtrip` owns the recovery check of a stored trajectory: it walks
the first final-snapshot particles back as one batch and judges the largest
recovery error against acceptance criterion 5's ``ROUNDTRIP_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .backward import BackwardConfig, _warn_capped, _warn_convexity_guard, run_backward
from .errors import DegenerateEnclosureError, check_bound
from .forward import ParticleSet, Trajectory, run_forward
from .potential import PotentialParams
from .rng import SplitMix64, spawn_seed

AUGMENTATION_MODES = ("sphere", "ball", "interpolation")

# Acceptance criterion 5's limit on the training-data recovery error.
ROUNDTRIP_TOL = 5e-2


@dataclass(frozen=True)
class Enclosure:
    """Center and radius of the estimated enclosing sphere."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        check_bound("radius", self.radius, 0, strict=True, finite=True)


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
    the T cap with a residual above ``grad_tol``, as the batch's warning does.
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

    Each step is inverted with ``traj.gamma`` (see :func:`run_backward`),
    and each (step, start) once, through one memo dict for the batch.
    This is the one place a backward run is reported, once per batch: a
    ``traj.gamma`` above the convexity guard, and the T-capped inversions
    that ``inner_capped`` counts, with the worst residual.
    """
    _warn_convexity_guard(traj.gamma, traj.params)
    memo = {}
    try:
        paths = [run_backward(y, traj, bwd, snapshot_mode=snapshot_mode, memo=memo)
                 for y in starts]
    except Exception as e:
        raise type(e)(f"backward stage: {e}") from e
    residuals = np.concatenate([p.inner_residuals for p in paths])
    capped = _warn_capped(residuals, bwd)
    return SampleBatch(generated=np.array([p.generated for p in paths]),
                       seeds=None if seeds is None else tuple(seeds), mode=mode,
                       inner_capped=capped, paths=tuple(paths) if keep_paths else None)


def roundtrip(traj: Trajectory, bwd: BackwardConfig, indices: int,
              snapshot_mode: str = "exact"):
    """Walk the first ``indices`` final-snapshot particles back and judge the recovery.

    The particles (all n when ``indices`` exceeds n) are inverted as one
    ``"roundtrip"`` batch (:func:`invert_batch`).  Returns ``(batch, max_err,
    verdict)``: ``max_err`` is the largest distance of a generated point from
    its particle's initial position, and ``verdict`` is ``"pass"`` or
    ``"fail"`` against ``ROUNDTRIP_TOL`` in exact mode; paper mode does not
    undo the forward map, so there it is None.
    """
    check_bound("indices", indices, 1)
    batch = invert_batch(traj.snapshots[-1].positions[:indices], traj, bwd,
                         snapshot_mode, "roundtrip", keep_paths=False)
    max_err = max(float(np.linalg.norm(g - x))
                  for g, x in zip(batch.generated, traj.snapshots[0].positions))
    if snapshot_mode != "exact":
        return batch, max_err, None
    return batch, max_err, "pass" if max_err <= ROUNDTRIP_TOL else "fail"


def _check_request(m: int, mode: str = "sphere", seeds: Optional[list] = None) -> None:
    check_bound("m", m, 1)
    if mode not in AUGMENTATION_MODES:
        raise ValueError(f"mode must be one of {AUGMENTATION_MODES}, got {mode!r}")
    if seeds is not None and len(seeds) != m:
        raise ValueError(f"got {len(seeds)} replay seeds for m={m}")


def efs_generate(ps0: ParticleSet, gamma: float, k: int, params: PotentialParams,
                 bwd: BackwardConfig, m: int, seed: int = 0):
    """Full pipeline: forward once, draw m sphere starts, invert each.

    Returns ``(Trajectory, SampleBatch)``, with seeds spawned from ``seed``;
    ``m`` is checked before the forward run; ``bwd.gamma`` is not used (the
    backward pass inverts with ``gamma``).  Other starts, seeds and snapshot
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
    check_bound("steps", steps, 2)
    final = traj.snapshots[-1]
    starts = [interpolate_latent(final, i, j, t) for t in np.linspace(0.0, 1.0, steps)]
    return invert_batch(starts, traj, bwd, snapshot_mode, "interpolation")
