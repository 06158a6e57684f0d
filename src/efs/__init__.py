"""Estimation-free sampling: deterministic particle transport to and from
the forward pass's limit law on a ball, with proximal inversion for data
generation.

For s = d - 2 the limit law is the uniform ball of radius 1 about the center
of mass.  For d - 2 < s < d it is a non-uniform profile proportional to
(R^2 - |x|^2)^((s - d + 2) / 2) on a ball of radius R; the reference
mixture (s = 1, d = 2) is of this kind (Fetecau, Huang & Kolokolnikov 2011;
Carrillo & Huang 2017)."""

from .backward import (
    BackwardConfig,
    BackwardPath,
    augmented_forward_map,
    invert_step,
    prox_objective,
    run_backward,
)
from .datasets import LabeledPoints, gaussian_mixture, swiss_roll
from .errors import (
    DegenerateEnclosureError,
    EfsError,
    FormatError,
    InstabilityError,
    SingularityError,
)
from .forward import (
    ParticleSet,
    Trajectory,
    energy_trace,
    forward_gradient,
    forward_step,
    interaction_energy,
    run_forward,
)
from .metrics import UniformityReport, mmd_squared, nn_novelty, uniformity_report
from .persist import load_points, save_points
from .pipeline import (
    Enclosure,
    SampleBatch,
    efs_generate,
    estimate_enclosure,
    generate_from_trajectory,
    interpolate_latent,
    interpolation_path,
    sample_ball,
    sample_sphere,
)
from .potential import (
    PotentialParams,
    pair_hessian_spectral_bound,
    potential_gradient,
    potential_value,
)
from .rng import SplitMix64, spawn_seed

__all__ = [
    "BackwardConfig",
    "BackwardPath",
    "DegenerateEnclosureError",
    "EfsError",
    "Enclosure",
    "FormatError",
    "InstabilityError",
    "LabeledPoints",
    "ParticleSet",
    "PotentialParams",
    "SampleBatch",
    "SingularityError",
    "SplitMix64",
    "Trajectory",
    "UniformityReport",
    "augmented_forward_map",
    "efs_generate",
    "energy_trace",
    "estimate_enclosure",
    "forward_gradient",
    "forward_step",
    "gaussian_mixture",
    "generate_from_trajectory",
    "interaction_energy",
    "interpolate_latent",
    "interpolation_path",
    "invert_step",
    "load_points",
    "mmd_squared",
    "nn_novelty",
    "pair_hessian_spectral_bound",
    "potential_gradient",
    "potential_value",
    "prox_objective",
    "run_backward",
    "run_forward",
    "sample_ball",
    "sample_sphere",
    "save_points",
    "spawn_seed",
    "swiss_roll",
    "uniformity_report",
]
