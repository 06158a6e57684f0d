"""Every numeric bound of the library raises its full message.

Each site states its bound the same way, ``<name> must be [finite and ]>= or
> <low>, got <value>``; these cases pin the whole text of each one, the
value included.
"""

import re

import numpy as np
import pytest

from efs import (BackwardConfig, Enclosure, ParticleSet, PotentialParams, SplitMix64,
                 efs_generate, gaussian_mixture, generate_from_trajectory, interpolation_path,
                 run_forward, swiss_roll)
from efs.forward import forward_step

P = PotentialParams(1.0, 1e-3)
BWD = BackwardConfig(gamma=0.1, beta=0.1, T=5)
PAIR = ParticleSet([[0.0, 0.0], [1.0, 0.5]])


def small_trajectory():
    return run_forward(ParticleSet([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]]), 0.01, 1, P)


CASES = {
    "backward_gamma_nan": (lambda: BackwardConfig(gamma=float("nan"), beta=0.1, T=5),
                           "gamma must be finite and >= 0, got nan"),
    "backward_gamma_negative": (lambda: BackwardConfig(gamma=-0.5, beta=0.1, T=5),
                                "gamma must be finite and >= 0, got -0.5"),
    "backward_beta_zero": (lambda: BackwardConfig(gamma=0.1, beta=0.0, T=5),
                           "beta must be finite and > 0, got 0.0"),
    "backward_beta_inf": (lambda: BackwardConfig(gamma=0.1, beta=float("inf"), T=5),
                          "beta must be finite and > 0, got inf"),
    "backward_grad_tol_negative": (
        lambda: BackwardConfig(gamma=0.1, beta=0.1, T=5, grad_tol=-1e-3),
        "grad_tol must be finite and >= 0, got -0.001"),
    "potential_s_negative": (lambda: PotentialParams(s=-1, epsilon=1e-3),
                             "s must be finite and >= 0, got -1"),
    "potential_epsilon_inf": (lambda: PotentialParams(s=1.0, epsilon=float("inf")),
                              "epsilon must be finite and >= 0, got inf"),
    "forward_step_gamma_negative": (lambda: forward_step(PAIR, -0.1, P),
                                    "gamma must be finite and >= 0, got -0.1"),
    "run_forward_k_zero": (lambda: run_forward(PAIR, 0.1, 0, P), "k must be >= 1, got 0"),
    "mixture_n_zero": (lambda: gaussian_mixture(0), "n must be >= 1, got 0"),
    "swiss_n_negative": (lambda: swiss_roll(-2), "n must be >= 1, got -2"),
    "swiss_noise_nan": (lambda: swiss_roll(10, noise=float("nan")),
                        "noise must be finite and >= 0, got nan"),
    "efs_generate_m_zero": (lambda: efs_generate(PAIR, 0.1, 1, P, BWD, m=0),
                            "m must be >= 1, got 0"),
    "generate_m_negative": (lambda: generate_from_trajectory(small_trajectory(), BWD, -1),
                            "m must be >= 1, got -1"),
    "path_steps_one": (lambda: interpolation_path(small_trajectory(), 0, 1, 1, BWD),
                       "steps must be >= 2, got 1"),
    "rng_integer_bound_zero": (lambda: SplitMix64(1).integer(0), "bound must be > 0, got 0"),
    "enclosure_radius_nan": (lambda: Enclosure(center=np.zeros(2), radius=float("nan")),
                             "radius must be finite and > 0, got nan"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bound_message_is_pinned_in_full(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
