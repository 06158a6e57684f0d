"""Command-line surface: dataset generation, forward runs, sampling, metrics.

Standard output carries machine-readable ``key=value`` lines; diagnostics go
to standard error.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import persist, svg
from .backward import BackwardConfig, run_backward
from .datasets import gaussian_mixture, load_points, save_points, swiss_roll
from .errors import DegenerateEnclosureError, FormatError, InstabilityError, SingularityError
from .forward import ParticleSet, Trajectory, run_forward
from .metrics import energy_trace, mmd_squared, nn_novelty, uniformity_report
from .pipeline import generate_from_trajectory, interpolation_path
from .potential import PotentialParams

logger = logging.getLogger(__name__)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError(f"{path}: line {lineno}: empty key")
            out[key] = value
    return out


def resolve(args, config: dict, key: str, default=None, cast=float, required=False):
    """Option precedence: explicit flag > config file > built-in default."""
    value = getattr(args, key, None)
    if value is None and key in config:
        value = config[key]
    if value is None:
        if required and default is None:
            raise ValueError(f"missing required option --{key}")
        return default
    if isinstance(value, str):
        value = cast(value)
    return value


def resolve_exponent(args, config, d: int) -> float:
    """The exponent accepts the symbolic token ``d-2``."""
    raw = resolve(args, config, "s", cast=str, required=True)
    if isinstance(raw, str) and raw.replace("−", "-").strip() == "d-2":
        return float(d - 2)
    return float(raw)


def _read_trajectory(path):
    blob = persist.read_efsb(path)
    traj = Trajectory(tuple(ParticleSet(a) for a in blob.snapshots),
                      gamma=blob.gamma,
                      params=PotentialParams(s=blob.s, epsilon=blob.epsilon))
    return traj, blob.labels


def cmd_dataset(args, config) -> int:
    kind = resolve(args, config, "kind", cast=str, required=True)
    n = resolve(args, config, "n", cast=int, required=True)
    seed = resolve(args, config, "seed", default=0, cast=int)
    if kind == "mixture":
        std = resolve(args, config, "std", default=None, cast=float)
        stds = None if std is None else [std] * 4
        lp = gaussian_mixture(n, stds=stds, seed=seed)
    elif kind == "swiss":
        noise = resolve(args, config, "noise", default=0.2, cast=float)
        lp = swiss_roll(n, noise=noise, seed=seed)
    else:
        raise ValueError(f"unknown dataset kind {kind!r}")
    save_points(lp, args.out)
    print(f"n={lp.points.n}")
    print(f"d={lp.points.d}")
    print(f"out={args.out}")
    return 0


def cmd_forward(args, config) -> int:
    lp = load_points(args.data)
    d = lp.points.d
    gamma = resolve(args, config, "gamma", required=True)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    k = resolve(args, config, "k", cast=int, required=True)
    epsilon = resolve(args, config, "epsilon", default=1e-3)
    s = resolve_exponent(args, config, d)
    params = PotentialParams(s=s, epsilon=epsilon)
    traj = run_forward(lp.points, gamma, k, params)
    persist.write_efsb(args.out, [ps.positions for ps in traj.snapshots],
                       gamma=gamma, s=s, epsilon=epsilon, labels=lp.labels)
    energies = energy_trace(traj)
    energy_out = args.energy_out or (args.out + ".energy.csv")
    with open(energy_out, "w", newline="\n") as f:
        f.write("iteration,energy\n")
        for j, e in enumerate(energies):
            f.write(f"{j},{e:.17g}\n")
    if energies[-1] >= energies[0]:
        logger.warning("energy did not decrease over the run (%g -> %g)",
                       energies[0], energies[-1])
    print(f"n={traj.n}")
    print(f"d={traj.d}")
    print(f"k={traj.k}")
    print(f"snapshots={traj.k + 1}")
    print(f"energy_initial={energies[0]:.17g}")
    print(f"energy_final={energies[-1]:.17g}")
    print(f"out={args.out}")
    return 0


def _write_samples_csv(path, generated: np.ndarray, seeds):
    n, d = generated.shape
    header = ",".join(f"x{i}" for i in range(d)) + ",seed"
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for i in range(n):
            row = ",".join(f"{v:.17g}" for v in generated[i])
            f.write(f"{row},{seeds[i] if seeds is not None else 0}\n")


def _read_replay_seeds(path):
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].split(",")[-1] == "seed":
        raise FormatError(f"{path}: expected a samples csv with a trailing seed column")
    seeds = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            seeds.append(int(line.split(",")[-1]))
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
    if not seeds:
        raise FormatError(f"{path}: no seeds found")
    return seeds


def cmd_sample(args, config) -> int:
    traj, labels = _read_trajectory(args.traj)
    gamma = resolve(args, config, "gamma", default=traj.gamma)
    beta = resolve(args, config, "beta", required=True)
    T = resolve(args, config, "T", cast=int, required=True)
    grad_tol = resolve(args, config, "grad_tol", default=1e-10)
    seed = resolve(args, config, "seed", default=0, cast=int)
    m = resolve(args, config, "m", default=1, cast=int)
    mode = resolve(args, config, "mode", default="sphere", cast=str)
    snapshot_mode = resolve(args, config, "snapshot_mode", default="paper", cast=str)
    bwd = BackwardConfig(gamma=gamma, beta=beta, T=T, grad_tol=grad_tol)

    if mode == "interp" and args.i is not None:
        if args.j is None or args.steps is None:
            raise ValueError("--mode interp with --i needs --j and --steps")
        batch = interpolation_path(traj, args.i, args.j, args.steps, bwd,
                                   snapshot_mode=snapshot_mode)
    else:
        pipeline_mode = "interpolation" if mode == "interp" else mode
        seeds = _read_replay_seeds(args.replay) if args.replay else None
        if seeds is not None:
            m = len(seeds)
        batch = generate_from_trajectory(
            traj, bwd, m, mode=pipeline_mode, seed=seed,
            snapshot_mode=snapshot_mode, use_ball=args.ball,
            seeds=seeds, keep_paths=False)
    _write_samples_csv(args.out, batch.generated, batch.seeds)
    if args.svg:
        first = traj.snapshots[0]
        svg.write_scatter_svg(args.svg, first.positions, labels=labels,
                              stars=batch.generated)
        print(f"svg={args.svg}")
    print(f"m={batch.generated.shape[0]}")
    print(f"mode={batch.mode}")
    print(f"inner_capped={batch.inner_capped}")
    print(f"out={args.out}")
    return 0


def cmd_metrics(args, config) -> int:
    did = False
    if args.points:
        blob = persist.read_efsb(args.points) if str(args.points).endswith(".efsb") \
            else None
        if blob is not None:
            idx = args.snapshot if args.snapshot is not None else len(blob.snapshots) - 1
            points = ParticleSet(blob.snapshots[idx])
        else:
            points = load_points(args.points).points
        report = uniformity_report(points)
        print(f"radial_ks={report.radial_ks:.17g}")
        if report.angular_ks is not None:
            print(f"angular_ks={report.angular_ks:.17g}")
        print(f"radius={report.enclosure.radius:.17g}")
        did = True
    if args.mmd:
        a = load_points(args.mmd[0]).points
        b = load_points(args.mmd[1]).points
        s = resolve(args, config, "s", default=1.0, cast=float)
        epsilon = resolve(args, config, "epsilon", default=1e-3)
        value = mmd_squared(a, b, PotentialParams(s=float(s), epsilon=epsilon))
        print(f"mmd2={value:.17g}")
        did = True
    if args.nn:
        gen = load_points(args.nn[0]).points
        train = load_points(args.nn[1]).points
        min_nn, mean_nn, self_nn = nn_novelty(gen, train)
        print(f"min_nn={min_nn:.17g}")
        print(f"mean_nn={mean_nn:.17g}")
        print(f"self_nn_mean={self_nn:.17g}")
        did = True
    if not did:
        raise ValueError("nothing to do: pass --points, --mmd or --nn")
    return 0


def cmd_roundtrip(args, config) -> int:
    gamma = resolve(args, config, "gamma", default=0.1)
    k = resolve(args, config, "k", default=31, cast=int)
    T = resolve(args, config, "T", default=300, cast=int)
    beta = resolve(args, config, "beta", default=0.1)
    epsilon = resolve(args, config, "epsilon", default=1e-3)
    seed = resolve(args, config, "seed", default=0, cast=int)
    count = resolve(args, config, "indices", default=10, cast=int)
    snapshot_mode = resolve(args, config, "snapshot_mode", default="exact", cast=str)
    tol = resolve(args, config, "tol", default=5e-2)
    if args.data:
        points = load_points(args.data).points
    else:
        n = resolve(args, config, "n", default=400, cast=int)
        points = gaussian_mixture(n, seed=seed).points
    s = resolve_exponent(args, config, points.d) if getattr(args, "s", None) or "s" in config \
        else 1.0
    params = PotentialParams(s=s, epsilon=epsilon)
    traj = run_forward(points, gamma, k, params)
    bwd = BackwardConfig(gamma=gamma, beta=beta, T=T)
    count = min(count, points.n)
    errors = []
    for i in range(count):
        path = run_backward(traj.snapshots[-1].positions[i], traj, bwd,
                            snapshot_mode=snapshot_mode)
        errors.append(float(np.linalg.norm(path.generated - traj.snapshots[0].positions[i])))
    max_err = max(errors)
    print(f"snapshot_mode={snapshot_mode}")
    print(f"indices={count}")
    print(f"max_recovery_error={max_err:.17g}")
    if snapshot_mode == "exact":
        print(f"status={'pass' if max_err <= tol else 'fail'}")
    else:
        print("status=reported")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efs", description="Estimation-free sampling: forward/backward particle transport")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", help="RNG seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored; samples run one at a time")

    p = sub.add_parser("dataset", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--kind", choices=["mixture", "swiss"])
    p.add_argument("--n")
    p.add_argument("--std", help="mixture component std")
    p.add_argument("--noise", help="swiss roll noise level")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("forward", help="run the forward transport, store the trajectory")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--gamma")
    p.add_argument("--k")
    p.add_argument("--s", help="exponent; accepts the token d-2")
    p.add_argument("--epsilon")
    p.add_argument("--out", required=True)
    p.add_argument("--energy-out", dest="energy_out")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("sample", help="generate samples from a stored trajectory")
    common(p)
    p.add_argument("--traj", required=True)
    p.add_argument("--mode", dest="mode", choices=["sphere", "interp"])
    p.add_argument("--m")
    p.add_argument("--gamma", help="backward gamma (defaults to the trajectory's)")
    p.add_argument("--beta")
    p.add_argument("--T")
    p.add_argument("--grad-tol", dest="grad_tol")
    p.add_argument("--snapshot-mode", dest="snapshot_mode", choices=["paper", "exact"])
    p.add_argument("--ball", action="store_true", help="uniform ball draw instead of sphere")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--replay", help="samples csv whose seed column to replay")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", help="uniformity / MMD / novelty reports")
    common(p)
    p.add_argument("--points", help="point cloud or trajectory file")
    p.add_argument("--snapshot", type=int, help="snapshot index for trajectory files")
    p.add_argument("--mmd", nargs=2, metavar=("A", "B"))
    p.add_argument("--s")
    p.add_argument("--epsilon")
    p.add_argument("--nn", nargs=2, metavar=("GENERATED", "TRAINING"))
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("roundtrip", help="forward then backward recovery check")
    common(p)
    p.add_argument("--data")
    p.add_argument("--gamma")
    p.add_argument("--k")
    p.add_argument("--T")
    p.add_argument("--beta")
    p.add_argument("--epsilon")
    p.add_argument("--s")
    p.add_argument("--n")
    p.add_argument("--indices")
    p.add_argument("--snapshot-mode", dest="snapshot_mode", choices=["paper", "exact"])
    p.add_argument("--tol")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except (SingularityError, InstabilityError, DegenerateEnclosureError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
