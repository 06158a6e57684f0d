"""Command-line surface: dataset generation, forward runs, sampling, metrics.

Standard output carries machine-readable ``key=value`` lines; diagnostics go
to standard error.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 I/O error.  A ``--config`` file's keys are the long
option names with ``_`` for ``-`` (``grad_tol``, ``snapshot_mode``); keys that
name no single-value option of the subcommand are ignored, and values are
parsed and rejected like flags (exit 2).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import persist, svg
from .backward import BackwardConfig
from .datasets import gaussian_mixture, load_points, save_points, swiss_roll
from .errors import DegenerateEnclosureError, FormatError, InstabilityError, SingularityError
from .forward import ParticleSet, Trajectory, run_forward
from .metrics import energy_trace, mmd_squared, nn_novelty, uniformity_report
from .pipeline import generate_from_trajectory, interpolation_path, invert_batch
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


def resolve_exponent(raw: str, d: int) -> float:
    """The exponent accepts the symbolic token ``d-2``."""
    if raw.replace("−", "-").strip() == "d-2":
        return float(d - 2)
    return float(raw)


def _read_trajectory(path):
    blob = persist.read_efsb(path)
    if len(blob.snapshots) < 2:
        raise FormatError(f"{path}: holds {len(blob.snapshots)} snapshot; "
                          "a trajectory has at least 2")
    traj = Trajectory(tuple(ParticleSet(a) for a in blob.snapshots),
                      gamma=blob.gamma,
                      params=PotentialParams(s=blob.s, epsilon=blob.epsilon))
    return traj, blob.labels


def cmd_dataset(args) -> int:
    if args.kind == "mixture":
        if args.noise is not None:
            raise ValueError("--noise applies only to --kind swiss")
        stds = None if args.std is None else [args.std] * 4
        lp = gaussian_mixture(args.n, stds=stds, seed=args.seed)
    elif args.kind == "swiss":
        if args.std is not None:
            raise ValueError("--std applies only to --kind mixture")
        noise = 0.2 if args.noise is None else args.noise
        lp = swiss_roll(args.n, noise=noise, seed=args.seed)
    else:
        raise ValueError(f"unknown dataset kind {args.kind!r}")
    save_points(lp, args.out)
    print(f"n={lp.points.n}")
    print(f"d={lp.points.d}")
    print(f"out={args.out}")
    return 0


def cmd_forward(args) -> int:
    lp = load_points(args.data)
    if args.gamma <= 0:
        raise ValueError("gamma must be positive")
    s = resolve_exponent(args.s, lp.points.d)
    params = PotentialParams(s=s, epsilon=args.epsilon)
    traj = run_forward(lp.points, args.gamma, args.k, params)
    persist.write_efsb(args.out, [ps.positions for ps in traj.snapshots],
                       gamma=args.gamma, s=s, epsilon=args.epsilon, labels=lp.labels)
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


def cmd_sample(args) -> int:
    path_flags = [flag for flag, value in (("--i", args.i), ("--j", args.j)) if value is not None]
    if path_flags and args.mode != "interp":
        raise ValueError(f"{'/'.join(path_flags)} requires --mode interp")
    if path_flags and args.i is None:
        raise ValueError(f"{'/'.join(path_flags)} requires --i")
    if path_flags and args.replay:
        raise ValueError("--replay cannot be combined with --i: a path has no seeds to replay")
    if path_flags and args.seed is not None:
        raise ValueError("--seed cannot be combined with --i: a path draws no random numbers")
    if path_flags and args.j is None:
        raise ValueError("--i needs --j: a path runs from particle i to particle j")
    if path_flags and (args.m is None or args.m < 2):
        raise ValueError("--i needs --m >= 2, the number of points on the path")
    traj, labels = _read_trajectory(args.traj)
    bwd = BackwardConfig(gamma=traj.gamma, beta=args.beta, T=args.T, grad_tol=args.grad_tol)

    if path_flags:
        batch = interpolation_path(traj, args.i, args.j, args.m, bwd,
                                   snapshot_mode=args.snapshot_mode)
    else:
        pipeline_mode = "interpolation" if args.mode == "interp" else args.mode
        m, seeds = (1 if args.m is None else args.m), None
        if args.replay:
            _points, _labels, seeds = persist.read_csv(args.replay)
            if seeds is None:
                raise FormatError(f"{args.replay}: expected a samples csv with a trailing seed column")
            # the file fixes the count and the seeds, so --m and --seed go unused
            seeds = seeds.tolist()
            m = len(seeds)
        batch = generate_from_trajectory(
            traj, bwd, m, mode=pipeline_mode, seed=0 if args.seed is None else args.seed,
            snapshot_mode=args.snapshot_mode, seeds=seeds, keep_paths=False)
    persist.write_csv(args.out, batch.generated, seeds=batch.seeds)
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


def cmd_metrics(args) -> int:
    if args.snapshot is not None and not str(args.points).endswith(".efsb"):
        raise ValueError("--snapshot needs an .efsb trajectory as --points")
    did = False
    if args.points:
        if str(args.points).endswith(".efsb"):
            snapshots = persist.read_efsb(args.points).snapshots
            idx = len(snapshots) - 1 if args.snapshot is None else args.snapshot
            if not -len(snapshots) <= idx < len(snapshots):
                raise ValueError(f"--snapshot {idx} is out of range for {len(snapshots)} snapshots")
            points = ParticleSet(snapshots[idx])
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
        value = mmd_squared(a, b, PotentialParams(s=args.s, epsilon=args.epsilon))
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


def cmd_roundtrip(args) -> int:
    if args.indices < 1:
        raise ValueError(f"--indices must be >= 1, got {args.indices}")
    traj, _labels = _read_trajectory(args.traj)
    bwd = BackwardConfig(gamma=traj.gamma, beta=args.beta, T=args.T)
    count = min(args.indices, traj.n)
    batch = invert_batch(traj.snapshots[-1].positions[:count], traj, bwd,
                         args.snapshot_mode, "roundtrip", keep_paths=False)
    max_err = max(float(np.linalg.norm(g - x))
                  for g, x in zip(batch.generated, traj.snapshots[0].positions))
    print(f"snapshot_mode={args.snapshot_mode}")
    print(f"indices={count}")
    print(f"max_recovery_error={max_err:.17g}")
    print(f"inner_capped={batch.inner_capped}")
    if args.snapshot_mode == "exact":
        print(f"status={'pass' if max_err <= args.tol else 'fail'}")
    else:
        print("status=reported")
    return 0


# Options with no built-in default: a flag or the --config file must set them.
REQUIRED = {"dataset": ("kind", "n"), "forward": ("gamma", "k", "s"), "sample": ("beta", "T")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efs", description="Estimation-free sampling: forward/backward particle transport")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key = value configuration file")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("dataset", cmd_dataset, "generate a synthetic dataset")
    p.add_argument("--kind", choices=["mixture", "swiss"])
    p.add_argument("--n", type=int)
    p.add_argument("--std", type=float, help="mixture component std")
    p.add_argument("--noise", type=float, help="swiss roll noise level (default 0.2)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--out", required=True)

    p = command("forward", cmd_forward, "run the forward transport, store the trajectory")
    p.add_argument("--data", required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--s", help="exponent; accepts the token d-2")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.add_argument("--energy-out")

    p = command("sample", cmd_sample, "generate samples from a stored trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--mode", choices=["sphere", "ball", "interp"], default="sphere",
                   help="starts: uniform on the enclosing sphere, uniform in its ball, "
                        "or interpolated between two final-snapshot particles")
    p.add_argument("--m", type=int, help="number of draws (default 1) or of points on an --i path")
    p.add_argument("--beta", type=float)
    p.add_argument("--T", type=int)
    p.add_argument("--grad-tol", type=float, default=1e-10)
    p.add_argument("--snapshot-mode", choices=["paper", "exact"], default="paper")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--replay",
                   help="samples csv whose seed column to replay; the file records only seeds, "
                        "so give the --mode, --snapshot-mode, --beta, --T and "
                        "--grad-tol that made it; --m and --seed are ignored")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored; samples run one at a time")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")

    p = command("metrics", cmd_metrics, "uniformity / MMD / novelty reports")
    p.add_argument("--points", help="point cloud or trajectory file")
    p.add_argument("--snapshot", type=int, help="snapshot index for trajectory files")
    p.add_argument("--mmd", nargs=2, metavar=("A", "B"))
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--nn", nargs=2, metavar=("GENERATED", "TRAINING"))

    p = command("roundtrip", cmd_roundtrip, "backward recovery check of a stored trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--T", type=int, default=300)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--indices", type=int, default=10)
    p.add_argument("--snapshot-mode", choices=["paper", "exact"], default="exact")
    p.add_argument("--tol", type=float, default=5e-2)

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Option precedence: explicit flag > --config file > built-in default.

    The config file's values become defaults of the chosen subcommand, so
    argparse types and rejects them as it does flags.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        config = load_config_file(args.config)
        options = {a.dest for a in args.parser._actions if a.nargs is None}
        args.parser.set_defaults(**{k: v for k, v in config.items() if k in options})
        args = parser.parse_args(argv)
    for key in REQUIRED.get(args.command, ()):
        if getattr(args, key) is None:
            raise ValueError(f"missing required option --{key}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        logging.basicConfig(stream=sys.stderr,
                            level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
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
