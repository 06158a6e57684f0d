"""Command-line surface: dataset generation, forward runs, sampling, metrics.

Standard output carries machine-readable ``key=value`` lines; diagnostics go
to standard error.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 I/O error.  No command holds a numeric verdict:
``efs forward`` prints and stores the energies that
:func:`efs.forward.run_forward` computed, checked and judged, and
``efs roundtrip`` prints the recovery error and the verdict of
:func:`efs.pipeline.roundtrip`.  Apart from ``--config`` the commands open
no file themselves: point files, the trajectory, its energy csv, samples
csvs and a replay's seed column go through :mod:`efs.persist`, which also
owns the rule that a ``.csv`` or ``.efsb`` extension names the format, and
the picture through :mod:`efs.svg`.  The options that need no data (such as
``efs forward --gamma``, ``--k``, ``--epsilon`` and a numeric ``--s``,
``--beta``, ``--T``, ``--m``, ``--indices``, the format of ``--out`` and of
``efs sample --svg``, ``--i``/``--j`` being distinct and >= 0, the
dropped-option rules) exit 2
before any file is read, so a missing file cannot mask them; only
``--s d-2`` and ``--i``/``--j`` below n wait for the data.  A ``--config``
file's keys are the long option names with ``_`` for ``-``
(``snapshot_mode``); keys that name no single-value option of the
subcommand are ignored, and values are parsed as flags (see
:func:`parse_args`).  An option that a run would drop exits 2 as a flag and is ignored
as a config key, so one file can serve every command: ``noise`` for a
mixture and ``std`` for a Swiss roll (dataset); ``i`` and ``j`` outside
``--mode interp``, ``j`` without ``i``, ``replay`` and ``seed`` on an ``--i``
path (sample); ``s`` and ``epsilon`` without ``--mmd`` (metrics).  Flags
dropped by one rule are named together: ``--s/--epsilon applies only to
--mmd``.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import persist, svg
from .backward import SNAPSHOT_MODES, BackwardConfig
from .datasets import gaussian_mixture, swiss_roll
from .errors import (DegenerateEnclosureError, FormatError, InstabilityError, SingularityError,
                     check_bound)
from .forward import energy_trace, run_forward
from .metrics import check_mmd_params, mmd_squared, nn_novelty, uniformity_report
from .persist import load_points, save_points
from .pipeline import generate_from_trajectory, interpolation_path, roundtrip
from .potential import PotentialParams

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


def is_dimension_token(raw: str) -> bool:
    """Whether the exponent is the symbolic token ``d-2``, which needs the data's d."""
    return raw.replace("−", "-").strip() == "d-2"


def seed(raw: str) -> int:
    """An RNG seed: an integer in [0, 2**64), the range of a recorded seed."""
    value = int(raw)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def _dropped(args, reason, *dests):
    """Reject the flags among ``dests``, options the run would drop.

    A --config value is reset to None instead, so that a file serving other
    commands or modes does not trip the check.
    """
    for dest in dests:
        if dest in args.from_config:
            setattr(args, dest, None)
    flags = [f"--{dest}" for dest in dests if getattr(args, dest) is not None]
    if flags:
        raise ValueError(f"{'/'.join(flags)} {reason}")


def _check_out(args, fmt):
    """Reject an ``--out`` whose extension does not name the format ``fmt``."""
    try:
        ok = persist.point_format(args.out) == fmt
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"--out must be a .{fmt} file, got {args.out!r}")


def cmd_dataset(args) -> int:
    if args.kind == "mixture":
        _dropped(args, "applies only to --kind swiss", "noise")
        lp = gaussian_mixture(args.n, stds=args.std, seed=args.seed)
    else:
        _dropped(args, "applies only to --kind mixture", "std")
        noise = 0.2 if args.noise is None else args.noise
        lp = swiss_roll(args.n, noise=noise, seed=args.seed)
    save_points(lp, args.out)
    print(f"n={lp.points.n}")
    print(f"d={lp.points.d}")
    print(f"out={args.out}")
    return 0


def cmd_forward(args) -> int:
    check_bound("--gamma", args.gamma, 0, strict=True, finite=True)
    check_bound("--k", args.k, 1)
    _check_out(args, "efsb")
    # checks --epsilon, and --s unless it waits for the data's d
    dim_token = is_dimension_token(args.s)
    params = PotentialParams(s=0.0 if dim_token else float(args.s), epsilon=args.epsilon)
    lp = load_points(args.data)
    if dim_token:
        params = PotentialParams(s=float(lp.points.d - 2), epsilon=args.epsilon)
    traj = run_forward(lp.points, args.gamma, args.k, params)
    energies = energy_trace(traj)
    persist.write_trajectory(args.out, traj, energies, labels=lp.labels)
    print(f"n={traj.n}")
    print(f"d={traj.d}")
    print(f"k={traj.k}")
    print(f"snapshots={traj.k + 1}")
    print(f"energy_initial={energies[0]:.17g}")
    print(f"energy_final={energies[-1]:.17g}")
    print(f"out={args.out}")
    return 0


def cmd_sample(args) -> int:
    if args.mode != "interp":
        _dropped(args, "requires --mode interp", "i", "j")
    # with --i the run is a path, which takes no seed; without it, no --j
    if args.i is None:
        _dropped(args, "requires --i", "j")
        if args.m is not None and not args.replay:
            check_bound("--m", args.m, 1)
    else:
        _dropped(args, "cannot be combined with --i: a path has no seeds to replay", "replay")
        _dropped(args, "cannot be combined with --i: a path draws no random numbers", "seed")
        if args.j is None:
            raise ValueError("--i needs --j: a path runs from particle i to particle j")
        if args.m is None or args.m < 2:
            raise ValueError("--i needs --m >= 2, the number of points on the path")
        for flag, index in (("--i", args.i), ("--j", args.j)):
            check_bound(flag, index, 0)
        if args.i == args.j:
            raise ValueError(f"--i/--j must be distinct, got {args.i} and {args.j}")
    _check_out(args, "csv")
    # a .svg path can never be the .csv --out
    if args.svg is not None and not args.svg.endswith(".svg"):
        raise ValueError(f"--svg must be a .svg file, got {args.svg!r}")
    # checked before the trajectory is read; the inversions use its own gamma
    bwd = BackwardConfig(gamma=0.0, beta=args.beta, T=args.T)
    traj, labels = persist.read_trajectory(args.traj)

    if args.i is not None:
        batch = interpolation_path(traj, args.i, args.j, args.m, bwd,
                                   snapshot_mode=args.snapshot_mode)
    else:
        pipeline_mode = "interpolation" if args.mode == "interp" else args.mode
        m, seeds = (1 if args.m is None else args.m), None
        if args.replay:
            # the file fixes the count and the seeds, so --m and --seed go unused
            seeds = persist.read_seeds(args.replay)
            m = len(seeds)
        batch = generate_from_trajectory(
            traj, bwd, m, mode=pipeline_mode, seed=0 if args.seed is None else args.seed,
            snapshot_mode=args.snapshot_mode, seeds=seeds, keep_paths=False)
    persist.write_csv(args.out, batch.generated, seeds=batch.seeds)
    if args.svg is not None:
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
    if not (args.points or args.mmd or args.nn):
        raise ValueError("nothing to do: pass --points, --mmd or --nn")
    if args.mmd:
        mmd_params = PotentialParams(s=1.0 if args.s is None else args.s,
                                     epsilon=1e-3 if args.epsilon is None else args.epsilon)
        check_mmd_params(mmd_params)
    else:
        _dropped(args, "applies only to --mmd", "s", "epsilon")
    # printed only once every requested report is computed
    lines = []
    if args.points:
        report = uniformity_report(persist.load_final_points(args.points))
        lines.append(f"radial_ks={report.radial_ks:.17g}")
        if report.angular_ks is not None:
            lines.append(f"angular_ks={report.angular_ks:.17g}")
        lines.append(f"radius={report.enclosure.radius:.17g}")
    if args.mmd:
        a = load_points(args.mmd[0]).points
        b = load_points(args.mmd[1]).points
        lines.append(f"mmd2={mmd_squared(a, b, mmd_params):.17g}")
    if args.nn:
        gen = load_points(args.nn[0]).points
        train = load_points(args.nn[1]).points
        min_nn, mean_nn, self_nn = nn_novelty(gen, train)
        lines += [f"min_nn={min_nn:.17g}", f"mean_nn={mean_nn:.17g}",
                  f"self_nn_mean={self_nn:.17g}"]
    print("\n".join(lines))
    return 0


def cmd_roundtrip(args) -> int:
    check_bound("--indices", args.indices, 1)
    bwd = BackwardConfig(gamma=0.0, beta=args.beta, T=args.T)
    traj, _labels = persist.read_trajectory(args.traj)
    batch, max_err, verdict = roundtrip(traj, bwd, args.indices, args.snapshot_mode)
    print(f"snapshot_mode={args.snapshot_mode}")
    print(f"indices={batch.generated.shape[0]}")
    print(f"max_recovery_error={max_err:.17g}")
    print(f"inner_capped={batch.inner_capped}")
    print(f"status={verdict or 'reported'}")
    return 0


# Options with no built-in default: a flag or the --config file must set them.
REQUIRED = {"dataset": ("kind", "n"), "forward": ("gamma", "k", "s"), "sample": ("beta", "T")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efs", description="Estimation-free sampling: forward/backward particle transport")
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
    p.add_argument("--seed", type=seed, default=0, help="RNG seed in [0, 2**64)")
    p.add_argument("--out", required=True)

    p = command("forward", cmd_forward, "run the forward transport, store the trajectory")
    p.add_argument("--data", required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--s", help="exponent; accepts the token d-2")
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--out", required=True, help="trajectory; energies go to <out>.energy.csv")

    p = command("sample", cmd_sample, "generate samples from a stored trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--mode", choices=["sphere", "ball", "interp"], default="sphere",
                   help="starts: uniform on the enclosing sphere, uniform in its ball, "
                        "or interpolated between two final-snapshot particles")
    p.add_argument("--m", type=int, help="number of draws (default 1) or of points on an --i path")
    p.add_argument("--beta", type=float)
    p.add_argument("--T", type=int)
    p.add_argument("--snapshot-mode", choices=SNAPSHOT_MODES, default="paper")
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--replay",
                   help="samples csv whose seed column to replay; the file records only seeds, "
                        "so give the --mode, --snapshot-mode, --beta and --T that made it; "
                        "--m and --seed are ignored")
    p.add_argument("--seed", type=seed, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored; samples run one at a time")
    p.add_argument("--out", required=True)
    p.add_argument("--svg")

    p = command("metrics", cmd_metrics, "uniformity / MMD / novelty reports")
    p.add_argument("--points", help="point cloud, or trajectory file (its last snapshot)")
    p.add_argument("--mmd", nargs=2, metavar=("A", "B"))
    p.add_argument("--s", type=float, help="MMD kernel exponent (default 1)")
    p.add_argument("--epsilon", type=float, help="MMD kernel regularizer (default 1e-3)")
    p.add_argument("--nn", nargs=2, metavar=("GENERATED", "TRAINING"))

    p = command("roundtrip", cmd_roundtrip, "backward recovery check of a stored trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--T", type=int, default=300)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--indices", type=int, default=10)
    p.add_argument("--snapshot-mode", choices=SNAPSHOT_MODES, default="exact")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Option precedence: explicit flag > --config file > built-in default.

    The command line is parsed alone first.  Under ``--config`` it is parsed
    once more, with the file's keys as ``--option=value`` tokens between the
    subcommand and the user's own arguments: a later flag wins, and a config
    value meets its option's type and choices exactly as a flag does (exit 2
    with the usage line).  ``args.from_config`` names the file's keys that no
    flag set.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from_config = set()
    if args.config:
        flags = {a.dest: a.option_strings[0] for a in args.parser._actions if a.nargs is None}
        config = {k: v for k, v in load_config_file(args.config).items() if k in flags}
        from_config = {k for k in config if getattr(args, k) is None}
        at = argv.index(args.command) + 1
        tokens = [f"{flags[k]}={v}" for k, v in config.items()]
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    args.from_config = from_config
    for key in REQUIRED.get(args.command, ()):
        if getattr(args, key) is None:
            raise ValueError(f"missing required option --{key}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
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
