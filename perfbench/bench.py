"""Workloads, the closed-loop run, output checks and metrics of the benchmark.

One run is one process: it sets up (imports efs and runs `efs dataset`),
then for ``--seconds`` repeats `efs forward` followed by `efs sample`, each
called in-process through ``efs.cli.main`` by one client that waits for the
previous command to finish.  Outputs are checked after the timed section.
With ``--trace 1`` every second iteration runs with spans and counters
installed (tracing.py) and the per-layer metrics are reported instead.
The fixed kernel of reference.py runs between consecutive commands, and
each command's time is scaled by the passes just before and after it, which
cancels most of the drift of a shared host's speed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import efs
import efs.backward
import efs.cli
import efs.forward
import efs.persist
import efs.pipeline
import reference
from tracing import Tracer, clock

HERE = Path(__file__).resolve().parent

# Inner-solver and potential settings of tests/test_acceptance.py.
EPSILON, BETA, T = 1e-3, 0.1, 300
MMD_PARAMS = efs.PotentialParams(s=1.0, epsilon=1e-3)
# Components `efs dataset --kind mixture` draws from, for the 3-sigma check.
MIXTURE_MEANS = np.array([(2.0, 2.0), (-2.0, 2.0), (-2.0, -2.0), (2.0, -2.0)])
MIXTURE_STD = 0.3

SETUP_REPEATS = 5      # set-up probes per untraced run; setup_s is their median
DATASET_REPEATS = 5    # traced `efs dataset` calls per traced run
GUARD_MESSAGE = "convexity guard"


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``gate`` names the quality floors that apply."""

    kind: str
    n: int
    gamma: float
    k: int
    s: float
    m: int
    gate: str = ""


WORKLOADS = {
    "mix-ref": Workload("mixture", 400, 0.1, 31, 1.0, m=50, gate="mixture"),
    "swiss-ref": Workload("swiss", 500, 0.05, 120, 0.0, m=2, gate="swiss"),
    "mix-large": Workload("mixture", 2000, 0.1, 7, 1.0, m=50),
}
# Self-check sizes: every code path of a run in about a second, no quality floors.
TINY = {name: replace(w, n=40, k=3, m=4, gate="")
        for name, w in WORKLOADS.items()}

# Per-layer self times (medians over traced commands) that add up to a
# command's traced wall time, with the part outside every span last.
ACCOUNTING = {
    "forward": ("cli.forward_self_ms", "datasets.forward_self_ms", "persist.forward_self_ms",
                "forward.self_ms", "metrics.energy_trace_ms", "trace.forward_unaccounted_ms"),
    "sample": ("cli.sample_self_ms", "persist.sample_self_ms", "pipeline.self_ms",
               "backward.self_ms", "trace.sample_unaccounted_ms"),
}


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, percentile) of the order statistic with ten values beyond it;
    the maximum at percentile 100 when there are ten values or fewer."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


# ----------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "efs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ----------------------------------------------------------------- commands

class LineCounter(io.TextIOBase):
    """A text stream that counts the lines written to it and keeps none."""

    def __init__(self):
        self.lines = 0

    def writable(self):
        return True

    def write(self, s):
        self.lines += s.count("\n")
        return len(s)


class LogCounter(logging.Handler):
    """Counts log records by their format string instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.by_message = collections.Counter()

    def emit(self, record):
        self.by_message[str(record.msg)] += 1

    def guard_warnings(self) -> int:
        return sum(c for msg, c in self.by_message.items() if GUARD_MESSAGE in msg)


class Commands:
    """Runs efs commands in-process with their output sent to counters."""

    def __init__(self):
        self.stdout = LineCounter()
        self.stderr = LineCounter()
        self.log = LogCounter()
        # efs.cli.main calls logging.basicConfig, which adds no handler
        # once the root logger has one.
        logging.getLogger().addHandler(self.log)
        self.crashes = []

    def run(self, argv, tracer=None):
        """Returns (exit code, wall seconds, root span index or None)."""
        span = None
        t0 = clock()
        with contextlib.redirect_stdout(self.stdout), contextlib.redirect_stderr(self.stderr):
            if tracer is not None:
                span = tracer.open("cli." + argv[0])
            try:
                rc = efs.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # one failed command; the run counts it and goes on
                rc = 1
                self.crashes.append(f"{argv[0]}: {e!r}")
            finally:
                if tracer is not None:
                    tracer.close(span)
        return rc, clock() - t0, span


def setup_probe(src: Path, argv) -> float:
    """Seconds from starting a Python process to `efs dataset` finishing in it."""
    t0 = clock()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src), *argv],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------- the run

class Run:
    def __init__(self, args, wl: Workload, root: Path, work: Path):
        self.args, self.wl, self.root, self.work = args, wl, root, work
        self.commands = Commands()
        self.data = work / "data.efsb"
        self.traj = work / "traj.efsb"
        self.samples = work / "samples.csv"
        self.flags = []
        self.capped = 0
        self.tracer = Tracer() if args.trace else None
        if self.tracer is not None:
            self._install_spans()

    # -- arguments of the three commands --

    def dataset_argv(self, out: Path):
        argv = ["dataset", "--kind", self.wl.kind, "--n", str(self.wl.n),
                "--seed", str(self.args.seed), "--out", str(out)]
        if self.wl.kind == "swiss":
            argv += ["--noise", "0.2"]
        return argv

    def forward_argv(self):
        wl = self.wl
        return ["forward", "--data", str(self.data), "--gamma", repr(wl.gamma),
                "--k", str(wl.k), "--s", repr(wl.s), "--epsilon", repr(EPSILON),
                "--out", str(self.traj)]

    def sample_argv(self, out: Path):
        return ["sample", "--traj", str(self.traj), "--mode", "sphere",
                "--m", str(self.wl.m), "--beta", repr(BETA), "--T", str(T),
                "--seed", str(self.args.seed), "--threads", "1", "--out", str(out)]

    # -- tracing --

    def _install_spans(self):
        tr = self.tracer
        # Each function is patched under the name its caller looks it up by:
        # efs.cli imports these by name, efs.pipeline imports run_backward by
        # name, and the rest are module globals or attributes of efs.persist.
        tr.add_span(efs.cli, "gaussian_mixture", "datasets.generate")
        tr.add_span(efs.cli, "swiss_roll", "datasets.generate")
        tr.add_span(efs.cli, "save_points", "datasets.save")
        tr.add_span(efs.cli, "load_points", "datasets.load")
        tr.add_span(efs.persist, "write_efsb", "persist.write_efsb")
        tr.add_span(efs.persist, "read_efsb", "persist.read_efsb")
        tr.add_span(efs.cli, "run_forward", "forward.run")
        tr.add_span(efs.forward, "forward_step", "forward.step")
        tr.add_span(efs.cli, "energy_trace", "metrics.energy_trace")
        tr.add_span(efs.cli, "generate_from_trajectory", "pipeline.generate")
        tr.add_span(efs.pipeline, "run_backward", "backward.run")

        def inversion_done(args, out):
            if out[1] > args[2].grad_tol:
                self.capped += 1

        tr.add_counter(efs.backward, "invert_step", "backward.invert_step", inversion_done)
        tr.add_counter(efs.backward, "mean_field_gradient", "backward.mean_field_gradient")

    # -- phases --

    def set_up(self):
        """setup_s probes (untraced runs), then the dataset this run uses."""
        src = self.root / "src"
        self.setup = []
        if self.tracer is None:
            for r in range(SETUP_REPEATS):
                probe_out = self.work / f"probe{r}.efsb"
                self.setup.append(setup_probe(src, self.dataset_argv(probe_out)))
        self.dataset_spans = []
        if self.tracer is not None:
            self.tracer.install()
        try:
            for _ in range(DATASET_REPEATS if self.tracer is not None else 1):
                rc, _wall, span = self.commands.run(self.dataset_argv(self.data), self.tracer)
                if rc != 0:
                    raise RuntimeError(f"efs dataset exited {rc}")
                self.dataset_spans.append(span)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.training = efs.load_points(self.data).points

    def timed_loop(self):
        """Closed loop until the next iteration would end after ``--seconds``.

        An iteration runs `efs forward`, then `efs sample` on the new
        trajectory, and in untraced runs more `efs sample` calls while the
        run's total sample time is below its total forward time, so both
        commands get about equal measuring time (swiss-ref: one 3 s
        forward, then two 1.5 s samples).  Traced runs alternate
        untraced and traced iterations of one forward and one sample.  The
        reference kernel runs before the first command and after every
        command, inside the loop's time."""
        trace = self.tracer is not None
        self.records = []
        start = clock()
        reference.seconds()  # the first pass allocates; not a measurement
        self.refs = [reference.seconds()]
        spent = {"forward": 0.0, "sample": 0.0}
        iterations = 0
        while True:
            traced = trace and iterations % 2 == 1
            kind = "forward"
            while kind:
                rec = self._command(kind, traced)
                self.records.append(rec)
                spent[kind] += rec["seconds"]
                more = (not trace and kind == "sample" and spent["sample"] < spent["forward"]
                        and clock() - start + rec["seconds"] + self.refs[-1]
                        <= self.args.seconds)
                kind = "sample" if rec["rc"] == 0 and (kind == "forward" or more) else None
            iterations += 1
            elapsed = clock() - start
            if (iterations >= (2 if trace else 1)
                    and elapsed * (iterations + 1) / iterations > self.args.seconds):
                break
        self.loop_seconds = clock() - start

    def _command(self, kind: str, traced: bool) -> dict:
        tracer = self.tracer if traced else None
        out = self.traj if kind == "forward" else self.samples
        argv = self.forward_argv() if kind == "forward" else self.sample_argv(out)
        guard_before = self.commands.log.guard_warnings()
        if tracer is not None:
            tracer.reset_counters()
            self.capped = 0
            tracer.install()
        try:
            rc, seconds, span = self.commands.run(argv, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.refs.append(reference.seconds())
        speed = reference.REFERENCE_SECONDS / statistics.fmean(self.refs[-2:])
        rec = {"kind": kind, "traced": traced, "rc": rc, "seconds": seconds, "span": span,
               "scaled": seconds * speed}
        if kind == "sample":
            rec["guard_warnings"] = self.commands.log.guard_warnings() - guard_before
            if tracer is not None:
                rec["counts"] = (tracer.counters["backward.mean_field_gradient"]["calls"],
                                 tracer.counters["backward.invert_step"]["calls"],
                                 self.capped)
                rec["grad_seconds"] = tracer.counters["backward.mean_field_gradient"]["seconds"]
        if rc == 0:
            rec["sha"] = sha256(out)
        return rec

    def ok(self, kind: str, traced=None):
        """Records of successful commands of one kind (and tracing state)."""
        return [r for r in self.records if r["kind"] == kind and r["rc"] == 0
                and (traced is None or r["traced"] == traced)]

    # -- checks (outside the timed section) --

    def replay(self, rows):
        """Replay a few recorded seeds; returns (rows replayed, rows that differ)."""
        header = self.samples.read_text().split("\n", 1)[0]
        picked = sorted({0, len(rows) // 2, len(rows) - 1})
        seeds_csv = self.work / "replay_seeds.csv"
        seeds_csv.write_text("\n".join([header] + [rows[j] for j in picked]) + "\n")
        out = self.work / "replay.csv"
        rc, _wall, _span = self.commands.run(self.sample_argv(out) + ["--replay", str(seeds_csv)])
        if rc != 0:
            return len(picked), len(picked)
        got = out.read_text().splitlines()[1:]
        want = [rows[j] for j in picked]
        return len(picked), sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))

    def read_samples(self):
        """(csv data rows, finite samples, samples failing) of the last batch."""
        m, d = self.wl.m, self.training.d
        lines = self.samples.read_text().splitlines()
        table = None
        if lines and lines[0] == ",".join(f"x{i}" for i in range(d)) + ",seed":
            table = np.loadtxt(self.samples, delimiter=",", skiprows=1, ndmin=2)
        if table is None or table.shape != (m, d + 1):
            return lines[1:], np.empty((0, d)), m
        finite = np.all(np.isfinite(table[:, :d]), axis=1)
        return lines[1:], table[finite, :d], int(m - finite.sum())

    def quality_floors(self, samples) -> bool:
        """Acceptance criteria 6 and 7 where they hold at the reference sizes."""
        q = self.quality
        if self.wl.gate == "mixture":
            dists = np.linalg.norm(samples[:, None, :] - MIXTURE_MEANS[None], axis=2)
            q["membership"] = float((dists.min(axis=1) <= 3.0 * MIXTURE_STD).mean())
            return q["radial_ks"] <= 0.10 and q["angular_ks"] <= 0.10 and q["membership"] >= 0.9
        if self.wl.gate == "swiss":
            _min_nn, mean_nn, self_nn = efs.nn_novelty(efs.ParticleSet(samples), self.training)
            q["nn_ratio"] = mean_nn / self_nn
            return q["nn_ratio"] <= 3.0
        return True

    def check(self):
        """Count attempted and failed samples; compute the quality metrics.

        A sample fails when its command (or the forward before it) exited
        non-zero, when it is not finite, when its replayed row differs, or
        when the run misses a quality floor (then every sample of the run
        fails).  Every sample command writes the same bytes, which
        _check_repeats verifies, so the last batch stands for all of them."""
        m = self.wl.m
        final = efs.persist.read_efsb(self.traj).snapshots[-1]
        report = efs.uniformity_report(efs.ParticleSet(final))
        self.quality = {"radial_ks": report.radial_ks, "angular_ks": report.angular_ks}
        ok = self.ok("sample")
        rows, samples, bad = self.read_samples() if ok else ([], np.empty((0, self.training.d)), m)
        floors_ok = len(samples) > 0 and self.quality_floors(samples)
        commands = [r for r in self.records if r["kind"] == "sample" or r["rc"] != 0]
        self.attempted = m * len(commands)
        self.failed = m * (len(commands) - len(ok)) + len(ok) * (bad if floors_ok else m)
        replayed, mismatched = self.replay(rows) if len(rows) == m else (0, 0)
        self.attempted += replayed
        self.failed += mismatched
        self.quality["replay_mismatched"] = mismatched
        if len(samples):
            self.quality["mmd2"] = efs.mmd_squared(efs.ParticleSet(samples), self.training,
                                                   MMD_PARAMS)
        self._check_repeats()

    def _check_repeats(self):
        """Outputs and exact counters must repeat bit-for-bit for one seed."""
        for kind, key, what in (("forward", "sha", "trajectory files"),
                                ("sample", "sha", "sample files"),
                                ("sample", "guard_warnings", "guard warnings per batch"),
                                ("sample", "counts", "gradient, inversion and capped counts")):
            seen = {r[key] for r in self.ok(kind) if key in r}
            if len(seen) > 1:
                self.flags.append(f"{what} differ between commands: {sorted(seen)}")

    # -- metrics --

    def end_to_end(self) -> dict:
        return {
            # Not scaled: set-up is process start and imports, whose time
            # does not follow the compute speed the reference measures.
            "setup_s": median(self.setup),
            "forward_s": median([r["scaled"] for r in self.ok("forward")]),
            "sample_s": median([r["scaled"] for r in self.ok("sample")]),
            "peak_rss_mb": self.peak_rss_mb,
            "radial_ks": self.quality["radial_ks"],
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        n, d = self.training.n, self.training.d
        fwd, smp = self.ok("forward", traced=True), self.ok("sample", traced=True)
        fwd_roots = [r["span"] for r in fwd]
        smp_roots = [r["span"] for r in smp]
        fwd_layers = [tr.layer_self(root) for root in fwd_roots]
        smp_layers = [tr.layer_self(root) for root in smp_roots]

        def layer_ms(per_command, layer):
            return 1e3 * median([c.get(layer, 0.0) for c in per_command])

        def span_ms(name, roots):
            return 1e3 * median(tr.durations(name, roots))

        def wall(records):
            return median([r["seconds"] for r in records])

        def unaccounted_ms(records):
            return 1e3 * median([r["seconds"] - sum(tr.layer_self(r["span"]).values())
                                 for r in records])

        pairs = n * (n - 1)
        step_ms = span_ms("forward.step", fwd_roots)
        sample_ms = [1e3 * s for s in tr.durations("backward.run", smp_roots)]
        sample_tail, tail_pct = tail(sample_ms)
        grads, inversions, capped = (sum(r["counts"][j] for r in smp) for j in range(3))
        grad_s = sum(r["grad_seconds"] for r in smp)
        backward_ms = layer_ms(smp_layers, "backward")
        energy_ms = layer_ms(fwd_layers, "metrics")
        return {
            "datasets.generate_ms": span_ms("datasets.generate", self.dataset_spans),
            "datasets.forward_self_ms": layer_ms(fwd_layers, "datasets"),
            "forward.step_ms": step_ms,
            "forward.ns_per_pair": 1e6 * step_ms / pairs,
            "forward.pairs_per_step": pairs,
            # Computed, not measured: per 128-row block efs.forward allocates
            # diff (rows x n x d), sq, q, the power base and coef (rows x n
            # each) and the rows x d output, all float64.
            "forward.bytes_per_step": 8 * n * (n * (d + 4) + d),
            "forward.self_ms": layer_ms(fwd_layers, "forward"),
            "metrics.energy_trace_ms": energy_ms,
            "metrics.energy_share": energy_ms / (1e3 * wall(fwd)),
            "backward.sample_ms_p50": median(sample_ms),
            "backward.sample_ms_tail": sample_tail,
            "backward.sample_ms_tail_pct": tail_pct,
            "backward.samples": len(sample_ms),
            "backward.grad_us": 1e6 * grad_s / grads,
            "backward.grads_per_inversion": grads / inversions,
            "backward.capped_frac": capped / inversions,
            "backward.guard_warnings": median([r["guard_warnings"] for r in smp]),
            "backward.self_ms": backward_ms,
            "backward.share": backward_ms / (1e3 * wall(smp)),
            "pipeline.self_ms": layer_ms(smp_layers, "pipeline"),
            "persist.efsb_write_ms": span_ms("persist.write_efsb", fwd_roots),
            "persist.efsb_read_ms": span_ms("persist.read_efsb", smp_roots),
            "persist.efsb_bytes": self.traj.stat().st_size,
            "persist.forward_self_ms": layer_ms(fwd_layers, "persist"),
            "persist.sample_self_ms": layer_ms(smp_layers, "persist"),
            "cli.forward_self_ms": layer_ms(fwd_layers, "cli"),
            "cli.sample_self_ms": layer_ms(smp_layers, "cli"),
            "trace.forward_unaccounted_ms": unaccounted_ms(fwd),
            "trace.sample_unaccounted_ms": unaccounted_ms(smp),
            "trace.forward_overhead_ms": 1e3 * (wall(fwd) - wall(self.ok("forward", False))),
            "trace.sample_overhead_ms": 1e3 * (wall(smp) - wall(self.ok("sample", False))),
        }


# ----------------------------------------------------------------- entry

def load_units(root: Path, key: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every path of the benchmark in about a second")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    wl = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    units = load_units(root, "per_layer" if args.trace else "end_to_end")
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench_runs" / tag
    work.mkdir(parents=True)
    origin = clock()
    env = environment(root, args.seed)
    run = Run(args, wl, root, work)
    try:
        run.set_up()
        run.timed_loop()
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.check()
        values = run.per_layer() if args.trace else run.end_to_end()
    finally:
        for path in work.glob("*.efsb"):
            path.unlink()
        for path in work.glob("*.csv"):
            path.unlink()
    if run.tracer is not None:
        bad = run.tracer.containment_errors()
        if bad:
            run.flags.append(f"{len(bad)} spans outlast their parent")
        run.tracer.write(work / "spans.json", origin)
    if set(values) != set(units):
        run.flags.append("metric names differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    nonfinite = [name for name, v in values.items() if not np.isfinite(v)]
    if nonfinite:
        run.flags.append(f"no value for {nonfinite}")

    report(args, wl, env, run, values, units, work)
    correct = not run.flags and run.failed == 0 and not run.commands.crashes
    metrics = {name: {"value": values[name] if name not in nonfinite else None,
                      "unit": units.get(name, "")} for name in values}
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "environment": env, "workload": vars(wl), "flags": run.flags,
         "quality": run.quality, "setup_wall_s": run.setup, "reference_wall_s": run.refs,
         "commands": [[r["kind"], r["traced"], r["rc"], r["seconds"], r["scaled"]]
                      for r in run.records]},
        indent=1, default=str))
    print(json.dumps(result))
    return 0


def report(args, wl, env, run, values, units, work):
    """Human-readable lines before the result line."""
    print(f"workload={args.workload} size={args.size} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + " ".join(f"{k}={v!s}".replace(" ", "_") for k, v in env.items()))
    print(f"workload_params {vars(wl)}")
    print(f"commands={len(run.records)} traced={sum(r['traced'] for r in run.records)} "
          f"loop_s={run.loop_seconds:.3f}")
    if not args.trace:
        print(f"reference: median {median(run.refs):.4f} s of {len(run.refs)} passes, "
              f"nominal {reference.REFERENCE_SECONDS} s")
        for name, kind in (("setup_s", None), ("forward_s", "forward"), ("sample_s", "sample")):
            wall = run.setup if kind is None else [r["seconds"] for r in run.ok(kind)]
            if wall:
                print(f"  {name}: wall median of {len(wall)} {median(wall):.4f} s, "
                      f"min {min(wall):.4f} max {max(wall):.4f}")
    for name in values:
        print(f"metric {name} = {values[name]:.6g} {units.get(name, '?')}")
    # Printed, not in BENCHMARK.json: failed_frac is 0 when the program is
    # correct, and mmd2 of one batch varies between seeds by more than the
    # largest bound a gated metric may have (NOTES.md).
    print(f"metric mmd2 = {run.quality.get('mmd2', float('nan')):.6g} 1 "
          f"(s=1, eps=1e-3, {wl.m} samples against the training set)")
    print(f"metric failed_frac = {run.failed / run.attempted:.6g} 1 "
          f"({run.failed} of {run.attempted} samples)")
    q = {k: v for k, v in run.quality.items() if k not in values and k != "mmd2"}
    print("checks " + " ".join(f"{k}={v}" for k, v in q.items()))
    print(f"stdout_lines={run.commands.stdout.lines} stderr_lines={run.commands.stderr.lines} "
          f"log_records={dict(run.commands.log.by_message)} crashes={run.commands.crashes}")
    print("exact counters (repeat bit-for-bit for a fixed seed; a run where they "
          "differ is flagged): forward.pairs_per_step forward.bytes_per_step "
          "backward.grads_per_inversion backward.capped_frac backward.guard_warnings "
          "mmd2 radial_ks")
    if args.trace:
        for command, parts in ACCOUNTING.items():
            total = sum(values[name] for name in parts)
            wall = 1e3 * median([r["seconds"] for r in run.ok(command, traced=True)])
            print(f"accounting {command} (traced, ms): "
                  + " + ".join(f"{name} {values[name]:.3f}" for name in parts)
                  + f" = {total:.3f}, median traced wall {wall:.3f}; tracing overhead "
                  f"{values[f'trace.{command}_overhead_ms']:.3f}")
        print(f"spans={work / 'spans.json'}")
    for flag in run.flags:
        print(f"FLAG {flag}")
