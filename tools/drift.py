#!/usr/bin/env python3
"""Drift report: which output bits moved between a base revision and this checkout.

Run from a source checkout (offline; no worktree, branch or network):

    python3 tools/drift.py --base <git rev>

The base revision's ``src/`` is exported with ``git archive`` into a
temporary directory.  This file's ``--emit`` mode then runs once against
each side's ``src/``, in a fresh Python process with one BLAS thread, and
writes the same artefacts:

- each benchmark workload at seed 1, run with the benchmark's own argv
  (``perfbench/bench.py``): the trajectory, the energy csv and the samples
  csv, with the sample command's ``inner_capped``;
- the acceptance fixtures' seed-2026 m = 50 mixture and Swiss batches
  (``tests/test_acceptance.py``), with their ``inner_capped``;
- criterion 5's 10 recovered points, with the count of their T-capped
  inversions.

For each artefact it prints ``<artefact>.<field>=<value>`` lines: whether
it is identical (file or array bytes), the max |difference|, the rows
moved, the rows moved by more than 1e-6, and the T-capped count on each
side.  The last line is one JSON object with the same records.  The exit
code is 0 when every artefact is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
BIG_MOVE = 1e-6

# Settings of the fixtures and of criterion 5 in tests/test_acceptance.py.
MIX_CFG = dict(gamma=0.1, k=31, T=300, beta=0.1, epsilon=1e-3, s=1.0, n=400)
SWISS_CFG = dict(gamma=0.05, k=120, T=300, beta=0.1, epsilon=1e-3, s=0.0, n=500)
BATCH_SEED, BATCH_M, ROUNDTRIP_INDICES = 2026, 50, 10


def workload_commands(table: str = "WORKLOADS") -> dict:
    """{workload: [dataset argv, forward argv, sample argv]} as the benchmark
    builds them at seed 1, with file names relative to the working directory.
    ``table="TINY"`` gives the self-check sizes."""
    saved = list(sys.path)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import bench
    finally:
        sys.path[:] = saved

    out = {}
    for name, wl in getattr(bench, table).items():
        run = SimpleNamespace(wl=wl, args=SimpleNamespace(seed=SEED),
                              data=Path(f"{name}.data.efsb"), traj=Path(f"{name}.traj.efsb"))
        out[name] = [bench.Run.dataset_argv(run, run.data), bench.Run.forward_argv(run),
                     bench.Run.sample_argv(run, Path(f"{name}.samples.csv"))]
    return out


# ----------------------------------------------------------------- one side

def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def emit(out: Path, commands: dict, acceptance: bool = True) -> None:
    """Compute every artefact with the ``efs`` on ``sys.path`` and write
    ``arrays.npz`` and ``meta.json`` into ``out``.

    ``commands`` maps a name to argv lists of ``dataset``, ``forward`` and
    ``sample`` (as :func:`workload_commands` builds them); they run in
    ``out``.  ``acceptance=False`` skips the seed-2026 batches and
    criterion 5.
    """
    import efs
    import efs.cli
    from efs import persist

    out = Path(out)
    arrays, meta = {}, {}

    def put(key, array, digest, capped=None):
        arrays[key] = np.asarray(array, dtype=np.float64)
        meta[key] = {"sha256": digest, "capped": capped}

    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argvs in commands.items():
            printed = io.StringIO()
            for argv in argvs:
                with contextlib.redirect_stdout(printed):
                    rc = efs.cli.main(list(argv))
                if rc != 0:
                    raise RuntimeError(f"{name}: efs {' '.join(argv)} exited {rc}")
            lines = printed.getvalue().splitlines()
            capped = int([x for x in lines if x.startswith("inner_capped=")][-1].split("=")[1])
            traj_file = Path(argvs[1][argvs[1].index("--out") + 1])
            energy_file = Path(f"{traj_file}.energy.csv")
            samples_file = Path(argvs[2][argvs[2].index("--out") + 1])
            snapshots = persist.read_efsb(traj_file).snapshots
            put(f"{name}.traj", np.concatenate(snapshots), _digest(traj_file.read_bytes()))
            put(f"{name}.energy", np.loadtxt(energy_file, delimiter=",", skiprows=1, ndmin=2),
                _digest(energy_file.read_bytes()))
            put(f"{name}.samples", persist.read_csv(samples_file)[0],
                _digest(samples_file.read_bytes()), capped)
    finally:
        os.chdir(cwd)

    if acceptance:
        mix = efs.PotentialParams(MIX_CFG["s"], MIX_CFG["epsilon"])
        traj_mix = efs.run_forward(efs.gaussian_mixture(MIX_CFG["n"], seed=0).points,
                                   MIX_CFG["gamma"], MIX_CFG["k"], mix)
        bwd_mix = efs.BackwardConfig(gamma=MIX_CFG["gamma"], beta=MIX_CFG["beta"],
                                     T=MIX_CFG["T"])
        swiss = efs.PotentialParams(SWISS_CFG["s"], SWISS_CFG["epsilon"])
        traj_swiss = efs.run_forward(efs.swiss_roll(SWISS_CFG["n"], noise=0.2, seed=0).points,
                                     SWISS_CFG["gamma"], SWISS_CFG["k"], swiss)
        bwd_swiss = efs.BackwardConfig(gamma=SWISS_CFG["gamma"], beta=SWISS_CFG["beta"],
                                       T=SWISS_CFG["T"])
        for key, traj, bwd in (("mixture-2026", traj_mix, bwd_mix),
                               ("swiss-2026", traj_swiss, bwd_swiss)):
            batch = efs.generate_from_trajectory(traj, bwd, BATCH_M, mode="sphere",
                                                 seed=BATCH_SEED, keep_paths=False)
            put(key, batch.generated, _digest(batch.generated.tobytes()), batch.inner_capped)
        paths = [efs.run_backward(traj_mix.snapshots[-1].positions[i], traj_mix, bwd_mix,
                                  snapshot_mode="exact") for i in range(ROUNDTRIP_INDICES)]
        points = np.array([p.generated for p in paths])
        capped = sum(int(np.count_nonzero(p.inner_residuals > bwd_mix.grad_tol)) for p in paths)
        put("criterion5", points, _digest(points.tobytes()), capped)

    np.savez(out / "arrays.npz", **arrays)
    (out / "meta.json").write_text(json.dumps(meta, indent=1))


# ----------------------------------------------------------------- comparison

def compare(base: Path, head: Path) -> list:
    """One record per artefact of two :func:`emit` directories."""
    meta = [json.loads((Path(d) / "meta.json").read_text()) for d in (base, head)]
    arrays = [np.load(Path(d) / "arrays.npz") for d in (base, head)]
    records = []
    for key in sorted(set(meta[0]) | set(meta[1])):
        rec = {"artefact": key, "identical": False, "max_abs_diff": None, "rows": None,
               "rows_moved": None, "rows_moved_over_1e-6": None,
               "capped_base": meta[0].get(key, {}).get("capped"),
               "capped_head": meta[1].get(key, {}).get("capped")}
        if key in meta[0] and key in meta[1]:
            a, b = arrays[0][key], arrays[1][key]
            rec["identical"] = (meta[0][key]["sha256"] == meta[1][key]["sha256"]
                                and a.shape == b.shape and a.tobytes() == b.tobytes())
            if a.shape == b.shape:
                diff = np.abs(a - b).reshape(a.shape[0], -1)
                row_max = diff.max(axis=1, initial=0.0)
                moved = np.any(a.reshape(a.shape[0], -1) != b.reshape(b.shape[0], -1), axis=1)
                rec.update(max_abs_diff=float(row_max.max(initial=0.0)), rows=int(a.shape[0]),
                           rows_moved=int(moved.sum()),
                           **{"rows_moved_over_1e-6": int(np.sum(row_max > BIG_MOVE))})
        records.append(rec)
    return records


def report(records: list, base_rev: str) -> str:
    lines = [f"base={base_rev}"]
    for rec in records:
        for field, value in rec.items():
            if field != "artefact":
                shown = "-" if value is None else str(value).lower()
                lines.append(f"{rec['artefact']}.{field}={shown}")
    same = sum(rec["identical"] for rec in records)
    lines.append(f"identical={same}/{len(records)}")
    lines.append(json.dumps({"base": base_rev, "identical": same == len(records),
                             "artefacts": records}))
    return "\n".join(lines)


def _export_base(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run_side(src: Path, out: Path, spec: Path) -> subprocess.Popen:
    out.mkdir()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--emit", str(out),
                             "--spec", str(spec)], env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this checkout against")
    parser.add_argument("--emit", help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(Path(args.emit), json.loads(Path(args.spec).read_text()))
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="efs-drift-") as tmp:
        tmp = Path(tmp)
        spec = tmp / "commands.json"
        spec.write_text(json.dumps(workload_commands()))
        base_src = _export_base(args.base, tmp / "base")
        sides = [_run_side(base_src, tmp / "base-out", spec),
                 _run_side(ROOT / "src", tmp / "head-out", spec)]
        if [p.wait() for p in sides] != [0, 0]:
            print("error: a side failed to compute its artefacts", file=sys.stderr)
            return 2
        records = compare(tmp / "base-out", tmp / "head-out")
    print(report(records, args.base))
    return 0 if all(rec["identical"] for rec in records) else 1


if __name__ == "__main__":
    sys.exit(main())
