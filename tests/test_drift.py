"""The drift report's comparison on tiny in-process runs (tools/drift.py)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("drift", ROOT / "tools" / "drift.py")
drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(drift)


def tiny_commands(T=None):
    commands = {"mix-ref": drift.workload_commands("TINY")["mix-ref"]}
    if T is not None:
        sample = commands["mix-ref"][2]
        sample[sample.index("--T") + 1] = str(T)
    return commands


def emit(tmp_path, name, commands):
    out = tmp_path / name
    out.mkdir()
    drift.emit(out, commands, acceptance=False)
    return out


def test_workload_commands_are_the_benchmark_argv():
    dataset, forward, sample = drift.workload_commands()["mix-ref"]
    assert dataset[:5] == ["dataset", "--kind", "mixture", "--n", "400"]
    assert forward[forward.index("--k") + 1] == "31"
    assert sample[sample.index("--seed") + 1] == "1"


def test_identical_runs_are_reported_identical(tmp_path):
    a = emit(tmp_path, "a", tiny_commands())
    b = emit(tmp_path, "b", tiny_commands())
    records = drift.compare(a, b)
    assert [r["artefact"] for r in records] == ["mix-ref.energy", "mix-ref.samples",
                                                 "mix-ref.traj"]
    for r in records:
        assert r["identical"] and r["max_abs_diff"] == 0.0 and r["rows_moved"] == 0
    assert records[1]["capped_base"] == records[1]["capped_head"]
    last = drift.report(records, "HEAD").splitlines()
    assert "mix-ref.samples.identical=true" in last
    assert last[-2] == "identical=3/3"


def test_a_different_T_is_reported_as_rows_moved(tmp_path):
    a = emit(tmp_path, "a", tiny_commands())
    b = emit(tmp_path, "b", tiny_commands(T=2))
    by_key = {r["artefact"]: r for r in drift.compare(a, b)}
    assert by_key["mix-ref.traj"]["identical"] and by_key["mix-ref.energy"]["identical"]
    samples = by_key["mix-ref.samples"]
    assert not samples["identical"]
    assert samples["rows"] == 4 and samples["rows_moved"] == 4
    assert samples["rows_moved_over_1e-6"] >= 1 and samples["max_abs_diff"] > 1e-6
    assert samples["capped_head"] > samples["capped_base"]
