import numpy as np
import pytest

from efs import (FormatError, LabeledPoints, ParticleSet, PotentialParams, Trajectory,
                 gaussian_mixture, load_points, save_points, swiss_roll)
from efs.persist import (read_csv, read_efsb, read_trajectory, write_csv, write_efsb,
                         write_trajectory)
from efs.rng import SplitMix64


def random_matrix(n, d, seed=0):
    return SplitMix64(seed).normals(n * d).reshape(n, d)


# ---------------------------------------------------------------- efsb

def test_efsb_roundtrip_bit_identical(tmp_path):
    snaps = [random_matrix(7, 3, seed=i) for i in range(4)]
    labels = np.arange(7, dtype=np.int32) % 3
    path = tmp_path / "t.efsb"
    write_efsb(path, snaps, gamma=0.1, s=1.0, epsilon=1e-3, labels=labels)
    blob = read_efsb(path)
    assert blob.gamma == 0.1
    assert blob.s == 1.0
    assert blob.epsilon == 1e-3
    assert len(blob.snapshots) == 4
    for a, b in zip(snaps, blob.snapshots):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(blob.labels, labels)


def test_efsb_no_labels(tmp_path):
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(3, 2)])
    assert read_efsb(path).labels is None


def test_efsb_rewrite_is_byte_identical(tmp_path):
    snaps = [random_matrix(5, 2, seed=3)]
    a, b = tmp_path / "a.efsb", tmp_path / "b.efsb"
    write_efsb(a, snaps, gamma=0.5)
    write_efsb(b, snaps, gamma=0.5)
    assert a.read_bytes() == b.read_bytes()


def test_efsb_truncated_header(tmp_path):
    path = tmp_path / "t.efsb"
    path.write_bytes(b"EFSB\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_efsb(path)


def test_efsb_bad_magic(tmp_path):
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(2, 2)])
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_efsb(path)


def test_efsb_truncated_snapshot(tmp_path):
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(4, 2)])
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(FormatError):
        read_efsb(path)


@pytest.mark.parametrize("field, offset", [("n", 6), ("d", 10), ("snapshot_count", 14)])
def test_efsb_zero_header_field(tmp_path, field, offset):
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(4, 2)])
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"t.efsb: {field} is 0"):
        read_efsb(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("field", ["gamma", "s", "epsilon"])
def test_efsb_rejects_bad_run_parameter(tmp_path, field, value):
    # zero stays valid (a point cloud stores zeros); the other two fields are 0 here
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(4, 2)], **{field: value})
    with pytest.raises(FormatError, match=f"t.efsb: {field} is {value}"):
        read_efsb(path)


@pytest.mark.parametrize("labels", [None, [0, 1, 2, 3]])
def test_efsb_trailing_bytes(tmp_path, labels):
    path = tmp_path / "t.efsb"
    write_efsb(path, [random_matrix(4, 2)], labels=labels)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="t.efsb: 1 trailing bytes"):
        read_efsb(path)


# offsets into the 2-point, 1-coordinate file below: the header is 42 bytes,
# the snapshot 16, then the label flag at 58 and the labels at 59..66
@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:4] + (2).to_bytes(2, "little") + raw[6:], "unsupported version 2"),
    (lambda raw: raw[:42] + np.array([np.nan], dtype="<f8").tobytes() + raw[50:],
     "snapshot 0 has non-finite values"),
    (lambda raw: raw[:58], "missing label flag"),
    (lambda raw: raw[:64], "truncated label block"),
    (lambda raw: raw[:58] + b"\x02" + raw[59:], "bad label flag 2"),
], ids=["version", "non-finite", "no-label-flag", "truncated-labels", "bad-label-flag"])
def test_efsb_rejects_malformed_body(tmp_path, edit, message):
    path = tmp_path / "t.efsb"
    write_efsb(path, [np.array([[1.0], [2.0]])], labels=[3, 4])
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=f"t.efsb: {message}"):
        read_efsb(path)


def test_efsb_rejects_shape_mismatch(tmp_path):
    with pytest.raises(ValueError, match="need at least one snapshot"):
        write_efsb(tmp_path / "t.efsb", [])
    with pytest.raises(ValueError):
        write_efsb(tmp_path / "t.efsb", [random_matrix(3, 2), random_matrix(4, 2)])
    with pytest.raises(ValueError):
        write_efsb(tmp_path / "t.efsb", [random_matrix(3, 2)], labels=[1, 2])


# ---------------------------------------------------------------- csv

def test_csv_roundtrip_exact(tmp_path):
    pts = random_matrix(20, 3, seed=5) * 1e-7  # exercise tiny magnitudes
    path = tmp_path / "t.csv"
    write_csv(path, pts, labels=np.arange(20) % 2)
    back, labels, seeds = read_csv(path)
    np.testing.assert_array_equal(back, pts)
    np.testing.assert_array_equal(labels, np.arange(20) % 2)
    assert labels.dtype == np.int32
    assert seeds is None


def test_csv_seed_roundtrip_exact_above_int64(tmp_path):
    pts = random_matrix(4, 2, seed=6)
    seeds = [2**64 - 1, 2**63, 2**63 + 1, 0]  # none survives a float64 or int64 parse
    path = tmp_path / "samples.csv"
    write_csv(path, pts, seeds=seeds)
    assert path.read_text().splitlines()[0] == "x0,x1,seed"
    back, labels, got = read_csv(path)
    np.testing.assert_array_equal(back, pts)
    assert labels is None
    assert got.dtype == np.uint64
    assert got.tolist() == seeds


def test_csv_rejects_labels_and_seeds_together(tmp_path):
    with pytest.raises(ValueError, match="not both"):
        write_csv(tmp_path / "t.csv", np.zeros((1, 2)), labels=[0], seeds=[0])


@pytest.mark.parametrize("column, value", [("label", 99999999999), ("label", -2**31 - 1),
                                           ("seed", 2**64), ("seed", -1)])
def test_csv_out_of_range_column_names_line(tmp_path, column, value):
    path = tmp_path / "t.csv"
    path.write_text(f"x0,x1,{column}\n1.0,2.0,0\n3.0,4.0,{value}\n")
    with pytest.raises(FormatError, match=f"line 3: {column} {value} is outside"):
        read_csv(path)


def test_csv_skips_blank_data_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1\n1.0,2.0\n\n  \n3.0,4.0\n")
    points, labels, seeds = read_csv(path)
    np.testing.assert_array_equal(points, [[1.0, 2.0], [3.0, 4.0]])
    assert labels is None and seeds is None


def test_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"x0,x1\n")
    assert b"\r" not in raw


def test_csv_nan_cell_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1\n1.0,2.0\n3.0,nan\n")
    with pytest.raises(FormatError, match="line 3"):
        read_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(FormatError, match="header"):
        read_csv(path)


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1\n1.0,2.0\n1.0\n")
    with pytest.raises(FormatError, match="line 3"):
        read_csv(path)


def test_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1\nfoo,2.0\n")
    with pytest.raises(FormatError, match="line 2"):
        read_csv(path)


# Python's float and int read these as 10.5, 10, 5.5, 5, 1.0 and 2; write_csv
# writes none of them
@pytest.mark.parametrize("header, row", [
    ("x0,x1", "1_0.5,2.0"), ("x0,x1,seed", "1.0,2.0,1_0"),
    ("x0,x1", "\u0665.\u0665,2.0"), ("x0,x1,seed", "1.0,2.0,\u0665"),
    ("x0,x1", " 1.0,2.0"), ("x0,x1,label", "1.0,2.0,2 "),
], ids=["underscore float", "underscore seed", "arabic-indic float", "arabic-indic seed",
        "padded float", "padded label"])
def test_csv_non_ascii_decimal_cell(tmp_path, header, row):
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n1.0,2.0{(header.count(',') - 1) * ',0'}\n{row}\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 3: .* is not an ASCII decimal numeral"):
        read_csv(path)


def test_csv_reads_every_ascii_decimal_form(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x0,x1,label\n-1.5e-3,+2.,-7\n.5,3E+2,+4\n")
    points, labels, _seeds = read_csv(path)
    np.testing.assert_array_equal(points, [[-1.5e-3, 2.0], [0.5, 300.0]])
    assert labels.tolist() == [-7, 4]


def test_csv_binary_file_is_format_error(tmp_path):
    path = tmp_path / "t.csv"
    write_efsb(path, [random_matrix(3, 2)])
    with pytest.raises(FormatError, match="not a text file"):
        read_csv(path)


def test_csv_empty_and_headerless(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        read_csv(path)
    path.write_text("x0,x1\n")
    with pytest.raises(FormatError, match="no data"):
        read_csv(path)


# ---------------------------------------------------------------- run files

def test_trajectory_roundtrip_and_energy_csv(tmp_path):
    traj = Trajectory(tuple(ParticleSet(random_matrix(5, 2, seed=i)) for i in range(3)),
                      gamma=0.1, params=PotentialParams(1.0, 1e-3))
    path = tmp_path / "t.efsb"
    write_trajectory(path, traj, [3.0, 2.5, 0.1], labels=[0, 1, 2, 0, 1])
    back, labels = read_trajectory(path)
    assert back == traj
    assert labels.tolist() == [0, 1, 2, 0, 1]
    assert (tmp_path / "t.efsb.energy.csv").read_bytes() == (
        b"iteration,energy\n0,3\n1,2.5\n2,0.10000000000000001\n")


# ---------------------------------------------------------------- point files

def test_save_load_efsb_bit_identical(tmp_path):
    lp = gaussian_mixture(50, seed=6)
    path = tmp_path / "mix.efsb"
    save_points(lp, path)
    back = load_points(path)
    np.testing.assert_array_equal(back.points.positions, lp.points.positions)
    np.testing.assert_array_equal(back.labels, lp.labels)


def test_save_load_csv_bit_identical(tmp_path):
    lp = swiss_roll(40, seed=7)
    path = tmp_path / "roll.csv"
    save_points(lp, path)
    back = load_points(path)
    # 17 significant digits round-trip IEEE doubles exactly through decimal
    np.testing.assert_array_equal(back.points.positions, lp.points.positions)
    np.testing.assert_array_equal(back.labels, lp.labels)


def test_load_high_dimensional_latents(tmp_path):
    # 15-dimensional latent workflow: n=15000 rows, d=15
    rows = np.random.default_rng(0).normal(size=(15000, 15))
    path = tmp_path / "latents.efsb"
    save_points(LabeledPoints(points=ParticleSet(rows)), path)
    back = load_points(path)
    assert back.points.n == 15000
    assert back.points.d == 15
    np.testing.assert_array_equal(back.points.positions, rows)


def test_format_inference(tmp_path):
    lp = gaussian_mixture(5, seed=1)
    with pytest.raises(ValueError, match=r"\.csv or \.efsb"):
        save_points(lp, tmp_path / "data.bin")
    assert not (tmp_path / "data.bin").exists()
    save_points(lp, tmp_path / "data.efsb")
    (tmp_path / "data.efsb").rename(tmp_path / "data.bin")
    with pytest.raises(ValueError, match=r"\.csv or \.efsb"):
        load_points(tmp_path / "data.bin")


def test_load_samples_csv_drops_seed_column(tmp_path):
    pts = np.array([[0.5, -1.0], [2.0, 3.0]])
    path = tmp_path / "samples.csv"
    write_csv(path, pts, seeds=[2**64 - 1, 7])
    back = load_points(path)
    np.testing.assert_array_equal(back.points.positions, pts)
    assert back.labels is None
