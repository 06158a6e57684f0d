import logging
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import efs
from efs import (
    InstabilityError,
    ParticleSet,
    PotentialParams,
    SingularityError,
    Trajectory,
    energy_trace,
    forward,
    forward_gradient,
    forward_step,
    gaussian_mixture,
    interaction_energy,
    run_forward,
)
from efs.potential import gradient_coef, pair_value
from efs.rng import SplitMix64

from conftest import random_rotation

S1 = PotentialParams(1.0, 0.0)
S2 = PotentialParams(2.0, 0.0)


def pair(dist):
    return ParticleSet([[0.0, 0.0], [dist, 0.0]])


def random_set(n, d, seed=0, scale=1.0):
    return ParticleSet(SplitMix64(seed).normals(n * d).reshape(n, d) * scale)


# ---------------------------------------------------------------- ParticleSet

def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        ParticleSet(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        ParticleSet(np.zeros((3,)))
    with pytest.raises(ValueError):
        ParticleSet([[1.0, np.nan]])
    ps = ParticleSet([[1.0, 2.0]])
    assert (ps.n, ps.d) == (1, 2)


def test_particle_set_is_frozen():
    ps = random_set(4, 2)
    with pytest.raises(ValueError):
        ps.positions[0, 0] = 99.0


def test_particle_set_repr_and_equality():
    ps = random_set(4, 2, seed=8)
    fresh = ParticleSet(ps.positions)
    assert repr(ps) == repr(fresh)
    assert ps == fresh and fresh == ps
    assert ps != random_set(4, 2, seed=9)
    assert ps != random_set(3, 2, seed=8)


def test_trajectory_shape_checks():
    with pytest.raises(ValueError):
        Trajectory((), gamma=0.1, params=S1)
    with pytest.raises(ValueError):
        Trajectory((random_set(3, 2), random_set(4, 2)), gamma=0.1, params=S1)


# ---------------------------------------------------------------- energy

def test_energy_pair_at_unit_distance():
    assert interaction_energy(pair(1.0), S2) == pytest.approx(1.0)


def test_energy_equilateral_triangle():
    h = np.sqrt(3.0) / 2.0
    tri = ParticleSet([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
    assert interaction_energy(tri, S2) == pytest.approx(1.0)


def test_energy_permutation_invariance():
    ps = random_set(6, 2, seed=4)
    perm = ParticleSet(ps.positions[::-1])
    assert interaction_energy(perm, S1) == pytest.approx(
        interaction_energy(ps, S1), rel=1e-14)


def test_energy_rigid_motion_invariance():
    ps = random_set(5, 3, seed=8)
    p = PotentialParams(1.0, 0.01)
    e0 = interaction_energy(ps, p)
    rot = random_rotation(3, seed=2)
    # the far shift cancels catastrophically in an uncentred attraction sum
    for shift in ([3.0, -1.0, 0.5], [1e4, 1e4, 1e4]):
        moved = ParticleSet(ps.positions @ rot.T + np.array(shift))
        assert interaction_energy(moved, p) == pytest.approx(e0, rel=1e-10)


def test_energy_coincident_singularity():
    ps = ParticleSet([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularityError):
        interaction_energy(ps, S1)
    # regularized: finite, no error
    assert np.isfinite(interaction_energy(ps, PotentialParams(1.0, 0.1)))


def test_energy_needs_two_particles():
    with pytest.raises(ValueError):
        interaction_energy(ParticleSet([[0.0, 0.0]]), S1)
    with pytest.raises(ValueError, match="forces need at least 2 particles"):
        forward_gradient(ParticleSet([[0.0, 0.0]]), S1)


# ---------------------------------------------------------------- forces

def test_forces_pair_equilibrium():
    np.testing.assert_allclose(forward_gradient(pair(1.0), S1), 0.0, atol=1e-15)


def test_forces_hand_example():
    delta = forward_gradient(pair(2.0), S1)
    np.testing.assert_allclose(delta, [[-1.75, 0.0], [1.75, 0.0]], rtol=1e-15)


def test_forces_action_reaction():
    for seed in range(5):
        ps = random_set(40, 3, seed=seed, scale=2.0)
        delta = forward_gradient(ps, PotentialParams(1.0, 1e-3))
        np.testing.assert_allclose(delta.sum(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_forces_match_energy_gradient(s):
    # Delta_i is (n/2) * d E_n / d x_i; check via finite differences
    ps = random_set(8, 2, seed=3)
    p = PotentialParams(s, 0.05)
    delta = forward_gradient(ps, p)
    h = 1e-6
    for i in (0, 5):
        for c in range(2):
            bump = ps.positions.copy()
            bump[i, c] += h
            up = interaction_energy(ParticleSet(bump), p)
            bump[i, c] -= 2 * h
            dn = interaction_energy(ParticleSet(bump), p)
            fd = (up - dn) / (2 * h) * ps.n / 2.0
            assert delta[i, c] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# ---------------------------------------------------------------- stepping

def test_step_fixed_point_at_equilibrium():
    ps = pair(1.0)
    out = forward_step(ps, 0.3, S1)
    np.testing.assert_allclose(out.positions, ps.positions, atol=1e-15)


def test_step_gamma_zero_identity():
    ps = random_set(5, 2, seed=1)
    out = forward_step(ps, 0.0, PotentialParams(1.0, 0.01))
    np.testing.assert_array_equal(out.positions, ps.positions)


def test_step_hand_distance():
    out = forward_step(pair(2.0), 0.1, S1)
    assert np.linalg.norm(out.positions[1] - out.positions[0]) == pytest.approx(1.65)


def test_step_center_of_mass():
    ps = random_set(30, 2, seed=6, scale=3.0)
    out = forward_step(ps, 0.05, PotentialParams(1.0, 1e-3))
    np.testing.assert_allclose(out.positions.mean(axis=0),
                               ps.positions.mean(axis=0), atol=1e-10)


def test_step_rejects_negative_gamma():
    with pytest.raises(ValueError):
        forward_step(pair(2.0), -0.1, S1)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_step_rejects_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="^gamma must be finite"):
        forward_step(pair(2.0), gamma, S1)


# ---------------------------------------------------------------- run_forward

def test_run_forward_definition():
    ps = random_set(6, 2, seed=2)
    p = PotentialParams(1.0, 0.01)
    traj = run_forward(ps, 0.05, 1, p)
    assert traj.k == 1
    np.testing.assert_array_equal(traj.snapshots[0].positions, ps.positions)
    np.testing.assert_array_equal(traj.snapshots[1].positions,
                                  forward_step(ps, 0.05, p).positions)


def test_run_forward_replay_determinism():
    ps = random_set(10, 2, seed=12)
    p = PotentialParams(1.0, 1e-3)
    traj = run_forward(ps, 0.1, 5, p)
    for j in range(5):
        np.testing.assert_array_equal(
            traj.snapshots[j + 1].positions,
            forward_step(traj.snapshots[j], 0.1, p).positions)
    again = run_forward(ps, 0.1, 5, p)
    for a, b in zip(traj.snapshots, again.snapshots):
        np.testing.assert_array_equal(a.positions, b.positions)


def test_run_forward_matches_scalar_distance_oracle():
    # two symmetric particles reduce to the scalar map r <- r - 2*gamma*r*(1 - r^-3)
    gamma = 0.1
    traj = run_forward(pair(2.0), gamma, 20, S1)
    r = 2.0
    for snap in traj.snapshots:
        sim = np.linalg.norm(snap.positions[1] - snap.positions[0])
        assert sim == pytest.approx(r, rel=1e-12)
        r = r - 2.0 * gamma * r * (1.0 - r**-3)


def test_run_forward_pair_converges_to_unit():
    traj = run_forward(pair(2.0), 0.1, 200, S1)
    final = traj.snapshots[-1]
    assert np.linalg.norm(final.positions[1] - final.positions[0]) == pytest.approx(
        1.0, abs=1e-6)


def test_run_forward_k_validation():
    with pytest.raises(ValueError):
        run_forward(pair(2.0), 0.1, 0, S1)


def test_run_forward_singularity_names_iteration():
    # two particles that collide exactly after one step: distance 2 with
    # gamma chosen so the step removes the whole separation
    ps = pair(2.0)
    # delta per particle is 1.75 toward each other; gamma = 2/(2*1.75)
    gamma = 2.0 / 3.5
    with pytest.raises(SingularityError, match="iteration 1"):
        run_forward(ps, gamma, 3, S1)


@pytest.mark.parametrize("ps, gamma", [(pair(4.0), 1e308), (pair(1e200), 0.1)],
                         ids=["positions_overflow", "energy_overflow"])
def test_step_that_leaves_the_finite_range_raises_without_a_warning(ps, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"the step left the finite range (gamma={gamma}); reduce gamma"
        with pytest.raises(InstabilityError, match=f"^{re.escape(message)}$"):
            forward_step(ps, gamma, S1)


def test_run_forward_divergence_names_iteration():
    # at gamma = 1e3 the attraction overshoots by ~1e3 per step until it overflows;
    # at k = 51 only the final snapshot's energy leaves the finite range
    ps = gaussian_mixture(60, seed=1).points
    for k in (51, 200):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=r"^forward iteration 51: the step left "):
                run_forward(ps, 1e3, k, PotentialParams(1.0, 1e-3))


def test_equivariance_translation():
    ps = random_set(15, 2, seed=21, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    shift = np.array([5.0, -3.0])
    t0 = run_forward(ps, 0.1, 8, p)
    t1 = run_forward(ParticleSet(ps.positions + shift), 0.1, 8, p)
    for a, b in zip(t0.snapshots, t1.snapshots):
        np.testing.assert_allclose(b.positions, a.positions + shift, atol=1e-9)


def test_equivariance_rotation():
    ps = random_set(15, 2, seed=22, scale=2.0)
    p = PotentialParams(1.0, 1e-3)
    rot = random_rotation(2, seed=13)
    t0 = run_forward(ps, 0.1, 8, p)
    t1 = run_forward(ParticleSet(ps.positions @ rot.T), 0.1, 8, p)
    for a, b in zip(t0.snapshots, t1.snapshots):
        np.testing.assert_allclose(b.positions, a.positions @ rot.T, atol=1e-9)


def test_equivariance_permutation():
    ps = random_set(12, 2, seed=23)
    p = PotentialParams(1.0, 1e-3)
    perm = SplitMix64(3)._raw(12).argsort()
    t0 = run_forward(ps, 0.1, 6, p)
    t1 = run_forward(ParticleSet(ps.positions[perm]), 0.1, 6, p)
    for a, b in zip(t0.snapshots, t1.snapshots):
        # permuting rows reorders each row's inner sum, so allow roundoff
        np.testing.assert_allclose(b.positions, a.positions[perm], atol=1e-10)


@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5], ids=lambda s: f"s={s:g}")
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_blocked_pairwise_independent_of_block_size(monkeypatch, s, d):
    import efs.forward as fwd

    ps = random_set(300, d, seed=30, scale=2.0)
    p = PotentialParams(s, 1e-3)
    base = forward_gradient(ps, p)
    monkeypatch.setattr(fwd, "_BLOCK_PAIRS", 7 * 300)  # 7-row blocks
    np.testing.assert_array_equal(forward_gradient(ps, p), base)


def difference_tensor_reference(ps, p):
    """Forces and E_n from the (n, n, d) difference tensor and the full W."""
    x = ps.positions
    n = ps.n
    diff = x[:, None] - x[None]
    sq = np.einsum("abd,abd->ab", diff, diff)
    q = sq + p.epsilon
    np.fill_diagonal(q, 1.0)
    coef = gradient_coef(q, p.s)
    w = pair_value(sq, q, p.s)
    np.fill_diagonal(w, 0.0)
    return np.einsum("ab,abd->ad", coef, diff) / (n - 1), w.sum() / (n * (n - 1))


@pytest.mark.parametrize("s", [0.0, 1.0], ids=lambda s: f"s={s:g}")
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_forces_match_difference_tensor(s, d):
    # the per-coordinate blocks against the (n, n, d) difference tensor they
    # replaced; n=300 spans several blocks
    ps = random_set(300, d, seed=31, scale=2.0)
    p = PotentialParams(s, 1e-3)
    ref_forces, ref_energy = difference_tensor_reference(ps, p)
    np.testing.assert_allclose(forward_gradient(ps, p), ref_forces, rtol=0, atol=1e-13)
    # the energy cached by forward_gradient and a fresh set's own blocks
    assert interaction_energy(ps, p) == pytest.approx(ref_energy, rel=1e-13)
    assert interaction_energy(ParticleSet(ps.positions), p) == pytest.approx(ref_energy,
                                                                             rel=1e-13)


@pytest.mark.parametrize("s", [0.0, 1.0], ids=lambda s: f"s={s:g}")
def test_pair_pass_evaluates_only_the_repulsion(monkeypatch, s):
    # the attraction is summed once per pass in closed form, so the pass needs
    # neither the full pair value nor the full gradient coefficient
    import efs.potential

    ps = random_set(300, 2, seed=31, scale=2.0)
    p = PotentialParams(s, 1e-3)
    ref_forces, ref_energy = difference_tensor_reference(ps, p)

    def refuse(*args, **kwargs):
        raise AssertionError("the pair pass evaluated W's attraction per pair")

    for name in ("pair_value", "gradient_coef"):
        monkeypatch.setattr(efs.potential, name, refuse)
        monkeypatch.setattr(forward, name, refuse, raising=False)
    np.testing.assert_allclose(forward_gradient(ps, p), ref_forces, rtol=0, atol=1e-13)
    assert interaction_energy(ps, p) == pytest.approx(ref_energy, rel=1e-13)
    assert interaction_energy(ParticleSet(ps.positions), p) == pytest.approx(ref_energy,
                                                                             rel=1e-13)


def test_upper_layouts_stay_cached_when_a_pass_walks_more_shapes_than_a_bounded_cache(
        monkeypatch):
    # one-row blocks at n = 4200 walk 4199 shapes, more than an LRU of 4096
    # holds, so a bounded cache would miss on every block of every pass
    monkeypatch.setattr(forward, "_BLOCK_PAIRS", 1)
    ps = random_set(4200, 1, seed=2)
    p = PotentialParams(1.0, 1e-3)
    forward_gradient(ps, p)
    hits = forward._upper_layout.cache_info().hits
    forward_gradient(ps, p)
    assert forward._upper_layout.cache_info().hits - hits == 4199


def spread_set(n, d, seed):
    """Signed values whose magnitudes spread over 1e-8 ... 1e8."""
    rng = SplitMix64(seed)
    signs = np.where(rng.uniforms(n * d) < 0.5, -1.0, 1.0)
    return (signs * 10.0 ** (16.0 * rng.uniforms(n * d) - 8.0)).reshape(n, d)


@pytest.mark.parametrize("block_pairs", ["one", "n-1", "default"])
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_pair_blocks_differences_are_the_subtract_bit_for_bit(monkeypatch, d, block_pairs):
    # each matmul entry a_k * 1 + 1 * (-b_k) takes one rounding, that of a_k - b_k
    n = 60
    a, b = spread_set(n, d, seed=50), spread_set(n + 7, d, seed=51)
    size = {"one": 1, "n-1": n - 1, "default": forward._BLOCK_PAIRS}[block_pairs]
    monkeypatch.setattr(forward, "_BLOCK_PAIRS", size)
    for other in (None, b):
        cols, seen = a if other is None else other, 0
        for i0, i1, t, sq in forward.pair_blocks(a, other):
            j0 = i0 if other is None else 0
            ref = [np.subtract(a[i0:i1, k, None], cols[None, j0:, k]) for k in range(d)]
            for tk, rk in zip(t, ref):
                assert tk.tobytes() == rk.tobytes()
            ref_sq = ref[0] * ref[0]
            for rk in ref[1:]:
                ref_sq += rk * rk
            assert sq.tobytes() == ref_sq.tobytes()
            seen += i1 - i0
        assert seen == (n - 1 if other is None else n)


def test_pair_blocks_give_plus_zero_where_the_subtract_gives_minus_zero():
    # -0.0 - (+0.0) is -0.0, but a GEMM's sum (+0 + -0) + -0 is +0.0; the
    # values are equal, and the squares carry no sign
    a, b = np.array([[-0.0], [1.0]]), np.array([[0.0], [-0.0], [2.0]])
    (_i0, _i1, t, sq), = forward.pair_blocks(a, b)
    ref = np.subtract(a[:, 0, None], b[None, :, 0])
    assert np.signbit(ref[0, 0]) and not np.signbit(t[0][0, 0])
    np.testing.assert_array_equal(t[0], ref)
    assert sq.tobytes() == (ref * ref).tobytes()


@pytest.mark.parametrize("block_pairs", ["default", "500 rows"])
def test_forward_pass_bytes_do_not_depend_on_the_blas_thread_count(block_pairs):
    # the pair blocks are BLAS products; n = 2000 spans many blocks, and
    # OpenBLAS splits a block over two threads from about 400 rows of 2000
    size = {"default": forward._BLOCK_PAIRS, "500 rows": 500 * 2000}[block_pairs]
    code = ("import hashlib, numpy as np; import efs.forward as forward; from efs import *; "
            "from efs.rng import SplitMix64; "
            f"forward._BLOCK_PAIRS = {size}; "
            "ps = ParticleSet(SplitMix64(9).normals(4000).reshape(2000, 2)); "
            "p = PotentialParams(1.0, 1e-3); f = forward_gradient(ps, p); "
            "e = np.float64(interaction_energy(ps, p)); "
            "print(hashlib.sha256(f.tobytes() + e.tobytes()).hexdigest())")
    src = str(Path(efs.__file__).resolve().parents[1])
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n},
                              check=True).stdout.strip()
               for n in ("1", "2")}
    assert len(digests) == 1 and len(digests.pop()) == 64


# ---------------------------------------------------------------- pass arena

def test_warm_passes_fault_in_no_pages():
    # a fresh process, as the test runner's heap hides malloc's mapping and
    # unmapping of per-pass buffers (160 minor faults per pass at n = 400)
    code = textwrap.dedent("""
        import resource
        from efs import PotentialParams, forward_gradient, gaussian_mixture
        ps = gaussian_mixture(400, seed=1).points
        p = PotentialParams(1.0, 1e-3)
        first = forward_gradient(ps, p).tobytes()
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            same = forward_gradient(ps, p).tobytes() == first
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, same)
        """)
    src = str(Path(efs.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    passes = [line.split() for line in out.splitlines()]
    assert len(passes) == 5
    assert all(int(faults) <= 10 and same == "True" for faults, same in passes), passes


@pytest.mark.parametrize("n, d", [(7, 1), (33, 3), (301, 2)])
def test_every_buffer_of_a_pass_starts_on_a_cache_line(monkeypatch, n, d):
    seen = []
    blocks, rep = forward.pair_blocks, forward.repulsion

    def spy_blocks(*args, **kwargs):
        for i0, i1, t, sq in blocks(*args, **kwargs):
            seen.extend([*t, sq])
            yield i0, i1, t, sq

    def spy_rep(q, s, out):
        seen.extend([q, out])
        return rep(q, s, out=out)

    monkeypatch.setattr(forward, "pair_blocks", spy_blocks)
    monkeypatch.setattr(forward, "repulsion", spy_rep)
    forward_gradient(random_set(n, d, seed=5), S1)
    arena = forward._pass_buffers(n, d)
    assert len(arena) == d + 4
    seen.extend(arena)
    assert all(a.ctypes.data % 64 == 0 for a in seen)


def test_a_pass_between_two_passes_on_one_set_leaves_its_bytes():
    p = PotentialParams(1.0, 1e-3)
    a, b = random_set(301, 2, seed=6), random_set(301, 2, seed=7, scale=3.0)
    forces, energy = forward_gradient(a, p).tobytes(), interaction_energy(a, p)
    # a generator without buffers of its own keeps its block across a pass
    _i0, _i1, _t, sq = next(forward.pair_blocks(a.positions, b.positions))
    block = sq.tobytes()
    forward_gradient(b, p)
    assert sq.tobytes() == block
    again = ParticleSet(a.positions)
    assert forward_gradient(again, p).tobytes() == forces
    assert np.float64(interaction_energy(again, p)).tobytes() == np.float64(energy).tobytes()


def test_threads_running_passes_at_once_get_their_own_arenas_and_the_serial_bytes():
    p = PotentialParams(1.0, 1e-3)
    sets = [random_set(400, 2, seed=seed) for seed in (8, 9)]
    serial = [forward_gradient(ParticleSet(ps.positions), p).tobytes() for ps in sets]
    start, done = threading.Barrier(2), threading.Barrier(2)
    results, arenas = {}, {}

    def passes(i):
        start.wait()
        results[i] = [forward_gradient(ParticleSet(sets[i].positions), p).tobytes()
                      for _ in range(20)]
        arenas[i] = forward._pass_buffers(400, 2)[0].ctypes.data
        done.wait()  # both arenas are alive when their addresses are taken

    threads = [threading.Thread(target=passes, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == {0: [serial[0]] * 20, 1: [serial[1]] * 20}
    main = forward._pass_buffers(400, 2)[0].ctypes.data
    assert len({arenas[0], arenas[1], main}) == 3


# ---------------------------------------------------------------- energy cache

@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.5])
def test_fused_energy_trace_matches_recomputation(s):
    # n=140 spans more than one block; fresh sets have empty energy caches
    p = PotentialParams(s, 1e-3)
    traj = run_forward(random_set(140, 2, seed=40, scale=2.0), 0.05, 3, p)
    fresh = [interaction_energy(ParticleSet(snap.positions), p) for snap in traj.snapshots]
    np.testing.assert_array_equal(energy_trace(traj), fresh)


def test_run_forward_makes_k_force_passes_and_one_energy_pass(monkeypatch):
    calls = []
    pair_pass = forward._self_pair_pass

    def counted(ps, p, forces=None):
        calls.append("force" if forces is not None else "energy")
        return pair_pass(ps, p, forces)

    monkeypatch.setattr(forward, "_self_pair_pass", counted)
    traj = run_forward(random_set(30, 2, seed=3), 0.05, 3, PotentialParams(1.0, 1e-3))
    assert calls == ["force"] * 3 + ["energy"]
    energy_trace(traj)
    assert len(calls) == 4


def test_run_forward_logs_the_energy_verdict_once(caplog):
    # at gamma = 0 no particle moves, so the energy cannot fall
    with caplog.at_level(logging.WARNING, logger="efs"):
        run_forward(random_set(10, 2, seed=8), 0.0, 4, PotentialParams(1.0, 0.01))
    verdicts = [r for r in caplog.records if "energy did not decrease" in r.message]
    assert len(verdicts) == 1 and verdicts[0].name == "efs.forward"


def test_energy_cache_keyed_by_params():
    ps = random_set(20, 2, seed=41)
    p1, p2 = PotentialParams(1.0, 1e-3), PotentialParams(0.0, 0.5)
    forward_gradient(ps, p1)
    fresh = ParticleSet(ps.positions)
    assert interaction_energy(ps, p2) == interaction_energy(fresh, p2)
    assert interaction_energy(ps, p1) == interaction_energy(fresh, p1)
    assert interaction_energy(ps, p1) != interaction_energy(ps, p2)


# ---------------------------------------------------------------- upper-triangle blocks

ODD_N = 301


@pytest.mark.parametrize("block_pairs", [1, ODD_N - 1, ODD_N, 7 * ODD_N, ODD_N**2 + 1])
@pytest.mark.parametrize("s", [0.0, 1.0, 2.5], ids=lambda s: f"s={s:g}")
@pytest.mark.parametrize("d", [1, 2, 3], ids=lambda d: f"d={d}")
def test_forces_bit_identical_under_any_block_partition(monkeypatch, d, s, block_pairs):
    # one-row blocks, single-row blocks that meet all n columns, several
    # blocks of growing height, and the whole triangle in one block
    import efs.forward as fwd

    ps = random_set(ODD_N, d, seed=32, scale=2.0)
    p = PotentialParams(s, 1e-3)
    base = forward_gradient(ps, p)
    monkeypatch.setattr(fwd, "_BLOCK_PAIRS", block_pairs)
    np.testing.assert_array_equal(forward_gradient(ParticleSet(ps.positions), p), base)


@pytest.mark.parametrize("where", ["leading square", "right of the square"])
def test_coincident_pair_raises_in_either_part_of_a_block(where):
    import efs.forward as fwd

    # with n = 301 the first block has rows 0 .. rows - 1 and columns 0 .. n - 1;
    # pair (3, b) lies in its leading square for b < rows and to its right beyond
    rows = fwd._BLOCK_PAIRS // ODD_N
    b = rows - 2 if where == "leading square" else rows + 40
    assert 3 < b < ODD_N
    x = random_set(ODD_N, 2, seed=33).positions.copy()
    x[b] = x[3]
    ps = ParticleSet(x)
    with pytest.raises(SingularityError, match="coincident"):
        forward_gradient(ps, PotentialParams(1.0, 0.0))
    with pytest.raises(SingularityError, match="coincident"):
        interaction_energy(ParticleSet(x), PotentialParams(0.0, 0.0))
    assert np.all(np.isfinite(forward_gradient(ps, PotentialParams(1.0, 1e-3))))
