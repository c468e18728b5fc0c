"""Layered circuit: ordering, counts, the fused kernel, periodicity."""
import re
import sys

import numpy as np
import pytest

from isingdefect import ansatz, zne
from isingdefect.ansatz import (
    AnsatzSpec,
    derivative_sweep,
    gate_generators,
    gate_runs,
    init_params,
    parameter_count,
    prepare_state,
)
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.paulis import PauliString, dense_matrix, pauli_table
from isingdefect.qng import derivative_state
from isingdefect.statevector import pauli_apply_raw, plus_state

import oracles


def test_parameter_counts():
    assert parameter_count(AnsatzSpec(L=12, N=6, boundary="periodic")) == 216
    assert parameter_count(AnsatzSpec(L=12, N=6, boundary="open")) == 210
    assert parameter_count(AnsatzSpec(L=2, N=1, boundary="open")) == 5


def test_layer_ordering():
    spec = AnsatzSpec(L=3, N=2, boundary="periodic")
    gens = gate_generators(spec)
    per_layer = len(gens) // 2
    assert gens[:per_layer] == gens[per_layer:]
    letters = [tuple(sorted(g.ops.items())) for g in gens[:per_layer]]
    assert letters == [
        ((0, "Z"), (1, "Z")),
        ((1, "Z"), (2, "Z")),
        ((0, "Z"), (2, "Z")),  # wrap bond last among bonds
        ((0, "X"),),
        ((1, "X"),),
        ((2, "X"),),
        ((0, "Z"),),
        ((1, "Z"),),
        ((2, "Z"),),
    ]


def test_gate_runs_merge_commuting_gates():
    ops = [{0: "Z", 1: "Z"}, {2: "Z"}, {1: "X"}, {2: "X"}, {1: "X"}, {0: "Z"},
           {0: "Z", 2: "Z"}, {0: "X"}]
    runs = gate_runs([PauliString.from_ops(o) for o in ops])
    # Z and ZZ gates merge; X gates merge until a site repeats
    assert [run[:3] for run in runs] == [
        ("z", 0, 2), ("x", 2, 4), ("x", 4, 5), ("z", 5, 7), ("x", 7, 8)]
    assert runs[0][3] == (0b011, 0b100)
    assert runs[1][3] == (1, 2) and runs[2][3] == (1,)
    assert runs[3][3] == (0b001, 0b101)
    # each side where a Z run meets an X run shares that X run's P
    assert [run[4] for run in runs] == [
        (False, True), (True, False), (False, True), (True, True), (True, False)]


def test_gate_runs_refuse_generators_outside_the_gate_set():
    for ops in ({1: "Y"}, {0: "X", 1: "X"}, {0: "Z", 1: "Z", 2: "Z"}, {}, {0: "Z", 1: "X"}):
        gens = [PauliString.from_ops({0: "X"}), PauliString.from_ops(ops)]
        label = re.escape(repr(gens[1]))
        with pytest.raises(ValueError, match=rf"gate 1 \({label}\) is neither"):
            gate_runs(gens)


def test_open_chain_drops_wrap_bond():
    gens = gate_generators(AnsatzSpec(L=3, N=1, boundary="open"))
    assert len(gens) == 8
    assert ((0, "Z"), (2, "Z")) not in [tuple(sorted(g.ops.items())) for g in gens]


def test_zero_angles_leave_plus_state():
    spec = AnsatzSpec(L=4, N=2)
    state = prepare_state(spec, np.zeros(parameter_count(spec)))
    assert np.allclose(state.amplitudes, plus_state(4).amplitudes, atol=1e-15)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_matches_dense_gate_product(boundary):
    spec = AnsatzSpec(L=3, N=2, boundary=boundary)
    rng = np.random.default_rng(7)
    params = rng.uniform(-1.5, 1.5, parameter_count(spec))
    psi = plus_state(3).amplitudes
    for g, t in zip(gate_generators(spec), params):
        U = oracles.dense_rotation(oracles.kron_chain(g.ops, 3), t)
        psi = U @ psi
    got = prepare_state(spec, params)
    assert np.allclose(got.amplitudes, psi, atol=1e-12)
    assert np.linalg.norm(got.amplitudes) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_fused_kernel_matches_dense_oracle(L, boundary):
    # L=2 periodic has the bond (0, 1) twice per layer
    for N in (1, 2, 3):
        spec = AnsatzSpec(L=L, N=N, boundary=boundary)
        rng = np.random.default_rng([L, N])
        params = rng.uniform(-np.pi, np.pi, parameter_count(spec))
        want_psi, want_D = oracles.dense_ansatz(L, N, boundary, params)
        psi, D = derivative_sweep(spec, params)
        assert np.max(np.abs(psi - want_psi)) < 1e-12
        assert np.max(np.abs(D - want_D)) < 1e-12
        got = prepare_state(spec, params).amplitudes
        assert np.max(np.abs(got - want_psi)) < 1e-12


# Kronecker factors of 4+4, 4+5, 5+5, 3+4+4 and 4+4+4 sites
@pytest.mark.parametrize("L, N", [(8, 4), (9, 2), (10, 2), (11, 1), (12, 1)])
def test_fused_sweep_matches_single_parameter_route(L, N):
    spec = AnsatzSpec(L=L, N=N, boundary="periodic")
    params = np.random.default_rng(L).uniform(-np.pi, np.pi, parameter_count(spec))
    psi, D = derivative_sweep(spec, params)
    assert np.max(np.abs(psi - prepare_state(spec, params).amplitudes)) < 1e-12
    for p in range(parameter_count(spec)):
        want = derivative_state(spec, params, p).amplitudes
        assert np.max(np.abs(D[p] - want)) < 1e-12


def test_x_block_products_are_real_and_single_threaded(monkeypatch):
    # OpenBLAS on a 2-core host splits a zgemm over two threads from
    # m n k = 65,536 multiply-adds and a dgemm from 262,144. A complex X block
    # crossed the first at L=12: the L=12 ring sweep then ran at a process
    # CPU/wall ratio of 1.99 at 2 threads, and slower than at 1. A real
    # product of at most 131,072 multiply-adds stays on the calling thread.
    products = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        if sys._getframe(1).f_code is ansatz._x_block.__code__:
            products.append((a.dtype, b.dtype, a.shape[-2] * a.shape[-1] * b.shape[-1]))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for L in range(2, 13):
        for boundary in ("open", "periodic"):
            spec = AnsatzSpec(L=L, N=1, boundary=boundary)
            params = init_params(spec, seed=L)
            derivative_sweep(spec, params)
            H = build_hamiltonian(ModelParams(L=L, b=L % 2, v=0.7))
            zne._trajectory_values(zne.ansatz_circuit(spec, params), H,
                                   zne.NoiseModel(p2=0.2, p1=0.1), 40, L, 0)
            assert products
            assert all(a == b == np.float64 for a, b, _ in products)
            assert max(macs for _, _, macs in products) <= 131_072
            products.clear()


def test_warm_and_cold_caches_give_the_same_bytes(clear_package_caches):
    # a pass reads cached Pauli tables and powers of P; one that builds them
    # and one that reads them must agree to the byte, as must a Pauli string
    # applied and a dense matrix built from them. At p2 = 0.2 and p1 = 0.1
    # the trajectories take X-run frames and last-gate frames
    spec = AnsatzSpec(L=6, N=3, boundary="periodic")
    params = 100 * init_params(spec, seed=4)
    circ = zne.fold_gates(zne.ansatz_circuit(spec, params), 2.0)
    H = build_hamiltonian(ModelParams(L=6, b=1, v=4.0))
    strings = [PauliString.from_ops(ops) for ops in
               ({0: "X", 3: "Y"}, {1: "Z", 5: "Z"}, {2: "X"}, {0: "Y", 4: "Z"})]

    def outputs():
        psi, D = derivative_sweep(spec, params)
        values = zne._trajectory_values(circ, H, zne.NoiseModel(p2=0.2, p1=0.1), 300, 7, 0)
        return (psi.tobytes(), D.tobytes(), prepare_state(spec, params).amplitudes.tobytes(),
                values.tobytes(), dense_matrix(H).tobytes(),
                *(pauli_apply_raw(D, s).tobytes() for s in strings))

    clear_package_caches()
    cold = outputs()
    assert outputs() == cold
    run = ansatz._blocks(spec)[0]
    signs = ansatz.apply_run(np.ones((1, 64), dtype=complex), run, np.zeros(len(run[3])), 6)
    assert signs is pauli_table(0, run[3], 64)[1]
    with pytest.raises(ValueError, match="read-only"):
        signs[0, 0] = 1.0


def test_angle_shift_by_two_pi_is_identity():
    spec = AnsatzSpec(L=2, N=2)
    params = init_params(spec, seed=1)
    base = prepare_state(spec, params)
    for p in [0, 4, 9]:
        shifted = params.copy()
        shifted[p] += 2 * np.pi
        assert np.allclose(
            prepare_state(spec, shifted).amplitudes, base.amplitudes, atol=1e-12
        )


def test_init_params_bounds_and_determinism():
    spec = AnsatzSpec(L=12, N=6, boundary="periodic")
    a = init_params(spec, seed=11)
    b = init_params(spec, seed=11)
    c = init_params(spec, seed=12)
    assert a.shape == (216,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 0.01)


def test_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(L=1, N=1)
    with pytest.raises(ValueError):
        AnsatzSpec(L=4, N=0)
    with pytest.raises(ValueError):
        AnsatzSpec(L=4, N=1, boundary="twisted")
    spec = AnsatzSpec(L=2, N=1)
    with pytest.raises(ValueError):
        prepare_state(spec, np.zeros(4))
    with pytest.raises(ValueError):
        zne.ansatz_circuit(spec, np.zeros(6))
