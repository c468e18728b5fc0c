"""Braid operators, the loop operator, and defect correlators."""
import math

import numpy as np
import pytest

from isingdefect.ansatz import AnsatzSpec, init_params, prepare_state
from isingdefect.measure import EstimateRecord, ShotPlan, _sample_pm1
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.observables import (
    correlator_profile,
    correlator_profile_shot,
    correlator_zz,
    ybar_exact,
    ybar_hadamard,
    ybar_shots,
)
from isingdefect.qng import OptimizeOptions, optimize
from isingdefect.statevector import StateVector, plus_state

import oracles
from oracles import exact_ground

ANALYTIC = ShotPlan(shots=1, analytic=True)

# [DERIVED] dense diagonalization, L=12, j=6, open chain, frozen
PROFILE_V0 = [
    0.5075961253, 0.3728353760, 0.3023043274, 0.2565486326, 0.2231166698,
    0.1965557782, 0.1739119922, 0.1532168285, 0.1327361068, 0.1101835186,
    0.0803179188,
]
PROFILE_V4 = [
    0.5129483287, 0.3840872567, 0.3204864037, 0.2828536145, 0.2589848229,
    0.0004107581, 0.0003816934, 0.0003490793, 0.0003108049, 0.0002627810,
    0.0001934818,
]


def random_state(L, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    return StateVector(L, amps)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_braids_match_dense_oracle_and_are_unitary(L):
    # the symbolic braids of the test oracle against its dense ones
    for k in range(1, 2 * L):
        for inverse in (False, True):
            got = oracles.dense(oracles.braid_sum(k, inverse), L)
            want = oracles.dense_braid(k, L, inverse)
            assert np.allclose(got, want, atol=1e-12)
            assert np.allclose(got @ got.conj().T, np.eye(1 << L), atol=1e-12)
    for k in range(1, 2 * L):
        g = oracles.dense(oracles.braid_sum(k), L)
        ginv = oracles.dense(oracles.braid_sum(k, inverse=True), L)
        assert np.allclose(g @ ginv, np.eye(1 << L), atol=1e-12)


@pytest.mark.parametrize("L", [2, 3])
def test_braid_relations(L):
    mats = [oracles.dense(oracles.braid_sum(k), L) for k in range(1, 2 * L)]
    for a, b in zip(mats, mats[1:]):
        assert np.allclose(a @ b @ a, b @ a @ b, atol=1e-12)


def test_odd_braid_multiplies_plus_state_by_minus_one():
    for L in (2, 3):
        psi = plus_state(L).amplitudes
        for k in range(1, 2 * L, 2):
            g = oracles.dense(oracles.braid_sum(k), L)
            assert np.allclose(g @ psi, -psi, atol=1e-12)


def test_loop_operator_sum_is_hermitian_and_matches_oracle():
    for L in (2, 3, 4, 5):
        yb = oracles.loop_sum(L)
        assert all(abs(c.imag) <= 1e-12 for c in yb.values())
        assert np.allclose(oracles.dense(yb, L), oracles.dense_ybar(L), rtol=0, atol=1e-12)


def test_loop_expectation_real_on_random_states():
    for L in (2, 3, 4, 5):
        psi = random_state(L, seed=L)
        got = ybar_exact(psi)
        dense = psi.amplitudes.conj() @ oracles.dense_ybar(L) @ psi.amplitudes
        assert abs(dense.imag) < 1e-10
        assert got == pytest.approx(dense.real, abs=1e-10)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_ground_state_loop_value_is_minus_sqrt2(L):
    gs = exact_ground(ModelParams(L=L, b=1, v=0.0)).ground_state
    val = ybar_exact(gs)
    assert val == pytest.approx(-math.sqrt(2), abs=1e-10)
    assert abs(val) == pytest.approx(math.sqrt(2), abs=1e-10)


def test_commutator_is_sector_exact_not_bare():
    # the printed operator drops a half-site translation: it fails to commute
    # with the ring Hamiltonian as a bare operator ([DERIVED] norm = 2^L) but
    # is an exact symmetry of the spin-flip-even sector where ground states
    # live
    for L, bare in ((4, 16.0), (6, 64.0)):
        yb = oracles.loop_sum(L)
        H = oracles.pauli_map(build_hamiltonian(ModelParams(L=L, b=1, v=0.0)))
        projector = oracles.sector_projector(L)
        assert oracles.commutator_norm(yb, H) == pytest.approx(bare, abs=1e-9)
        assert oracles.norm(oracles.product(oracles.commutator(yb, H), projector)) < 1e-10
        assert oracles.commutator_norm(oracles.product(yb, projector), H) < 1e-10
        flip = {((1 << L) - 1, 0): 1.0}
        assert oracles.commutator_norm(yb, flip) < 1e-10


def test_loop_circuit_analytic_matches_exact_path():
    spec = AnsatzSpec(L=3, N=2, boundary="periodic")
    params = init_params(spec, seed=17) * 120
    rec = ybar_hadamard(spec, params, ANALYTIC)
    psi = prepare_state(spec, params).amplitudes
    want = 2 * oracles.ancilla_mean(oracles.loop_ancilla_state(psi), "X")
    assert rec.value == pytest.approx(want, abs=1e-10)
    assert rec.std_error == 0.0


def test_ybar_exact_reads_the_sampler_overlap_past_l14():
    # no size cap of its own: ybar_shots reads the same overlap uncapped
    spec = AnsatzSpec(L=15, N=1, boundary="periodic")
    psi = prepare_state(spec, init_params(spec, seed=3) * 50)
    assert ybar_exact(psi) == ybar_shots(psi, ANALYTIC, ["ybar:L15"])[0].value


def test_loop_circuit_on_optimized_state():
    mp = ModelParams(L=4, b=1, v=0.0)
    spec = AnsatzSpec(L=4, N=2, boundary="periodic")
    state, _ = optimize(spec, mp, OptimizeOptions(max_iters=300))
    assert state.converged
    rec = ybar_hadamard(spec, state.params, ANALYTIC)
    psi = prepare_state(spec, state.params).amplitudes
    want = 2 * oracles.ancilla_mean(oracles.loop_ancilla_state(psi), "X")
    assert rec.value == pytest.approx(want, abs=1e-10)
    assert abs(rec.value) == pytest.approx(math.sqrt(2), abs=0.05)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_loop_estimate_matches_ancilla_circuit_oracle(L, boundary):
    # the estimator reads the ancilla mean from the loop overlap; the oracle
    # runs the controlled loop circuit on an (L+1)-qubit register
    spec = AnsatzSpec(L=L, N=2, boundary=boundary)
    params = init_params(spec, seed=40 + L) * 50
    psi = prepare_state(spec, params)
    mean = oracles.ancilla_mean(oracles.loop_ancilla_state(psi.amplitudes), "X")
    rec = ybar_hadamard(spec, params, ANALYTIC)
    assert abs(rec.value / 2 - mean) < 1e-12
    assert abs(rec.value / 2 - ybar_exact(psi) / 2) < 1e-12
    for seed in range(3):
        plan = ShotPlan(shots=1024, seed=seed)
        cid = f"ybar:oracle:L{L}:{boundary}:s{seed}"
        ids = [f"{cid}:run{run}" for run in range(4)]
        want = []
        _sample_pm1([mean], plan, [cid], want)
        _sample_pm1([mean] * len(ids), plan, ids, want)
        got = [ybar_hadamard(spec, params, plan, circuit_id=cid)] + ybar_shots(psi, plan, ids)
        assert got == [EstimateRecord(2.0 * w.value, 2.0 * w.std_error, w.shots_used,
                                      w.circuit_id) for w in want]


def test_ancilla_stays_pure_on_loop_eigenstate():
    gs = exact_ground(ModelParams(L=4, b=1, v=0.0)).ground_state
    A = oracles.loop_ancilla_state(gs.amplitudes).reshape(2, -1)
    rho = A @ A.conj().T
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_correlator_basics():
    gs = exact_ground(ModelParams(L=2, b=0)).ground_state
    assert correlator_zz(gs, 1) == 1.0
    assert correlator_zz(gs, 2) == pytest.approx(1 / math.sqrt(5), abs=1e-10)
    with pytest.raises(ValueError):
        correlator_zz(gs, 0)
    with pytest.raises(ValueError):
        correlator_zz(gs, 3)


def test_correlator_matches_dense_oracle_small():
    gs = exact_ground(ModelParams(L=6, b=0, v=1.1)).ground_state
    for r in range(2, 7):
        want = (
            gs.amplitudes.conj()
            @ oracles.kron_chain({0: "Z", r - 1: "Z"}, 6)
            @ gs.amplitudes
        ).real
        assert correlator_zz(gs, r) == pytest.approx(want, abs=1e-12)


def test_frozen_experiment_scale_profiles():
    for v, frozen in ((0.0, PROFILE_V0), (4.0, PROFILE_V4)):
        gs = exact_ground(ModelParams(L=12, b=0, v=v, j=6)).ground_state
        got = [correlator_zz(gs, r) for r in range(2, 13)]
        assert np.allclose(got, frozen, atol=1e-9)


@pytest.mark.parametrize("L", [4, 6, 8])
def test_free_fermion_profile_matches_dense_oracle(L):
    _, psi, _ = oracles.dense_ground(oracles.dense_hamiltonian(L, 0, 0.0, 1))
    want = [
        (psi.conj() @ oracles.kron_chain({0: "Z", r - 1: "Z"}, L) @ psi).real
        for r in range(2, L + 1)
    ]
    assert np.allclose(oracles.free_fermion_zz_profile(L), want, atol=1e-10)


def test_open_chain_end_to_end_correlator_is_below_one_over_L():
    # the critical open chain's end-to-end correlator falls like 1/L from
    # below (Pfeuty 1970): L <Z_1 Z_L> = 0.964 at the experiment's L=12, so
    # no 0.1 floor holds at r = 12
    end_to_end = oracles.free_fermion_zz_profile(12)[-1]
    assert 0.9 < 12 * end_to_end < 1.0


def test_defect_collapse_contrast():
    # the collapse side sits far below the smooth side: the operational
    # signature of the defect
    gs0 = exact_ground(ModelParams(L=12, b=0, v=0.0, j=6)).ground_state
    gs4 = exact_ground(ModelParams(L=12, b=0, v=4.0, j=6)).ground_state
    collapsed = max(abs(correlator_zz(gs4, r)) for r in range(7, 13))
    smooth = min(abs(correlator_zz(gs0, r)) for r in range(2, 7))
    assert collapsed < 0.05
    assert collapsed < smooth


def test_profile_shot_agrees_within_binomial_error():
    gs = exact_ground(ModelParams(L=4, b=0, v=0.0)).ground_state
    rows = correlator_profile_shot(gs, ShotPlan(shots=2048, seed=3), runs=10)
    for r, value, se in rows:
        exact = correlator_zz(gs, r)
        assert abs(value - exact) <= 3 * max(se, 1e-12) + 1e-12
    exact_rows = correlator_profile(gs)
    assert [row[0] for row in rows] == [row[0] for row in exact_rows]


def test_profile_shot_records_are_one_batch_on_the_oracle_means():
    L, runs = 5, 3
    rng = np.random.default_rng(12)
    psi = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
    psi /= np.linalg.norm(psi)
    plan = ShotPlan(shots=1024, seed=4)
    records = []
    rows = correlator_profile_shot(StateVector(L, psi), plan, runs=runs, records=records)
    # every (r, run) circuit is drawn in one batch on the kron-chain means
    means = [oracles.pauli_mean(psi, {0: "Z", r - 1: "Z"}) for r in range(2, L + 1)]
    ids = [f"corr:r{r}:run{run}" for r in range(2, L + 1) for run in range(runs)]
    want = []
    _sample_pm1(np.repeat(means, runs), plan, ids, want)
    assert records == want
    assert rows[0] == (1, 1.0, 0.0)
    for (r, value, se), k in zip(rows[1:], range(0, len(want), runs)):
        block = want[k:k + runs]
        assert value == pytest.approx(np.mean([w.value for w in block]), abs=1e-15)
        assert se == pytest.approx(math.hypot(*[w.std_error for w in block]) / runs)


def test_loop_operator_validation():
    with pytest.raises(ValueError, match="at least two sites"):
        ybar_exact(plus_state(1))
    with pytest.raises(ValueError, match="L <= 8"):
        oracles.loop_sum(9)
