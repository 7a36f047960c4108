"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from qwalk.channels import kraus_set, oun_channel, oun_kernel, rtn_channel, rtn_kernel
from qwalk.cli import main
from qwalk.operators import sender_state, walk_spec, walk_unitary
from qwalk.scenarios import Scenario, case_study_scenarios, peak_steps, run_scenario
from qwalk.graphs import standard_family

from .goldens import CASE_SPECS, FAMILY_BUILDERS, GOLDEN_COINS, GOLDEN_SHIFTS
from .oracles import (
    fidelity_density,
    fidelity_pure,
    fidelity_pure_target,
    power_evolved,
    random_density,
    random_pure,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def suite():
    return {name: run_scenario(sc) for name, sc in case_study_scenarios()}


def case_ops(family: str, s: int, r: int):
    kind, size = FAMILY_BUILDERS[family]
    return walk_spec(standard_family(kind, *size), s, r)


def test_criterion_1_path_perfect_transfer():
    sc = Scenario(graph="path", size=(5,), sender=0, receiver=4,
                  receiver_mode="outgoing", steps=24)
    f = run_scenario(sc).noiseless
    at_peaks = max(abs(f[t] - 1.0) for t in (4, 12, 20))
    elsewhere = max(f[t] for t in range(1, 25) if t not in (4, 12, 20))
    ok = at_peaks <= 1e-10 and elsewhere < 1.0 - 1e-6
    report(
        "criterion 1 (path transfer peaks at t=4,12,20)",
        ok,
        f"max |F-1| at peaks {at_peaks:.2e}, max F elsewhere {elsewhere:.2e}",
    )


def test_criterion_2_path_periodicity():
    sc = Scenario(graph="path", size=(5,), sender=0, mode="periodicity", steps=24)
    f = run_scenario(sc).noiseless
    revivals = (0, 8, 16, 24)
    at_peaks = max(abs(f[t] - 1.0) for t in revivals)
    elsewhere = max(f[t] for t in range(25) if t not in revivals)
    ok = at_peaks <= 1e-10 and elsewhere < 1.0 - 1e-6
    report(
        "criterion 2 (path periodicity at t=0,8,16,24)",
        ok,
        f"max |F-1| at revivals {at_peaks:.2e}, max F elsewhere {elsewhere:.2e}",
    )


def test_criterion_3_path_half_fidelity(suite):
    top = suite["p5_transfer_s0_r1_rtn"].noiseless[1:].max()
    ok = abs(top - 0.5) <= 1e-10
    report(
        "criterion 3 (adjacent-vertex path transfer caps at 1/2)",
        ok,
        f"max fidelity over t in [1,100] = {top:.12g}",
    )


def test_criterion_4_noise_transparency(suite):
    worst = 0.0
    for base in ("p5_transfer_s0_r4", "p5_transfer_s0_r1", "s6_transfer_s0_r1"):
        for noise in ("rtn", "oun"):
            series = suite[f"{base}_{noise}"]
            worst = max(worst, float(np.abs(series.noisy - series.noiseless).max()))
    ok = worst <= 1e-12
    report(
        "criterion 4 (noise-transparent scenarios)",
        ok,
        f"max |noisy - noiseless| over all steps and channels = {worst:.2e}",
    )


def test_criterion_5_channel_sanity():
    completeness = 0.0
    for dim in (8, 10, 12):
        for channel in (rtn_channel(dim), oun_channel(dim)):
            eye = np.eye(dim)
            for t in range(101):
                ks = kraus_set(channel, float(t))
                total = sum(np.diag(k).conj().T @ np.diag(k) for k in ks.operators)
                completeness = max(completeness, float(np.abs(total - eye).max()))
    kernels_at_zero = max(abs(rtn_kernel(0.0) - 1.0), abs(oun_kernel(0.0) - 1.0))
    oun_values = [oun_kernel(float(t)) for t in range(1, 101)]
    oun_decreasing = all(b < a for a, b in zip(oun_values, oun_values[1:]))
    rtn_values = [rtn_kernel(float(t)) for t in range(101)]
    sign_changes = sum(1 for a, b in zip(rtn_values, rtn_values[1:]) if a * b < 0)
    ok = (
        completeness <= 1e-12
        and kernels_at_zero == 0.0
        and oun_decreasing
        and sign_changes >= 2
    )
    report(
        "criterion 5 (channel sanity)",
        ok,
        f"completeness residual {completeness:.2e}, kernels(0) offset {kernels_at_zero:.2e}, "
        f"OUN strictly decreasing {oun_decreasing}, RTN sign changes {sign_changes}",
    )


def test_criterion_6_operator_structure():
    worst_structure = 0.0
    worst_golden = 0.0
    for family, s, r in CASE_SPECS:
        ops = walk_unitary(case_ops(family, s, r))
        eye = np.eye(ops.dim)
        worst_structure = max(
            worst_structure,
            float(np.abs(ops.coin @ ops.coin - eye).max()),
            float(np.abs(ops.shift @ ops.shift - eye).max()),
            float(np.abs(ops.unitary.conj().T @ ops.unitary - eye).max()),
        )
        worst_golden = max(
            worst_golden,
            float(np.abs(ops.coin - GOLDEN_COINS[(family, s, r)]).max()),
            float(np.abs(ops.shift - GOLDEN_SHIFTS[family]).max()),
        )
    ok = worst_structure <= 1e-12 and worst_golden <= 1e-6
    report(
        "criterion 6 (operator structure and golden matrices)",
        ok,
        f"max involution/unitarity residual {worst_structure:.2e}, "
        f"max golden deviation {worst_golden:.2e}",
    )


def test_criterion_7_fidelity_formula_equivalence():
    rng = np.random.default_rng(2024)
    worst_pure = 0.0
    for _ in range(100):
        psi, phi = random_pure(rng, 12), random_pure(rng, 12)
        worst_pure = max(
            worst_pure,
            abs(
                fidelity_pure(psi, phi)
                - fidelity_density(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            ),
        )
    worst_target = 0.0
    for _ in range(100):
        rho, phi = random_density(rng, 12), random_pure(rng, 12)
        worst_target = max(
            worst_target,
            abs(fidelity_pure_target(rho, phi) - fidelity_density(rho, np.outer(phi, phi.conj()))),
        )
    ok = worst_pure <= 1e-9 and worst_target <= 1e-9
    report(
        "criterion 7 (fidelity formula equivalence)",
        ok,
        f"pure-pair deviation {worst_pure:.2e}, density-pure deviation {worst_target:.2e}",
    )


def test_criterion_8_evolution_oracle():
    worst = 0.0
    for family, s, r in CASE_SPECS:
        spec = case_ops(family, s, r)
        ops = walk_unitary(spec)
        psi0 = sender_state(spec)
        psi = psi0
        for t in range(1, 51):
            psi = ops.unitary @ psi
            worst = max(worst, float(np.abs(psi - power_evolved(ops.unitary, psi0, t)).max()))
    ok = worst <= 1e-9
    report(
        "criterion 8 (iterated evolution matches matrix powers)",
        ok,
        f"max deviation over all case studies and t in [1,50] = {worst:.2e}",
    )


def test_criterion_9_qualitative_noise_orderings(suite):
    c6 = suite["c6_transfer_s0_r3_rtn"]
    c6_gap = abs(float(c6.noisy.max()) - float(c6.noiseless.max()))
    c6_ok = c6_gap <= 0.05

    s6_ok = True
    s6_margins = []
    for noise in ("rtn", "oun"):
        series = suite[f"s6_transfer_s1_r0_{noise}"]
        t_star = int(series.noiseless.argmax())
        s6_margins.append(float(series.noiseless[t_star] - series.noisy[t_star]))
        s6_ok = s6_ok and series.noisy[t_star] < series.noiseless[t_star]

    periodic = suite["s6_periodic_v0_oun"].noisy
    peaks = peak_steps(periodic)
    no_backflow = all(
        periodic[later] <= periodic[earlier] + 1e-12
        for i, earlier in enumerate(peaks)
        for later in peaks[i + 1 :]
    )

    k23_peaks = len(peak_steps(suite["k23_transfer_s0_r1_rtn"].noisy))
    k23_ok = k23_peaks >= 3

    ok = c6_ok and s6_ok and no_backflow and k23_ok
    report(
        "criterion 9 (qualitative noise orderings)",
        ok,
        f"cycle peak gap {c6_gap:.4f} <= 0.05; star transfer noisy below noiseless by "
        f"{min(s6_margins):.4f}; star periodicity backflow-free {no_backflow}; "
        f"bipartite noisy peak count {k23_peaks} >= 3",
    )


def test_criterion_10_suite_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["paper-suite", "--out", str(first)]) == 0
    assert main(["paper-suite", "--out", str(second)]) == 0
    first_files = sorted(p.name for p in first.glob("*.csv"))
    second_files = sorted(p.name for p in second.glob("*.csv"))
    same_names = first_files == second_files and len(first_files) == 22
    same_bytes = all(
        (first / name).read_bytes() == (second / name).read_bytes() for name in first_files
    )
    ok = same_names and same_bytes
    report(
        "criterion 10 (suite output determinism)",
        ok,
        f"{len(first_files)} series, identical names {same_names}, identical bytes {same_bytes}",
    )
