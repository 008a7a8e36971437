"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every check is an exact integer equality; there are no
tolerances anywhere.
"""

import random
import time

from rigidity_lab import (
    QMatrix,
    centralizer_dimension,
    fixed_space_dim,
    from_star,
    centralizer_identity_check,
    invariant_factors,
    is_irreducible,
    monodromy_tuple,
    random_tuple,
    rig_fourier,
    rigidity_index,
    similar,
    stationary_phase,
)
from rigidity_lab.catalog import load_catalog
from rigidity_lab.campaign import CampaignConfig, run_campaign
from rigidity_lab.fourier import preservation_details

from support import (
    campaign_tuples,
    conjugate,
    diagonal,
    jordan_from_data,
    partition_formula,
    random_invertible,
    random_jordan_data,
    random_unit_mixed_matrix,
)

CAMPAIGN = CampaignConfig(trials=500, max_rank=4, max_points=4, seed=7)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")


def test_criterion_1_preservation_campaign():
    start = time.monotonic()
    result = run_campaign(CAMPAIGN)
    elapsed = time.monotonic() - start
    ok = result.all_equal and not result.failures and result.trials_run == CAMPAIGN.trials
    report(
        1,
        "preservation under the transform (500-trial campaign)",
        ok and elapsed < 120.0,
        f"{result.trials_run} trials, {len(result.failures)} failures, {elapsed:.1f}s",
    )
    assert ok, f"campaign failures: {result.failures[:3]}"
    assert elapsed < 120.0, f"campaign took {elapsed:.1f}s"


def test_criterion_2_catalog_index_values():
    catalog = load_catalog(external_dir="")
    failures = []
    for entry in catalog.values():
        index = rigidity_index(entry.tuple)
        rigid = index == 2 and is_irreducible(entry.tuple)
        if entry.tuple.rank == 1 and (index != 2 or not rigid):
            failures.append(entry.name)
        if index != entry.expected_index or rigid != entry.expected_rigid:
            failures.append(entry.name)
    h2 = catalog["hypergeometric2"]
    if rigidity_index(h2.tuple) != 2 or not h2.expected_rigid:
        failures.append("hypergeometric2")
    nr = catalog["nonrigid4"]
    if rigidity_index(nr.tuple) != 0 or nr.expected_rigid:
        failures.append("nonrigid4")
    ok = not failures
    report(2, "catalog rigidity indices", ok, f"{len(catalog)} entries")
    assert ok, f"catalog mismatches: {failures}"


def test_criterion_3_worked_example_end_to_end():
    t = monodromy_tuple(
        1,
        [(0, QMatrix.from_rows([[2]])), (1, QMatrix.from_rows([[3]]))],
    )
    checks = {}
    checks["infinity matrix"] = t.infinity_matrix == QMatrix.from_rows([["1/6"]])
    data = stationary_phase(t)
    checks["component dimensions"] = [c.dimension for c in data.components] == [1, 1]
    checks["rank_hat"] = data.rank_hat == 2
    checks["zero monodromy class"] = similar(data.zero_monodromy, diagonal(["1/6", 1]))
    report3, _ = preservation_details(t)
    checks["irregularity"] = report3.irregularity == 2
    checks["rig_source"] = report3.rig_source == 2
    checks["rig_fourier"] = report3.rig_fourier == 2
    checks["equal"] = report3.equal
    ok = all(checks.values())
    report(3, "worked end-to-end example", ok)
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_4_corollary_suite_on_campaign():
    finite_failures = infinity_failures = kernel_failures = checked = 0
    for _, t in campaign_tuples(CAMPAIGN):
        data = stationary_phase(t, warn_reducible=False)
        n = t.rank
        for (_, a), component in zip(t.finite_points, data.components):
            lhs = centralizer_dimension(a) - centralizer_dimension(component.regular_monodromy)
            if lhs != (n - component.dimension) ** 2:
                finite_failures += 1
        lhs_inf = centralizer_dimension(t.infinity_matrix) - centralizer_dimension(
            data.zero_monodromy
        )
        if lhs_inf != -((data.rank_hat - n) ** 2):
            infinity_failures += 1
        if fixed_space_dim(data.zero_monodromy) != data.rank_hat - n:
            kernel_failures += 1
        checked += 1
    ok = finite_failures == infinity_failures == kernel_failures == 0 and checked == CAMPAIGN.trials
    report(
        4,
        "per-point centralizer and kernel identities",
        ok,
        f"{checked} tuples, failures: {finite_failures}/{infinity_failures}/{kernel_failures}",
    )
    assert ok


def test_criterion_5_minimal_pair_identity():
    rng = random.Random(20240)
    failures = 0
    count = 200
    for _ in range(count):
        t, _ = random_unit_mixed_matrix(rng, 6)
        lhs, rhs = centralizer_identity_check(from_star(t))
        if lhs != rhs:
            failures += 1
    ok = failures == 0
    report(5, "minimal-pair centralizer identity", ok, f"{count} pairs")
    assert ok


def test_criterion_6_centralizer_oracle_equivalence():
    rng = random.Random(20241)
    failures = 0
    count = 200
    for _ in range(count):
        data, partitions = random_jordan_data(rng, 6)
        size = sum(s for _, s in data)
        matrix = conjugate(jordan_from_data(data), random_invertible(rng, size))
        # the library reads the invariant factors; the oracle sums over the
        # Jordan partitions the matrix was built from
        if centralizer_dimension(matrix) != partition_formula(partitions):
            failures += 1
    ok = failures == 0
    report(6, "invariant factors vs partition formula", ok, f"{count} matrices")
    assert ok


def test_criterion_7_conjugation_invariance():
    rng = random.Random(20242)
    failures = 0
    count = 100
    done = 0
    while done < count:
        t = random_tuple(rng.randint(1, 3), rng.randint(1, 3), rng.getrandbits(48))
        if not is_irreducible(t):
            continue
        p = random_invertible(rng, t.rank)
        conjugated = monodromy_tuple(
            t.rank,
            [(loc, conjugate(m, p)) for loc, m in t.finite_points],
            infinity_matrix=conjugate(t.infinity_matrix, p),
        )
        base = stationary_phase(t, warn_reducible=False)
        other = stationary_phase(conjugated, warn_reducible=False)
        same_indices = (
            rigidity_index(t) == rigidity_index(conjugated)
            and rig_fourier(base) == rig_fourier(other)
        )
        same_classes = invariant_factors(base.zero_monodromy) == invariant_factors(
            other.zero_monodromy
        ) and all(
            invariant_factors(c1.regular_monodromy) == invariant_factors(c2.regular_monodromy)
            for c1, c2 in zip(base.components, other.components)
        )
        if not (same_indices and same_classes):
            failures += 1
        done += 1
    ok = failures == 0
    report(7, "conjugation invariance of both indices", ok, f"{count} tuple/conjugator pairs")
    assert ok
