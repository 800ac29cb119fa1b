"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lckverify.catalog import (
    load_builtin,
    verify_catalog,
    verify_entry,
    verify_equivalence,
)
from lckverify.exterior import KForm, parse_form
from lckverify.lck import lee_form, morse_novikov_betti, vaisman_test, verify_lck
from lckverify.liealg import parse_salamon
from lckverify.scalars import QQ

import test_constructions
import test_lck
from test_catalog import mutate_omega_sign


@pytest.fixture(scope="module")
def catalog():
    return load_builtin()


def report(number, ok, message):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_catalog_integrity(catalog):
    """All algebras satisfy the Jacobi identity and all stored complex
    structures are integrable, as parameter identities, in under 5 s."""
    start = time.time()
    n_structures = 0
    failures = []
    for entry in catalog.entries:
        records = verify_entry(entry)
        for r in records:
            if r.id.endswith("/jacobi") or "/J:" in r.id:
                if "/J:" in r.id:
                    n_structures += 1
                if not r.passed:
                    failures.append(r.id)
    elapsed = time.time() - start
    report(1, not failures and n_structures >= 25 and elapsed < 5,
           f"{len(catalog.entries)} algebras pass Jacobi, {n_structures} complex "
           f"structures integrable, {len(failures)} failures, {elapsed:.2f}s")


def test_criterion_2_table_reproduction(catalog):
    """Every catalog lcK row passes the symbolic identities and exact
    positivity at not fewer than two witnesses."""
    failures = []
    rows = 0
    for entry in catalog.entries:
        for fam in entry.lck_families:
            rows += 1
            s = entry.family_structure(fam)
            assert len(s.witnesses) >= 2
            rep = verify_lck(s)
            if not rep.passed:
                failures.append((f"{entry.id}/{fam.name}",
                                 [c.check for c in rep.failures()]))
    report(2, rows >= 30 and not failures,
           f"{rows} lcK rows verified with >= 2 witnesses each, "
           f"{len(failures)} failures")


def test_criterion_3_vaisman_column(catalog):
    """The Vaisman determination matches the stored expectation at every
    witness, with the conditional rows straddling their condition."""
    checked = mismatches = 0
    always_ids = {"rh3", "rr3_0", "d4p_0", "u2", "gl2"}
    seen_always = set()
    conditional_values = []
    for entry in catalog.entries:
        for fam in entry.lck_families:
            s = entry.family_structure(fam)
            for w in s.witnesses:
                got, _ = vaisman_test(s, w)
                if isinstance(fam.vaisman, dict):
                    # the predicate as the loader parsed it
                    want = all(c.holds_at(w) for c in fam.vaisman["iff"])
                    conditional_values.append(want)
                else:
                    want = fam.vaisman == "always"
                    if want:
                        seen_always.add(entry.id)
                checked += 1
                if got != want:
                    mismatches += 1
    straddles = True in conditional_values and False in conditional_values
    report(3, mismatches == 0 and always_ids <= seen_always and straddles,
           f"{checked} witness determinations, {mismatches} mismatches; "
           f"always-rows cover {sorted(always_ids)}; conditional witnesses "
           f"straddle the condition: {straddles}")


def test_criterion_4_no_lck_rows(catalog):
    """Every excluded Lee-form family carries a positivity obstruction."""
    failures = []
    count = 0
    required = {"rr3p_0", "r4_1", "h4", "d4", "r4p_0_delta"}
    seen = set()
    for entry in catalog.entries:
        for r in verify_entry(entry):
            if "/nolck:" in r.id:
                count += 1
                seen.add(entry.id)
                if not r.passed:
                    failures.append(r.id)
    report(4, not failures and required <= seen,
           f"{count} obstruction certificates over {len(seen)} entries, "
           f"{len(failures)} failures")


def test_criterion_5_derivation_replays(catalog):
    """Solution-space dimensions match the derivations (rh3 3->1,
    rr3_1 4->2, and four further sections) and the normalizing chains land
    exactly on the stored normal forms at radical-free witnesses."""
    dims = {}
    failures = []
    for entry in catalog.entries:
        for r in verify_entry(entry):
            if "/replay:" in r.id:
                dims[r.id] = r.passed
                if not r.passed:
                    failures.append(r.id)
        for r in verify_equivalence(entry):
            if not r.passed:
                failures.append(r.id)
    chains = [e.id for e in catalog.entries if e.equivalences]
    ok = (not failures and dims.get("rh3/replay:generic") is True
          and dims.get("rr3_1/replay:lee-2e1") is True
          and len(dims) >= 6 and {"rh3", "rr3_1"} <= set(chains))
    report(5, ok,
           f"{len(dims)} dimension replays, chains on {sorted(chains)}, "
           f"{len(failures)} failures")


def test_criterion_6_morse_novikov():
    """Twisted Betti numbers: all-zero for the catalog Lee form, the
    untwisted values against an independent rank oracle."""
    g = parse_salamon("0,0,-12,0")
    twisted = morse_novikov_betti(g, parse_form(QQ, 4, "-e4"))
    plain = morse_novikov_betti(g, KForm.zero(QQ, 4, 1))
    oracle = test_lck.betti_oracle(g, {})
    ok = twisted == [0, 0, 0, 0, 0] and plain == [1, 3, 4, 3, 1] == oracle
    report(6, ok, f"twisted {tuple(twisted)}, untwisted {tuple(plain)}, "
                  f"oracle {tuple(oracle)}")


def test_criterion_7_constructions():
    """Builders verify their own output: the unimodular family for
    n in 1..3, the basis-change identification at n = 2, the
    almost-nilpotent extensions with the unimodularity law, the mapping
    torus with its identification, and no construction is Vaisman."""
    from lckverify.constructions import (
        cokahler_mapping_torus,
        lck_extension,
        ot_algebra,
        unimodularity_check,
    )

    problems = []
    for n in (1, 2, 3):
        g, s = ot_algebra(n, [Fraction(i) for i in range(1, n + 1)])
        if not verify_lck(s).passed:
            problems.append(f"ot({n})")
        ok, _ = vaisman_test(s, {})
        if ok:
            problems.append(f"ot({n}) vaisman")

    test_constructions.test_ot_matches_aff_extension_under_phi()

    for n in (1, 2, 3):
        spec = test_constructions.d4p_extension_spec(n)
        _, out = lck_extension(spec)
        if not unimodularity_check(spec):
            problems.append(f"d4p-ext({n}) unimodular")
        if unimodularity_check(test_constructions.d4p_extension_spec(n, bind_mu=False)):
            problems.append(f"d4p-ext({n}) free-mu should fail")
        for w in out.witnesses:
            got, _ = vaisman_test(out, w)
            if got:
                problems.append(f"d4p-ext({n}) vaisman")

    g, s = cokahler_mapping_torus(test_constructions.cok3_data())
    if not verify_lck(s).passed:
        problems.append("torus")
    test_constructions.test_cokahler_example_builds_r2p()
    got, _ = vaisman_test(s, {})
    if got:
        problems.append("torus vaisman")
    report(7, not problems, f"constructions verified: {problems or 'all pass'}")


def test_criterion_8_mutation_robustness(catalog):
    """A flipped sign in any of five randomly chosen stored forms makes at
    least one check fail."""
    rng = random.Random(20260810)
    rows = [(e, f) for e in catalog.entries for f in e.lck_families]
    survivors = []
    for entry, fam in rng.sample(rows, 5):
        nterms = len(entry.family_structure(fam).omega.coeffs)
        mutated = mutate_omega_sign(entry, fam, rng.randrange(nterms))
        rep = verify_lck(mutated)
        broke = not rep.passed
        if not broke:
            theta, closed = lee_form(mutated.algebra, mutated.omega)
            broke = not (closed and (theta - mutated.theta).is_zero())
        if not broke:
            survivors.append(f"{entry.id}/{fam.name}")
    report(8, not survivors, f"5 sign flips, survivors: {survivors or 'none'}")


def test_criterion_9_end_to_end(tmp_path):
    """The full machine report completes in under 10 s and is byte-stable."""
    from lckverify.cli import run

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    start = time.time()
    codes = [run(["verify-table", "--json", str(p)]) for p in paths]
    elapsed = (time.time() - start) / 2
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    ok = (codes == [0, 0] and identical and elapsed < 10
          and doc["summary"]["failed"] == 0)
    report(9, ok,
           f"exit codes {codes}, {doc['summary']['total']} checks, "
           f"deterministic: {identical}, {elapsed:.1f}s per run")
