from fractions import Fraction

import pytest

from saitoforms.moduli import (
    DETERMINED, FREE, admissible_pairs, dimension_D, moduli_report,
    y_constraints,
)
from saitoforms.singularity import P1MirrorData
from saitoforms.unfolding import OppositeFiltration

from conftest import (
    ORACLE_ZOO, QUARTIC_FOURFOLD, analyze_oracle_case, make_a,
)

# The status the oracle below gives an even-gap anti-diagonal slot with no
# structurally allowed source term. y_constraints has no such status, so
# any slot the oracle finds forced to vanish fails the comparison.
AUTO_VANISHING = "AUTO-VANISHING"


def test_chain_points_rigid():
    for k in range(2, 7):
        assert dimension_D(make_a(k)) == 0


def test_exceptional_unimodal_rigid(e12, e13):
    assert dimension_D(e12) == 0
    assert dimension_D(e13) == 0


def test_elliptic_one_dimensional(elliptic):
    assert dimension_D(elliptic) == 1
    cons = y_constraints(elliptic)
    frees = [c for c in cons if c.status == FREE]
    assert len(frees) == 1
    assert frees[0].pair == (8, 1) and frees[0].r == 1


def test_quartic_pair_one_dimensional(quartic_pair):
    assert dimension_D(quartic_pair) == 1
    frees = [c for c in y_constraints(quartic_pair) if c.status == FREE]
    assert [c.pair for c in frees] == [(9, 1)]


def test_admissible_pairs_integer_gap(elliptic):
    d = elliptic.degrees
    for i, j in admissible_pairs(elliptic):
        r = d[i - 1] - d[j - 1]
        assert r == int(r) and r > 0


def test_dimension_matches_pair_count(elliptic, quartic_pair, e12):
    # D counts below-anti-diagonal integer gaps plus odd gaps on it
    for data in (elliptic, quartic_pair, e12):
        mu = data.mu
        d = data.degrees
        count = 0
        for i in range(1, mu + 1):
            for j in range(1, mu + 1):
                r = d[i - 1] - d[j - 1]
                if not (r > 0 and r == int(r)):
                    continue
                if i + j < mu + 1:
                    count += 1
                elif i + j == mu + 1 and int(r) % 2 == 1:
                    count += 1
        assert dimension_D(data) == count


def test_report_counts_consistent(elliptic, quartic_pair):
    for data in (elliptic, quartic_pair):
        rep = moduli_report(data)
        counts = rep.counts()
        assert counts.get(FREE, 0) == rep.dimension
        assert sum(counts.values()) == len(rep.constraints)
        for c in rep.constraints:
            assert c.status in (FREE, DETERMINED)


def _fraction_gap_constraints(data):
    """(pair, r, status) of every coordinate with a positive integer
    degree gap, classified from the Fraction degrees, as an oracle."""
    mu, d, s = data.mu, data.degrees, data.s

    def integer_gap(p, q):
        r = d[p - 1] - d[q - 1]
        return r > 0 and r.denominator == 1

    def integer_t_degree(k, l):
        deg = d[k - 1] + d[l - 1] - s
        return deg >= 0 and deg.denominator == 1

    out = []
    for i in range(1, mu + 1):
        for j in range(1, mu + 1):
            if not integer_gap(i, j):
                continue
            r = int(d[i - 1] - d[j - 1])
            if i + j != mu + 1:
                status = FREE if i + j < mu + 1 else DETERMINED
            elif r % 2:
                status = FREE
            elif any(integer_t_degree(k, l) and
                     (k == i or integer_gap(i, k)) and
                     (l == i or integer_gap(i, l))
                     for k in range(j + 1, i + 1)
                     for l in range(j + 1, i + 1)):
                status = DETERMINED
            else:
                status = AUTO_VANISHING
            out.append(((i, j), r, status))
    return out


@pytest.mark.parametrize("case", ORACLE_ZOO + [QUARTIC_FOURFOLD, "p1"],
                         ids=lambda c: c if c == "p1" else c[0])
def test_constraints_match_the_fraction_gap_oracle(case):
    data = P1MirrorData(2) if case == "p1" else analyze_oracle_case(case)
    want = _fraction_gap_constraints(data)
    assert admissible_pairs(data) == [pair for pair, _, _ in want]
    assert [(c.pair, c.r, c.status) for c in y_constraints(data)] == want


def test_gaps_are_compared_as_ints(monkeypatch, elliptic, quartic_pair,
                                  quartic_fourfold):
    calls = []
    sub = Fraction.__sub__

    def counting(self, other):
        calls.append(None)
        return sub(self, other)

    def subtractions(build):
        start = len(calls)
        build()
        return len(calls) - start

    monkeypatch.setattr(Fraction, "__sub__", counting)
    assert admissible_pairs(elliptic) == [(8, 1)]
    assert [c.pair for c in y_constraints(quartic_pair)] == \
        admissible_pairs(quartic_pair)
    moduli_calls = len(calls)
    # an opposite filtration tests its gaps and t-powers as ints too, and
    # its only Fraction subtractions are those of the back-substitution
    # that inverts its basis change: none when c is trivial, none for the
    # one slot (8, 1), whose inverse row -e_1 + e_8 meets no entry twice,
    # and one per degree-1 row that the socle row chains through down to
    # degree 0 on the fourfold, where the inverse's (81, 1) entry is
    # -c(81,1) + c(81,32) c(32,1) + c(81,33) c(33,1)
    trivial = subtractions(lambda: OppositeFiltration(elliptic))
    one_slot = subtractions(
        lambda: OppositeFiltration(elliptic, {(8, 1): 1}))
    chained = subtractions(lambda: OppositeFiltration(
        quartic_fourfold, {(81, 1): 1, (81, 32): 2, (81, 33): 3,
                           (32, 1): 5, (33, 1): 7}))
    monkeypatch.undo()
    assert (moduli_calls, trivial, one_slot, chained) == (0, 0, 0, 2)
