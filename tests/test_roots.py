"""Root enumeration: classical Cartan matrices, the golden matrix, and modes."""
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from phi8.constants import build_cmE8, build_cmU, build_J
from phi8.field import GoldenExt
from phi8.lattice import e8_height_histogram
from phi8.matrix import ExactMatrix
from phi8.roots import (
    E8_POSITIVE_COUNT,
    MAX_ROOTS,
    MODES,
    EnumerationRule,
    emit_csv,
    emit_hasse_dot,
    enumerate_roots,
    event_listing,
    hasse_edges,
    signed_images,
    summarize,
)

A2 = ExactMatrix([[2, -1], [-1, 2]])
A3 = ExactMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
D4 = ExactMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
# D5 with rows scaled by sqrt(phi), phi, 3/2*phi: not symmetric, so A*beta
# differs from A^T*beta and a weight built from rows instead of columns shows
D5_SCALED = ExactMatrix.from_file(str(Path(__file__).parent / "golden" / "d5_scaled.txt"))


class TestClassical:
    def test_a2(self):
        recs = enumerate_roots(A2, EnumerationRule(max_height=10))
        assert [(r.coeffs, r.height) for r in recs] == [
            ((0, 1), 1),
            ((1, 0), 1),
            ((1, 1), 2),
        ]
        assert hasse_edges(recs) == [(0, 2, 0), (1, 2, 1)]

    def test_a3(self):
        recs = enumerate_roots(A3, EnumerationRule(max_height=10))
        assert len(recs) == 6
        assert sorted(r.height for r in recs) == [1, 1, 1, 2, 2, 3]

    def test_d4(self):
        recs = enumerate_roots(D4, EnumerationRule(max_height=10))
        assert len(recs) == 12
        assert max(r.height for r in recs) == 5

    @pytest.mark.parametrize("matrix", (A2, A3, D4), ids=("A2", "A3", "D4"))
    def test_raw_equals_normalized_on_diag_two(self, matrix):
        norm = enumerate_roots(matrix, EnumerationRule(max_height=12))
        raw = enumerate_roots(
            matrix, EnumerationRule(mode="raw-pairing", max_height=12)
        )
        assert [r.coeffs for r in norm] == [r.coeffs for r in raw]


class TestE8:
    def test_full_enumeration(self):
        recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        s = summarize(recs)
        assert s["total"] == E8_POSITIVE_COUNT
        assert s["max_height"] == 29
        assert s["total_matches_e8"]

    def test_heights_match_lattice_oracle(self):
        # the histogram from coordinate geometry must equal the one from
        # the layer-by-layer crystallographic enumeration
        recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        assert summarize(recs)["by_height"] == e8_height_histogram()

    def test_raw_equals_normalized(self):
        norm = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        raw = enumerate_roots(
            build_cmE8(), EnumerationRule(mode="raw-pairing", max_height=30)
        )
        assert [r.coeffs for r in norm] == [r.coeffs for r in raw]

    def test_cumulative_through_8(self):
        recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        assert summarize(recs)["cumulative_through_8"] == 56


class TestGoldenMatrix:
    def test_default_rule_stalls_at_height_one(self):
        # the crystallographic rule accepts no second layer here: every
        # pairing is irrational, so the integrality step never fires
        recs = enumerate_roots(build_cmU(), EnumerationRule(max_height=8))
        s = summarize(recs)
        assert s["total"] == 8
        assert s["max_height"] == 1
        assert not s["cumulative_8_matches_e8"]

    def test_pair_coupling_reaches_120(self):
        recs = enumerate_roots(
            build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        s = summarize(recs)
        assert s["total"] == 120
        assert s["by_height"] == {1: 8, 2: 4, 3: 8, 4: 12, 5: 16, 6: 20, 7: 24, 8: 28}
        assert s["cumulative_8_matches_e8"]

    def test_pair_coupling_supports_are_exchange_pairs(self):
        # every root lives on one antidiagonal pair {i, 7-i}
        recs = enumerate_roots(
            build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        for r in recs:
            support = {i for i, c in enumerate(r.coeffs) if c}
            assert len(support | {7 - i for i in support}) == 2

    def test_exchange_matrix_matches_golden_shape(self):
        golden = enumerate_roots(
            build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        plain = enumerate_roots(
            build_J(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        assert [r.coeffs for r in golden] == [r.coeffs for r in plain]
        assert hasse_edges(golden) == hasse_edges(plain)

    def test_exchange_matrix_weights_integer(self):
        recs = enumerate_roots(
            build_J(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        assert summarize(recs)["weights_all_integer"]

    def test_golden_weights_not_integer(self):
        recs = enumerate_roots(
            build_cmU(), EnumerationRule(mode="pair-coupling", max_height=8)
        )
        assert not summarize(recs)["weights_all_integer"]

    def test_normalized_mode_rejects_zero_diagonal(self):
        with pytest.raises(ValueError):
            enumerate_roots(build_J(), EnumerationRule(max_height=3))


class TestModesAndRecords:
    def test_invalid_rule(self):
        with pytest.raises(ValueError):
            EnumerationRule(mode="nonsense")
        with pytest.raises(ValueError):
            EnumerationRule(max_height=0)
        with pytest.raises(ValueError):
            EnumerationRule(max_roots=0)

    def test_rule_is_immutable(self):
        # a rule is validated once, so no field may change or vanish afterwards
        rule = EnumerationRule(max_height=3)
        for name, value in [("mode", "nonsense"), ("max_height", 0), ("max_roots", 0)]:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(rule, name, value)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(rule, name)
        fields = lambda r: (r.mode, r.max_height, r.max_roots)
        assert fields(rule) == ("normalized-pairing", 3, MAX_ROOTS)
        assert len(enumerate_roots(A3, rule)) == 6
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert fields(clone(rule)) == fields(rule)

    def test_max_roots_bounds_the_enumeration(self):
        # E8 has exactly 120 positive roots: the cap may equal the count
        assert len(enumerate_roots(build_cmE8(), EnumerationRule(max_height=30, max_roots=120))) == 120
        with pytest.raises(ValueError, match="max_roots=119 at height 29"):
            enumerate_roots(build_cmE8(), EnumerationRule(max_height=30, max_roots=119))
        # a bound below the rank is passed by the simple roots themselves
        with pytest.raises(ValueError, match="max_roots=5 at height 1"):
            enumerate_roots(build_cmE8(), EnumerationRule(max_height=30, max_roots=5))
        a2 = ExactMatrix([[2, -1], [-1, 2]])
        assert len(enumerate_roots(a2, EnumerationRule(max_roots=3))) == 3
        with pytest.raises(ValueError, match="max_roots=1 at height 1"):
            enumerate_roots(a2, EnumerationRule(max_roots=1))

    def test_no_dedup_counts_events(self):
        dedup = enumerate_roots(A3, EnumerationRule(max_height=10))
        events = event_listing(dedup)
        # same distinct roots in the same order, at least as many rows
        assert list(dict.fromkeys(r.coeffs for r in events)) == [r.coeffs for r in dedup]
        assert len(events) >= len(dedup)
        # the top root (1,1,1) is reachable two ways
        top = [r for r in events if r.coeffs == (1, 1, 1)]
        assert len(top) == 2

    def test_no_dedup_parent_indices_valid(self):
        events = event_listing(enumerate_roots(A3, EnumerationRule(max_height=10)))
        for rec in events:
            for p, j in rec.parents:
                parent = events[p]
                grown = list(parent.coeffs)
                grown[j] += 1
                assert tuple(grown) == rec.coeffs

    @pytest.mark.parametrize("mode", MODES)
    def test_one_record_per_root(self, mode):
        # D5's 20 roots in both pairing modes; 607 pair-coupling roots by height 8
        rule = EnumerationRule(mode=mode, max_height=8)
        recs = enumerate_roots(D5_SCALED, rule)
        keys = [(r.height, r.coeffs) for r in recs]
        assert keys == sorted(set(keys))
        # a root reached from several parents keeps every event on one record
        assert any(len(r.parents) > 1 for r in recs)

    def test_height_cap_respected(self):
        recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=5))
        assert max(r.height for r in recs) == 5


class TestEmission:
    def test_dot_snapshot_a2(self):
        recs = enumerate_roots(A2, EnumerationRule(max_height=10))
        expected = (
            "digraph hasse {\n"
            "  rankdir=BT;\n"
            '  node [shape=box, fontname="monospace"];\n'
            '  { rank=same; r1_0 [label="0 1"]; r1_1 [label="1 0"]; }\n'
            '  { rank=same; r2_0 [label="1 1"]; }\n'
            "  r1_0 -> r2_0;\n"
            "  r1_1 -> r2_0;\n"
            "}\n"
        )
        assert emit_hasse_dot(recs) == expected

    def test_dot_deterministic(self):
        recs = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        assert emit_hasse_dot(recs) == emit_hasse_dot(recs)

    def test_csv_shape(self):
        recs = enumerate_roots(A2, EnumerationRule(max_height=10))
        lines = emit_csv(recs).splitlines()
        assert lines[0] == "index,height,coeffs,weight,parents"
        assert len(lines) == 4
        assert lines[3].startswith("2,2,1 1,")

    def test_summary_deterministic(self):
        r1 = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        r2 = enumerate_roots(build_cmE8(), EnumerationRule(max_height=30))
        assert summarize(r1) == summarize(r2)
        assert emit_csv(r1) == emit_csv(r2)


class TestCarriedWeight:
    @pytest.mark.parametrize("listing", (list, event_listing), ids=("dedup", "events"))
    @pytest.mark.parametrize("mode", MODES)
    def test_weight_is_matrix_times_coeffs(self, mode, listing):
        assert D5_SCALED != D5_SCALED.transpose()
        recs = listing(enumerate_roots(D5_SCALED, EnumerationRule(mode=mode, max_height=8)))
        assert len({r.coeffs for r in recs}) > 5
        rows = D5_SCALED.rows
        for r in recs:
            expected = tuple(
                sum((row[i] * c for i, c in enumerate(r.coeffs)), GoldenExt(0)) for row in rows
            )
            assert r.weight == expected, r.coeffs


class TestSignedImages:
    def test_pairs_in_record_order(self):
        recs = enumerate_roots(A2, EnumerationRule(max_height=10))
        rows = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(5)))
        assert signed_images(recs, rows) == [(3, 5), (-3, -5), (1, 2), (-1, -2), (4, 7), (-4, -7)]
