"""The identity verification suite and its negative controls."""
import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import ROOT, child_env
from phi8 import identities
from phi8.constants import NAMED_MATRICES, build_hadamard, build_J, build_U
from phi8.identities import (
    VERIFIER_GROUPS,
    IdentityReport,
    Witness,
    run_all,
    run_group,
    schlafli_probe,
    verify_bracket_properties,
    verify_char_polys,
    verify_golden_cartan,
    verify_identity_sum,
    verify_odd_power_forms,
    verify_power_pattern,
    verify_product_identities,
    verify_row_reversed_swap,
)
from phi8.matrix import ExactMatrix


def perturbed_U():
    rows = [list(row) for row in build_U()]
    rows[0][0] = rows[0][0] + 1
    return ExactMatrix(rows)


class TestCoreIdentities:
    def test_products_hold(self):
        for rep in verify_product_identities():
            assert rep.holds, rep.name

    def test_golden_cartan(self):
        assert verify_golden_cartan().holds

    def test_identity_sum(self):
        assert verify_identity_sum().holds

    @pytest.fixture
    def perturbed_cmU(self, monkeypatch):
        """The battery's cmU replaced by the square of a perturbed U."""
        bad = perturbed_U()
        monkeypatch.setattr(identities, "build_cmU", lambda: bad * bad)

    def test_negative_control(self, perturbed_cmU):
        rep = verify_golden_cartan()
        assert not rep.holds
        assert rep.witness is not None
        assert not verify_identity_sum().holds

    def test_witness_pinpoints_entry(self, perturbed_cmU):
        rep = verify_golden_cartan()
        w = rep.witness
        assert (w.row, w.col) == (0, 0)
        assert w.expected != w.actual


class TestPowerPatterns:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_pattern_holds(self, n):
        for rep in verify_power_pattern(n):
            assert rep.holds, rep.name

    @staticmethod
    def scalars(n):
        """The (sum, diff) scalars of one power pattern, as rendered."""
        return tuple(rep.details["scalar"] for rep in verify_power_pattern(n)[:2])

    def test_small_scalars(self):
        # n=1: sum sqrt5, diff 1; n=2: sum 3, diff sqrt5; n=4: 7 and 3*sqrt5
        assert self.scalars(1) == ("sqrt(5)", "1")
        assert self.scalars(2)[0] == "3"
        assert self.scalars(4) == ("7", "3*sqrt(5)")
        assert self.scalars(10)[0] == "123"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_power_pattern(0)

    def test_lucas_fibonacci_growth(self):
        # integer sides follow the Lucas (even n) and Fibonacci patterns
        lucas = {2: 3, 4: 7, 6: 18, 8: 47, 10: 123}
        for n, expect in lucas.items():
            assert self.scalars(n)[0] == str(expect)


class TestOddPowers:
    @pytest.mark.parametrize("n", (1, 3, 5, 7))
    def test_forms_hold(self, n):
        for rep in verify_odd_power_forms(n):
            assert rep.holds, rep.name

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            verify_odd_power_forms(2)


class TestBrackets:
    def test_all_hold(self):
        for rep in verify_bracket_properties():
            assert rep.holds, rep.name

    def test_exchange_detail(self):
        names = [r.name for r in verify_bracket_properties()]
        assert "bracket_exchange" in names


class TestCharPolys:
    def test_hold(self):
        for rep in verify_char_polys():
            assert rep.holds, rep.name


class TestRowReversed:
    def test_hold(self):
        for rep in verify_row_reversed_swap():
            assert rep.holds, rep.name


class TestSchlafliProbe:
    def test_informational_and_deviating(self):
        rep = schlafli_probe()
        assert rep.informational
        assert not rep.holds
        assert rep.details["mismatched_entries"] > 0
        assert rep.details["max_abs_residual"] == pytest.approx(2.529, abs=1e-3)


class TestRunners:
    def test_run_all_passes_and_is_deterministic(self):
        reps1 = run_all()
        reps2 = run_all()
        assert [r.name for r in reps1] == [r.name for r in reps2]
        assert all(r.holds for r in reps1 if not r.informational)
        # exactly one informational probe
        assert sum(1 for r in reps1 if r.informational) == 1

    def test_groups_cover_run_all(self):
        grouped = [r.name for g in sorted(VERIFIER_GROUPS) for r in run_group(g)]
        assert sorted(grouped) == sorted(r.name for r in run_all())

    def test_unknown_group(self):
        with pytest.raises(ValueError):
            run_group("nope")

    def test_one_report_shape(self):
        for name, group in VERIFIER_GROUPS.items():
            assert all(type(r) is IdentityReport for r in group()), name
        for n in (1, 2, 37):
            reports = verify_power_pattern(n)
            assert type(reports) is tuple and len(reports) == 3, n
            assert all(type(r) is IdentityReport for r in reports), n

    def test_report_dict_shape(self):
        d = run_all()[0].to_dict()
        assert set(d) == {"name", "holds", "informational", "witness", "details"}

    def test_report_record_contract(self):
        w = Witness(1, 2, "phi", "0")
        rep = IdentityReport("r", False, w, details={"k": 1})
        assert rep == IdentityReport("r", False, w, False, {"k": 1})
        assert rep != IdentityReport("r", True, w, details={"k": 1})
        assert IdentityReport("r", True).details == {} and IdentityReport("r", True).witness is None
        assert repr(rep) == ("IdentityReport(name='r', holds=False, witness=Witness(row=1, col=2, "
                             "expected='phi', actual='0'), informational=False, details={'k': 1})")
        assert rep.to_dict()["witness"] == {"row": 1, "col": 2, "expected": "phi", "actual": "0"}
        with pytest.raises(AttributeError):
            rep.holds = True
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            assert clone(rep) == rep


# counts the Gauss-Jordan passes, matrix products and coercing constructions of one run_all()
COUNT_WORK = """
import json
from collections import Counter
from phi8 import identities
from phi8.matrix import ExactMatrix

calls = Counter()
for name in ("_gauss_jordan", "_matmul", "__init__"):
    def counted(*args, _method=getattr(ExactMatrix, name), _name=name, **kwargs):
        calls[_name] += 1
        return _method(*args, **kwargs)
    setattr(ExactMatrix, name, counted)
identities.run_all()
print(json.dumps(calls))
"""


class TestComputedOnce:
    """Operation counts, not times: each exact matrix is computed once."""

    def test_run_all_work_in_a_fresh_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_WORK], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        # one inversion each of U, cmU and J*cmU
        assert 1 <= calls["_gauss_jordan"] <= 3
        assert 1 <= calls["_matmul"] <= 66
        # only the builders coerce their entries; computed results are not coerced again
        assert 1 <= calls["__init__"] <= 12

    def test_builders_return_one_instance(self):
        for builder in (*NAMED_MATRICES.values(), lambda: build_J(3), lambda: build_hadamard(2)):
            assert builder() is builder()
