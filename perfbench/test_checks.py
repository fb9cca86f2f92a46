"""The known-defect gate, the streams' edges and the computed operator counts.

    python3 -m pytest perfbench/test_checks.py -q
"""

import itertools

import pytest

import run

run.import_library()

import jobs  # noqa: E402
import oracle  # noqa: E402
from checks import Checked, Checker  # noqa: E402
from iterbern import INFINITY  # noqa: E402


def test_k_inf_class_excuses_a_miss_only_within_its_bound():
    checker = Checker()
    assert checker._inf_class(10) == {}
    defect = checker._inf_class(30)
    assert defect["defect"] == "k=inf ill-conditioned"
    bound = defect["bound"]
    assert Checked("inside", bound / 2, **defect).excused
    assert not Checked("beyond", bound * 2, **defect).excused
    assert not Checked("regular miss", 1.0).excused


def test_dense_operators_follow_the_operator_uses():
    szasz = {"kind": "cli", "cmd": "szasz", "n": 12, "x_max": 3.0, "ks": [1, 3]}
    assert jobs.dense_operators(szasz, {"M": 40}) == [("szasz", 40)]
    assert jobs.dense_operators(szasz, None) == []
    table = {"kind": "cli", "cmd": "table", "table": 1}
    uses = jobs.operator_uses(table, None)
    assert len(uses) == jobs.TABLE_INTEGRANDS * len(jobs.TABLE_KS)
    assert jobs.operator_bytes(jobs.dense_operators(table, None)) == len(uses) * 8 * 6**2


def test_stream_edges_match_the_defect_classes():
    checker = Checker()
    assert checker._inf_class(jobs.INF_MAX_N) == {}
    assert checker._inf_class(jobs.INF_MAX_N + 1) != {}
    assert jobs.DERIV_MAX_K < oracle.DERIVATIVE_DEFECT_K
    assert checker._q_class(jobs.Q_MAX) == {}


def _defect_inputs(spec):
    """The known-defect classes a job's inputs fall in, from its spec alone."""
    found = set()
    for family, params, k in jobs.operator_uses(spec, None):
        if family == "bernstein" and k == INFINITY and params > jobs.INF_MAX_N:
            found.add("k=inf")
        if family == "q" and params[0] > jobs.Q_MAX:
            found.add("q>1")
    deriv_ks = spec.get("deriv_ks", spec["ks"] if spec.get("cmd") == "derivative" else [])
    if any(k >= oracle.DERIVATIVE_DEFECT_K for k in deriv_ks):
        found.add("derivative")
    return found


@pytest.mark.parametrize("workload", sorted(jobs.BLOCKS))
def test_streams_avoid_and_probes_cover_the_defect_classes(workload):
    for spec in itertools.islice(jobs.stream(workload, 7), 500):
        assert not _defect_inputs(spec), spec
    for spec in jobs.defect_probe(workload):
        assert _defect_inputs(spec), spec
