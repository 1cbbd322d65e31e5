import json
import time
from math import lgamma, log

from click.testing import CliRunner

from mergedjohnson import verify
from mergedjohnson.cli import main


def run(*args):
    return CliRunner().invoke(main, args)


def test_classify_json_output():
    result = run("classify", "-n", "7", "-k", "2", "-I", "1")
    assert result.exit_code == 0
    record = json.loads(result.output)
    assert record["cayley"]["outcome"] == "YES"
    assert record["cayley"]["case"] == 1


def test_classify_go10_instance():
    result = run("classify", "-n", "12", "-k", "4", "-I", "1,3")
    record = json.loads(result.output)
    assert record["aut"]["structure"] == "GO-10(2)"
    assert record["cayley"]["outcome"] == "NO"
    assert record["two_regular"]["outcome"] == "NO"


def test_classify_disconnected_flagged():
    result = run("classify", "-n", "6", "-k", "3", "-I", "3")
    record = json.loads(result.output)
    assert record["cayley"]["case"] == 5
    assert "disconnected_flag" in record["cayley"]
    assert 4 in record["two_regular"]["cases"]


def test_classify_invalid_merge_exits_2():
    assert run("classify", "-n", "7", "-k", "2", "-I", "3").exit_code == 2
    assert run("classify", "-n", "7", "-k", "2", "-I", "").exit_code == 2
    assert run("classify", "-n", "5", "-k", "3", "-I", "1").exit_code == 2


def test_census_n5():
    result = run("census", "--n-max", "5")
    lines = [json.loads(line) for line in result.output.splitlines()]
    rows, summary = lines[:-1], lines[-1]["summary"]
    assert len(rows) == 6
    assert summary["instances"] == 6
    # connected Cayley graphs: both complete ones plus (4,2,{1})
    assert summary["cayley_yes"] == 3
    assert summary["cayley_yes_disconnected"] == 1
    assert summary["two_regular_yes"] == 6


def test_census_empty_below_n4():
    result = run("census", "--n-max", "3")
    lines = [json.loads(line) for line in result.output.splitlines()]
    assert len(lines) == 1
    assert lines[0]["summary"]["instances"] == 0


def test_census_rows_match_per_instance_classify():
    from mergedjohnson.classify import classify_instance
    result = run("census", "--n-max", "5")
    rows = [json.loads(line) for line in result.output.splitlines()][:-1]
    for row in rows:
        assert row == classify_instance(row["n"], row["k"], set(row["I"]))


def test_graph_export_edges():
    result = run("graph", "export", "-n", "5", "-k", "2", "-I", "2",
                 "--format", "edges")
    edges = [line.split() for line in result.output.splitlines()]
    assert len(edges) == 15  # Petersen


def test_graph_export_dimacs():
    result = run("graph", "export", "-n", "4", "-k", "2", "-I", "1",
                 "--format", "dimacs")
    assert result.output.startswith("p edge 6 12")


def test_group_build_agl():
    result = run("group", "agl", "-q", "8")
    record = json.loads(result.output)
    assert record["order"] == 56
    assert record["degree"] == 8


def test_group_build_rejects_non_dickson_pair():
    assert run("group", "dickson", "-q", "4", "-d", "2").exit_code == 2


def test_group_psl28_complement():
    result = run("group", "psl28-complement", "--delta", "0")
    record = json.loads(result.output)
    assert record["order"] == 504
    assert sorted(record["orbit_sizes"]) == [126, 126]


def test_seed_option_accepted():
    result = run("--seed", "7", "classify", "-n", "7", "-k", "2", "-I", "1")
    assert result.exit_code == 0


def test_census_n14_completes_with_big_orders():
    result = run("census", "--n-max", "14")
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines()]
    rows, summary = lines[:-1], lines[-1]["summary"]
    assert len(rows) == 672
    assert summary["instances"] == 672
    complete = [r for r in rows if r["n"] == 14 and r["I"] == list(range(1, 8))]
    assert complete[0]["aut"]["order"]["formula"] == "C(14,7)!"


def test_classify_big_order_by_formula():
    result = run("classify", "-n", "14", "-k", "7", "-I", "7")
    assert result.exit_code == 0
    order = json.loads(result.output)["aut"]["order"]
    assert order["formula"] == "2^1716*1716!"


def test_classify_huge_instance_returns_promptly():
    t0 = time.perf_counter()
    result = run("classify", "-n", "50", "-k", "25", "-I", "25")
    assert result.exit_code == 0
    assert json.loads(result.output)["aut"]["order"]["log10"] > 10 ** 14
    assert time.perf_counter() - t0 < 5.0


def _usage_error(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "Error:" in result.output


def test_group_non_prime_power_is_usage_error():
    _usage_error(run("group", "agl", "-q", "6"))
    _usage_error(run("group", "ahl", "-q", "5"))


def test_graph_export_unmaterialized_is_usage_error():
    _usage_error(run("graph", "export", "-n", "50", "-k", "3", "-I", "1"))


def test_classify_huge_deficiency_bound_by_formula():
    # k!(n-k)!/2 past 4300 digits is given by formula, not built
    for n, k, formula in [(2000, 2, "2!*1998!/2"), (2200, 1100, "1100!*1100!/2")]:
        t0 = time.perf_counter()
        result = run("classify", "-n", str(n), "-k", str(k), "-I", "1")
        assert result.exit_code == 0, result.output
        low, high = json.loads(result.output)["deficiency"]["interval"]
        assert low == 3
        assert high["formula"] == formula
        log10 = (lgamma(k + 1) + lgamma(n - k + 1) - log(2)) / log(10)
        assert abs(high["log10"] - log10) < 1e-3
        assert time.perf_counter() - t0 < 5.0


def test_verify_fast_confirms_every_fast_claim():
    result = run("verify", "--suite", "fast")
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines()]
    texts = [c.text for c in verify.suite_claims("fast")]
    assert [r["claim"] for r in lines] == texts
    assert {r["outcome"] for r in lines} == {"confirmed"}


def test_verify_exits_1_on_a_refuted_claim(monkeypatch):
    confirmed = verify.suite_claims("fast")[-1]
    refuted = verify.Claim("fast", "refuted on purpose", lambda: verify.OracleReport(
        "refuted on purpose", "refuted", {}, 0.0))
    monkeypatch.setattr(verify, "CLAIMS", (confirmed, refuted))
    result = run("verify", "--suite", "fast")
    assert result.exit_code == 1
    outcomes = [json.loads(line)["outcome"] for line in result.output.splitlines()]
    assert outcomes == ["confirmed", "refuted"]
