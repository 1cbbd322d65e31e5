import dataclasses
import hashlib
import json
import random
import time
from math import lgamma, log
from pathlib import Path

import pytest
from click.testing import CliRunner

from mergedjohnson import complement, verify
from mergedjohnson.cli import main
from mergedjohnson.fields import prime_power_decomposition
from mergedjohnson.subsets import RefusedInput

CENSUS_14 = Path(__file__).parent / "data" / "census_14.jsonl"


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


def test_a_bad_k_is_named_before_the_merge_set():
    for command in (["classify"], ["graph", "export"]):
        result = run(*command, "-n", "7", "-k", "-2", "-I", "1")
        _usage_error(result)
        assert "need 2 <= k <= n/2" in result.stderr


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


def test_census_table_matches_the_json_rows():
    lines = [json.loads(line) for line in run("census", "--n-max", "10").output.splitlines()]
    rows, summary = lines[:-1], lines[-1]["summary"]
    table = run("census", "--n-max", "10", "--format", "table").output.splitlines()
    assert table[0].split() == ["n", "k", "I", "cayley", "2-reg", "aut"]
    assert [line.split() for line in table[1:-1]] == [
        [str(r["n"]), str(r["k"]), ",".join(map(str, sorted(r["I"]))),
         r["cayley"]["outcome"], r["two_regular"]["outcome"], str(r["aut"]["case"])]
        for r in rows]
    assert table[-1] == "instances=%d cayley=%d two_regular=%d" % (
        summary["instances"], summary["cayley_yes"], summary["two_regular_yes"])


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
    # every verdict, deficiency value and witness name, as recorded
    assert result.output == CENSUS_14.read_text()


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


@pytest.mark.parametrize("args", [("agl", "-q", "4096"), ("agl", "-q", "65536"),
                                  ("dickson", "-q", "251", "-d", "2"),
                                  ("agammal", "-q", "2", "-d", "1000000000")])
def test_group_too_large_is_refused_unbuilt(monkeypatch, args):
    from mergedjohnson import nearfields

    def refuse(pair):
        raise AssertionError("built a near-field of order %d^%d" % (pair.q, pair.d))

    monkeypatch.setattr(nearfields, "NearField", refuse)
    t0 = time.perf_counter()
    _usage_error(run("group", *args))
    assert time.perf_counter() - t0 < 1.0


def test_graph_export_unmaterialized_is_usage_error():
    _usage_error(run("graph", "export", "-n", "50", "-k", "3", "-I", "1"))


# graphs with C(n,k) >= 2^63: without the int64 refusal the first printed a
# traceback, the second spent 39 s building C(n,k), and J(67,33) gave
# negative neighbour ranks
OVERSIZED_EXPORTS = [("200000", "100000"), ("2000000", "1000000"), ("67", "33")]


@pytest.mark.parametrize("n, k", OVERSIZED_EXPORTS)
def test_graph_export_past_int64_ranks_is_usage_error(n, k):
    t0 = time.perf_counter()
    result = run("graph", "export", "-n", n, "-k", k, "-I", "1")
    _usage_error(result)
    assert "at least 2^63" in result.stderr
    assert sum(line.startswith("Error:") for line in result.stderr.splitlines()) == 1
    assert time.perf_counter() - t0 < 1.0


def _error_lines(result):
    return [line for line in result.stderr.splitlines() if line.startswith("Error:")]


@pytest.mark.parametrize("target", [".", "missing/graph.json"])
def test_graph_export_to_a_bad_path_is_usage_error(tmp_path, target):
    """A directory, or a file in a missing directory: exit 2 with one error
    line and no traceback, and nothing written."""
    result = run("graph", "export", "-n", "4", "-k", "2", "-I", "1",
                 "-o", str(tmp_path / target))
    _usage_error(result)
    assert len(_error_lines(result)) == 1
    assert list(tmp_path.iterdir()) == []


def test_graph_export_writes_its_output_file(tmp_path):
    output = tmp_path / "graph.txt"
    args = ("graph", "export", "-n", "5", "-k", "2", "-I", "2", "--format", "edges")
    assert run(*args, "-o", str(output)).exit_code == 0
    assert output.read_text() == run(*args).output


def test_a_refused_export_creates_no_file(tmp_path):
    output = tmp_path / "graph.json"
    _usage_error(run("graph", "export", "-n", "50", "-k", "3", "-I", "1",
                     "-o", str(output)))
    assert not output.exists()


@pytest.mark.parametrize("error", [RefusedInput, ValueError], ids=["refused", "plain"])
@pytest.mark.parametrize("args, owner, name", [
    (("verify", "--suite", "fast"), verify, "run_suite"),
    (("group", "psl28-complement", "--delta", "1"), complement, "build_cocycle_data")],
    ids=["verify", "psl28-complement"])
def test_only_refused_input_is_a_usage_error(monkeypatch, args, owner, name, error):
    """Every subcommand turns a RefusedInput from the library into exit 2
    with one error line, and any other ValueError, a fault of the program,
    into exit 3 with one internal error line."""
    def fail(*_):
        raise error("raised on purpose")

    monkeypatch.setattr(owner, name, fail)
    result = run(*args)
    if error is RefusedInput:
        _usage_error(result)
        assert _error_lines(result) == ["Error: raised on purpose"]
    else:
        assert (result.exit_code, type(result.exception)) == (3, SystemExit)
        assert result.stderr == "internal error: raised on purpose\n"
        assert "Traceback" not in result.output


def _refusals():
    from mergedjohnson import build_graph, classify_instance
    from mergedjohnson import nearfields as nf
    from mergedjohnson.fields import FiniteField, check_desk_bound
    return {
        "n not an int": lambda: classify_instance(10, 2.0, {1}),
        "k out of range": lambda: classify_instance(10, 6, {1}),
        "n past the factoring bound": lambda: classify_instance(10 ** 12 + 39, 2, {1}),
        "merge set": lambda: classify_instance(10, 2, {3}),
        "order too large to size": lambda: classify_instance(2 * 10 ** 6, 10 ** 6, {10 ** 6}),
        "ranks past int64": lambda: build_graph(67, 33, {1}),
        "graph k out of range": lambda: build_graph(5, 3, {1}),
        "desk bound": lambda: check_desk_bound(4096, 1),
        "factoring bound": lambda: prime_power_decomposition(10 ** 13),
        "p not prime": lambda: FiniteField(6, 1),
        "e not positive": lambda: FiniteField(5, 0),
        "q not a prime power": lambda: nf.is_dickson_pair(6, 1),
        "d not positive": lambda: nf.is_dickson_pair(5, 0),
        "not a Dickson pair": lambda: nf.NearField(4, 2),
        "AHL order": lambda: nf.affine_group(nf.build_dickson(5, 1), "AHL"),
        "AGammaL near-field": lambda: nf.affine_group(nf.build_dickson(3, 2), "AGammaL"),
        "affine kind": lambda: nf.affine_group(nf.build_dickson(5, 1), "ASL"),
        "exceptional p": lambda: nf.exceptional_spec(13),
        "cocycle class": lambda: complement.build_cocycle_data(4),
    }


@pytest.mark.parametrize("name", sorted(_refusals()))
def test_the_bound_checks_raise_refused_input(name):
    with pytest.raises(RefusedInput):
        _refusals()[name]()


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


@pytest.mark.parametrize("n, k, merge, code", [
    # a merge set tested without a set of 1..k
    (2 * 10 ** 6, 10 ** 6, "1", 0), (10 ** 7, 5 * 10 ** 6, "1", 0),
    (10 ** 8, 5 * 10 ** 7, "1", 0),
    # C(n, k) sized before it is built: the order would not fit a float
    (2 * 10 ** 6, 10 ** 6, "1000000", 2), (2 * 10 ** 6, 10 ** 6, "1,999999", 2),
    # the prime-power test by trial division stops at n = 10^12
    (10 ** 12 - 11, 2, "1", 0), (10 ** 12 + 39, 2, "1", 2),
    (10 ** 18 + 3, 2, "1", 2)])
def test_classify_answers_in_bounded_time(n, k, merge, code):
    t0 = time.perf_counter()
    result = run("classify", "-n", str(n), "-k", str(k), "-I", merge)
    assert time.perf_counter() - t0 < 1.0
    if code:
        _usage_error(result)
    else:
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["n"] == n


def _stub(claim, outcome="confirmed"):
    """claim with a check that reports outcome at once: test_verify.py
    runs the real checks."""
    report = verify.OracleReport(claim.text, outcome, {}, 0.0)
    return dataclasses.replace(claim, check=lambda: report)


def test_verify_fast_confirms_every_fast_claim(monkeypatch):
    monkeypatch.setattr(verify, "CLAIMS", tuple(map(_stub, verify.CLAIMS)))
    result = run("verify", "--suite", "fast")
    assert result.exit_code == 0
    lines = [json.loads(line) for line in result.output.splitlines()]
    texts = [c.text for c in verify.suite_claims("fast")]
    assert [r["claim"] for r in lines] == texts
    assert {r["outcome"] for r in lines} == {"confirmed"}


def test_verify_exits_1_on_a_refuted_claim(monkeypatch):
    confirmed = _stub(verify.suite_claims("fast")[-1])
    refuted = _stub(verify.Claim("fast", "refuted on purpose", None), "refuted")
    monkeypatch.setattr(verify, "CLAIMS", (confirmed, refuted))
    result = run("verify", "--suite", "fast")
    assert result.exit_code == 1
    outcomes = [json.loads(line)["outcome"] for line in result.output.splitlines()]
    assert outcomes == ["confirmed", "refuted"]


def test_an_internal_error_exits_3_without_a_traceback(monkeypatch):
    def broken():
        raise AssertionError("orbit-stabilizer violation:\n7 points, order 12")

    claim = dataclasses.replace(verify.CLAIMS[0], check=broken)
    monkeypatch.setattr(verify, "CLAIMS", (claim,))
    result = run("verify", "--suite", "fast")
    assert (result.exit_code, type(result.exception)) == (3, SystemExit)
    assert result.stderr == "internal error: orbit-stabilizer violation: 7 points, order 12\n"
    assert "Traceback" not in result.output


# SHA-256 of `graph export` stdout, recorded before graphs were stored as a
# neighbour matrix: the edge order of every format is unchanged
EXPORT_SHA256 = {
    ("5", "2", "2"): ("ead279b31158ce8399b466361dcea21ec9bccba5629c39388ae67a8fcc3dce1a",
                      "0ae24b4ea32c89187d7c7e336b54266cc5e66b2e2ef9e44f5e01af11cb281ad5",
                      "412df2ed97e1f9d9dc2f4daa3ab203de7ecfd06d68cd69825d93d21f2125f2c5"),
    ("7", "2", "1"): ("a2aaa722d936e412f99df972f7cfcc72dc4b2f9d63c01754b7fa43cffd3fe4df",
                      "e70e5d6647a202504b87faccc44bf8501f6ce7f9c00d86c24c835bb367b37196",
                      "cafc4fa753de7dce357e8bd02faed63eb8933b1b847e4d92e4ab632d2e252624"),
    ("8", "3", "1,3"): ("d62be1e635e3d3071247c7cc3264f63e49d75dec6508f13b3b34bbc7523a2679",
                        "e4236d0cb0c7cb121dc5468a75ab346e66a7ae82c94044bffd8679f624863711",
                        "40880d9236c6cd6e14130af371ff8f48d876d643261761180273ba2c4ad472fa"),
    ("9", "4", "2,4"): ("4b53e58ade186c553e5a5467c6bc9186530eb061134d8712c5f1eeb2d0d5da91",
                        "a5f50cf34c80666b6d421642b54f3d4e11d85903752ce3ba82a13cea1f0445f5",
                        "f99603fbf88fe3abb777fb5173fc195d76fd3d4784d5fb791fb5399178a00dc3"),
    ("10", "5", "1,4"): ("f584724eb547cdf7756fb64675e8735fc068fe5c8eba722f1a9dfc55b2fd86f5",
                         "aec2785472b0f90ca01b43c138e54c07bf8652601bebae9a952b0eccd6551b1c",
                         "8adec01cb3ae905b6cb7d97b5176bbed303f4258bd08f1c69a0856a6a0fe2813"),
    ("12", "4", "1,3"): ("0d022c05b44e9c9d4d37101f8cd97d15c514204c085253b3cee47ee03ae4a662",
                         "e34b2eac2fca18fff4dd3b13ff1d9b0656d16fe49e1f73c505d2eb7d7fc13da6",
                         "d22214a2e07619978c5616a459d862ee2032ada83c66ac7c7d2e19b04fb6657c"),
}


@pytest.mark.parametrize("n,k,merge", sorted(EXPORT_SHA256))
def test_graph_export_matches_recorded_digests(n, k, merge):
    for fmt, want in zip(("json", "edges", "dimacs"), EXPORT_SHA256[n, k, merge]):
        result = run("graph", "export", "-n", n, "-k", k, "-I", merge, "--format", fmt)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == want, fmt


# SHA-256 of `group` stdout, recorded while permutations were image tuples
# and, for the dickson near-field tables, while field elements were
# coefficient tuples: the generator images, their order and the tables are
# unchanged
GROUP_SHA256 = {
    "agl -q 8": "7d4a0675b063774282b8fe71fb0267432583af679f72c3a28c00387720f1829c",
    "ahl -q 7": "5d25fd811d3e086cba23ec572a3318eb4fb331fb7605635e01c52fa5de3f3871",
    "agammal -q 9": "ed9b1485f7d951851aa236a747da33718683baae65e9ee3b29ce2dec027e6314",
    "agl -q 3 -d 2": "af5ef712feb58385cc9be1aa2ef1f130be4d1b15437dadcac2a6ef7ed43f1238",
    "dickson -q 3 -d 2": "6f6ffd776e29ae29b95899fda8e901608880397db5ac7994f2e60dc957558332",
    "dickson -q 5 -d 2": "81bac83ebc8b58bb8fa811272a15bc81c79cfbe7056a2d9b3717a42b82b4e36d",
    "exceptional -p 5": "e7bec28787f9a15e158fc349efc42dfc9e0eba7e4d32dba62166c29be27672f7",
    "psl28-complement --delta 0":
        "5c9b0fb52656a90a8ac77fd1dc5ec74ad755f53b65c8a731f73e6dbd18907edc",
    "psl28-complement --delta 1":
        "1b9f63308bb232fdad6179767f969186b839536c674d8416acfa606319a9a017",
    "psl28-complement --delta 2":
        "fabc9bfc44453be242913b3350aae054c7374e8b8e73aa9bb45534f562208b51",
    "psl28-complement --delta 3":
        "a3a13efdb06ed4625c8e7fe3c26067cecf5c022ba1748d2a77253e265a157456",
}


@pytest.mark.parametrize("args", sorted(GROUP_SHA256))
def test_group_output_matches_recorded_digests(args):
    result = run("group", *args.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == GROUP_SHA256[args]


def _cli_inputs(rng):
    """A seeded sample of argument lists: valid and invalid classify and
    graph export queries, group builds up to order 400, and exceptional
    near-fields, each with some bad values.  Valid exports stop at n = 10:
    J(14,6) with a dense merge set has millions of edges to write."""
    def merge(k):
        return ",".join(map(str, sorted(rng.sample(range(1, k + 1), rng.randint(1, k)))))

    for _ in range(30):
        n = rng.randint(4, 14)
        k = rng.randint(2, n // 2)
        yield ["classify", "-n", str(n), "-k", str(k), "-I", merge(k)]
        if n <= 10:
            yield ["graph", "export", "-n", str(n), "-k", str(k), "-I", merge(k)]
    for _ in range(30):
        n = rng.choice([15, 40, 101, 10 ** 4, 10 ** 6])
        k = rng.choice([2, 3, 4, rng.randint(2, n // 2)])
        I = merge(min(k, 6))
        bad = rng.choice(["n", "k", "I", None])
        if bad == "n":
            n = rng.choice([-3, 0, 1, 3, 10 ** 13, "x"])
        elif bad == "k":
            k = rng.choice([-2, 0, 1, n // 2 + 1, "x"])
        elif bad == "I":
            I = rng.choice(["0", str(k + 1), "", "1,,2", "-1", "a", "1;2"])
        yield [*rng.choice([["classify"], ["graph", "export"]]),
               "-n", str(n), "-k", str(k), "-I", I]
    prime_powers = [q for q in range(2, 401) if prime_power_decomposition(q)]
    for _ in range(30):
        kind = rng.choice(["agl", "ahl", "agammal", "dickson"])
        q = rng.choice(prime_powers + [-4, 0, 1, 6, 4096])
        d = rng.choice([1, 1, 2, 3, 4, 0, -1])
        if q >= 2 and q ** d > 400:
            d = 1
        yield ["group", kind, "-q", str(q), "-d", str(d)]
    for _ in range(10):
        yield ["group", "exceptional", "-p", str(rng.choice([5, 7, 11, 23, 29, 2, 13, -1])),
               "--variant", str(rng.choice([1, 1, 2, 0, 3]))]
    # graphs with C(n,k) >= 2^63, which the seeded draws above may miss
    for n, k in OVERSIZED_EXPORTS[:2]:
        yield ["graph", "export", "-n", n, "-k", k, "-I", "1"]


def test_every_sampled_cli_input_answers_or_exits_2():
    """Each sampled input prints JSON lines and exits 0, or prints one
    error line on stderr and exits 2, with no traceback."""
    t0 = time.perf_counter()
    codes = []
    for args in _cli_inputs(random.Random(22)):
        result = run(*args)
        assert result.exception is None or isinstance(result.exception, SystemExit), args
        assert "Traceback" not in result.output, args
        codes.append(result.exit_code)
        if result.exit_code == 0:
            assert result.stderr == "" and result.stdout, args
            for line in result.stdout.splitlines():
                json.loads(line)
        else:
            assert result.exit_code == 2 and result.stdout == "", args
            errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
            assert len(errors) == 1, args
    assert min(codes.count(0), codes.count(2)) >= 20
    assert time.perf_counter() - t0 < 10.0
