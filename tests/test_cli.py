import io
import json

import pytest

import flagbound.arrangement
import flagbound.cli
import flagbound.homology
import flagbound.threshold
from flagbound.arrangement import (
    VectorSet,
    generate_sign_vectors,
    read_vector_set,
    write_vector_set,
)
from flagbound.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_n2_json(capsys):
    code, out, err = run(capsys, ["report", "--n", "2", "--format", "json"])
    assert code == 0
    assert err == ""
    assert out == ('{"n":2,"lower_bound":"6","two_lambda":"6",'
                   '"chambers":"14","brute_force":"14","schlafli":"14"}\n')


def test_report_n1_values(capsys):
    code, out, _ = run(capsys, ["report", "--n", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 1, "lower_bound": "2", "two_lambda": "2",
                       "chambers": "4", "brute_force": "4", "schlafli": "4"}
    assert list(payload) == ["n", "lower_bound", "two_lambda",
                             "chambers", "brute_force", "schlafli"]


def test_report_text_format(capsys):
    code, out, _ = run(capsys, ["report", "--n", "1"])
    assert code == 0
    assert "lower_bound: 2" in out
    assert "chambers: 4" in out


def test_report_rejects_several_weight_vectors(capsys):
    code, out, err = run(capsys, ["report", "--n", "2", "--weights", "random:3:4"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: report takes one weight vector")
    code, out, _ = run(capsys, ["report", "--n", "2", "--weights", "random:3:1"])
    assert code == 0
    assert "lower_bound: 6" in out.splitlines()


def test_bound_random_weights(capsys):
    code, out, _ = run(
        capsys, ["bound", "--n", "2", "--weights", "random:7:5",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == ["6"] * 5
    assert payload["p_independent"] is True


def test_bound_weights_file(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("2\n-1/3\n-1/3\n-1/3\n")
    code, out, _ = run(
        capsys, ["bound", "--n", "2", "--weights", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["values"] == ["6"]


def test_gen_e_stdout(capsys):
    code, out, _ = run(capsys, ["gen-e", "--n", "2"])
    assert code == 0
    parsed = read_vector_set(io.StringIO(out))
    assert list(parsed) == list(generate_sign_vectors(2))


def test_gen_e_out_file(capsys, tmp_path):
    path = tmp_path / "e3.txt"
    code, out, _ = run(capsys, ["gen-e", "--n", "3", "--out", str(path)])
    assert code == 0
    assert str(path) in out
    assert list(read_vector_set(str(path))) == list(generate_sign_vectors(3))


def test_chambers_from_file_with_oracle(capsys, tmp_path):
    path = tmp_path / "e2.txt"
    write_vector_set(str(path), generate_sign_vectors(2))
    code, out, _ = run(
        capsys, ["chambers", "--input", str(path), "--oracle", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"input": str(path), "chambers": "14",
                       "oracle": "14", "agree": True}


def test_lambda_order_trials(capsys):
    code, out, _ = run(
        capsys, ["lambda", "--n", "2", "--order-trials", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["identity"] == "3"
    assert payload["orders"] == ["3"] * 4
    assert payload["order_independent"] is True


def test_lambda_negative_order_trials_exit_code(capsys):
    code, out, err = run(capsys, ["lambda", "--n", "2", "--order-trials", "-3"])
    assert code == 2
    assert out == ""
    assert err == "error: --order-trials must be >= 0, got -3\n"


def test_lambda_order_walk_guard_exit_code(capsys, monkeypatch):
    # E_2 has 22 cover edges, so each walk counts 22 + 40 edges: 15 walks
    # (14 trials and the identity order) fit under 1,000, 31 do not.
    monkeypatch.setattr(flagbound.cli, "MAX_ORDER_WALK_EDGES", 1000)
    code, _, _ = run(capsys, ["lambda", "--n", "2", "--order-trials", "14"])
    assert code == 0
    code, out, err = run(capsys, ["lambda", "--n", "2", "--order-trials", "30"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'lambda.order_walk_edges'")
    assert "Traceback" not in err


def test_homology_field_guard_exit_code(capsys):
    # 2^31 - 1 is the largest prime under the bound; 2^31 + 11 is the next
    # prime and 2^61 - 1 would take minutes of trial division.
    code, out, _ = run(capsys, ["homology", "--n", "2", "--field", str(2**31 - 1)])
    assert code == 0
    assert "rank: 3" in out
    for p in (2**31 + 11, 2**61 - 1):
        code, out, err = run(capsys, ["homology", "--n", "2", "--field", str(p)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: guard 'homology.field'")


def test_homology_rational_field(capsys):
    code, out, _ = run(
        capsys, ["homology", "--n", "2", "--field", "Q", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "degree": 1, "field": "Q", "rank": "3"}


def test_homology_explicit_degree(capsys):
    code, out, _ = run(
        capsys, ["homology", "--n", "2", "--degree", "0", "--format", "json"])
    assert code == 0
    assert json.loads(out)["degree"] == 0


def test_homology_n5_top_degree(capsys):
    code, out, err = run(capsys, ["homology", "--n", "5", "--field", "3"])
    assert code == 0
    assert err == ""
    assert "rank: 27129" in out.splitlines()


def test_homology_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(flagbound.homology, "MAX_BOUNDARY_NONZEROS", 50)
    code, out, err = run(capsys, ["homology", "--n", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'homology.boundary_nonzeros'")
    assert "Traceback" not in err


def test_homology_high_degree_guard_exit_code(capsys, monkeypatch, tmp_path):
    # 12 vectors in a plane plus one off it: no proper-span subset has more
    # than 12 vectors, so degree 40 counts no nonzeros even under a tight
    # guard, while degree 5 needs 5·C(12,5) + 6·C(12,6) + 7·C(12,7) =
    # 15,048 and stops before generating any subset.
    path = tmp_path / "plane12.txt"
    rows = tuple((1, k, 0) for k in range(12)) + ((0, 0, 1),)
    write_vector_set(str(path), VectorSet(rows, 3))
    argv = ["homology", "--input", str(path), "--degree", "40"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "rank: 0" in out.splitlines()
    monkeypatch.setattr(flagbound.homology, "MAX_BOUNDARY_NONZEROS", 1000)
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert "rank: 0" in out.splitlines()
    code, out, err = run(capsys, argv[:-1] + ["5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'homology.boundary_nonzeros'")
    assert "Traceback" not in err


def test_flat_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(flagbound.arrangement, "MAX_FLATS", 10)
    code, out, err = run(capsys, ["chambers", "--n", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'arrangement.flats'")
    assert "Traceback" not in err


def test_contraction_guard_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(flagbound.arrangement, "MAX_CONTRACTION_STEPS", 1000)
    path = tmp_path / "line50.txt"
    write_vector_set(str(path), VectorSet(tuple((1, k) for k in range(50)), 2))
    code, out, err = run(capsys, ["chambers", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'arrangement.contraction_steps'")
    assert "Traceback" not in err


def test_random_weights_guard_exit_code(capsys):
    code, out, err = run(
        capsys, ["bound", "--n", "2", "--weights", "random:0:250001"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'weights.random_entries'")
    assert "Traceback" not in err


def test_count_threshold(capsys):
    code, out, _ = run(capsys, ["count-threshold", "--n", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"n": 2, "count": "14"}


def test_verify_full_n1(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "1", "--level", "full"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed"
    names = {line.split()[2].rstrip(":") for line in lines[:-1]}
    assert {"chambers-vs-oracle", "flag-sum-constant", "order-invariance",
            "homology-rank", "mobius-by-flat", "sampled-constancy",
            "bound-chain"} == names


def test_verify_builds_one_lattice(capsys, monkeypatch):
    built = []
    original = flagbound.arrangement.IntersectionLattice

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(flagbound.arrangement, "IntersectionLattice", counting)
    code, _, _ = run(capsys, ["verify", "--n", "3", "--level", "full"])
    assert code == 0
    assert len(built) == 1


def test_verify_builds_one_flat_table(capsys, monkeypatch):
    built = []
    original = flagbound.arrangement.FlatTable.__init__

    def counting(self, vs):
        built.append(vs)
        original(self, vs)

    monkeypatch.setattr(flagbound.arrangement.FlatTable, "__init__", counting)
    code, _, _ = run(capsys, ["verify", "--n", "3", "--level", "full"])
    assert code == 0
    assert len(built) == 1


def test_verify_fast_sweep(capsys):
    code, out, _ = run(capsys, ["verify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {c["n"] for c in payload["checks"]} == {1, 2, 3}
    assert all(c["ok"] for c in payload["checks"])


def test_deterministic_output(capsys):
    first = run(capsys, ["report", "--n", "2", "--format", "json"])
    second = run(capsys, ["report", "--n", "2", "--format", "json"])
    assert first == second


def test_guard_exit_code(capsys):
    code, out, err = run(capsys, ["chambers", "--n", "25"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["report", "--n", "2"],
                                  ["verify", "--n", "2"]])
def test_failed_bound_chain_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setattr(flagbound.threshold, "count_threshold_functions",
                        lambda n: 13)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: census 13 != chamber count 14")
    assert "Traceback" not in err


def test_missing_source_exit_code(capsys):
    code, _, err = run(capsys, ["chambers"])
    assert code == 2
    assert "exactly one" in err


def test_missing_n_exit_code(capsys):
    code, out, err = run(capsys, ["report"])
    assert code == 2
    assert out == ""
    assert err == "error: --n is required\n"


def test_threads_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-threshold", "--n", "2", "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_conflicting_sources_exit_code(capsys, tmp_path):
    path = tmp_path / "e.txt"
    write_vector_set(str(path), generate_sign_vectors(2))
    code, _, err = run(capsys, ["chambers", "--n", "2", "--input", str(path)])
    assert code == 2
    assert "exactly one" in err


def test_bad_weights_file_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, ["bound", "--n", "2", "--weights", str(tmp_path / "nope.txt")])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_input_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n")
    code, _, err = run(capsys, ["chambers", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:")
