import io
import json

import pytest

import flagbound.arrangement
import flagbound.cli
import flagbound.flags
import flagbound.homology
import flagbound.threshold
from flagbound.arrangement import (
    FlatTable,
    VectorSet,
    generate_sign_vectors,
    read_vector_set,
    write_vector_set,
)
from flagbound.cli import main
from flagbound.errors import GuardError
from flagbound.flags import order_passes


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


@pytest.mark.parametrize("spec, message", [
    ("random:1", "expected random:<seed>:<count>, got 'random:1'"),
    ("random:a:b", "expected random:<seed>:<count>, got 'random:a:b'"),
    ("random:1:0", "weight vector count must be >= 1"),
])
def test_bad_random_weights_exit_code(capsys, spec, message):
    code, out, err = run(capsys, ["bound", "--n", "2", "--weights", spec])
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_chambers_out_file(capsys, tmp_path):
    path = tmp_path / "chambers.txt"
    code, out, err = run(capsys, ["chambers", "--n", "2", "--out", str(path)])
    assert (code, out, err) == (0, "", "")
    assert path.read_text() == "n: 2\nchambers: 14\n"


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
    # E_2 has 4 vectors and 22 cover edges: each walk (the identity order's,
    # and those order_passes prices the trials' passes at) counts
    # 22 + ORDER_WALK_CALL_EDGES against the limit, and each trial its draw.
    cli = flagbound.cli
    monkeypatch.setattr(cli, "MAX_ORDER_WALK_EDGES", 1000)

    def charge(trials):
        _, _, walks = order_passes(generate_sign_vectors(2), trials)
        draw = cli.ORDER_DRAW_EDGES + cli.ORDER_VECTOR_EDGES * 4
        return (1 + walks) * (22 + cli.ORDER_WALK_CALL_EDGES) + trials * draw

    fits = max(k for k in range(100) if charge(k) <= 1000)
    assert (fits, charge(fits), charge(fits + 1)) == (7, 958, 1060)
    code, _, _ = run(capsys, ["lambda", "--n", "2", "--order-trials", str(fits)])
    assert code == 0
    code, out, err = run(capsys, ["lambda", "--n", "2", "--order-trials", str(fits + 1)])
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


def test_homology_huge_degree_is_rank_zero(capsys):
    code, out, err = run(
        capsys, ["homology", "--n", "2", "--degree", str(10**15), "--format", "json"])
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"n": 2, "degree": 10**15, "field": "2", "rank": "0"}


def test_homology_default_degree_minus_one(capsys, tmp_path):
    # One vector in R^1: the default degree d - 2 is -1, where the reduced
    # complex holds only the empty simplex, so the rank is 1, equal to λ.
    path = tmp_path / "one.txt"
    write_vector_set(str(path), VectorSet(((1,),), 1))
    code, out, err = run(capsys, ["homology", "--input", str(path), "--format", "json"])
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"input": str(path), "degree": -1, "field": "2", "rank": "1"}
    code, out, _ = run(capsys, ["lambda", "--input", str(path)])
    assert code == 0
    assert "identity: 1" in out.splitlines()


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


def test_pending_images_guard_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(flagbound.arrangement, "MAX_PENDING_IMAGES", 20)
    code, out, err = run(capsys, ["chambers", "--n", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'arrangement.pending_images'")
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


def test_dr_steps_guard_exit_code(capsys, monkeypatch):
    # deletion-restriction on E_4 is charged exactly 19,066: 1,224 restricted
    # vectors, each at its width w plus 12
    monkeypatch.setattr(flagbound.arrangement, "MAX_DR_STEPS", 19066)
    code, out, err = run(capsys, ["chambers", "--n", "4", "--oracle"])
    assert code == 0
    assert "agree: True" in out.splitlines()
    monkeypatch.setattr(flagbound.arrangement, "MAX_DR_STEPS", 19065)
    code, out, err = run(capsys, ["chambers", "--n", "4", "--oracle"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'arrangement.dr_steps'")
    assert "Traceback" not in err


def test_random_weights_guard_exit_code(capsys):
    code, out, err = run(
        capsys, ["bound", "--n", "2", "--weights", "random:0:250001"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: guard 'weights.random_entries'")
    assert "Traceback" not in err


def test_report_checks_n_before_building_weights(capsys, monkeypatch):
    # 1 << n weights would be a 2^30-entry tuple at n = 30 and a negative
    # shift at n = -1, so the n guard must come before any weights.
    def refuse(spec, count):
        raise AssertionError(f"{count} weights built before the n guard")

    monkeypatch.setattr(flagbound.cli, "_weight_vectors", refuse)
    for n in ("30", "0", "-1"):
        code, out, err = run(capsys, ["report", "--n", n])
        assert code == 2
        assert out == ""
        assert err.startswith("error: guard 'bounds_report.n'")
        assert "Traceback" not in err


def test_out_to_unwritable_path_exit_code(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.txt")
    for argv in (["chambers", "--n", "2"], ["report", "--n", "1"], ["gen-e", "--n", "2"]):
        code, out, err = run(capsys, argv + ["--out", target])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_count_threshold(capsys):
    for n, count in ((2, "14"), (4, "1882")):
        code, out, _ = run(
            capsys, ["count-threshold", "--n", str(n), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"n": n, "count": count}


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
    # mu is one chain walk in the identity order, however many checks read
    # it; verify's order passes walk many orders a call and are not counted.
    built = []
    original = flagbound.arrangement.packed_decreasing_chains

    def counting(table, orders):
        orders = [tuple(o) for o in orders]
        if orders == [tuple(range(len(table.vs)))]:
            built.append(table)
        return original(table, orders)

    monkeypatch.setattr(flagbound.arrangement, "packed_decreasing_chains", counting)
    monkeypatch.setattr(flagbound.flags, "packed_decreasing_chains", counting)
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


def test_verify_full_sweep(capsys):
    code, out, _ = run(capsys, ["verify", "--level", "full"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert {line.split()[1] for line in lines[:-1]} == {f"n={n}" for n in range(1, 6)}


def test_mobius_by_flat_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(flagbound.homology, "mobius_via_homology",
                        lambda table, fid, field: 0)
    code, out, err = run(capsys, ["verify", "--n", "1", "--level", "full"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [ln for ln in lines[:-1] if ln.startswith("FAIL ")] == [
        "FAIL n=1 mobius-by-flat: 3 flats, 3 mismatches"]
    assert lines[-1] == "failures above"


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
    # report stops on the failed link; verify prints it as its bound-chain
    # check's FAIL line and keeps the other checks
    monkeypatch.setattr(flagbound.threshold, "count_threshold_functions",
                        lambda n: 13)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert "Traceback" not in err
    if argv[0] == "report":
        assert out == ""
        assert err.startswith("error: census 13 != chamber count 14")
    else:
        assert err == ""
        assert "FAIL n=2 bound-chain: census 13 != chamber count 14\n" in out


@pytest.mark.parametrize("name, value, message", [
    ("schlafli_bound", 1, "bound chain violated: 6 <= 14 <= 1"),
    ("minimal_tuple_count", 4, "flag sum bound 6 != tuple bound 8"),
])
def test_report_link_failure_exit_code(capsys, monkeypatch, name, value, message):
    monkeypatch.setattr(flagbound.threshold, name, lambda *args, **kwargs: value)
    code, out, err = run(capsys, ["report", "--n", "2", "--format", "json"])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_keeps_checks_after_failed_link(capsys, monkeypatch):
    monkeypatch.setattr(flagbound.threshold, "schlafli_bound", lambda n: 1)
    code, out, err = run(capsys, ["verify", "--level", "fast"])
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "failures above"
    failed = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
    assert failed == ["FAIL n=1 bound-chain: bound chain violated: 2 <= 4 <= 1",
                      "FAIL n=2 bound-chain: bound chain violated: 6 <= 14 <= 1",
                      "FAIL n=3 bound-chain: bound chain violated: 46 <= 104 <= 1"]
    assert len(lines) > len(failed) + 1
    code, out, err = run(capsys, ["verify", "--level", "fast", "--format", "json"])
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [(c["n"], c["name"]) for c in payload["checks"] if not c["ok"]] == [
        (1, "bound-chain"), (2, "bound-chain"), (3, "bound-chain")]


@pytest.mark.parametrize("sub", ["chambers", "lambda", "homology"])
def test_empty_vector_set_file_exit_code(capsys, tmp_path, sub):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    code, out, err = run(capsys, [sub, "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: empty vector set\n"


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
    path = tmp_path / "empty.txt"
    path.write_text("# no weights\n\n")
    code, out, err = run(capsys, ["bound", "--n", "2", "--weights", str(path)])
    assert (code, out, err) == (2, "", "error: empty weight file\n")


def test_malformed_input_file_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n")
    code, _, err = run(capsys, ["chambers", "--input", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_sign_vector_atoms_charged_before_the_set_is_built(capsys, monkeypatch):
    # E_n's atoms are charged from n, with the message a table gives them.
    with pytest.raises(GuardError) as raised:
        FlatTable(generate_sign_vectors(15))
    code, out, err = run(capsys, ["lambda", "--n", "15"])
    assert (code, out, err) == (2, "", f"error: {raised.value}\n")

    def unbuilt(n):
        raise AssertionError(f"E_{n} built")

    monkeypatch.setattr(flagbound.cli, "generate_sign_vectors", unbuilt)
    for command in ("chambers", "lambda", "homology", "bound", "verify"):
        code, out, err = run(capsys, [command, "--n", "17"])
        assert code == 2
        assert out == ""
        assert err == ("error: guard 'arrangement.pending_images' violated: "
                       "limit <= 10000000, got 270794752\n")
