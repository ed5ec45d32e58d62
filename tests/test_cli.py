"""Command-line interface: exit codes, output formats, sidecar files."""

import argparse
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from resilmip.cli import (
    COMMANDS, EXIT_ERROR, EXIT_OK, EXIT_UNKNOWN, EXIT_VIOLATED, build_parser, main,
)
from resilmip.dataflow import propagate_intervals
from resilmip.encoder import QueryKind, QuerySpec, encode_query
from resilmip.mipmodel import export_mps, parse_mps
from resilmip.network import LayerKind, LayerSpec, Network, network_to_dict, save_network
from resilmip.oracle import enumerate_mip
from resilmip.resilience import query_bounds
from resilmip import cli, solver, zoo


class TestEval:
    def test_probability_head_point(self, capsys):
        assert main(["eval", "--net", "identity3", "--input", "-1, 2, 3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0.0132129" in out and "0.265388" in out and "0.721399" in out
        assert "class    3" in out

    def test_input_from_json_file(self, tmp_path, capsys):
        f = tmp_path / "point.json"
        f.write_text("[1.0, 0.0]")
        assert main(["eval", "--net", "two_class_linear", "--input", str(f)]) == EXIT_OK
        assert "class    1" in capsys.readouterr().out

    def test_input_from_plain_text_file(self, tmp_path, capsys):
        f = tmp_path / "point.txt"
        f.write_text("0.2 0.9\n")
        assert main(["eval", "--net", "two_class_linear", "--input", str(f)]) == EXIT_OK
        assert "class    2" in capsys.readouterr().out

    def test_network_from_file(self, tmp_path, capsys):
        p = tmp_path / "net.json"
        save_network(zoo.two_class_linear(), p)
        assert main(["eval", "--net", str(p), "--input", "1,0"]) == EXIT_OK

    def test_wrong_dimension_is_a_runtime_error(self, capsys):
        assert main(["eval", "--net", "identity3", "--input", "1,2"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_network_is_a_runtime_error(self, capsys):
        assert main(["eval", "--net", "no_such_net", "--input", "1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "no_such_net" in err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    @pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_input_is_a_runtime_error(self, command, point, capsys):
        argv = [command, "--net", "two_class_linear", "--input", point]
        assert main(argv + (["--delta", "0.1"] if command == "verify" else [])) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: input point {point!r} has a non-finite value\n"

    def test_non_finite_input_file_is_a_runtime_error(self, tmp_path, capsys):
        f = tmp_path / "point.json"
        f.write_text("[NaN, 0.0]")
        assert main(["eval", "--net", "two_class_linear", "--input", str(f)]) == EXIT_ERROR
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "verify"])
    def test_directory_input_is_not_read_as_a_file(self, command, tmp_path, capsys):
        """'' names the current directory; neither it nor any other directory
        is read as an input file, so each is parsed as an inline point."""
        extra = ["--delta", "0.1"] if command == "verify" else []
        for point, msg in (("", "has 0 values, expected 2"),
                           (str(tmp_path), "could not convert string to float")):
            argv = [command, "--net", "two_class_linear", "--input", point]
            assert main(argv + extra) == EXIT_ERROR
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error:") and msg in err and "Errno" not in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--net", "two_class_linear"],
        ["verify", "--net", "two_class_linear", "--delta", "0.1"],
        ["export", "--net", "two_class_linear", "--class", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("text", ["[null, 1]", "[[1, 2]]", "[1" + "0" * 400 + ", 2]"],
                             ids=["null", "nested", "overflow"])
    def test_json_input_of_non_reals_is_a_runtime_error(self, argv, text, tmp_path,
                                                        capsys):
        f = tmp_path / "point.json"
        f.write_text(text)
        out_mps = tmp_path / "q.mps"
        extra = ["--out", str(out_mps)] if argv[0] == "export" else []
        assert main(argv + ["--input", str(f)] + extra) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot parse input point {str(f)!r}")
        assert not out_mps.exists()


    @pytest.mark.parametrize("text", ["[true, false]", '["0.5", "1e-1"]'], ids=["bool", "str"])
    def test_json_input_holds_only_numbers(self, text, tmp_path, capsys):
        """A JSON input point holds numbers: true is not 1 and "0.5" is not
        0.5, though float() takes both."""
        f = tmp_path / "point.json"
        f.write_text(text)
        assert main(["eval", "--net", "two_class_linear", "--input", str(f)]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot parse input point {str(f)!r}: ")
        assert "is not a number" in err

    @pytest.mark.parametrize("net,edit", [
        ("two_class_linear", lambda d: d["layers"][0]["weights"].__setitem__(0, ["0", True])),
        ("pool_duel", lambda d: d["layers"][0].update(pool_groups=[[1.9, "2"]])),
        ("pool_duel", lambda d: d["layers"][0].update(pool_groups=[[1.5, 2]])),
    ], ids=["weights-str-bool", "pool-float-str", "pool-float"])
    def test_net_file_holds_only_numbers(self, net, edit, tmp_path, capsys):
        doc = network_to_dict(zoo.FIXTURES[net]())
        edit(doc)
        f = tmp_path / "net.json"
        f.write_text(json.dumps(doc))
        assert main(["eval", "--net", str(f), "--input", "0.5,0.5"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestBounds:
    def test_dump_to_stdout(self, capsys):
        assert main(["bounds", "--net", "relu_mixed_phases"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "active" in out and "undecided" in out

    def test_dump_to_file_with_lookback(self, tmp_path, capsys):
        f = tmp_path / "bounds.tsv"
        assert main(["bounds", "--net", "lookback_chain", "--lookback",
                     "--out", str(f)]) == EXIT_OK
        text = f.read_text()
        assert "-1" in text  # the window-tightened lower bound
        assert f"wrote {f}" in capsys.readouterr().out


class TestVerify:
    def test_robust_exits_zero(self, capsys):
        code = main(["verify", "--net", "two_class_linear",
                     "--input", "1,0", "--delta", "0.9"])
        assert code == EXIT_OK
        assert "ROBUST" in capsys.readouterr().out

    def test_violated_exits_ten_and_writes_the_witness(self, tmp_path, capsys):
        w = tmp_path / "witness.json"
        code = main(["verify", "--net", "two_class_linear",
                     "--input", "1,0", "--delta", "1.1",
                     "--witness-out", str(w)])
        assert code == EXIT_VIOLATED
        assert "VIOLATED" in capsys.readouterr().out
        doc = json.loads(w.read_text())
        eps = np.array(doc["eps"], dtype=np.float64)
        assert float(np.abs(eps).sum()) <= 1.1 + 1e-6

    def test_unverifiable_slack_exits_twenty(self, capsys):
        code = main(["verify", "--net", "atan_wide",
                     "--input=-0.995", "--delta", "1.2"])
        assert code == EXIT_UNKNOWN
        assert "envelope" in capsys.readouterr().out
        # the budget box settles this one: the true answer is ROBUST
        code = main(["verify", "--net", "atan_narrow",
                     "--input", "1.0", "--delta", "0.998"])
        assert code == EXIT_OK
        assert "ROBUST" in capsys.readouterr().out

    def test_json_sidecar(self, tmp_path):
        j = tmp_path / "res.json"
        main(["verify", "--net", "two_class_linear", "--input", "1,0",
              "--delta", "0.5", "--json-out", str(j)])
        doc = json.loads(j.read_text())
        assert doc["verdict"] == "ROBUST"
        assert doc["class"] == 1


class TestPhi:
    def test_verbose_logs_solver_progress(self, caplog, capsys):
        caplog.set_level(logging.INFO, logger="resilmip.solver")
        argv = ["phi", "--net", "relu_mixed_phases", "--class", "1",
                "--alpha", str(math.e)]
        assert main(argv) == EXIT_OK
        assert "nodes=" not in caplog.text
        assert main(argv + ["--verbose"]) == EXIT_OK
        assert "nodes=" in caplog.text

    def test_exact_bound_exits_zero(self, capsys):
        code = main(["phi", "--net", "two_class_linear", "--class", "1",
                     "--alpha", str(math.e)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "phi      1" in out
        assert "exact    yes" in out

    def test_vacuous_alpha_prints_the_note(self, capsys):
        code = main(["phi", "--net", "two_class_linear", "--class", "1",
                     "--alpha", "8.0"])
        assert code == EXIT_OK  # settled exactly, just infinite
        out = capsys.readouterr().out
        assert "phi      inf" in out
        assert "infeasible at alpha=8" in out

    def test_empty_dominance_region_prints_the_note(self, always_first, tmp_path, capsys):
        # stage 2 proves that no rival ever reaches class 1's score
        path = tmp_path / "first.json"
        save_network(always_first, path)
        assert main(["phi", "--net", str(path), "--class", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phi      inf" in out
        assert "status   infeasible" in out
        assert "vacuously infinite" in out

    def test_an_early_exit_reports_its_solve(self, always_first, tmp_path, capsys):
        # stages 1 and 2 both solve; stage 2's proof ends the query
        path = tmp_path / "first.json"
        j = tmp_path / "phi.json"
        save_network(always_first, path)
        assert main(["phi", "--net", str(path), "--class", "1",
                     "--json-out", str(j)]) == EXIT_OK
        out = capsys.readouterr().out
        nodes = [line for line in out.splitlines() if line.startswith("nodes")]
        assert len(nodes) == 1 and int(nodes[0].split()[1]) >= 1
        assert any(line.startswith("time") for line in out.splitlines())
        doc = json.loads(j.read_text())
        assert doc["nodes"] == int(nodes[0].split()[1])
        assert doc["wall_time"] > 0.0

    def test_solver_limit_exits_twenty_with_partial_output(self, tmp_path, capsys):
        j = tmp_path / "phi.json"
        code = main(["phi", "--net", "relu_mixed_phases", "--class", "1",
                     "--alpha", str(math.e), "--time-limit", "0",
                     "--json-out", str(j)])
        assert code == EXIT_UNKNOWN
        assert "exact    no" in capsys.readouterr().out
        doc = json.loads(j.read_text())  # partial results still written
        assert doc["status"] == "limit"
        assert doc["exact"] is False

    @pytest.mark.parametrize("command", ["phi", "xi"])
    def test_overlap_of_every_class_is_an_error(self, command, capsys):
        args = [command, "--net", "three_class_linear", "--alpha", str(math.e),
                "--k", "3"]
        if command == "phi":
            args += ["--class", "1"]
        assert main(args) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_lookback_depth_below_one_is_an_error(self, capsys):
        code = main(["phi", "--net", "two_class_linear", "--class", "1",
                     "--lookback", "0"])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_node_limit_keeps_the_seeded_bound(self, capsys):
        # the full stage starts from stage 2's witness and reports it
        code = main(["phi", "--net", "atan_wide", "--class", "1", "--alpha", "1",
                     "--node-limit", "20"])
        assert code == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "status   limit" in out
        phi = float(out.splitlines()[0].split()[1])
        assert math.isfinite(phi)

    def test_non_finite_alpha_fails_before_lookback(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an invalid query")

        monkeypatch.setattr(solver, "solve", no_solve)
        code = main(["phi", "--net", "relu_mixed_phases", "--class", "1",
                     "--alpha", "nan", "--lookback", "2"])
        assert code == EXIT_ERROR
        assert "alpha" in capsys.readouterr().err

    def test_json_payload_round_trips(self, tmp_path):
        j = tmp_path / "phi.json"
        main(["phi", "--net", "two_class_linear", "--class", "1",
              "--alpha", str(math.e), "--json-out", str(j)])
        doc = json.loads(j.read_text())
        assert doc["phi"] == pytest.approx(1.0, abs=1e-7)
        assert doc["exact"] is True
        assert doc["anchor"] == pytest.approx([1.0, 0.0], abs=1e-6)


class TestXiAndMaxAlpha:
    def test_xi_table(self, capsys):
        code = main(["xi", "--net", "three_class_linear", "--alpha", str(math.e)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "xi       1" in out
        assert "excluded 3" in out
        assert "phi[1]" in out and "phi[3] inf" in out

    def test_unresolved_xi_excludes_nothing(self, capsys):
        # with no node solved no class is proven never strongly classified
        code = main(["xi", "--net", "relu_deep", "--alpha", "2.718281828",
                     "--node-limit", "0"])
        assert code == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "status   limit" in out
        assert "excluded" not in out

    def test_queries_need_two_classes(self, tmp_path, capsys):
        net = tmp_path / "one_class.json"
        net.write_text(json.dumps(
            {"input_dim": 1, "input_bounds": [[-1, 1]],
             "layers": [{"kind": "linear_output", "weights": [[0.0], [1.0]]},
                        {"kind": "softmax"}]}))
        assert main(["max-alpha", "--net", str(net), "--class", "1"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: queries need at least two classes; the network has 1\n"

    def test_max_alpha(self, capsys):
        code = main(["max-alpha", "--net", "two_class_linear", "--class", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha    2.71828" in out
        assert "log      1" in out

    def test_max_alpha_past_the_float_range(self, tmp_path, capsys):
        # the best margin is 2000, and e^2000 overflows float64
        net = tmp_path / "steep.json"
        net.write_text(json.dumps(
            {"input_dim": 1, "input_bounds": [[0, 1]],
             "layers": [{"kind": "linear_output", "weights": [[0, 0], [1000, -1000]]},
                        {"kind": "softmax"}]}))
        j = tmp_path / "side.json"
        code = main(["max-alpha", "--net", str(net), "--class", "1", "--json-out", str(j)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha    inf" in out
        assert "log      2000" in out
        doc = json.loads(j.read_text())
        assert doc["alpha_max"] == "inf" and doc["upper_bound"] == "inf"

    @pytest.mark.parametrize("argv", [
        ["max-alpha", "--net", "relu_deep", "--class", "2"],
        ["verify", "--net", "relu_mixed_phases", "--input", "1,1", "--delta", "0.4"],
    ])
    def test_solve_is_reported_like_phi(self, argv, tmp_path, capsys):
        j = tmp_path / "side.json"
        assert main(argv + ["--json-out", str(j)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        nodes = [line for line in lines if line.startswith("nodes")]
        assert len(nodes) == 1
        assert [line for line in lines if line.startswith("time")]
        doc = json.loads(j.read_text())
        assert doc["nodes"] == int(nodes[0].split()[1]) >= 1
        assert doc["wall_time"] > 0.0
        if argv[0] == "max-alpha":
            assert doc["nodes"] == 1  # the root repair closes relu_deep class 2

    def test_node_limit_prints_the_bound(self, capsys):
        # the root LP bounds the ratio; the limit stops before the bound
        # meets the root repair's incumbent
        code = main(["max-alpha", "--net", "atan_wide", "--class", "1",
                     "--node-limit", "1"])
        assert code == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert "status   limit" in out
        bound = [line for line in out.splitlines() if line.startswith("bound")]
        assert len(bound) == 1 and math.isfinite(float(bound[0].split()[1]))

    def test_class_below_a_constant_rival_never_tops(self, tmp_path, capsys):
        # scores (x1, x2, -1) on [0, 1]^2: class 3 trails by at least 1
        net = Network(
            input_dim=2,
            input_bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
            layers=(
                LayerSpec(LayerKind.LINEAR_OUTPUT,
                          weights=np.array([[0.0, 0.0, -1.0],
                                            [1.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]])),
                LayerSpec(LayerKind.SOFTMAX),
            ),
        )
        path = tmp_path / "trailing.json"
        save_network(net, path)
        j = tmp_path / "ma.json"
        assert main(["max-alpha", "--net", str(path), "--class", "3",
                     "--json-out", str(j)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "log      -1" in out
        assert "note     class never tops every rival (alpha < 1)" in out
        assert json.loads(j.read_text())["attainable"] is False

    def test_unsettled_max_alpha_claims_nothing(self, tmp_path, capsys):
        # no node is solved, so there is no incumbent and no proof either way
        f = tmp_path / "ma.json"
        code = main(["max-alpha", "--net", "relu_deep", "--class", "1",
                     "--time-limit", "0", "--json-out", str(f)])
        assert code == EXIT_UNKNOWN
        assert "never tops" not in capsys.readouterr().out
        assert json.loads(f.read_text())["attainable"] is None


class TestExport:
    def test_written_model_is_parseable_and_solves(self, tmp_path, capsys):
        f = tmp_path / "query.mps"
        code = main(["export", "--net", "two_class_linear", "--class", "1",
                     "--alpha", str(math.e), "--out", str(f)])
        assert code == EXIT_OK
        assert "rows" in capsys.readouterr().out
        model = parse_mps(f.read_text())
        ref = enumerate_mip(model)  # one selector binary: cheap to exhaust
        assert ref.status == "optimal"
        assert ref.objective == pytest.approx(1.0, abs=1e-7)

    def test_robustness_export_needs_an_anchor(self, tmp_path, capsys):
        f = tmp_path / "q.mps"
        code = main(["export", "--net", "two_class_linear", "--class", "1",
                     "--query", "robustness", "--out", str(f)])
        assert code == EXIT_ERROR
        assert "--input" in capsys.readouterr().err
        code = main(["export", "--net", "two_class_linear", "--class", "1",
                     "--query", "robustness", "--input", "1,0",
                     "--delta", "0.5", "--out", str(f)])
        assert code == EXIT_OK
        assert f.exists()

    def test_robustness_export_is_the_model_verify_solves(self, tmp_path):
        f, j = tmp_path / "q.mps", tmp_path / "q.json"
        assert main(["export", "--net", "relu_deep", "--class", "1",
                     "--query", "robustness", "--input", "0.5,0.5", "--delta", "0.2",
                     "--out", str(f), "--json-out", str(j)]) == EXIT_OK
        net, a = zoo.relu_deep(), np.array([0.5, 0.5])
        q = QuerySpec(QueryKind.LOCAL_ROBUSTNESS, m=1, a=a, delta=0.2)
        model = encode_query(net, query_bounds(net, q, None, None, None), q).model
        assert f.read_text() == export_mps(model)
        doc = json.loads(j.read_text())
        assert (doc["rows"], doc["columns"], doc["binaries"]) == (
            model.num_constraints, model.num_variables, len(model.binary_ids))
        whole = encode_query(net, propagate_intervals(net), q).model
        assert doc["binaries"] < len(whole.binary_ids)

    def test_max_alpha_export(self, tmp_path):
        f = tmp_path / "ma.mps"
        assert main(["export", "--net", "atan_wide", "--class", "1",
                     "--query", "max-alpha", "--out", str(f)]) == EXIT_OK
        model = parse_mps(f.read_text())
        assert model.binary_ids  # region gates survive the round trip

    def test_phi_export_with_an_input_fixes_the_anchor(self, tmp_path, capsys):
        f = tmp_path / "fixed.mps"
        assert main(["export", "--net", "two_class_linear", "--class", "1",
                     "--query", "phi", "--input", "1,0", "--out", str(f)]) == EXIT_OK
        text = f.read_text()
        assert text.splitlines()[0].split() == ["NAME", "fixed_min_m1"]
        names = {v.name for v in parse_mps(text).variables}
        assert "a0" not in names and "a1" not in names

    def test_phi_export_rejects_an_anchor_outside_the_box(self, tmp_path, capsys):
        f = tmp_path / "out.mps"
        code = main(["export", "--net", "two_class_linear", "--class", "1",
                     "--query", "phi", "--input", "1.5,7", "--out", str(f)])
        assert code == EXIT_ERROR
        assert "outside the input domain" in capsys.readouterr().err
        assert not f.exists()

    def test_max_alpha_export_takes_no_input(self, tmp_path, capsys):
        f = tmp_path / "ma.mps"
        code = main(["export", "--net", "two_class_linear", "--class", "1",
                     "--query", "max-alpha", "--input", "1,0", "--out", str(f)])
        assert code == EXIT_ERROR
        assert "--input" in capsys.readouterr().err
        assert not f.exists()


_PHI_KEYS = ["m", "alpha", "k", "phi", "status", "exact", "witness_exact",
             "lower_bound", "anchor", "eps", "perturbed", "nodes", "wall_time"]


class TestSidecar:
    """main writes the one --json-out sidecar from the payload a command
    returns; the keys below are the sidecars' documented layout."""

    COMMANDS = {
        "eval": (["--net", "identity3", "--input=-1,2,3"],
                 ["input", "scores", "outputs", "top_class"]),
        "bounds": (["--net", "relu_mixed_phases", "--lookback"], ["layers"]),
        "verify": (["--net", "two_class_linear", "--input", "1,0", "--delta", "1.1"],
                   ["verdict", "class", "delta", "k", "eps", "perturbed", "note",
                    "nodes", "wall_time"]),
        "phi": (["--net", "pool_duel", "--class", "1", "--alpha", "2.718281828"],
                _PHI_KEYS),
        "xi": (["--net", "three_class_linear", "--alpha", "2.718281828"],
               ["xi", "status", "weakest_class", "excluded", "per_class"]),
        "max-alpha": (["--net", "two_class_linear", "--class", "1"],
                      ["alpha_max", "t_star", "attainable", "status",
                       "upper_bound", "anchor", "nodes", "wall_time"]),
        "export": (["--net", "pool_duel", "--query", "phi", "--class", "1",
                    "--out", "duel.mps"], ["out", "rows", "columns", "binaries"]),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_writes_one_sidecar(self, command, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv, keys = self.COMMANDS[command]
        code = main([command, *argv, "--json-out", "side.json"])
        assert code in (EXIT_OK, EXIT_VIOLATED)
        assert sorted(p.name for p in tmp_path.glob("*.json")) == ["side.json"]
        doc = json.loads((tmp_path / "side.json").read_text())
        assert list(doc) == keys
        if command == "xi":
            assert all(list(r) == _PHI_KEYS for r in doc["per_class"].values())
        if command == "export":
            out = capsys.readouterr().out
            assert f"({doc['rows']} rows, {doc['columns']} columns, " \
                   f"{doc['binaries']} binaries)" in out
            assert doc["out"] == "duel.mps" and (tmp_path / "duel.mps").exists()

    def test_failing_command_leaves_no_sidecar(self, tmp_path, capsys):
        j = tmp_path / "side.json"
        code = main(["eval", "--net", "identity3", "--input", "1,2",
                     "--json-out", str(j)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not j.exists()

    def test_witness_file_layout(self, tmp_path, capsys):
        w = tmp_path / "witness.json"
        j = tmp_path / "side.json"
        code = main(["verify", "--net", "two_class_linear", "--input", "1,0",
                     "--delta", "1.1", "--witness-out", str(w), "--json-out", str(j)])
        assert code == EXIT_VIOLATED
        text = w.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert list(doc) == ["eps", "perturbed", "anchor"]
        assert doc["eps"] == pytest.approx([-1.0, 0.0], abs=1e-9)
        assert doc["perturbed"] == pytest.approx([0.0, 0.0], abs=1e-9)
        assert doc["anchor"] == [1.0, 0.0]
        side = json.loads(j.read_text())
        assert side["eps"] == doc["eps"] and side["perturbed"] == doc["perturbed"]


class TestUsage:
    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["phi", "--class", "1"])  # no --net
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--net", "atan_narrow", "--input", "0"],
        ["bounds", "--net", "relu_mixed_phases"],
        ["verify", "--net", "atan_narrow", "--input", "0", "--delta", "0.1"],
        ["phi", "--net", "atan_narrow", "--class", "1"],
        ["xi", "--net", "atan_narrow"],
        ["max-alpha", "--net", "atan_narrow", "--class", "1"],
        ["export", "--net", "atan_narrow", "--class", "1", "--out", "x.mps"],
    ], ids=lambda argv: argv[0])
    def test_no_subcommand_takes_segments(self, argv, capsys):
        # the envelope resolution is fixed by the encoder; --segments 0 once
        # made max-alpha on atan_narrow report alpha 1.155 as optimal
        with pytest.raises(SystemExit) as e:
            main(argv + ["--segments", "0"])
        assert e.value.code == 2
        assert "--segments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bounds", "--net", "lookback_chain", "--lookback", "2"],
        ["export", "--net", "relu_deep", "--class", "1", "--lookback", "2", "--out", "x.mps"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag,value", [("--node-limit", "0"), ("--mip-gap", "0.5")])
    def test_lookback_only_commands_take_no_solve_limits(self, argv, flag, value, capsys):
        # bounds and export solve only lookback's probes, which fix their own
        # node limit and gap; both flags were once accepted and then ignored
        with pytest.raises(SystemExit) as e:
            main(argv + [flag, value])
        assert e.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-3"), ("--node-limit", "-1"),
        ("--time-limit", "-1"), ("--time-limit", "inf"), ("--mip-gap", "nan"),
        ("--mip-gap", "-0.1"),
    ])
    def test_solver_flags_out_of_range_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as e:
            main(["phi", "--net", "two_class_linear", "--class", "1", flag, value])
        assert e.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_worker_default_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("RESILMIP_WORKERS", "3")
        args = build_parser().parse_args(["phi", "--net", "x", "--class", "1"])
        assert args.workers == 3
        monkeypatch.setenv("RESILMIP_WORKERS", "not-a-number")
        args = build_parser().parse_args(["phi", "--net", "x", "--class", "1"])
        assert args.workers == 1

    def test_short_k_alias(self):
        args = build_parser().parse_args(
            ["verify", "--net", "x", "--input", "0", "--delta", "1", "-k", "2"])
        assert args.k == 2


def _outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits, as argparse does
    for --help and for a usage error."""
    with pytest.raises(SystemExit) as e:
        parse(argv)
    out, err = capsys.readouterr()
    return e.value.code, out, err


class TestSingleCommandParser:
    """main builds only the invoked command's parser; what it prints and how
    it exits must match the full tree's."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("tail,code", [
        (["--help"], 0), (["-h"], 0), (["--bogus"], 2), ([], 2),
        (["--net", "two_class_linear", "--bogus", "1"], 2),
        (["--net", "two_class_linear", "--input", "1,0", "--delta", "x"], 2),
        (["--ne", "two_class_linear", "--input", "1,0", "--class", "1", "--out", "x",
          "--delta", "0", "--workers", "0"], 2),
    ])
    def test_output_and_exit_code_match_the_full_tree(self, command, tail, code, capsys):
        argv = [command, *tail]
        full = _outcome(build_parser().parse_args, argv, capsys)
        assert full[0] == code and full[1] + full[2]
        assert _outcome(main, argv, capsys) == full

    @pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["frobnicate"],
                                      ["--bogus", "phi"], ["-k", "1"]])
    def test_no_known_command_goes_to_the_full_tree(self, argv, capsys):
        full = _outcome(build_parser().parse_args, argv, capsys)
        assert _outcome(main, argv, capsys) == full
        if argv in ([], ["frobnicate"]):
            assert full[0] == 2 and full[2].startswith("usage: resilmip [-h] {eval,")

    def test_a_known_command_builds_one_parser(self, monkeypatch, capsys):
        """Two calls of one command build its parser once in the process,
        and never the full tree."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_PARSERS", {})
        for _ in range(2):
            assert main(["eval", "--net", "two_class_linear", "--input", "1,0"]) == EXIT_OK
        assert built == ["resilmip eval"]
        built.clear()
        build_parser()
        assert len(built) == 1 + len(COMMANDS)

    def _seen_args(self, monkeypatch, argv):
        seen = []

        def record(args, net):
            seen.append(args)
            return EXIT_OK, {}

        summary, _, groups = COMMANDS[argv[0]]
        monkeypatch.setitem(COMMANDS, argv[0], (summary, record, groups))
        assert main(argv) == EXIT_OK
        return seen[0]

    def test_worker_default_comes_from_the_environment(self, monkeypatch):
        argv = ["phi", "--net", "two_class_linear", "--class", "1"]
        monkeypatch.setenv("RESILMIP_WORKERS", "3")
        assert self._seen_args(monkeypatch, argv).workers == 3
        monkeypatch.setenv("RESILMIP_WORKERS", "not-a-number")
        assert self._seen_args(monkeypatch, argv).workers == 1
        assert self._seen_args(monkeypatch, argv + ["--workers", "2"]).workers == 2

    def test_short_k_alias(self, monkeypatch):
        args = self._seen_args(monkeypatch, ["verify", "--net", "three_class_linear",
                                             "--input", "1,0", "--delta", "1", "-k", "2"])
        assert args.k == 2 and args.cls is None


def test_the_command_line_path_loads_no_heavy_module():
    """A fresh interpreter that imports the CLI and the zoo, as every command
    and the benchmark's set-up do, loads neither scipy (which ``oracle``
    imports) nor the process-pool or test modules."""
    heavy = ("scipy", "multiprocessing", "concurrent.futures", "hypothesis")
    code = ("import sys, resilmip.cli, resilmip.zoo\n"
            f"heavy = {heavy!r}\n"
            "print(sorted(m for m in sys.modules if m == 'resilmip.oracle'\n"
            "             or any(m == h or m.startswith(h + '.') for h in heavy)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
