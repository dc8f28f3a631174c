import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spectralpart import cli, diagnostics
from spectralpart.cli import main, parse_gen_spec
from spectralpart.diagnostics import GapReport
from spectralpart.errors import InputError
from conftest import ring_of_cliques, triangles_with_hub13


def run_cli(args, capsys=None):
    code = main(args)
    return code


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


class TestGenSpec:
    def test_ring(self):
        assert parse_gen_spec("ring:k=3,size=20,b=1") == ("ring", 3, 20, 1)

    def test_sbm(self):
        assert parse_gen_spec("sbm:sizes=50+50,pin=0.5,pout=0.01") == \
            ("sbm", [50, 50], 0.5, 0.01)

    def test_bad_spec_lists_grammar(self):
        with pytest.raises(InputError, match="ring:k="):
            parse_gen_spec("blob:x=1")

    @pytest.mark.parametrize("spec", ["ring:k=3,size=5,b=2,seed=7",
                                      "ring:k=3,size=5,b=2,k=4",
                                      "sbm:sizes=5+5,pin=0.5,pout=0.1,pin=0.9"])
    def test_unknown_or_repeated_key(self, spec, capsys):
        with pytest.raises(InputError, match="bad generator spec"):
            parse_gen_spec(spec)
        assert main(["cluster", "--gen", spec, "--k", "3"]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"


class TestGenerate:
    def test_ring_files(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["generate", "--gen", "ring:k=2,size=3,b=1", "--k", "2",
                     "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if l]
        assert len(lines) == 7
        part_lines = (tmp_path / "g.txt.part").read_text().splitlines()
        assert len(part_lines) == 6
        assert len({l.split()[1] for l in part_lines}) == 2

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["generate", "--gen", "sbm:sizes=10+10,pin=0.6,pout=0.1",
                         "--k", "2", "--seed", "5", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.part").read_bytes() == \
            (tmp_path / "b.txt.part").read_bytes()

    @pytest.mark.parametrize("spec, edges_sha, part_sha", [
        ("ring:k=3,size=5,b=2",
         "e72286e54e56e0d20786f37a799e4ead47aa6588d3430ad391d87d84d66281bc",
         "67b690b881c3042819ee108e4d625d836ce58db359c25e3060d03e358b36d09d"),
        ("sbm:sizes=6+5+4,pin=0.7,pout=0.1",
         "9c139a184228e72019943dce204eb3c88da6805e646899dfad9d9ebeb88d9050",
         "e38df1a210959a16b78b594d063b4fb26f8d24d9f3c8cd8261a407cbc8ac89fc"),
    ])
    def test_pinned_bytes(self, tmp_path, capsys, spec, edges_sha, part_sha):
        out = tmp_path / "g.txt"
        assert main(["generate", "--gen", spec, "--k", "3", "--seed", "42",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == edges_sha
        part = tmp_path / "g.txt.part"
        assert hashlib.sha256(part.read_bytes()).hexdigest() == part_sha

    def test_invalid_spec_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--gen", "ring:k=2", "--k", "2",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"
        assert "ring:k=" in err["error"]["message"]  # grammar listed

    def test_mismatched_k_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["generate", "--gen", "ring:k=3,size=5,b=1", "--k", "7",
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"
        assert list(tmp_path.iterdir()) == []


class TestCluster:
    def test_exact_mode_recovers_planted(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["cluster", "--gen", "ring:k=3,size=20,b=1", "--k", "3",
                     "--mode", "exact", "--seed", "1", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["schema"] == "spectral-part/4"
        assert rep["graph"] == {"n": 60, "m": 573}
        assert rep["planted_match"]["relative_sym_diff_volume"] == [0.0, 0.0, 0.0]

    def test_power_mode_report_fields(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["cluster", "--gen", "ring:k=3,size=20,b=1", "--k", "3",
                     "--mode", "power", "--eps", "0.01", "--delta", "0.1",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["power"]["steps"] >= 1
        assert rep["power"]["lambda_source"] == "sparse-eigensolve"
        assert len(rep["eigenvalues"]) == 4
        assert rep["gap"]["reference"] == "planted"

    def test_degenerate_clique_completes(self, tmp_path, capsys):
        # single clique: no structure, but the run must not crash
        out = tmp_path / "rep.json"
        code = main(["cluster", "--gen", "sbm:sizes=6+6,pin=1.0,pout=1.0",
                     "--k", "2", "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["gap"]["psi"] < 10  # tiny gap reported, no crash

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["cluster", "--gen", "ring:k=3,size=10,b=1", "--k", "3",
                         "--mode", "power", "--seed", "7", "--out", str(out)]) == 0
            outs.append(strip_timings(load_report(out)))
        # config echoes differ only in the out path
        for rep in outs:
            rep["config"].pop("out")
        assert json.dumps(outs[0]) == json.dumps(outs[1])

    def test_input_file_roundtrip(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ring:k=2,size=4,b=1", "--k", "2",
                     "--out", str(edge_file)]) == 0
        out = tmp_path / "rep.json"
        code = main(["cluster", "--input", str(edge_file), "--k", "2",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["graph"]["n"] == 8
        assert "planted_match" not in rep  # no planted partition from a file

    def test_k_validation(self, capsys):
        assert main(["cluster", "--gen", "ring:k=2,size=3,b=1", "--k", "1"]) == 2

    def test_power_mode_needs_k_below_n(self, tmp_path, capsys):
        edge_file = tmp_path / "p3.txt"
        edge_file.write_text("0 1\n1 2\n")
        code = main(["cluster", "--input", str(edge_file), "--k", "3",
                     "--mode", "power", "--seed", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"

    @pytest.mark.parametrize("command, edges, part", [
        ("cluster", "0 1\n1 2\n0 99999999999999999999\n", None),
        ("cluster", "0 1\n1 2\n0 1000000000000\n", None),
        ("diagnose", "0 1\n1 2\n0 99999999999999999999\n", "0 0\n1 0\n2 1\n"),
        ("diagnose", "0 1\n1 2\n0 2\n", "0 0\n1 0\n2 99999999999999999999\n"),
        ("diagnose", "0 1\n1 2\n0 2\n", "0 0\n1 0\n2 1000000000000\n"),
    ])
    def test_huge_ids_are_input_errors(self, tmp_path, capsys, command, edges, part):
        (tmp_path / "g.txt").write_text(edges)
        args = [command, "--input", str(tmp_path / "g.txt"), "--k", "2"]
        if part is not None:
            (tmp_path / "g.part").write_text(part)
            args += ["--partition", str(tmp_path / "g.part")]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"

    @pytest.mark.parametrize("flag", ["--input", "--partition"])
    @pytest.mark.parametrize("content, reason", [
        (None, "No such file"),
        (b"\xff\n", "can't decode byte 0xff"),
    ])
    def test_unreadable_file_is_input_error(self, tmp_path, capsys, flag, content, reason):
        (tmp_path / "g.txt").write_text("0 1\n1 2\n")
        bad = tmp_path / "bad.txt"
        if content is not None:
            bad.write_bytes(content)
        if flag == "--input":
            args = ["cluster", "--input", str(bad), "--k", "2"]
        else:
            args = ["diagnose", "--input", str(tmp_path / "g.txt"), "--partition", str(bad),
                    "--k", "2"]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input"
        assert err["message"].startswith(str(bad) + ": cannot read: ")
        assert reason in err["message"]

    def test_no_spectral_gap_power_mode(self, capsys):
        # complete graph: lambda_k == lambda_{k+1}, power mode must refuse
        code = main(["cluster", "--gen", "sbm:sizes=4+4,pin=1.0,pout=1.0",
                     "--k", "3", "--mode", "power", "--seed", "0"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "numeric"
        assert "gap" in err["error"]["message"]


class TestDiagnose:
    def test_ring_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["diagnose", "--gen", "ring:k=3,size=20,b=1", "--k", "3",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        applicable = [c for c in rep["checks"] if c["hypothesis_met"]]
        assert applicable and all(c["passed"] for c in applicable)

    def test_low_gap_not_applicable_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["diagnose", "--gen", "sbm:sizes=5+5+5,pin=1.0,pout=1.0",
                     "--k", "3", "--seed", "0", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        gap_dependent = [c for c in rep["checks"]
                         if c["name"].startswith("center_row")]
        assert gap_dependent and not any(c["hypothesis_met"] for c in gap_dependent)

    def test_corrupt_partition_file(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ring:k=2,size=3,b=1", "--k", "2",
                     "--out", str(edge_file)]) == 0
        capsys.readouterr()  # drain the generate report
        bad = tmp_path / "bad.part"
        bad.write_text("0 0\n1 0\n2 0\n0 1\n3 1\n4 1\n5 1\n")  # vertex 0 twice
        code = main(["diagnose", "--input", str(edge_file), "--partition",
                     str(bad), "--k", "2"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"

    def test_requires_reference(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ring:k=2,size=3,b=1", "--k", "2",
                     "--out", str(edge_file)]) == 0
        assert main(["diagnose", "--input", str(edge_file), "--k", "2"]) == 2

    def test_gap_psi_is_the_checks_psi(self, tmp_path, capsys):
        # n = 12, and the planted partition is not the optimal one
        out = tmp_path / "rep.json"
        main(["diagnose", "--gen", "sbm:sizes=4+4+4,pin=0.8,pout=0.2", "--k", "3",
              "--seed", "1", "--out", str(out)])
        rep = load_report(out)
        psi_notes = [c["note"] for c in rep["checks"] if "psi=" in c["note"]]
        assert psi_notes
        for note in psi_notes:
            assert note.startswith("psi=%.6g " % rep["gap"]["psi"])

    def test_singleton_blocks_input_error(self, tmp_path, capsys):
        edge_file = tmp_path / "p3.txt"
        edge_file.write_text("0 1\n1 2\n")
        part = tmp_path / "p3.part"
        part.write_text("0 0\n1 1\n2 2\n")
        code = main(["diagnose", "--input", str(edge_file), "--partition",
                     str(part), "--k", "3"])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"

    def test_determinism_modulo_timings(self, tmp_path, capsys):
        reps = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["diagnose", "--gen", "ring:k=3,size=12,b=1", "--k", "3",
                         "--seed", "3", "--out", str(out)]) == 0
            rep = strip_timings(load_report(out))
            rep["config"].pop("out")
            reps.append(rep)
        assert json.dumps(reps[0]) == json.dumps(reps[1])


class TestVerify:
    def test_two_triangles_constants(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ring:k=2,size=3,b=1", "--k", "2",
                     "--out", str(edge_file)]) == 0
        out = tmp_path / "rep.json"
        code = main(["verify", "--input", str(edge_file), "--k", "2",
                     "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["constants"]["rho"] == pytest.approx(1 / 7)
        assert rep["constants"]["rho_hat"] == pytest.approx(1 / 7)

    def test_path_eigenvalue_bound_recorded(self, tmp_path, capsys):
        edge_file = tmp_path / "p6.txt"
        edge_file.write_text("".join("%d %d\n" % (i, i + 1) for i in range(5)))
        out = tmp_path / "rep.json"
        code = main(["verify", "--input", str(edge_file), "--k", "2",
                     "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        rec = next(c for c in rep["checks"] if c["name"] == "eigenvalue_halved_lower")
        assert rec["passed"]

    def test_too_many_optimal_tuples_is_capacity_error(self, tmp_path, capsys):
        edge_file = tmp_path / "k14.txt"
        edge_file.write_text("".join("%d %d\n" % (u, v) for u in range(14)
                                     for v in range(u + 1, 14)))
        assert main(["verify", "--input", str(edge_file), "--k", "4"]) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "capacity"

    def test_interconnection_witness_in_report(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
               (6, 7), (6, 8), (7, 8), (0, 9), (3, 9), (6, 9)]
        edge_file.write_text("".join("%d %d\n" % e for e in tri))
        out = tmp_path / "rep.json"
        code = main(["verify", "--input", str(edge_file), "--k", "3",
                     "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["interconnection"]["degenerate"] is False
        assert rep["interconnection"]["rho_p"] == pytest.approx(0.5)
        names = [c["name"] for c in rep["checks"]]
        assert "interconnection_in_range" in names
        assert all(c["passed"] for c in rep["checks"] if c["hypothesis_met"])

    def test_interconnection_positive_fails_at_zero(self, tmp_path, capsys,
                                                    monkeypatch):
        real = diagnostics.inter_connection
        monkeypatch.setattr(diagnostics, "inter_connection",
                            lambda *a, **kw: dataclasses.replace(real(*a, **kw), rho_p=0.0))
        edge_file = tmp_path / "g.txt"
        tri = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
               (6, 7), (6, 8), (7, 8), (0, 9), (3, 9), (6, 9)]
        edge_file.write_text("".join("%d %d\n" % e for e in tri))
        out = tmp_path / "rep.json"
        code = main(["verify", "--input", str(edge_file), "--k", "3",
                     "--out", str(out)])
        assert code == 1
        rep = load_report(out)
        rec = next(c for c in rep["checks"] if c["name"] == "interconnection_positive")
        assert rec["hypothesis_met"] and not rec["passed"]

    def test_fourteen_vertex_ring(self, tmp_path, capsys):
        edges = ring_of_cliques([4, 4, 3, 3]).edges.tolist()
        edge_file = tmp_path / "ring14.txt"
        edge_file.write_text("".join("%d %d\n" % tuple(e) for e in edges))
        out = tmp_path / "rep.json"
        assert main(["verify", "--input", str(edge_file), "--k", "4",
                     "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["constants"]["rho"] == rep["constants"]["rho_hat"] == 0.25
        assert rep["interconnection"] == {"degenerate": True, "rho": 0.25,
                                          "rho_hat": 0.25}

    def test_thirteen_vertex_hub_interconnection(self, tmp_path, capsys):
        edge_file = tmp_path / "hub13.txt"
        edge_file.write_text("".join("%d %d\n" % tuple(e)
                                     for e in triangles_with_hub13().edges.tolist()))
        out = tmp_path / "rep.json"
        assert main(["verify", "--input", str(edge_file), "--k", "4",
                     "--out", str(out)]) == 0
        inter = load_report(out)["interconnection"]
        assert inter["degenerate"] is False
        assert (inter["rho"], inter["rho_hat"]) == (1 / 7, 3 / 11)
        assert (inter["rho_p"], inter["kappa"]) == (2 / 3, 3.0)
        assert inter["witness_partition"] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0]

    def test_capacity_error(self, tmp_path, capsys):
        edge_file = tmp_path / "big.txt"
        edge_file.write_text("".join("%d %d\n" % (i, i + 1) for i in range(19)))
        code = main(["verify", "--input", str(edge_file), "--k", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "capacity"


class TestReportContract:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["cluster", "--gen", "ring:k=3,size=8,b=1", "--k", "3",
                     "--seed", "0", "--out", str(out)]) == 0
        rep = load_report(out)
        assert json.loads(json.dumps(rep)) == rep

    def test_infinite_psi_serialized(self, tmp_path, capsys):
        # disjoint cliques: psi is an "inf" string in strict JSON
        edge_file = tmp_path / "g.txt"
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
        edge_file.write_text("".join("%d %d\n" % e for e in edges))
        part = tmp_path / "g.part"
        part.write_text("0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n")
        out = tmp_path / "rep.json"
        code = main(["diagnose", "--input", str(edge_file), "--partition",
                     str(part), "--k", "2", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["gap"]["psi"] == "inf"

    @pytest.mark.parametrize("argv, config_keys, gap_extra", [
        (["cluster", "--gen", "ring:k=3,size=8,b=1", "--k", "3"],
         ["command", "input", "gen", "k", "mode", "eps", "delta", "seed", "restarts", "out"],
         ["reference"]),
        (["diagnose", "--gen", "ring:k=3,size=8,b=1", "--k", "3"],
         ["command", "input", "gen", "k", "seed", "out", "partition"], []),
        (["verify", "--gen", "ring:k=3,size=3,b=1", "--k", "3"],
         ["command", "input", "gen", "k", "seed", "restarts", "out"], None),
    ])
    def test_section_keys(self, tmp_path, capsys, argv, config_keys, gap_extra):
        out = tmp_path / "rep.json"
        assert main(argv + ["--out", str(out)]) == 0
        rep = load_report(out)
        assert list(rep["config"]) == config_keys
        if gap_extra is None:
            assert "gap" not in rep
        else:
            gap_keys = [f.name for f in dataclasses.fields(GapReport)]
            assert list(rep["gap"]) == gap_keys + gap_extra
        if argv[0] == "cluster":
            assert list(rep["timings"]) == ["load", "embedding", "kmeans", "gap"]
        checks = rep.get("checks", [])
        assert checks or argv[0] == "cluster"
        for check in checks:
            assert list(check) == ["name", "lhs", "rhs", "passed", "hypothesis_met",
                                   "slack", "note"]

    def test_generate_config_keys(self, tmp_path, capsys):
        main(["generate", "--gen", "ring:k=2,size=3,b=1", "--k", "2",
              "--out", str(tmp_path / "g.txt")])
        rep = json.loads(capsys.readouterr().out)
        assert list(rep["config"]) == ["command", "input", "gen", "k", "seed", "out"]

    @pytest.mark.parametrize("command", ["diagnose", "generate"])
    def test_restarts_rejected_where_unused(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--gen", "ring:k=2,size=3,b=1", "--k", "2", "--restarts", "5"])
        assert exc.value.code == 2

    def test_thread_cap_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRAL_PART_THREADS", "1")
        out = tmp_path / "rep.json"
        assert main(["cluster", "--gen", "ring:k=2,size=4,b=1", "--k", "2",
                     "--seed", "0", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["cluster", "diagnose"])
def test_gap_needs_no_bruteforce_scan(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force scan called")

    monkeypatch.setattr(diagnostics, "bruteforce_partition_constants", refuse)
    assert main([command, "--gen", "ring:k=4,size=3,b=1", "--k", "4",
                 "--out", str(tmp_path / "rep.json")]) == 0


def test_thread_cap_applied_on_package_import():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SPECTRAL_PART_THREADS"] = "3"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, os; assert 'numpy' not in sys.modules; import spectralpart; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "3"


def test_package_import_loads_no_scipy():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; import spectralpart, spectralpart.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_all_names_resolve():
    import spectralpart
    assert [n for n in spectralpart.__all__ if not hasattr(spectralpart, n)] == []
