import dataclasses
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from spectralpart import (cli, diagnostics, gen_sbm, graph, spectral, write_edge_list,
                          write_partition)
from spectralpart.cli import main, parse_gen_spec
from spectralpart.diagnostics import GapReport
from spectralpart.errors import InputError
from conftest import ring_of_cliques, triangles_with_center, triangles_with_hub13


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
         "3912441f1bd5913dd82314dffb0e854cd599944412fb3fc3dcf527a3a755e512",
         "e38df1a210959a16b78b594d063b4fb26f8d24d9f3c8cd8261a407cbc8ac89fc"),
    ])
    def test_pinned_bytes(self, tmp_path, capsys, spec, edges_sha, part_sha):
        out = tmp_path / "g.txt"
        assert main(["generate", "--gen", spec, "--k", "3", "--seed", "42",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == edges_sha
        part = tmp_path / "g.txt.part"
        assert hashlib.sha256(part.read_bytes()).hexdigest() == part_sha

    def test_unwritable_partition_leaves_no_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        (tmp_path / "g.txt.part").mkdir()
        assert main(["generate", "--gen", "ring:k=3,size=5,b=1", "--k", "3",
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input"
        assert err["message"].startswith(str(out) + ".part: cannot write: ")
        assert not out.exists()

    @pytest.mark.parametrize("unwritable", ["edges", "partition"])
    def test_unwritable_out_fails_before_generating(self, tmp_path, capsys, monkeypatch,
                                                    unwritable):
        """Both output files are opened before the generator runs."""
        def refuse(*args):
            raise AssertionError("generator called before the output files were opened")

        monkeypatch.setattr(cli.G, "gen_sbm", refuse)
        out = tmp_path / "missing" / "g.txt" if unwritable == "edges" else tmp_path / "g.txt"
        (tmp_path / "g.txt.part").mkdir()
        assert main(["generate", "--gen", "sbm:sizes=5+5,pin=0.5,pout=0.1", "--k", "2",
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input" and "cannot write" in err["message"]
        assert [path.name for path in tmp_path.iterdir()] == ["g.txt.part"]

    def test_invalid_spec_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--gen", "ring:k=2", "--k", "2",
                     "--out", str(tmp_path / "x.txt")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"
        assert "ring:k=" in err["error"]["message"]  # grammar listed

    def test_one_vertex_sbm_is_input_error(self, tmp_path, capsys):
        code = main(["generate", "--gen", "sbm:sizes=1,pin=0.5,pout=0.1", "--k", "2",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input" and "at least 2 vertices" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_k_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["generate", "--gen", "ring:k=3,size=5,b=1", "--k", "7",
                     "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "input"
        assert list(tmp_path.iterdir()) == []

    def test_failed_edge_flush_leaves_no_partition_file(self, tmp_path, capsys, monkeypatch):
        """The edge list's last flush fails after the partition file is
        written: exit 2, and neither file is left behind."""
        class FullDisk(io.BufferedWriter):
            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real_fdopen, opened = os.fdopen, []

        def fdopen(fd, *args, **kwargs):
            opened.append(fd)
            if len(opened) > 1:
                return real_fdopen(fd, *args, **kwargs)
            return io.TextIOWrapper(FullDisk(io.FileIO(fd, "w")), encoding="utf-8")

        monkeypatch.setattr(cli.os, "fdopen", fdopen)
        out = tmp_path / "g.txt"
        assert main(["generate", "--gen", "ring:k=3,size=5,b=1", "--k", "3",
                     "--out", str(out)]) == 2
        assert len(opened) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input" and "No space left" in err["message"]
        assert list(tmp_path.iterdir()) == []


class TestCluster:
    def test_exact_mode_recovers_planted(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["cluster", "--gen", "ring:k=3,size=20,b=1", "--k", "3",
                     "--mode", "exact", "--seed", "1", "--out", str(out)])
        assert code == 0
        rep = load_report(out)
        assert rep["schema"] == "spectral-part/7"
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

    def test_mismatched_k_rejected_before_solving(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum solved")

        monkeypatch.setattr(cli.S, "exact_embedding", refuse)
        assert main(["cluster", "--gen", "ring:k=4,size=4,b=1", "--k", "2"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input" and "--k" in err["message"]

    @pytest.mark.parametrize("tiny, steps", [("1e-200", 1206), ("1e-160", 966)])
    def test_tiny_eps_and_delta_still_give_a_report(self, tmp_path, capsys, tiny, steps):
        """eps * delta underflows to 0 at 1e-200 and 8nk / (eps delta)
        overflows at 1e-160; the step count is still finite."""
        edge_file = tmp_path / "g.txt"
        edge_file.write_text("0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n2 3\n")
        out = tmp_path / "rep.json"
        assert main(["cluster", "--input", str(edge_file), "--k", "2", "--mode", "power",
                     "--eps", tiny, "--delta", tiny, "--out", str(out)]) == 0
        assert load_report(out)["power"]["steps"] == steps

    def test_power_mode_builds_one_operator(self, tmp_path, capsys, monkeypatch):
        """The spectrum and the power steps share one LaplacianOps."""
        built = []
        real_init = spectral.LaplacianOps.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(spectral.LaplacianOps, "__init__", spy)
        assert main(["cluster", "--gen", "sbm:sizes=%s,pin=0.12,pout=0.008" % "+".join(["150"] * 8),
                     "--k", "8", "--mode", "power", "--seed", "1",
                     "--out", str(tmp_path / "rep.json")]) == 0
        assert len(built) == 1

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

    def test_power_mode_tie_within_solver_accuracy(self, tmp_path):
        """hub10 has lambda_2 = lambda_3; the computed pair lies 3.5e-16 apart,
        which once asked for 5.4e16 power steps. The run must refuse at once."""
        edge_file = tmp_path / "hub10.txt"
        edge_file.write_text("".join("%d %d\n" % (u, v)
                                     for u, v in triangles_with_center().edges.tolist()))
        out = subprocess.run([sys.executable, "-m", "spectralpart.cli", "cluster",
                              "--input", str(edge_file), "--k", "2", "--mode", "power"],
                             env=_src_env(), capture_output=True, text=True, timeout=10)
        assert out.returncode == 3
        assert json.loads(out.stdout)["error"]["kind"] == "numeric"

    def test_power_mode_near_tie_is_capacity_error(self, tmp_path, capsys, monkeypatch):
        """A gap of 3e-8 at hub10's lambda_2 asks for 750,591,849 power steps:
        the run exits 3 at once instead of running for hours."""
        edge_file = tmp_path / "hub10.txt"
        g = triangles_with_center()
        edge_file.write_text("".join("%d %d\n" % (u, v) for u, v in g.edges.tolist()))
        true = spectral.spectrum(g, 2)
        lam2 = 0.12084713039410418
        near_tie = dataclasses.replace(true, values=np.array([true.values[0], lam2, lam2 + 3e-8]))
        monkeypatch.setattr(spectral, "spectrum", lambda graph, k: near_tie)
        code = main(["cluster", "--input", str(edge_file), "--k", "2", "--mode", "power"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "capacity" and "750591849 steps" in err["message"]

    def test_sbm_repair_that_never_ends_is_numeric_error(self, capsys):
        """p_in = 1e-12 with p_out = 0 leaves the isolated vertices of a
        5 + 5 SBM unrepaired; the repair loop gives up after 10,000 rounds."""
        code = main(["cluster", "--gen", "sbm:sizes=5+5,pin=1e-12,pout=0", "--k", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "numeric", "message": "isolated-vertex repair did not terminate"}

    def test_no_spectral_gap_power_mode(self, tmp_path, capsys):
        # complete graph: lambda_k == lambda_{k+1}, power mode must refuse
        edge_file = tmp_path / "k8.txt"
        edge_file.write_text("".join("%d %d\n" % (u, v)
                                     for u in range(8) for v in range(u + 1, 8)))
        code = main(["cluster", "--input", str(edge_file),
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

    @pytest.mark.parametrize("exists", [False, True])
    def test_partition_with_gen_is_refused(self, tmp_path, capsys, monkeypatch, exists):
        part = tmp_path / "ring.part"
        if exists:
            part.write_text("".join("%d %d\n" % (v, v // 5) for v in range(15)))
        monkeypatch.setattr(spectral, "spectrum", lambda *a, **kw: pytest.fail("solved"))
        code = main(["diagnose", "--gen", "ring:k=3,size=5,b=1", "--k", "3",
                     "--partition", str(part)])
        assert code == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "input" and "--partition" in err["message"]

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

    def test_failed_applicable_check_exits_one(self, tmp_path, capsys, monkeypatch):
        real = diagnostics.run_theorem_checks
        failing = diagnostics._record("forced_failure", 2.0, 1.0, True)
        monkeypatch.setattr(diagnostics, "run_theorem_checks",
                            lambda *a: (*real(*a)[:2], [failing]))
        out = tmp_path / "rep.json"
        assert main(["diagnose", "--gen", "ring:k=3,size=8,b=1", "--k", "3",
                     "--out", str(out)]) == 1
        assert load_report(out)["checks"] == [dataclasses.asdict(failing)]

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

    def test_degenerate_graph_with_many_optimal_tuples(self, tmp_path, capsys):
        # Four 2-cliques and two hubs joined to one vertex of each: 179,487
        # optimal 5-tuples, none of them listed, since rho = rho_hat.
        edges = [(0, 1), (2, 3), (4, 5), (6, 7)] + [(v, h) for h in (8, 9)
                                                    for v in (0, 2, 4, 6)]
        edge_file = tmp_path / "hubs.txt"
        edge_file.write_text("".join("%d %d\n" % e for e in edges))
        out = tmp_path / "rep.json"
        assert main(["verify", "--input", str(edge_file), "--k", "5",
                     "--out", str(out)]) == 0
        rep = load_report(out)
        assert rep["interconnection"] == {"degenerate": True}
        assert rep["constants"]["rho"] == rep["constants"]["rho_hat"] == 1.0
        assert rep["constants"]["rho_avr"] == 0.6

    def test_interconnection_work_cap_is_capacity_error(self, tmp_path, capsys,
                                                        monkeypatch):
        # hub10's one optimal tuple leaves the hub free: 3 completions.
        monkeypatch.setattr(diagnostics, "INTERCONNECT_MAX_WORK", 2)
        edge_file = tmp_path / "hub10.txt"
        write_edge_list(triangles_with_center(), str(edge_file))
        assert main(["verify", "--input", str(edge_file), "--k", "3"]) == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "capacity"
        assert "at least 3 assignments" in err["message"]

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
        assert rep["interconnection"] == {"degenerate": True}

    def test_thirteen_vertex_hub_interconnection(self, tmp_path, capsys):
        edge_file = tmp_path / "hub13.txt"
        edge_file.write_text("".join("%d %d\n" % tuple(e)
                                     for e in triangles_with_hub13().edges.tolist()))
        out = tmp_path / "rep.json"
        assert main(["verify", "--input", str(edge_file), "--k", "4",
                     "--out", str(out)]) == 0
        rep = load_report(out)
        inter = rep["interconnection"]
        assert inter["degenerate"] is False
        assert (rep["constants"]["rho"], rep["constants"]["rho_hat"]) == (1 / 7, 3 / 11)
        assert (inter["rho_p"], inter["kappa"]) == (2 / 3, 3.0)
        assert inter["witness_partition"] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0]

    def test_hub13_builds_each_table_once(self, tmp_path, capsys, monkeypatch):
        """One verify of hub13 at k = 4 builds the subset tables once and the
        worst-block DP (the np.maximum layers) once."""
        calls = []
        subset_tables, layers = diagnostics._subset_tables, diagnostics._partition_layers

        def counted_tables(g):
            calls.append("tables")
            return subset_tables(g)

        def counted_layers(splits, block, k, empty, combine):
            calls.append(combine.__name__)
            return layers(splits, block, k, empty, combine)

        monkeypatch.setattr(diagnostics, "_subset_tables", counted_tables)
        monkeypatch.setattr(diagnostics, "_partition_layers", counted_layers)
        edge_file = tmp_path / "hub13.txt"
        write_edge_list(triangles_with_hub13(), str(edge_file))
        out = tmp_path / "rep.json"
        assert main(["verify", "--input", str(edge_file), "--k", "4", "--out", str(out)]) == 0
        assert load_report(out)["interconnection"]["degenerate"] is False
        assert sorted(calls) == ["add", "maximum", "tables"]

    def test_capacity_error(self, tmp_path, capsys):
        edge_file = tmp_path / "big.txt"
        edge_file.write_text("".join("%d %d\n" % (i, i + 1) for i in range(19)))
        code = main(["verify", "--input", str(edge_file), "--k", "2"])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "capacity"

    def test_memory_error_is_capacity_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError()
        monkeypatch.setattr(cli.G, "gen_sbm", exhausted)
        code = main(["generate", "--gen", "sbm:sizes=5+5,pin=0.5,pout=0.1", "--k", "2",
                     "--out", str(tmp_path / "g.txt")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "capacity", "message": "out of memory"}


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
        timing_keys = {"cluster": ["load", "embedding", "kmeans", "gap"],
                       "diagnose": ["load", "checks"],
                       "verify": ["constants", "interconnection", "kmeans"]}
        assert list(rep["timings"]) == timing_keys[argv[0]]
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
        assert "timings" not in rep and "checks" not in rep

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


@pytest.mark.parametrize("command", ["cluster", "diagnose", "generate", "verify"])
def test_unwritable_out_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "missing" / "r.json"
    assert main([command, "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--out", str(bad)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "input"
    assert err["message"].startswith(str(bad) + ": cannot write: ")
    assert "No such file" in err["message"]


@pytest.mark.parametrize("argv, message", [
    *(pytest.param([command, "--gen", "ring:k=3,size=3,b=1", "--k", "3",
                    "--out", "{tmp}/missing/r.json"], ": cannot write: ", id=command)
      for command in ("cluster", "diagnose", "verify")),
    *(pytest.param([command, "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--restarts", "0"],
                   "--restarts must be at least 1", id=command + "-restarts")
      for command in ("cluster", "verify")),
    pytest.param(["cluster", "--input", "{tmp}/g.txt", "--k", "3"],
                 "cluster needs k < n (got k=3, n=3)", id="cluster-k-equals-n"),
    pytest.param(["cluster", "--input", "{tmp}/g.txt", "--k", "4", "--mode", "power"],
                 "cluster needs k < n (got k=4, n=3)", id="power-k-above-n"),
    pytest.param(["diagnose", "--input", "{tmp}/g.txt", "--partition", "{tmp}/p.txt",
                  "--k", "3"], "diagnose needs k < n (got k=3, n=3)", id="diagnose-k-equals-n"),
])
def test_unwritable_out_fails_before_the_spectrum(tmp_path, capsys, monkeypatch, argv, message):
    """An unwritable --out, or a --k that the graph's size rules out, is an
    input error found before the spectrum runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum called before the input was checked")

    monkeypatch.setattr(spectral, "spectrum", refuse)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n0 2\n")
    (tmp_path / "p.txt").write_text("0 0\n1 1\n2 2\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "input" and message in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--mode", "power",
      "--eps", "1.5"], "--eps and --delta must lie in (0, 1)"),
    (["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--delta", "0"],
     "--eps and --delta must lie in (0, 1)"),
    (["generate", "--gen", "ring:k=3,size=3,b=1", "--k", "3"], "generate requires --out"),
    (["generate", "--input", "{tmp}/g.txt", "--k", "3", "--out", "{tmp}/out.txt"],
     "generate requires --gen"),
    pytest.param(["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--out", "/dev/full"],
                 "/dev/full: cannot write: ",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="needs /dev/full")),
    (["diagnose", "--input", "{tmp}/g.txt", "--k", "3"],
     "diagnose needs a reference partition (--gen or --partition)"),
    pytest.param(["cluster", "--gen", "sbm:sizes=1+5,pin=0.5,pout=0", "--k", "2"],
                 "cannot repair isolated vertex 0 with p_out = 0", id="sbm-unrepairable"),
    *(pytest.param([command, "--input", "{tmp}/g.txt", "--k", "2", "--restarts", "0"],
                   "--restarts must be at least 1", id=command + "-restarts")
      for command in ("cluster", "verify")),
])
def test_input_errors(tmp_path, capsys, monkeypatch, argv, message):
    """Errors the flags decide are found before any file is read."""
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read after the flags had decided the error")

    monkeypatch.setattr(graph, "read_edge_list", refuse)
    monkeypatch.setattr(graph, "read_partition", refuse)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n0 2\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "input" and message in err["message"]
    assert [path.name for path in tmp_path.iterdir()] == ["g.txt"]


def test_failed_run_leaves_out_as_it_was(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("an older, longer report\n")
    for out in (new, old):
        assert main(["cluster", "--input", str(tmp_path / "absent.txt"), "--k", "3",
                     "--out", str(out)]) == 2
    assert not new.exists()
    assert old.read_text() == "an older, longer report\n"


@pytest.mark.parametrize("command", ["cluster", "diagnose", "verify"])
def test_out_may_be_a_device(capsys, command):
    """/dev/null cannot be truncated; the report still goes out with exit 0."""
    assert main([command, "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_may_be_a_fifo(tmp_path, capsys):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
    reader.start()
    try:
        code = main(["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "3", "--out", str(fifo)])
    finally:
        reader.join(timeout=60)
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(received[0])["graph"] == {"n": 9, "m": 12}


def test_out_may_name_the_input(tmp_path, capsys):
    """The report path is opened up front but not truncated before the input is read."""
    path = tmp_path / "g.txt"
    path.write_text("".join("%d %d\n" % (u, v) for u, v in ring_of_cliques([4] * 3).edges.tolist()))
    assert main(["cluster", "--input", str(path), "--k", "3", "--out", str(path)]) == 0
    assert load_report(path)["graph"] == {"n": 12, "m": 21}


@pytest.mark.parametrize("command", ["cluster", "diagnose"])
def test_gap_needs_no_bruteforce_scan(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("brute-force scan called")

    monkeypatch.setattr(diagnostics, "bruteforce_partition_constants", refuse)
    assert main([command, "--gen", "ring:k=4,size=3,b=1", "--k", "4",
                 "--out", str(tmp_path / "rep.json")]) == 0


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_thread_cap_applied_on_package_import():
    env = {k: v for k, v in _src_env().items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SPECTRAL_PART_THREADS"] = "3"
    code = ("import sys, os; assert 'numpy' not in sys.modules; import spectralpart; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "3"


def _scipy_loaded_after(commands):
    """Run each CLI argv in turn in one fresh interpreter; after each, list
    the loaded scipy modules (cumulative, so the first offender shows)."""
    code = ("import json, sys; import spectralpart, spectralpart.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert spectralpart.cli.main(argv) == 0, argv\n"
            "    print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=_src_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    return [line != "[]" for line in out.stdout.splitlines()]


def test_package_import_loads_no_scipy(tmp_path):
    """Import alone; verify, both cluster modes and diagnose on a graph file
    of at most 14 vertices; both cluster modes and diagnose on a
    bench-shaped SBM of 1200 vertices; and cluster --gen (which matches the
    planted partition) all stay on numpy. A graph whose first
    block Krylov basis alone costs more than NUMPY_MAX_WORK loads scipy for
    the spectrum (verify rejects such graphs before any solve)."""
    small, sbm, large = (tmp_path / name for name in ("hub10.txt", "sbm.txt", "large.txt"))
    small.write_text("".join("%d %d\n" % (u, v) for u, v in triangles_with_center().edges.tolist()))
    part = tmp_path / "hub10.part"
    part.write_text("".join("%d %d\n" % vb for vb in enumerate([0, 0, 0, 1, 1, 1, 2, 2, 2, 0])))
    g, planted = gen_sbm([150] * 8, 0.12, 0.008, seed=1)
    write_edge_list(g, sbm)
    write_partition(planted, tmp_path / "sbm.part")
    basis_work_per_vertex = spectral._SWEEP_WEIGHT * spectral._KRYLOV_BASIS ** 2
    size = spectral.NUMPY_MAX_WORK // (4 * basis_work_per_vertex) + 1
    write_edge_list(gen_sbm([size] * 4, 24.0 / size, 1.0 / size, seed=4)[0], large)
    out = ["--out", str(tmp_path / "rep.json")]

    def commands(path, k):
        return [["verify", "--input", str(path), "--k", str(k)] + out,
                ["cluster", "--input", str(path), "--k", str(k), "--mode", "exact"] + out,
                ["cluster", "--input", str(path), "--k", str(k), "--mode", "power"] + out]

    def diagnose(path, part, k):
        return ["diagnose", "--input", str(path), "--partition", str(part), "--k", str(k)] + out

    generated = ["cluster", "--gen", "ring:k=3,size=3,b=1", "--k", "3"] + out
    assert _scipy_loaded_after(commands(small, 3) + [diagnose(small, part, 3)]
                               + commands(sbm, 8)[1:]
                               + [diagnose(sbm, tmp_path / "sbm.part", 8)]
                               + [generated]) == [False] * 9
    for control in commands(large, 4)[1:]:
        assert _scipy_loaded_after([control]) == [False, True]


def test_all_names_resolve():
    import spectralpart
    assert [n for n in spectralpart.__all__ if not hasattr(spectralpart, n)] == []


def test_reports_identical_across_thread_counts(tmp_path):
    """Both cluster modes and diagnose on a bench-shaped 8 x 150 SBM give the
    same report under one and two BLAS threads, apart from timings and the
    --out path: the k-means GEMM and the spectrum do not depend on the
    thread count."""
    g, planted = gen_sbm([150] * 8, 0.12, 0.008, seed=2)
    write_edge_list(g, tmp_path / "sbm.txt")
    write_partition(planted, tmp_path / "sbm.part")
    graph = ["--input", str(tmp_path / "sbm.txt"), "--k", "8", "--seed", "3"]
    commands = [["cluster", "--mode", "exact"] + graph, ["cluster", "--mode", "power"] + graph,
                ["diagnose", "--partition", str(tmp_path / "sbm.part")] + graph]
    code = ("import json, sys; import spectralpart.cli\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    out = '%s.%d.json' % (sys.argv[2], i)\n"
            "    assert spectralpart.cli.main(argv + ['--out', out]) == 0, argv\n")
    reports = {}
    for threads in ("1", "2"):
        env = {k: v for k, v in _src_env().items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["SPECTRAL_PART_THREADS"] = threads
        stem = str(tmp_path / ("t" + threads))
        subprocess.run([sys.executable, "-c", code, json.dumps(commands), stem], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
        reports[threads] = []
        for i in range(len(commands)):
            rep = strip_timings(load_report("%s.%d.json" % (stem, i)))
            del rep["config"]["out"]
            reports[threads].append(rep)
    assert reports["1"] == reports["2"]
