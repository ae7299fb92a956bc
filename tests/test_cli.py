"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--catalog", "dblp", "--papers", "20",
                     "--authors", "10"]) == 0
        out = capsys.readouterr().out
        assert "<paper" in out and "<author" in out

    def test_generate_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "data.xml"
        assert main(["generate", "--catalog", "tpch", "--persons", "5",
                     "--out", str(out_path)]) == 0
        assert "<person" in out_path.read_text()


class TestSearch:
    def test_demo_search(self, capsys):
        code = main(["search", "smith", "--catalog", "dblp", "--demo", "-k", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "score=" in out

    def test_search_from_generated_file(self, tmp_path, capsys):
        out_path = tmp_path / "data.xml"
        main(["generate", "--catalog", "dblp", "--papers", "40",
              "--authors", "15", "--out", str(out_path)])
        capsys.readouterr()
        code = main(["search", "smith", "--catalog", "dblp",
                     "--xml", str(out_path), "-k", "2"])
        out = capsys.readouterr().out
        assert "candidate network" in out
        assert code in (0, 1)  # 1 when the sampled name is absent

    def test_no_results_exit_code(self, capsys):
        code = main(["search", "zzzzunlikely", "--catalog", "dblp", "--demo"])
        assert code == 1

    def test_search_all_flag(self, capsys):
        code = main(["search", "smith", "--catalog", "dblp", "--demo",
                     "--all", "-z", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result(s)" in out

    def test_decomposition_choice(self, capsys):
        code = main(["search", "smith", "--catalog", "dblp", "--demo",
                     "--decomposition", "combined", "-z", "4", "-k", "2"])
        assert code == 0


class TestExplain:
    def test_search_explain_marks_pruned_classes_unplanned(self, capsys):
        code = main(["search", "smith balmin", "--catalog", "dblp", "--demo",
                     "-k", "2", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines() + [""]
        pruned = [i for i, line in enumerate(lines) if "pruned=True" in line]
        assert pruned
        for i in pruned:  # the reason, then the next CN: never a plan child
            assert "pruned at bound 4, not planned" in lines[i + 1]
            assert "- plan (" not in lines[i + 2]

    def test_explain_prints_plans(self, capsys):
        code = main(["explain", "smith", "--catalog", "dblp", "--demo",
                     "-z", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "candidate TSS networks" in out
        assert "target objects via" in out

    def test_explain_two_keywords(self, capsys):
        code = main(["explain", "smith balmin", "--catalog", "dblp",
                     "--demo", "-z", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "step 0" in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_search_requires_source(self):
        with pytest.raises(SystemExit):
            main(["search", "smith"])

    @pytest.mark.parametrize("command", ["search"])
    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_is_a_usage_error(self, command, k, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--demo", "smith balmin", "-k", k])
        assert excinfo.value.code == 2
        assert "argument -k" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["explain"], ["navigate", "--script", "quit"]],
        ids=["explain", "navigate"],
    )
    @pytest.mark.parametrize(
        "flag",
        [["-k", "5"], ["--all"], ["--backend", "python"], ["--strategy", "serial"]],
        ids=["k", "all", "backend", "strategy"],
    )
    def test_flags_explain_and_navigate_never_read_are_usage_errors(
        self, command, flag, capsys
    ):
        """Only ``search`` executes, so only ``search`` takes the
        execution flags; elsewhere they would parse and be ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--demo", "smith balmin", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_python_hash_backend_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--demo", "smith", "--backend", "python-hash"])
        assert excinfo.value.code == 2
        assert "python-hash" in capsys.readouterr().err


class TestNavigate:
    def test_scripted_navigation(self, capsys):
        code = main([
            "navigate", "smith balmin", "--catalog", "dblp", "--demo",
            "-z", "6", "--script", "expand 1; metrics; contract 1 p42; quit",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "candidate network:" in out
        assert "+"  in out  # expansion added nodes
        assert "queries_sent" in out

    def test_dot_command(self, capsys):
        code = main([
            "navigate", "smith balmin", "--catalog", "dblp", "--demo",
            "-z", "6", "--script", "dot; quit",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "digraph presentation" in out

    def test_unknown_command_help(self, capsys):
        code = main([
            "navigate", "smith balmin", "--catalog", "dblp", "--demo",
            "-z", "6", "--script", "frobnicate; quit",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "commands:" in out

    def test_no_results(self, capsys):
        code = main([
            "navigate", "zzzabsent", "--catalog", "dblp", "--demo",
            "--script", "quit",
        ])
        assert code == 1

    def test_explicit_cn_index(self, capsys):
        code = main([
            "navigate", "smith balmin", "--catalog", "dblp", "--demo",
            "-z", "6", "--cn", "0", "--script", "quit",
        ])
        # CN 0 is the both-names-in-one-author network: typically empty.
        assert code in (0, 1)
