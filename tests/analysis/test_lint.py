"""The level-1 lint: seeded fixtures per rule, silent on the clean tree."""

import re
from pathlib import Path

import pytest

from repro.analysis import RULES, all_checkers, run_analysis
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.layering import ALLOWED_IMPORTS, LayeringChecker
from repro.analysis.source import parse_module

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parent.parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

SEEDED = {
    "RA001": 1,
    "RA002": 1,
    "RA101": 5,
    "RA104": 1,
    "RA105": 1,
    "RA107": 5,
    "RA201": 3,
    "RA202": 2,
    "RA203": 2,
    "RA204": 2,
}


class TestSeededFixtures:
    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_rule_catches_its_seeded_bug(self, rule):
        findings = run_analysis(FIXTURES / rule.lower() / "repro")
        matching = [f for f in findings if f.rule == rule]
        assert len(matching) == SEEDED[rule], [f.render() for f in findings]

    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_no_cross_talk(self, rule):
        """A fixture seeds only its own rule (plus none from others)."""
        findings = run_analysis(FIXTURES / rule.lower() / "repro")
        assert {f.rule for f in findings} == {rule}, [f.render() for f in findings]

    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_cli_exits_nonzero_on_fixture(self, rule, capsys):
        assert analysis_main([str(FIXTURES / rule.lower() / "repro")]) == 1
        out = capsys.readouterr().out
        assert rule in out

    @pytest.mark.parametrize("rule", ["RA101", "RA105", "RA107"])
    def test_rule_missed_when_checker_disabled(self, rule):
        """Dropping the lockgraph checker silences exactly these rules."""
        without = [c for c in all_checkers() if c.name != "lockgraph"]
        findings = run_analysis(FIXTURES / rule.lower() / "repro", without)
        assert findings == [], [f.render() for f in findings]


class TestCleanTree:
    def test_src_tree_is_clean(self):
        findings = run_analysis(SRC_ROOT)
        assert findings == [], [f.render() for f in findings]

    def test_cli_exits_zero_on_src_tree(self):
        assert analysis_main([str(SRC_ROOT)]) == 0

    def test_cli_default_root_is_the_package(self):
        assert analysis_main([]) == 0


class TestCliOptions:
    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_single_checker_selection(self):
        assert run_analysis(FIXTURES / "ra201" / "repro", [LayeringChecker()]) == []

    def test_missing_root_rejected(self):
        assert analysis_main([str(FIXTURES / "does-not-exist")]) == 2


class TestSuppressions:
    def test_ignore_specific_rule(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "noisy.py").write_text(
            "def f(x=[]):  # analysis: ignore[RA201]\n    return x\n"
        )
        assert run_analysis(tmp_path / "repro") == []

    def test_ignore_all_rules(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "noisy.py").write_text(
            "import repro.service  # analysis: ignore\n"
        )
        assert run_analysis(tmp_path / "repro") == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "noisy.py").write_text(
            "def f(x=[]):  # analysis: ignore[RA999]\n    return x\n"
        )
        findings = run_analysis(tmp_path / "repro")
        assert [f.rule for f in findings] == ["RA201"]


class TestOrDefault:
    """RA204 resolves the defaulted class across modules of the package."""

    def test_class_defined_in_another_module(self, tmp_path):
        core = tmp_path / "repro" / "core"
        storage = tmp_path / "repro" / "storage"
        core.mkdir(parents=True)
        storage.mkdir(parents=True)
        (storage / "cache.py").write_text(
            "class Cache:\n    def __len__(self):\n        return 0\n"
        )
        (core / "engine.py").write_text(
            "from ..storage.cache import Cache\n\n"
            "def build(cache=None, config=None):\n"
            "    return cache or Cache(), config or dict()\n"
        )
        findings = run_analysis(tmp_path / "repro")
        assert [(f.rule, Path(f.path).name, f.line) for f in findings] == [
            ("RA204", "engine.py", 4)
        ]


class TestLayeringResolution:
    def test_relative_import_back_edge_detected(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "mod.py").write_text("from ..service import server\n")
        findings = run_analysis(tmp_path / "repro")
        assert [f.rule for f in findings] == ["RA001"]

    def test_intra_package_relative_import_allowed(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "mod.py").write_text("from .sibling import helper\n")
        assert run_analysis(tmp_path / "repro") == []

    def test_function_scoped_import_counts(self, tmp_path):
        root = tmp_path / "repro" / "storage"
        root.mkdir(parents=True)
        (root / "mod.py").write_text(
            "def late():\n    from repro.core import engine\n    return engine\n"
        )
        findings = run_analysis(tmp_path / "repro")
        assert [f.rule for f in findings] == ["RA001"]

    def test_dag_has_no_cycles(self):
        """The allow-list itself must be a DAG (sanity of the policy)."""
        state: dict[str, int] = {}

        def visit(package: str) -> None:
            state[package] = 1
            for dep in ALLOWED_IMPORTS.get(package, ()):
                assert state.get(dep) != 1, f"cycle through {package} -> {dep}"
                if dep not in state:
                    visit(dep)
            state[package] = 2

        for package in ALLOWED_IMPORTS:
            if package not in state:
                visit(package)

    def test_dotted_names(self, tmp_path):
        root = tmp_path / "repro" / "core"
        root.mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "engine.py").write_text("")
        module = parse_module(root / "engine.py", tmp_path / "repro")
        assert module.name == "repro.core.engine"
        assert module.package == "core"
        package = parse_module(root / "__init__.py", tmp_path / "repro")
        assert package.name == "repro.core"
        assert package.package == "core"


class TestCheckerProtocol:
    def test_every_checker_declares_rules(self):
        declared = set()
        for checker in all_checkers():
            assert checker.name
            assert checker.rules
            declared.update(checker.rules)
        assert declared == {rule for rule in RULES if rule.startswith("RA")}

    def test_rv_rules_documented(self):
        assert {rule for rule in RULES if rule.startswith("RV")} == {
            f"RV{n}" for n in range(301, 312)
        }

    def test_rs_rules_documented(self):
        """Sanitizer rules share the catalogue even though no static
        checker declares them (they are emitted at runtime)."""
        assert {rule for rule in RULES if rule.startswith("RS")} == {"RS401", "RS402"}

    def test_docs_name_only_live_rules(self):
        """A doc that names a deleted rule id is stale (CHANGES.md and
        ROADMAP.md are history and may)."""
        docs = ["README.md", "DESIGN.md", "docs/ARCHITECTURE.md", "docs/OPERATIONS.md"]
        stale = {
            (doc, rule)
            for doc in docs
            for rule in re.findall(r"\bR[ASV]\d{3}\b", (REPO_ROOT / doc).read_text())
            if rule not in RULES
        }
        assert not stale, sorted(stale)

    def test_one_fixture_per_rule(self):
        fixtures = {
            path.name
            for path in FIXTURES.iterdir()
            if path.is_dir() and path.name != "__pycache__"
        }
        assert fixtures == {rule.lower() for rule in RULES if rule[:2] in ("RA", "RS")}
