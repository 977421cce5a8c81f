"""Tests for :mod:`repro.analysis` — the project static-analysis framework.

Each rule family gets a known-bad and a known-good fixture package
written to ``tmp_path`` and analyzed through the public
:func:`repro.analysis.analyze_tree` entry point, so the tests exercise
the loader, the call graph and the rules exactly as the CLI does.  The
final class is the self-check: the live ``repro`` tree must produce no
findings beyond the committed ``analysis_baseline.json``.
"""

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import AnalysisConfig, Baseline, analyze_tree
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.baseline import diff_violations
from repro.analysis.rules import Violation, available_rules


def write_fixture(tmp_path, files, name="fix"):
    """Materialize *files* (relpath -> source) as package *name*."""
    root = tmp_path / name
    root.mkdir(exist_ok=True)
    (root / "__init__.py").touch()
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.parent != root:
            init = path.parent / "__init__.py"
            if not init.exists():
                init.touch()
        path.write_text(dedent(text), encoding="utf-8")
    return root


def findings(root, rules=None, config=None):
    _, violations = analyze_tree(root, config=config, rules=rules)
    return violations


def rule_ids(violations):
    return sorted({v.rule for v in violations})


# -- registry and loader ------------------------------------------------------

class TestRegistry:
    def test_all_families_registered(self):
        assert available_rules() == (
            "config-knobs", "exhaustiveness", "hygiene", "lock-discipline",
            "planner", "purity", "typing")

    def test_unknown_rule_family_is_an_interface_error(self, tmp_path):
        from repro.errors import InterfaceError
        root = write_fixture(tmp_path, {"mod.py": "X = 1\n"})
        with pytest.raises(InterfaceError):
            analyze_tree(root, rules=["no-such-family"])

    def test_loader_maps_modules_and_functions(self, tmp_path):
        root = write_fixture(tmp_path, {
            "engine/core.py": """
                def outer() -> None:
                    def inner():
                        pass
            """,
        })
        project, _ = analyze_tree(root)
        assert "fix.engine.core" in project.modules
        assert "fix.engine.core.outer" in project.functions
        # nested closures are tracked with their definer as parent
        inner = project.functions["fix.engine.core.outer.inner"]
        assert inner.parent == "fix.engine.core.outer"


# -- pragma suppression -------------------------------------------------------

class TestPragmas:
    def _bare_except(self, pragma_lines):
        return dedent("""
            def teardown() -> None:
                try:
                    pass
                {}except:
                    pass
        """).format(pragma_lines)

    def test_inline_pragma_suppresses(self, tmp_path):
        root = write_fixture(tmp_path, {"mod.py": """
            def teardown() -> None:
                try:
                    pass
                except:  # repro: allow(hygiene-bare-except)
                    pass
        """})
        assert findings(root, rules=["hygiene"]) == []

    def test_comment_block_above_def_suppresses(self, tmp_path):
        root = write_fixture(tmp_path, {"mod.py": """
            # The teardown path intentionally drops everything; see
            # docs/invariants.md for the triage note.
            # repro: allow(hygiene-bare-except)
            def teardown() -> None:
                try:
                    pass
                except:
                    pass
        """})
        assert findings(root, rules=["hygiene"]) == []

    def test_family_pragma_covers_specific_ids(self, tmp_path):
        root = write_fixture(tmp_path, {"mod.py": """
            # repro: allow(hygiene)
            def teardown() -> None:
                try:
                    pass
                except:
                    pass
        """})
        assert findings(root, rules=["hygiene"]) == []

    def test_unrelated_pragma_does_not_suppress(self, tmp_path):
        root = write_fixture(tmp_path, {"mod.py": """
            # repro: allow(lock-discipline)
            def teardown() -> None:
                try:
                    pass
                except:
                    pass
        """})
        assert rule_ids(findings(root, rules=["hygiene"])) == \
            ["hygiene-bare-except"]


# -- lock discipline ----------------------------------------------------------

_CATALOG = """
    class Catalog:
        def __init__(self) -> None:
            self.version = 0

        def bump(self) -> None:
            self.version = self.version + 1
"""


class TestLockDiscipline:
    def test_unprotected_shared_mutation_is_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {
            "catalog.py": _CATALOG,
            "api.py": """
                def rename(engine) -> None:
                    engine.catalog.bump()
            """,
        })
        out = findings(root, rules=["lock-discipline"])
        assert rule_ids(out) == ["lock-discipline"]
        assert any("fix.api.rename" == v.symbol for v in out)

    def test_write_locked_mutation_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {
            "catalog.py": _CATALOG,
            "api.py": """
                def rename(engine) -> None:
                    with engine.lock:
                        engine.catalog.bump()
            """,
        })
        assert findings(root, rules=["lock-discipline"]) == []

    def test_caller_side_lock_protects_helper(self, tmp_path):
        # the mutating helper is only reachable through the locked
        # entry point, so the reachability engine must clear it
        root = write_fixture(tmp_path, {
            "catalog.py": _CATALOG,
            "api.py": """
                def entry(engine) -> None:
                    with engine.lock:
                        _mutate(engine)

                def _mutate(engine) -> None:
                    engine.catalog.bump()
            """,
        })
        assert findings(root, rules=["lock-discipline"]) == []

    def test_fork_side_lock_is_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"worker.py": """
            import threading

            _lock = threading.Lock()

            def _worker_main(conn) -> None:
                _helper()

            def _helper() -> None:
                with _lock:
                    pass
        """})
        out = findings(root, rules=["lock-discipline"])
        assert rule_ids(out) == ["lock-fork"]
        assert any("fix.worker._helper" == v.symbol for v in out)

    def test_fork_side_fsync_is_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"worker.py": """
            import os

            def _worker_main(conn) -> None:
                os.fsync(3)
        """})
        out = findings(root, rules=["lock-discipline"])
        assert [v.rule for v in out] == ["lock-fork"]
        assert "fsync" in out[0].message

    def test_commit_section_skipping_the_leader_is_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"api.py": """
            def _commit_batch(engine, batch) -> None:
                publish_commit(batch, engine.catalog)

            def bulk_load(engine, txn) -> None:
                publish_commit(txn, engine.catalog)

            def publish_commit(txn, live) -> None:
                pass
        """})
        out = findings(root, rules=["lock-discipline"])
        assert rule_ids(out) == ["lock-sequencer"]
        assert [v.symbol for v in out] == ["fix.api.publish_commit"]

    def test_commit_section_through_the_leader_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"api.py": """
            def commit(engine, txn) -> None:
                _commit_batch(engine, [txn])

            def _commit_batch(engine, batch) -> None:
                validate_commit(batch, engine.catalog)
                publish_commit(batch, engine.catalog)

            def validate_commit(txn, live) -> None:
                pass

            def publish_commit(txn, live) -> None:
                pass
        """})
        assert findings(root, rules=["lock-discipline"]) == []

    def test_live_tree_commit_section_is_leader_only(self):
        import repro
        root = Path(repro.__file__).resolve().parent
        project, out = analyze_tree(root, rules=["lock-discipline"])
        names = {info.name for info in project.functions.values()}
        # the rule has something to check: both halves and the leader
        assert {"validate_commit", "publish_commit",
                "_commit_batch"} <= names
        assert [v for v in out if v.rule == "lock-sequencer"] == []


# -- hygiene ------------------------------------------------------------------

class TestHygiene:
    def test_bare_except_flagged_everywhere(self, tmp_path):
        root = write_fixture(tmp_path, {"anywhere.py": """
            def f() -> None:
                try:
                    pass
                except:
                    pass
        """})
        assert rule_ids(findings(root, rules=["hygiene"])) == \
            ["hygiene-bare-except"]

    def test_broad_except_in_critical_module_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"storage.py": """
            def commit() -> None:
                try:
                    pass
                except Exception:
                    pass
        """})
        assert rule_ids(findings(root, rules=["hygiene"])) == \
            ["hygiene-broad-except"]

    def test_broad_except_that_reraises_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"storage.py": """
            def commit() -> None:
                try:
                    pass
                except Exception:
                    raise
        """})
        assert findings(root, rules=["hygiene"]) == []

    def test_broad_except_outside_critical_modules_is_clean(
            self, tmp_path):
        root = write_fixture(tmp_path, {"sql_parser.py": """
            def parse() -> None:
                try:
                    pass
                except Exception:
                    pass
        """})
        assert findings(root, rules=["hygiene"]) == []

    def test_builtin_raise_in_core_module_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/exec.py": """
            def run() -> None:
                raise ValueError("late")
        """})
        out = findings(root, rules=["hygiene"])
        assert rule_ids(out) == ["hygiene-raise"]
        assert "ValueError" in out[0].message

    def test_library_error_raise_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {
            "errors.py": """
                class ReproError(Exception):
                    pass

                class StoreError(ReproError):
                    pass
            """,
            "engine/exec.py": """
                from ..errors import StoreError

                def run() -> None:
                    raise StoreError("typed")
            """,
        })
        assert findings(root, rules=["hygiene"]) == []

    def test_pickle_outside_restricted_unpickler_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"server/rpc.py": """
            import pickle

            def recv(blob) -> object:
                return pickle.loads(blob)
        """})
        assert rule_ids(findings(root, rules=["hygiene"])) == \
            ["hygiene-pickle"]

    def test_pickle_in_allowed_module_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"storage/codec.py": """
            import pickle

            def decode(blob) -> object:
                return pickle.loads(blob)
        """})
        assert findings(root, rules=["hygiene"]) == []


# -- exhaustiveness -----------------------------------------------------------

class TestExhaustivenessWal:
    def test_missing_replay_branch_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"wal.py": """
            _OP_INSERT = 1
            _OP_DELETE = 2

            def encode_op(op) -> bytes:
                return bytes([_OP_INSERT, _OP_DELETE])

            def apply_op(tag) -> None:
                if tag == _OP_INSERT:
                    pass
        """})
        out = findings(root, rules=["exhaustiveness"])
        assert [v.rule for v in out] == ["exhaustiveness-wal"]
        assert "_OP_DELETE" in out[0].symbol
        assert "decode/replay" in out[0].message

    def test_fully_wired_ops_are_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"wal.py": """
            _OP_INSERT = 1
            _OP_DELETE = 2

            def encode_op(op) -> bytes:
                return bytes([_OP_INSERT, _OP_DELETE])

            def replay_op(tag) -> None:
                if tag in (_OP_INSERT, _OP_DELETE):
                    pass
        """})
        assert findings(root, rules=["exhaustiveness"]) == []


class TestExhaustivenessWire:
    def test_message_without_encode_or_parser_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"protocol.py": """
            from dataclasses import dataclass

            @dataclass
            class Query:
                sql: str

                def encode(self) -> bytes:
                    return self.sql.encode()

            @dataclass
            class Orphan:
                tag: int

            _FRONTEND_PARSERS = {b"Q": Query}
        """})
        out = findings(root, rules=["exhaustiveness"])
        assert all(v.rule == "exhaustiveness-wire" for v in out)
        symbols = {v.symbol for v in out}
        assert symbols == {"fix.protocol.Orphan"}
        messages = " ".join(v.message for v in out)
        assert "no encode()" in messages
        assert "parse path" in messages


class TestExhaustivenessPhysical:
    def test_orphan_operator_flagged_twice(self, tmp_path):
        root = write_fixture(tmp_path, {"physical.py": """
            class PhysicalOperator:
                def label(self):
                    return type(self).__name__

            class Orphan(PhysicalOperator):
                pass
        """})
        out = findings(root, rules=["exhaustiveness"])
        assert [v.rule for v in out] == ["exhaustiveness-physical"] * 2
        messages = " ".join(v.message for v in out)
        assert "never constructed" in messages
        assert "no label()" in messages

    _LOWERED = """
        class PhysicalOperator:
            def label(self):
                return type(self).__name__

        class SeqScan(PhysicalOperator):
            def label(self):
                return "SeqScan"

        def lower() -> SeqScan:
            return SeqScan()
    """

    def test_lowered_labelled_operator_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"physical.py": self._LOWERED})
        assert findings(root, rules=["exhaustiveness"]) == []

    def test_row_operator_missing_from_fallback_registry(self, tmp_path):
        # the registry's presence arms the vector-coverage check
        root = write_fixture(tmp_path, {
            "physical.py": self._LOWERED,
            "vectorized.py": """
                ROW_ONLY_FALLBACK = {"SomethingElse": "reason"}

                def _vectorize(op) -> None:
                    pass
            """,
        })
        out = findings(root, rules=["exhaustiveness"])
        assert [v.rule for v in out] == ["exhaustiveness-physical"]
        assert "ROW_ONLY_FALLBACK" in out[0].message

    def test_registry_listing_satisfies_coverage(self, tmp_path):
        root = write_fixture(tmp_path, {
            "physical.py": self._LOWERED,
            "vectorized.py": """
                ROW_ONLY_FALLBACK = {"SeqScan": "streams rows"}

                def _vectorize(op) -> None:
                    pass
            """,
        })
        assert findings(root, rules=["exhaustiveness"]) == []


# -- purity -------------------------------------------------------------------

class TestPurity:
    def test_kernel_os_call_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"compiler.py": """
            def compile_vector_eq(column):
                def kernel(values):
                    print(values)
                    return values
                return kernel
        """})
        out = findings(root, rules=["purity"])
        assert [v.rule for v in out] == ["purity-kernel"]
        assert "'print'" in out[0].message

    def test_pure_kernel_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"compiler.py": """
            def compile_vector_eq(column):
                def kernel(values):
                    return [v == column for v in values]
                return kernel
        """})
        assert findings(root, rules=["purity"]) == []

    def test_worker_global_write_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"worker.py": """
            _COUNTER = 0

            def _worker_main(conn) -> None:
                global _COUNTER
                _COUNTER = _COUNTER + 1
        """})
        out = findings(root, rules=["purity"])
        assert [v.rule for v in out] == ["purity-worker"]
        assert "_COUNTER" in out[0].message


# -- typing gate --------------------------------------------------------------

class TestTypingGate:
    def test_unannotated_def_in_gated_module_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/exec.py": """
            def run(plan, params):
                return plan
        """})
        out = findings(root, rules=["typing"])
        assert [v.rule for v in out] == ["typing-annotations"]
        assert "plan, params" in out[0].message
        assert "return type" in out[0].message

    def test_annotated_def_is_clean(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/exec.py": """
            def run(plan: object, params: tuple) -> object:
                return plan
        """})
        assert findings(root, rules=["typing"]) == []

    def test_nested_closures_are_exempt(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/exec.py": """
            def run(plan: object) -> object:
                def step(row):
                    return row
                return step
        """})
        assert findings(root, rules=["typing"]) == []

    def test_ungated_modules_are_exempt(self, tmp_path):
        root = write_fixture(tmp_path, {"sql_parser.py": """
            def parse(text):
                return text
        """})
        assert findings(root, rules=["typing"]) == []


# -- planner memo rule --------------------------------------------------------

class TestPlannerNoGlobalMemo:
    def test_memo_decorators_and_global_tables_flagged(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/optimizer.py": """
            import functools
            import weakref
            from functools import lru_cache

            _SEEN = weakref.WeakKeyDictionary()
            _BY_ID: dict = {}

            @functools.cache
            def names(expr: object) -> object:
                return expr

            class Pass:
                @lru_cache(maxsize=None)
                def visit(self, op: object) -> object:
                    return _BY_ID.setdefault(id(op), op)
        """})
        found = findings(root, rules=["planner"])
        assert rule_ids(found) == ["planner-no-global-memo"]
        assert sorted(v.symbol.rpartition(".")[2] for v in found) == [
            "_BY_ID", "_SEEN", "names", "visit"]

    def test_constant_tables_and_local_memos_are_legal(self, tmp_path):
        root = write_fixture(tmp_path, {"engine/lowering.py": """
            _TYPE_FAMILY = {"int": "num", "text": "text"}

            class Lowerer:
                def __init__(self) -> None:
                    self.registry: dict = {}

                def lower(self, op: object) -> object:
                    memo: dict = {}
                    memo[id(op)] = _TYPE_FAMILY["int"]
                    return self.registry.setdefault(id(op), op)
        """})
        assert findings(root, rules=["planner"]) == []

    def test_other_modules_are_not_held_to_it(self, tmp_path):
        root = write_fixture(tmp_path, {"server/backend.py": """
            import functools

            @functools.lru_cache
            def oid(name: str) -> int:
                return len(name)
        """})
        assert findings(root, rules=["planner"]) == []

    def test_live_tree_is_clean(self):
        import repro
        from pathlib import Path
        root = Path(repro.__file__).parent
        assert findings(root, rules=["planner"]) == []


# -- baseline and CLI ---------------------------------------------------------

_BAD_PACKAGE = {"engine/exec.py": """
    def run(plan):
        return plan
"""}


class TestConfigKnobs:
    CONFIG = """
        from dataclasses import dataclass

        @dataclass
        class SessionConfig:
            used: int = 1
            dead: int = 2        # read by nothing
            untested: int = 3    # read, but no test names it
    """
    READER = """
        def run(config) -> int:
            return config.used + config.untested
    """

    def _fixture(self, tmp_path, test_source):
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_knobs.py").write_text(dedent(test_source))
        return write_fixture(tmp_path, {
            "api/config.py": self.CONFIG, "engine/run.py": self.READER})

    def test_unread_and_untested_knobs_flagged(self, tmp_path):
        root = self._fixture(tmp_path, """
            def test_knobs():
                assert make(used=1, dead=2)
        """)
        found = findings(root, rules=["config-knobs"])
        assert [(v.rule, v.symbol.rpartition(".")[2]) for v in found] == [
            ("config-knobs-unread", "dead"),
            ("config-knobs-untested", "untested")]

    def test_naming_a_knob_in_a_test_clears_untested_only(self, tmp_path):
        root = self._fixture(tmp_path, """
            def test_knobs():
                assert make(used=1, untested=3).dead
        """)
        found = findings(root, rules=["config-knobs"])
        assert [v.rule for v in found] == ["config-knobs-unread"]

    def test_without_a_tests_directory_every_knob_is_untested(
            self, tmp_path):
        root = write_fixture(tmp_path, {
            "api/config.py": self.CONFIG, "engine/run.py": self.READER})
        found = findings(root, rules=["config-knobs"])
        assert sum(v.rule == "config-knobs-untested" for v in found) == 3


class TestBaseline:
    def test_fingerprint_excludes_line_numbers(self):
        one = Violation(path="p.py", line=10, rule="r", symbol="s",
                        message="m")
        two = Violation(path="p.py", line=99, rule="r", symbol="s",
                        message="m")
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != Violation(
            path="p.py", line=10, rule="r", symbol="s",
            message="other").fingerprint

    def test_diff_against_written_baseline(self, tmp_path):
        root = write_fixture(tmp_path, _BAD_PACKAGE)
        violations = findings(root, rules=["typing"])
        assert violations
        path = tmp_path / "baseline.json"
        Baseline.write(path, violations, None)
        new, fixed = diff_violations(violations, Baseline.load(path))
        assert new == [] and fixed == []
        # fixing the finding turns the entry into a ratchet candidate
        new, fixed = diff_violations([], Baseline.load(path))
        assert new == [] and len(fixed) == len(violations)

    def test_cli_fails_then_baselines_then_passes(self, tmp_path,
                                                  capsys):
        root = write_fixture(tmp_path, _BAD_PACKAGE)
        baseline = tmp_path / "baseline.json"
        argv = ["--root", str(root), "--baseline", str(baseline)]
        assert analysis_main(argv) == 1
        assert analysis_main(argv + ["--write-baseline"]) == 0
        assert analysis_main(argv) == 0
        capsys.readouterr()
        # a new finding on top of the baseline still fails
        (root / "engine" / "more.py").write_text(
            "def f(x):\n    return x\n", encoding="utf-8")
        assert analysis_main(argv) == 1

    def test_json_report_shape(self, tmp_path, capsys):
        root = write_fixture(tmp_path, _BAD_PACKAGE)
        baseline = tmp_path / "baseline.json"
        code = analysis_main(["--root", str(root), "--baseline",
                              str(baseline), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False
        assert report["by_rule"] == {"typing-annotations": 1}
        assert report["baseline"]["exists"] is False
        assert report["mypy"] == {"ran": False, "errors": None}
        (finding,) = report["violations"]
        assert set(finding) == {"fingerprint", "rule", "path", "line",
                                "symbol", "message"}
        assert finding["symbol"] == "fix.engine.exec.run"


# -- the live tree ------------------------------------------------------------

def _repo_root():
    import repro
    package = Path(repro.__file__).resolve().parent
    if package.parent.name == "src":
        return package.parent.parent
    return package.parent


class TestLiveTree:
    """The committed tree itself is the ultimate fixture."""

    def test_live_tree_matches_committed_baseline(self):
        import repro
        root = Path(repro.__file__).resolve().parent
        baseline_path = _repo_root() / "analysis_baseline.json"
        assert baseline_path.exists(), \
            "analysis_baseline.json must be committed at the repo root"
        _, violations = analyze_tree(root)
        baseline = Baseline.load(baseline_path)
        new, _ = diff_violations(violations, baseline)
        assert new == [], "\n".join(
            ["new static-analysis findings (fix, pragma, or re-triage "
             "with --write-baseline):"] + [v.render() for v in new])

    def test_live_tree_row_fallbacks_are_declared(self):
        # PR-8's operators must be explicitly declared row-only (or be
        # vectorized); this pins the registry contents themselves
        from repro.engine.vectorized import ROW_ONLY_FALLBACK
        assert {"PartitionScan", "Gather", "IndexScan",
                "IndexNestedLoopJoin"} <= set(ROW_ONLY_FALLBACK)
