"""The interprocedural lock graph: edges, cycles, and RA101, RA105, RA107."""

from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lockgraph import LockGraphChecker
from repro.analysis.source import load_modules

SRC_ROOT = Path(__file__).parent.parent.parent / "src" / "repro"


def _write_package(tmp_path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _lint(tmp_path, files):
    root = _write_package(tmp_path, files)
    checker = LockGraphChecker()
    findings = [
        finding
        for finding in run_analysis(root, [checker])
    ]
    return checker, findings


class TestGraphConstruction:
    def test_nested_with_records_an_edge(self, tmp_path):
        checker, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def nest(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                ),
            },
        )
        assert findings == []
        assert ("Box._a", "Box._b") in checker.graph.edge_set()
        assert set(checker.graph.locks) == {"Box._a", "Box._b"}

    def test_edge_through_method_call(self, tmp_path):
        checker, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def outer(self):\n"
                    "        with self._a:\n"
                    "            self._inner()\n"
                    "    def _inner(self):\n"
                    "        with self._b:\n"
                    "            pass\n"
                ),
            },
        )
        assert findings == []
        assert ("Box._a", "Box._b") in checker.graph.edge_set()

    def test_edge_across_classes_via_attribute_type(self, tmp_path):
        checker, findings = _lint(
            tmp_path,
            {
                "core/inner.py": (
                    "import threading\n"
                    "class Inner:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def poke(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                ),
                "core/outer.py": (
                    "import threading\n"
                    "from .inner import Inner\n"
                    "class Outer:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._inner = Inner()\n"
                    "    def run(self):\n"
                    "        with self._lock:\n"
                    "            self._inner.poke()\n"
                ),
            },
        )
        assert findings == []
        assert ("Outer._lock", "Inner._lock") in checker.graph.edge_set()

    def test_render_lists_locks_and_edges(self):
        checker = LockGraphChecker()
        checker.check_project(load_modules(SRC_ROOT))
        rendered = checker.graph.render()
        assert "UpdateManager._rwlock" in rendered
        assert "acquisition order" in rendered


class TestRA105:
    def test_cross_method_inversion(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "    def ab(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                pass\n"
                    "    def ba(self):\n"
                    "        with self._b:\n"
                    "            with self._a:\n"
                    "                pass\n"
                ),
            },
        )
        assert [f.rule for f in findings] == ["RA105"]

    def test_cross_module_inversion(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/first.py": (
                    "import threading\n"
                    "class First:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def alone(self):\n"
                    "        with self._lock:\n"
                    "            pass\n"
                ),
                "service/second.py": (
                    "import threading\n"
                    "from ..core.first import First\n"
                    "class Second:\n"
                    "    def __init__(self, helper: First):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._helper = helper\n"
                    "    def forward(self):\n"
                    "        with self._lock:\n"
                    "            self._helper.alone()\n"
                ),
                "service/third.py": (
                    "import threading\n"
                    "from ..core.first import First\n"
                    "from .second import Second\n"
                    "class Third:\n"
                    "    def __init__(self):\n"
                    "        self._first = First()\n"
                    "        self._second = Second(self._first)\n"
                    "    def backward(self):\n"
                    "        with self._first._lock:\n"
                    "            pass\n"
                ),
            },
        )
        # Second: Second._lock -> First._lock.  No reverse edge exists,
        # so this stays clean; the point is cross-module resolution.
        assert findings == []

    def test_self_reacquire_of_plain_lock_is_a_cycle(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "    def recurse(self):\n"
                    "        with self._lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                ),
            },
        )
        assert [f.rule for f in findings] == ["RA105"]

    def test_rlock_reacquire_is_fine(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.RLock()\n"
                    "    def recurse(self):\n"
                    "        with self._lock:\n"
                    "            with self._lock:\n"
                    "                pass\n"
                ),
            },
        )
        assert findings == []


class TestRA107:
    def test_condition_wait_on_held_lock_is_exempt(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._cond = threading.Condition()\n"
                    "    def block(self):\n"
                    "        with self._cond:\n"
                    "            self._cond.wait()\n"
                ),
            },
        )
        assert findings == []

    def test_event_wait_under_lock_is_flagged(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._event = threading.Event()\n"
                    "    def block(self):\n"
                    "        with self._lock:\n"
                    "            self._event.wait()\n"
                ),
            },
        )
        assert [f.rule for f in findings] == ["RA107"]

    def test_pool_result_under_lock_is_flagged(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self, pool):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.pool = pool\n"
                    "    def run(self, job):\n"
                    "        with self._lock:\n"
                    "            return self.pool.submit(job).result()\n"
                ),
            },
        )
        assert [f.rule for f in findings] == ["RA107"]

    def test_blocking_ok_on_comment_block_above(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self, connection):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.connection = connection\n"
                    "    def persist(self):\n"
                    "        with self._lock:\n"
                    "            # analysis: blocking-ok[durable by design]\n"
                    "            self.connection.commit()\n"
                ),
            },
        )
        assert findings == []


class TestRA101:
    def test_entry_lock_intersection_over_callers(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "updates/rwlock.py": (
                    "class ReadWriteLock:\n"
                    "    def read(self):\n"
                    "        raise NotImplementedError\n"
                    "    def write(self):\n"
                    "        raise NotImplementedError\n"
                ),
                "updates/mod.py": (
                    "from .rwlock import ReadWriteLock\n"
                    "class Catalog:\n"
                    "    def __init__(self):\n"
                    "        self._rwlock = ReadWriteLock()\n"
                    "        self._data = {}  # guarded by: self._rwlock [rw]\n"
                    "    def safe(self):\n"
                    "        with self._rwlock.read():\n"
                    "            return self._peek()\n"
                    "    def unsafe(self):\n"
                    "        return self._peek()\n"
                    "    def _peek(self):\n"
                    "        return self._data\n"
                ),
            },
        )
        # One caller of _peek holds no lock, so the intersection is
        # empty and the access inside _peek is flagged.
        assert [f.rule for f in findings] == ["RA101"]

    def test_all_callers_locked_is_clean(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "updates/rwlock.py": (
                    "class ReadWriteLock:\n"
                    "    def read(self):\n"
                    "        raise NotImplementedError\n"
                    "    def write(self):\n"
                    "        raise NotImplementedError\n"
                ),
                "updates/mod.py": (
                    "from .rwlock import ReadWriteLock\n"
                    "class Catalog:\n"
                    "    def __init__(self):\n"
                    "        self._rwlock = ReadWriteLock()\n"
                    "        self._data = {}  # guarded by: self._rwlock [rw]\n"
                    "    def safe(self):\n"
                    "        with self._rwlock.read():\n"
                    "            return self._peek()\n"
                    "    def also_safe(self):\n"
                    "        with self._rwlock.write():\n"
                    "            return self._peek()\n"
                    "    def _peek(self):\n"
                    "        return self._data\n"
                ),
            },
        )
        assert findings == []

    def test_closure_checked_against_locks_where_written(self, tmp_path):
        _, findings = _lint(
            tmp_path,
            {
                "core/mod.py": (
                    "import threading\n"
                    "class Box:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._items = []  # guarded by: self._lock\n"
                    "    def sizes(self):\n"
                    "        with self._lock:\n"
                    "            return sorted(self._items, key=lambda i: self._items.index(i))\n"
                    "    def spawn(self):\n"
                    "        return threading.Thread(target=lambda: self._items.clear())\n"
                ),
            },
        )
        assert [(f.rule, f.line) for f in findings] == [("RA101", 10)]


class TestCli:
    def test_lock_graph_flag_prints_graph(self, capsys):
        assert analysis_main([str(SRC_ROOT), "--lock-graph"]) == 0
        out = capsys.readouterr().out
        assert "lock graph:" in out
        assert "UpdateManager._rwlock" in out
