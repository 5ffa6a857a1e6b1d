"""Tests for ``repro.lint`` (the invariant checker) and the cache registry.

Three layers:

* fixture trees — every rule has at least one positive fixture (the rule
  fires) and one negative fixture (the idiomatic fix passes), written to a
  tmp tree and linted through the public :func:`repro.lint.lint_paths`;
* the baseline — write/load round trip, the unjustified-entry rejection,
  and content-anchor stability across line drift;
* the live tree — a meta-test asserting ``src/`` is lint-clean with the
  checked-in baseline, so a regression in either the code or the lint
  itself fails CI here before the standalone CI leg sees it.

The cache-registry tests (dummy cache, ``clear_runtime_caches`` routing,
pool worker reset) live here too: they are the runtime counterpart of the
CACHE01/CACHE02 static rules.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.caches import (
    REGISTRY,
    cache_sizes,
    clear_all_caches,
    register_cache,
)
from repro.core.runtime import clear_runtime_caches
from repro.lint import RULES, explain_rule, lint_paths
from repro.lint.baseline import load_baseline, write_baseline
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.pool import ACK, DONE, PersistentWorkerPool
from repro.sweep.runner import _reset_caches_task

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Minimal valid flag table / registry preamble shared by fixtures.
FLAGS_FIXTURE = """
    def declare_flag(name, default, doc):
        return name

    REPRO_DECLARED = declare_flag("REPRO_DECLARED", "0", "fixture flag")
"""


def write_tree(root, files):
    """Write ``{relpath: source}`` under ``root`` (dedented)."""
    for rel, source in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))
    return root


def lint_fixture(tmp_path, files, **kwargs):
    root = write_tree(str(tmp_path / "tree"), files)
    kwargs.setdefault("use_baseline", False)
    return lint_paths([root], **kwargs)


def fired(report):
    return [violation.rule for violation in report.violations]


class TestCache01:
    def test_unregistered_memo_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            _MEMO = {}

            def lookup(key):
                if key in _MEMO:
                    return _MEMO[key]
                _MEMO[key] = key * 2
                return _MEMO[key]
        """})
        assert fired(report) == ["CACHE01"]
        assert "_MEMO" in report.violations[0].message

    def test_registered_memo_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            from repro.core.caches import register_cache

            _MEMO = {}
            _MEMO_LIMIT = 8
            register_cache(
                "mod._MEMO", _MEMO, axes=("key",), cap=_MEMO_LIMIT, doc="d"
            )

            def lookup(key):
                if key in _MEMO:
                    return _MEMO[key]
                _MEMO[key] = key * 2
                return _MEMO[key]
        """})
        assert fired(report) == []

    def test_write_only_container_is_clean(self, tmp_path):
        # An accumulator that is never read back is not a memo.
        report = lint_fixture(tmp_path, {"mod.py": """
            _LOG = []

            def record(event):
                _LOG.append(event)
        """})
        assert fired(report) == []

    def test_registry_module_is_exempt(self, tmp_path):
        report = lint_fixture(tmp_path, {"caches.py": """
            _MEMO = {}

            def lookup(key):
                if key in _MEMO:
                    return _MEMO[key]
                _MEMO[key] = key
                return _MEMO[key]
        """})
        assert fired(report) == []


class TestCache02:
    def test_computed_cap_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            from repro.core.caches import register_cache

            _MEMO = {}
            somecap = int("64")
            register_cache("mod._MEMO", _MEMO, axes=("k",), cap=somecap, doc="d")

            def lookup(key):
                _MEMO[key] = key
                return _MEMO.get(key)
        """})
        assert "CACHE02" in fired(report)

    def test_missing_axes_tuple_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            from repro.core.caches import register_cache

            _MEMO = {}
            register_cache("mod._MEMO", _MEMO, axes=["k"], cap=8, doc="d")

            def lookup(key):
                _MEMO[key] = key
                return _MEMO.get(key)
        """})
        assert "CACHE02" in fired(report)

    def test_module_constant_cap_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            from repro.core.caches import register_cache

            _MEMO = {}
            _LIMIT = 64
            register_cache("mod._MEMO", _MEMO, axes=("k",), cap=_LIMIT, doc="d")

            def lookup(key):
                _MEMO[key] = key
                return _MEMO.get(key)
        """})
        assert fired(report) == []


class TestCache03:
    REGISTERED = textwrap.dedent("""
        from repro.core.caches import register_cache

        _MEMO = {}
        register_cache(
            "mod._MEMO", _MEMO, axes=("model", "seed"), cap=8, doc="d"
        )
    """)

    @classmethod
    def fixture(cls, body):
        return {"mod.py": cls.REGISTERED + textwrap.dedent(body)}

    def test_undeclared_axis_fires(self, tmp_path):
        report = lint_fixture(tmp_path, self.fixture("""
            def lookup(options):
                key = (options.model, options.seed, options.batch)
                return _MEMO.get(key)
        """))
        assert fired(report) == ["CACHE03"]
        assert "'batch'" in report.violations[0].message

    def test_declared_axes_are_clean(self, tmp_path):
        report = lint_fixture(tmp_path, self.fixture("""
            def lookup(options):
                key = (options.model, options.seed)
                return _MEMO.get(key)
        """))
        assert fired(report) == []

    def test_store_alias_is_followed(self, tmp_path):
        # The `cache = _MEMO if shareable else {}` pattern from runtime.py.
        report = lint_fixture(tmp_path, self.fixture("""
            def lookup(options, shareable):
                cache = _MEMO if shareable else {}
                key = (options.model, options.temperature)
                return cache.get(key)
        """))
        assert fired(report) == ["CACHE03"]
        assert "'temperature'" in report.violations[0].message

    def test_key_concatenation_is_resolved(self, tmp_path):
        report = lint_fixture(tmp_path, self.fixture("""
            def lookup(options):
                base = (options.model,)
                key = base + (options.seed, options.undeclared)
                _MEMO[key] = 1
                return _MEMO[key]
        """))
        assert "CACHE03" in fired(report)
        assert "'undeclared'" in report.violations[0].message

    def test_non_carrier_attributes_are_ignored(self, tmp_path):
        report = lint_fixture(tmp_path, self.fixture("""
            def lookup(record):
                key = (record.model, record.anything_at_all)
                return _MEMO.get(key)
        """))
        assert fired(report) == []


class TestDet01:
    @pytest.mark.parametrize("source,fragment", [
        ("import random\nrandom.random()\n", "random.random"),
        ("import numpy as np\nnp.random.rand(3)\n", "rand"),
        ("import numpy as np\nnp.random.default_rng()\n", "without a seed"),
        ("import random\nrandom.Random()\n", "without a seed"),
        ("from random import choice\n", "from random import choice"),
        ("from numpy.random import rand\n", "rand"),
    ])
    def test_global_randomness_fires(self, tmp_path, source, fragment):
        report = lint_fixture(tmp_path, {"mod.py": source})
        assert fired(report) == ["DET01"]
        assert fragment in report.violations[0].message

    @pytest.mark.parametrize("source", [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import random\nrng = random.Random(7)\n",
        "from numpy.random import default_rng\nrng = default_rng(7)\n",
        "from numpy.random import Generator, SeedSequence\n",
    ])
    def test_seeded_generators_are_clean(self, tmp_path, source):
        report = lint_fixture(tmp_path, {"mod.py": source})
        assert fired(report) == []


class TestDet02:
    def test_wall_clock_outside_phases_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            import time

            def f():
                return time.perf_counter()
        """})
        assert fired(report) == ["DET02"]

    def test_from_import_fires(self, tmp_path):
        report = lint_fixture(
            tmp_path, {"mod.py": "from time import perf_counter\n"}
        )
        assert fired(report) == ["DET02"]

    def test_phases_module_is_exempt(self, tmp_path):
        report = lint_fixture(tmp_path, {"phases.py": """
            import time

            def phase_clock():
                return time.perf_counter()
        """})
        assert fired(report) == []

    def test_monotonic_is_allowed(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            import time

            def deadline():
                return time.monotonic() + 5.0
        """})
        assert fired(report) == []


class TestDet03:
    def test_unsorted_listing_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            import os

            def entries(path):
                return os.listdir(path)
        """})
        assert fired(report) == ["DET03"]

    def test_sorted_listing_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            import glob
            import os

            def entries(path):
                return sorted(os.listdir(path)) + sorted(glob.glob("*.json"))
        """})
        assert fired(report) == []


class TestDet04:
    def test_id_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            def key_of(obj):
                return id(obj)
        """})
        assert fired(report) == ["DET04"]

    def test_local_name_id_is_not_confused(self, tmp_path):
        report = lint_fixture(tmp_path, {"mod.py": """
            def f(record):
                return record.id
        """})
        assert fired(report) == []


class TestDet05:
    @pytest.mark.parametrize("source", [
        "def f(xs):\n    return list(set(xs))\n",
        "def f(xs):\n    return tuple({x for x in xs})\n",
        "def f(xs):\n    for x in set(xs):\n        print(x)\n",
        "def f(xs):\n    return [x for x in set(xs)]\n",
    ])
    def test_set_order_escape_fires(self, tmp_path, source):
        report = lint_fixture(tmp_path, {"mod.py": source})
        assert fired(report) == ["DET05"]

    @pytest.mark.parametrize("source", [
        "def f(xs):\n    return sorted(set(xs))\n",
        "def f(x, allowed):\n    return x in set(allowed)\n",
        "def f(xs):\n    return frozenset(xs)\n",
    ])
    def test_order_free_set_use_is_clean(self, tmp_path, source):
        report = lint_fixture(tmp_path, {"mod.py": source})
        assert fired(report) == []


class TestEnv01:
    @pytest.mark.parametrize("source", [
        "import os\nvalue = os.environ.get('HOME', '')\n",
        "import os\nvalue = os.getenv('HOME')\n",
        "import os\nvalue = os.environ['HOME']\n",
    ])
    def test_environ_read_outside_table_fires_once(self, tmp_path, source):
        report = lint_fixture(tmp_path, {"mod.py": source})
        assert fired(report) == ["ENV01"]

    def test_flag_table_is_exempt(self, tmp_path):
        report = lint_fixture(
            tmp_path, {"flags.py": "import os\nvalue = os.getenv('HOME')\n"}
        )
        assert fired(report) == []


class TestEnv02:
    def test_undeclared_literal_fires(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "flags.py": FLAGS_FIXTURE,
            "mod.py": 'FLAG = "REPRO_TYPOED_FLAG"\n',
        })
        assert fired(report) == ["ENV02"]
        assert "REPRO_TYPOED_FLAG" in report.violations[0].message

    def test_declared_literal_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "flags.py": FLAGS_FIXTURE,
            "mod.py": 'FLAG = "REPRO_DECLARED"\n',
        })
        assert fired(report) == []

    def test_mention_inside_prose_is_clean(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "flags.py": FLAGS_FIXTURE,
            "mod.py": 'DOC = "set REPRO_SOMETHING to tune this"\n',
        })
        assert fired(report) == []


class TestEngine:
    def test_syntax_error_is_a_config_failure(self, tmp_path):
        report = lint_fixture(tmp_path, {"broken.py": "def f(:\n"})
        assert report.parse_errors
        assert report.exit_code == 2

    def test_violations_are_sorted_and_exit_one(self, tmp_path):
        report = lint_fixture(tmp_path, {
            "b.py": "def f(x):\n    return id(x)\n",
            "a.py": "import os\nv = os.getenv('HOME')\n",
        })
        assert report.exit_code == 1
        paths = [violation.path for violation in report.violations]
        assert paths == sorted(paths)


class TestBaseline:
    FIXTURE = {"mod.py": "def f(x):\n    return id(x)\n"}

    def test_write_then_load_rejects_empty_justification(self, tmp_path):
        report = lint_fixture(tmp_path, self.FIXTURE)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, report.violations)
        loaded = load_baseline(baseline_path)
        assert loaded.errors and "justification" in loaded.errors[0]
        assert not loaded.entries
        # Linting against the unjustified baseline is a config error, not a
        # silent suppression.
        rechecked = lint_fixture(
            tmp_path, self.FIXTURE,
            baseline_path=baseline_path, use_baseline=True,
        )
        assert rechecked.exit_code == 2

    def test_justified_entry_suppresses(self, tmp_path):
        report = lint_fixture(tmp_path, self.FIXTURE)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, report.violations)
        payload = json.loads(open(baseline_path).read())
        for entry in payload["entries"]:
            entry["justification"] = "audited: fixture"
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        rechecked = lint_fixture(
            tmp_path, self.FIXTURE,
            baseline_path=baseline_path, use_baseline=True,
        )
        assert rechecked.exit_code == 0
        assert not rechecked.violations
        assert [v.rule for v in rechecked.suppressed] == ["DET04"]

    def test_content_anchor_survives_line_drift(self, tmp_path):
        report = lint_fixture(tmp_path, self.FIXTURE)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, report.violations)
        payload = json.loads(open(baseline_path).read())
        for entry in payload["entries"]:
            entry["justification"] = "audited: fixture"
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        # Shift the violation down two lines; the content anchor still hits.
        shifted = {"mod.py": "# one\n# two\n" + self.FIXTURE["mod.py"]}
        rechecked = lint_fixture(
            tmp_path, shifted,
            baseline_path=baseline_path, use_baseline=True,
        )
        assert rechecked.exit_code == 0
        assert not rechecked.violations

    def test_changed_line_resurfaces_the_violation(self, tmp_path):
        report = lint_fixture(tmp_path, self.FIXTURE)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, report.violations)
        payload = json.loads(open(baseline_path).read())
        for entry in payload["entries"]:
            entry["justification"] = "audited: fixture"
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        changed = {"mod.py": "def f(x):\n    return id(x) + 1\n"}
        rechecked = lint_fixture(
            tmp_path, changed,
            baseline_path=baseline_path, use_baseline=True,
        )
        assert rechecked.exit_code == 1
        assert [v.rule for v in rechecked.violations] == ["DET04"]


class TestCatalogue:
    EXPECTED = {
        "CACHE01", "CACHE02", "CACHE03",
        "DET01", "DET02", "DET03", "DET04", "DET05",
        "ENV01", "ENV02",
    }

    def test_rule_set_is_complete(self):
        assert set(RULES) == self.EXPECTED

    def test_every_rule_explains_itself(self):
        for rule_id in RULES:
            text = explain_rule(rule_id)
            assert text is not None and rule_id in text
            assert len(text) > 80  # a catalogue paragraph, not a stub

    def test_unknown_rule_is_none(self):
        assert explain_rule("NOPE99") is None


class TestLiveTree:
    """The meta-tests: the shipped tree must be clean under its baseline."""

    def test_src_is_lint_clean_with_checked_in_baseline(self):
        baseline = os.path.join(REPO_ROOT, "lint_baseline.json")
        report = lint_paths(
            [os.path.join(REPO_ROOT, "src")],
            baseline_path=baseline, use_baseline=True,
        )
        assert report.parse_errors == []
        assert report.config_errors == []
        assert report.violations == [], "\n".join(
            violation.format() for violation in report.violations
        )
        # Every baselined exception is an audited DET04 (id()) use; anything
        # else appearing here means the baseline grew without review.
        assert {v.rule for v in report.suppressed} <= {"DET04"}

    def test_every_baseline_entry_still_matches(self):
        baseline_path = os.path.join(REPO_ROOT, "lint_baseline.json")
        loaded = load_baseline(baseline_path)
        assert not loaded.errors
        report = lint_paths(
            [os.path.join(REPO_ROOT, "src")],
            baseline_path=baseline_path, use_baseline=True,
        )
        assert len(report.suppressed) == len(loaded.entries), (
            "stale baseline entries — remove the ones that no longer match"
        )

    def test_cli_runs_clean_on_src(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_explain_and_list_rules(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        listed = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert listed.returncode == 0
        for rule_id in TestCatalogue.EXPECTED:
            assert rule_id in listed.stdout
        explained = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--explain", "CACHE03"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert explained.returncode == 0
        assert "declared axis" in explained.stdout
        unknown = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--explain", "NOPE99"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert unknown.returncode == 2


@pytest.fixture
def dummy_cache():
    """A throwaway registered cache, deregistered on teardown."""
    name = "tests.test_lint._DUMMY"
    store = register_cache(
        name, {}, axes=("key",), cap=4, doc="test-only dummy cache"
    )
    yield name, store
    REGISTRY.pop(name, None)


class TestCacheRegistry:
    def test_register_validates_inputs(self):
        with pytest.raises(ValueError, match="positive int cap"):
            register_cache("tests.bad", {}, axes=("k",), cap=0, doc="d")
        with pytest.raises(ValueError, match="axis names"):
            register_cache("tests.bad", {}, axes=(), cap=4, doc="d")
        with pytest.raises(ValueError, match="clear and size hooks"):
            register_cache("tests.bad", None, axes=("k",), cap=4, doc="d")
        assert "tests.bad" not in REGISTRY

    def test_duplicate_registration_raises(self, dummy_cache):
        name, _store = dummy_cache
        with pytest.raises(ValueError, match="registered twice"):
            register_cache(name, {}, axes=("key",), cap=4, doc="dupe")

    def test_clear_all_walks_the_dummy(self, dummy_cache):
        name, store = dummy_cache
        store["k"] = "v"
        assert cache_sizes()[name] == 1
        walked = clear_all_caches()
        assert name in walked
        assert walked == tuple(sorted(walked))
        assert store == {}
        assert cache_sizes()[name] == 0

    def test_clear_runtime_caches_routes_through_registry(self, dummy_cache):
        # The historical bug class: a reset path that enumerates caches by
        # hand forgets the newest one.  clear_runtime_caches is now a
        # registry walk, so the dummy participates with no code change.
        name, store = dummy_cache
        store["k"] = "v"
        clear_runtime_caches()
        assert store == {}

    def test_core_caches_are_registered(self):
        expected = {
            "repro.core.runtime._RECORD_CACHE",
            "repro.core.runtime._BASE_FLOW_CACHE",
            "repro.core.runtime._ADJUSTED_FLOW_CACHE",
            "repro.core.runtime._PROFILED_DEMAND_CACHE",
            "repro.moe.trace._TRACE_MEMO",
            "repro.sweep.template._TEMPLATE_CACHE",
        }
        assert expected <= set(REGISTRY)
        for name in expected:
            spec = REGISTRY[name]
            assert spec.axes and spec.cap > 0 and spec.doc


SMALL_SPEC = SweepSpec(
    fabrics=["Fat-tree"],
    models=["Mixtral-8x7B"],
    first_a2a_policies=["block"],
    num_servers=16,
)


class TestPoolReset:
    def test_reset_without_pool_is_local_only(self, dummy_cache):
        _name, store = dummy_cache
        store["k"] = "v"
        runner = SweepRunner(SMALL_SPEC, workers=0)
        runner.reset_caches()  # no pool spawned: must still clear locally
        assert store == {}

    def test_reset_clears_local_and_reaches_live_workers(self, dummy_cache):
        _name, store = dummy_cache
        runner = SweepRunner(SMALL_SPEC, workers=2)
        runner.warm_up()
        try:
            store["k"] = "v"
            runner.reset_caches()
            assert store == {}
            # The pool survives the reset and still produces correct runs.
            results = runner.run()
            assert len(results) == len(SMALL_SPEC.expand())
        finally:
            runner.close()

    def test_worker_reset_task_walks_the_worker_registry(self):
        # Drive the reset task through a raw pool and inspect its ACK
        # payload: the names the *worker process* walked must cover the
        # core runtime caches, proving the reset is a registry walk on the
        # far side of the process boundary too.
        pool = PersistentWorkerPool(workers=1)
        pool.start()
        try:
            task_id = pool.submit(0, _reset_caches_task, ())
            walked = None
            for _ in range(200):
                kind, _worker, event_task, payload = pool.events(timeout=10.0)
                if event_task != task_id:
                    continue
                if kind == ACK:
                    walked = payload
                elif kind == DONE:
                    break
            assert walked is not None
            assert "repro.core.runtime._RECORD_CACHE" in walked
            assert "repro.sweep.template._TEMPLATE_CACHE" in walked
            assert tuple(walked) == tuple(sorted(walked))
        finally:
            pool.close()
