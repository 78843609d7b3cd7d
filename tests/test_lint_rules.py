"""Per-rule fixture tests for ``repro lint``.

One class per built-in rule.  Every class proves both directions of the
contract from the same fixture: the hazard is *detected* (the acceptance
criterion for the rule existing at all) and a ``# repro-lint: disable=``
pragma on the flagged line *suppresses* it (the escape hatch the shipped
tree's justified exceptions rely on).  Role-scoped rules additionally
prove they stay silent on files without the role.
"""

import textwrap

import pytest

from repro.lint import lint_file
from repro.lint.rules import get_rule, registered_rules

#: Every rule the tentpole ships; the registry test pins the set.
BUILTIN_RULES = (
    "unseeded-rng",
    "wall-clock-digest",
    "env-read-in-canonical",
    "unsorted-fs-iteration",
    "set-ordering",
    "unpicklable-submission",
    "canonical-float-format",
    "swallowed-exception",
)


def run_rule(rule_id, source, path="fixture.py"):
    """Findings of one rule over an in-memory fixture file."""
    return lint_file(
        path, rules=[get_rule(rule_id)], source=textwrap.dedent(source)
    )


def test_builtin_rules_registered_in_order():
    assert registered_rules() == BUILTIN_RULES


class TestUnseededRng:
    def test_detects_global_random_call(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import random
            value = random.random()
            """,
        )
        assert [f.line for f in findings] == [2]
        assert "random.random()" in findings[0].message

    def test_detects_legacy_numpy_global(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import numpy as np
            noise = np.random.rand(3)
            np.random.seed(0)
            """,
        )
        assert [f.line for f in findings] == [2, 3]

    def test_seeded_constructors_allowed(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import numpy as np
            rng = np.random.default_rng(7)
            gen = np.random.Generator(np.random.PCG64(7))
            """,
        )
        assert findings == []

    def test_seeded_local_random_allowed(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import random
            rng = random.Random(0)
            other = random.Random(x=1)
            """,
        )
        assert findings == []

    def test_detects_entropy_seeded_constructors(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import random
            import numpy as np
            rng = random.Random()
            gen = np.random.default_rng()
            """,
        )
        assert [f.line for f in findings] == [3, 4]
        assert "random.Random() seeds from OS entropy" in findings[0].message

    def test_pragma_suppresses(self):
        findings = run_rule(
            "unseeded-rng",
            """\
            import random
            value = random.random()  # repro-lint: disable=unseeded-rng
            """,
        )
        assert findings == []


class TestWallClockDigest:
    FIXTURE = """\
    # repro-lint: role=canonical
    import time
    stamp = time.time()
    """

    def test_detects_in_canonical_role(self):
        findings = run_rule("wall-clock-digest", self.FIXTURE)
        assert [f.line for f in findings] == [3]
        assert "time.time()" in findings[0].message

    def test_silent_without_role(self):
        source = self.FIXTURE.replace("# repro-lint: role=canonical", "")
        assert run_rule("wall-clock-digest", source) == []

    def test_role_from_path_suffix(self):
        findings = run_rule(
            "wall-clock-digest",
            "import time\nstamp = time.time()\n",
            path="src/repro/core/cache.py",
        )
        assert [f.line for f in findings] == [2]

    def test_detects_datetime_now(self):
        findings = run_rule(
            "wall-clock-digest",
            """\
            # repro-lint: role=canonical
            from datetime import datetime
            when = datetime.now()
            """,
        )
        assert [f.line for f in findings] == [3]

    def test_pragma_suppresses(self):
        source = self.FIXTURE.replace(
            "stamp = time.time()",
            "stamp = time.time()  # repro-lint: disable=wall-clock-digest",
        )
        assert run_rule("wall-clock-digest", source) == []


class TestEnvReadInCanonical:
    FIXTURE = """\
    # repro-lint: role=canonical
    import os
    root = os.environ.get("REPRO_CACHE_DIR")
    """

    def test_detects_environ_get_in_canonical_role(self):
        findings = run_rule("env-read-in-canonical", self.FIXTURE)
        assert [f.line for f in findings] == [3]
        assert "os.environ.get" in findings[0].message

    def test_detects_getenv_and_subscript(self):
        findings = run_rule(
            "env-read-in-canonical",
            """\
            # repro-lint: role=canonical
            import os
            a = os.getenv("REPRO_JOBS")
            b = os.environ["HOME"]
            """,
        )
        assert [f.line for f in findings] == [3, 4]

    def test_detects_bare_imports(self):
        findings = run_rule(
            "env-read-in-canonical",
            """\
            # repro-lint: role=canonical
            from os import environ, getenv
            a = getenv("X")
            b = environ.get("Y")
            c = environ["Z"]
            """,
        )
        assert [f.line for f in findings] == [3, 4, 5]

    def test_silent_without_role(self):
        source = self.FIXTURE.replace("# repro-lint: role=canonical", "")
        assert run_rule("env-read-in-canonical", source) == []

    def test_worker_modules_out_of_scope(self):
        # Default resolution (REPRO_JOBS, REPRO_BATCH_LANES) lives in
        # worker-role modules and must stay lintable.
        findings = run_rule(
            "env-read-in-canonical",
            'import os\njobs = os.environ.get("REPRO_JOBS")\n',
            path="src/repro/core/executor.py",
        )
        assert findings == []

    def test_role_from_path_suffix(self):
        findings = run_rule(
            "env-read-in-canonical",
            'import os\nroot = os.environ.get("REPRO_CACHE_DIR")\n',
            path="src/repro/core/cache.py",
        )
        assert [f.line for f in findings] == [2]

    def test_pragma_suppresses(self):
        source = self.FIXTURE.replace(
            'root = os.environ.get("REPRO_CACHE_DIR")',
            'root = os.environ.get("REPRO_CACHE_DIR")'
            "  # repro-lint: disable=env-read-in-canonical",
        )
        assert run_rule("env-read-in-canonical", source) == []


class TestUnsortedFsIteration:
    def test_detects_listdir_and_glob(self):
        findings = run_rule(
            "unsorted-fs-iteration",
            """\
            import glob
            import os
            for name in os.listdir("cache"):
                print(name)
            shards = glob.glob("*.jsonl")
            """,
        )
        assert [f.line for f in findings] == [3, 5]

    def test_detects_pathlib_iterdir(self):
        findings = run_rule(
            "unsorted-fs-iteration",
            """\
            from pathlib import Path
            entries = list(Path("cache").iterdir())
            """,
        )
        assert [f.line for f in findings] == [2]

    def test_sorted_wrap_allowed(self):
        findings = run_rule(
            "unsorted-fs-iteration",
            """\
            import os
            for name in sorted(os.listdir("cache")):
                print(name)
            count = len(os.listdir("cache"))
            """,
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = run_rule(
            "unsorted-fs-iteration",
            """\
            import os
            names = os.listdir("cache")  # repro-lint: disable=unsorted-fs-iteration
            """,
        )
        assert findings == []


class TestSetOrdering:
    def test_detects_iteration_join_and_pop(self):
        findings = run_rule(
            "set-ordering",
            """\
            def emit(results):
                labels = {r.label for r in results}
                for label in labels:
                    print(label)
                token = ",".join(labels)
                first = labels.pop()
                return token, first
            """,
        )
        assert [f.line for f in findings] == [3, 5, 6]

    def test_detects_list_of_set_literal(self):
        findings = run_rule(
            "set-ordering",
            "order = list({'b', 'a'})\n",
        )
        assert [f.line for f in findings] == [1]

    def test_order_insensitive_consumption_allowed(self):
        findings = run_rule(
            "set-ordering",
            """\
            def emit(results):
                labels = {r.label for r in results}
                for label in sorted(labels):
                    print(label)
                return len(labels), max(labels)
            """,
        )
        assert findings == []

    def test_reassigned_name_not_tracked(self):
        # A name later bound to a sorted list must not stay "set-typed".
        findings = run_rule(
            "set-ordering",
            """\
            def emit(results):
                labels = {r.label for r in results}
                labels = sorted(labels)
                for label in labels:
                    print(label)
            """,
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = run_rule(
            "set-ordering",
            """\
            def emit(labels_in):
                labels = set(labels_in)
                for label in labels:  # repro-lint: disable=set-ordering
                    print(label)
            """,
        )
        assert findings == []


class TestUnpicklableSubmission:
    def test_detects_lambda_and_nested_function(self):
        findings = run_rule(
            "unpicklable-submission",
            """\
            def dispatch(pool, items):
                def run_one(item):
                    return item

                pool.submit(lambda: items[0])
                pool.submit(run_one, items[1])
            """,
        )
        assert [f.line for f in findings] == [5, 6]
        assert "run_one" in findings[1].message

    def test_module_level_function_allowed(self):
        findings = run_rule(
            "unpicklable-submission",
            """\
            def run_one(item):
                return item

            def dispatch(pool, items):
                pool.submit(run_one, items[0])
            """,
        )
        assert findings == []

    def test_local_only_keywords_exempt(self):
        findings = run_rule(
            "unpicklable-submission",
            """\
            def dispatch(plan, backend):
                dispatch_campaign(
                    plan,
                    backend,
                    log=lambda message: None,
                    progress=lambda done, total: None,
                )
            """,
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = run_rule(
            "unpicklable-submission",
            """\
            def dispatch(pool, items):
                pool.submit(lambda: items[0])  # repro-lint: disable=unpicklable-submission
            """,
        )
        assert findings == []


class TestCanonicalFloatFormat:
    FIXTURE = """\
    # repro-lint: role=canonical
    def token(gap):
        return f"gap={gap:.0f}"
    """

    def test_detects_precision_fstring(self):
        findings = run_rule("canonical-float-format", self.FIXTURE)
        assert [f.line for f in findings] == [3]
        assert "'.0f'" in findings[0].message
        assert "canonical_scalar" in findings[0].message

    def test_detects_format_builtin(self):
        findings = run_rule(
            "canonical-float-format",
            """\
            # repro-lint: role=canonical
            text = format(0.1234, ".3g")
            """,
        )
        assert [f.line for f in findings] == [2]

    def test_lossless_specs_allowed(self):
        findings = run_rule(
            "canonical-float-format",
            """\
            # repro-lint: role=canonical
            def render(name, count):
                return f"{name:<18} {count:d} {count:>6}"
            """,
        )
        assert findings == []

    def test_silent_without_role(self):
        source = self.FIXTURE.replace("# repro-lint: role=canonical", "")
        assert run_rule("canonical-float-format", source) == []

    def test_pragma_suppresses(self):
        source = self.FIXTURE.replace(
            'return f"gap={gap:.0f}"',
            'return f"gap={gap:.0f}"  # repro-lint: disable=canonical-float-format',
        )
        assert run_rule("canonical-float-format", source) == []


class TestSwallowedException:
    def test_detects_bare_except_anywhere(self):
        findings = run_rule(
            "swallowed-exception",
            """\
            def load(path):
                try:
                    return open(path).read()
                except:
                    pass
            """,
        )
        assert [f.line for f in findings] == [4]

    def test_detects_noop_blanket_in_worker_role(self):
        findings = run_rule(
            "swallowed-exception",
            """\
            # repro-lint: role=worker
            def collect(shards):
                for shard in shards:
                    try:
                        shard.load()
                    except Exception:
                        pass
            """,
        )
        assert [f.line for f in findings] == [6]

    def test_noop_blanket_ignored_without_worker_role(self):
        findings = run_rule(
            "swallowed-exception",
            """\
            def collect(shards):
                try:
                    shards.load()
                except Exception:
                    pass
            """,
        )
        assert findings == []

    def test_narrow_or_acting_handlers_allowed(self):
        findings = run_rule(
            "swallowed-exception",
            """\
            # repro-lint: role=worker
            import os

            def cleanup(path, proc):
                try:
                    os.remove(path)
                except OSError:
                    pass
                try:
                    proc.wait()
                except Exception:
                    proc.kill()
            """,
        )
        assert findings == []

    def test_pragma_suppresses(self):
        findings = run_rule(
            "swallowed-exception",
            """\
            def load(path):
                try:
                    return open(path).read()
                except:  # repro-lint: disable=swallowed-exception
                    pass
            """,
        )
        assert findings == []


@pytest.mark.parametrize("rule_id", BUILTIN_RULES)
def test_every_rule_has_catalog_metadata(rule_id):
    rule = get_rule(rule_id)
    assert rule.rule_id == rule_id
    assert rule.title
    assert rule.severity in ("error", "warning")
