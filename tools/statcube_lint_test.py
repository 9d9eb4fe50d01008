#!/usr/bin/env python3
"""Self-test for statcube-lint: one should-fire and one should-not-fire
fixture per rule, plus the allow() escape and --update-codegen-hash.

Runs under plain `python3 tools/statcube_lint_test.py` (stdlib unittest);
ctest registers it as `statcube_lint_selftest`.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import statcube_lint  # noqa: E402


class LintFixtureTest(unittest.TestCase):
    """Writes a fixture tree under a temp root and lints it."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="statcube_lint_test_")
        self.addCleanup(shutil.rmtree, self.tmp)
        self._saved_root = statcube_lint.REPO_ROOT
        statcube_lint.REPO_ROOT = self.tmp
        self.addCleanup(setattr, statcube_lint, "REPO_ROOT",
                        self._saved_root)

    def write(self, rel, content):
        path = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def lint(self, rel, status_names=frozenset()):
        path = os.path.join(self.tmp, rel)
        violations = []
        statcube_lint.lint_file(path, set(status_names), violations)
        return [v.rule for v in violations], violations

    def assertFires(self, rel, rule, status_names=frozenset()):
        rules, violations = self.lint(rel, status_names)
        self.assertIn(rule, rules,
                      f"{rel}: expected [{rule}], got {violations or 'clean'}")

    def assertClean(self, rel, status_names=frozenset()):
        rules, violations = self.lint(rel, status_names)
        self.assertEqual(rules, [],
                         f"{rel}: expected clean, got "
                         f"{[str(v) for v in violations]}")

    # ---------------------------------------------------------- naked-new

    def test_naked_new_fires(self):
        self.write("src/a.cc", "void F() {\n  auto* p = new Thing();\n}\n")
        self.assertFires("src/a.cc", "naked-new")

    def test_new_in_unique_ptr_ok(self):
        self.write("src/a.cc",
                   "auto p = std::unique_ptr<Thing>(new Thing(1));\n")
        self.assertClean("src/a.cc")

    def test_new_in_multiline_unique_ptr_ok(self):
        self.write("src/a.cc",
                   "return std::unique_ptr<Base>(\n"
                   "    new Derived(std::move(x)));\n")
        self.assertClean("src/a.cc")

    def test_new_in_static_singleton_ok(self):
        self.write("src/a.cc", "static Thing* t = new Thing();\n")
        self.assertClean("src/a.cc")

    def test_new_in_static_lambda_singleton_ok(self):
        self.write("src/a.cc",
                   "static Thing* t = [] {\n"
                   "  auto* out = new Thing();\n"
                   "  out->Init();\n"
                   "  return out;\n"
                   "}();\n")
        self.assertClean("src/a.cc")

    def test_new_after_closed_lambda_fires(self):
        self.write("src/a.cc",
                   "static Thing* t = [] { return MakeThing(); }();\n"
                   "void F() {\n"
                   "  auto* p = new Thing();\n"
                   "}\n")
        self.assertFires("src/a.cc", "naked-new")

    def test_new_in_comment_ok(self):
        self.write("src/a.cc", "// allocates a new Thing on every call\n")
        self.assertClean("src/a.cc")

    def test_allow_escape(self):
        self.write("src/a.cc",
                   "// statcube-lint: allow(naked-new)\n"
                   "auto* p = new Thing();\n")
        self.assertClean("src/a.cc")

    # ------------------------------------------------------- naked-delete

    def test_naked_delete_fires(self):
        self.write("src/a.cc", "void F(Thing* t) {\n  delete t;\n}\n")
        self.assertFires("src/a.cc", "naked-delete")

    def test_deleted_member_ok(self):
        self.write("src/a.h",
                   "class C {\n  C(const C&) = delete;\n"
                   "  C& operator=(const C&) = delete;\n};\n")
        self.assertClean("src/a.h")

    # ------------------------------------------------------ banned-random

    def test_rand_fires(self):
        self.write("src/a.cc", "int r = std::rand();\n")
        self.assertFires("src/a.cc", "banned-random")

    def test_time_seed_fires(self):
        self.write("src/a.cc", "srand(time(nullptr));\n")
        self.assertFires("src/a.cc", "banned-random")

    def test_random_device_fires(self):
        self.write("src/a.cc", "std::random_device rd;\n")
        self.assertFires("src/a.cc", "banned-random")

    def test_seeded_rng_ok(self):
        self.write("src/a.cc",
                   "Rng rng(17);\n"
                   "uint64_t x = rng.Next();\n"
                   "bool operand = true;  // 'rand' inside a word\n")
        self.assertClean("src/a.cc")

    # -------------------------------------------------- unconsumed-status

    def test_bare_status_call_fires(self):
        self.write("src/a.cc", "void F() {\n  table.Expand(0, 1);\n}\n")
        self.assertFires("src/a.cc", "unconsumed-status",
                         status_names={"Expand"})

    def test_consumed_status_ok(self):
        self.write("src/a.cc",
                   "void F() {\n"
                   "  Status s = table.Expand(0, 1);\n"
                   "  (void)table.Expand(1, 2);\n"
                   "  if (!table.Expand(2, 3).ok()) return;\n"
                   "}\n")
        self.assertClean("src/a.cc", status_names={"Expand"})

    def test_call_as_argument_ok(self):
        # Part of a larger expression spread over two lines.
        self.write("src/a.cc",
                   "void F() {\n"
                   "  Check(\n"
                   "      Expand(0, 1));\n"
                   "}\n")
        rules, _ = self.lint("src/a.cc", {"Expand"})
        self.assertNotIn("unconsumed-status", rules)

    def test_local_void_helper_shadows(self):
        # File-local `void Count(...)` beats a header's Result Count().
        self.write("src/a.cc",
                   "void Count(const char* name) { Bump(name); }\n"
                   "void F() {\n  Count(\"hits\");\n}\n")
        self.assertClean("src/a.cc", status_names={"Count"})

    # --------------------------------------------------------- include-cc

    def test_include_cc_fires(self):
        self.write("src/a.cc", '#include "statcube/query/parser.cc"\n')
        self.assertFires("src/a.cc", "include-cc")

    def test_include_header_ok(self):
        self.write("src/a.cc", '#include "statcube/query/parser.h"\n')
        self.assertClean("src/a.cc")

    # ------------------------------------------------------ codegen-drift

    CODEGEN_OK = ("// STATCUBE-CODEGEN-BEGIN tbl sha256:%s\n"
                  "int kTable[] = {1, 2, 3};\n"
                  "// STATCUBE-CODEGEN-END tbl\n")

    def test_codegen_intact_ok(self):
        h = statcube_lint.region_hash(["int kTable[] = {1, 2, 3};"])
        self.write("src/a.cc", self.CODEGEN_OK % h)
        self.assertClean("src/a.cc")

    def test_codegen_drift_fires(self):
        h = statcube_lint.region_hash(["int kTable[] = {1, 2, 3};"])
        drifted = (self.CODEGEN_OK % h).replace("{1, 2, 3}", "{1, 2, 4}")
        self.write("src/a.cc", drifted)
        self.assertFires("src/a.cc", "codegen-drift")

    def test_codegen_unclosed_fires(self):
        self.write("src/a.cc",
                   "// STATCUBE-CODEGEN-BEGIN tbl sha256:000000000000\n"
                   "int x;\n")
        self.assertFires("src/a.cc", "codegen-drift")

    def test_codegen_required_file_without_region_fires(self):
        self.write("src/statcube/query/parser.cc", "int x;\n")
        self.assertFires("src/statcube/query/parser.cc", "codegen-drift")

    def test_update_codegen_hash_repairs_drift(self):
        h = statcube_lint.region_hash(["int kTable[] = {1, 2, 3};"])
        drifted = (self.CODEGEN_OK % h).replace("{1, 2, 3}", "{1, 2, 4}")
        path = self.write("src/a.cc", drifted)
        changed = statcube_lint.update_codegen_hashes([path])
        self.assertEqual(changed, 1)
        self.assertClean("src/a.cc")

    # ---------------------------------------------------------- doc-gated

    def test_undocumented_class_in_gated_header_fires(self):
        self.write("src/statcube/cache/x.h",
                   "// Cache support.\n\n"
                   "class Undocumented {\n public:\n  int x;\n};\n")
        self.assertFires("src/statcube/cache/x.h", "doc-gated")

    def test_documented_gated_header_ok(self):
        self.write("src/statcube/cache/x.h",
                   "// Cache support.\n\n"
                   "/// A documented class.\n"
                   "class Documented {\n public:\n  int x;\n};\n")
        self.assertClean("src/statcube/cache/x.h")

    def test_missing_file_comment_fires(self):
        self.write("src/statcube/cache/x.h",
                   "#pragma once\n/// Doc.\nclass C {\n};\n")
        self.assertFires("src/statcube/cache/x.h", "doc-gated")

    def test_ungated_header_not_checked(self):
        self.write("src/statcube/storage/x.h",
                   "class Undocumented {\n};\n")
        self.assertClean("src/statcube/storage/x.h")

    # ------------------------------------------------------------ no-cout

    def test_cout_in_src_fires(self):
        self.write("src/a.cc", 'std::cout << "x";\n')
        self.assertFires("src/a.cc", "no-cout")

    def test_cout_in_examples_ok(self):
        self.write("examples/a.cc", 'std::cout << "x";\n')
        self.assertClean("examples/a.cc")

    def test_cout_in_string_literal_ok(self):
        self.write("src/a.cc", 'const char* kHelp = "pipe to std::cout";\n')
        self.assertClean("src/a.cc")

    # ----------------------------------------------- serve/ subsystem rules

    def test_cout_in_serve_fires(self):
        # The front door writes HTTP responses, never stdout: a stray debug
        # print in serve/ is a lint error like anywhere else in src/.
        self.write("src/statcube/serve/front_door.cc",
                   'void Debug() { std::cout << "admitted"; }\n')
        self.assertFires("src/statcube/serve/front_door.cc", "no-cout")

    def test_dropped_admission_status_fires(self):
        # An ignored Status-returning call in serve/ (e.g. a Start() whose
        # failure would silently disable the endpoint) must be consumed.
        self.write("src/statcube/serve/front_door.cc",
                   "void Register() {\n  StartServer();\n}\n")
        self.assertFires("src/statcube/serve/front_door.cc",
                         "unconsumed-status",
                         status_names={"StartServer"})

    def test_serve_header_without_doc_fires(self):
        self.write("src/statcube/serve/new_gate.h",
                   "#ifndef X\n#define X\nclass Gate {};\n#endif\n")
        self.assertFires("src/statcube/serve/new_gate.h", "doc-gated")

    # -------------------------------------------------------------- sleep

    def test_sleep_in_test_fires(self):
        self.write("tests/a_test.cc",
                   "TEST(T, Wait) {\n"
                   "  std::this_thread::sleep_for("
                   "std::chrono::milliseconds(50));\n"
                   "}\n")
        self.assertFires("tests/a_test.cc", "sleep")

    def test_sleep_outside_tests_ok(self):
        self.write("src/a.cc",
                   "void Backoff() {\n"
                   "  std::this_thread::sleep_for("
                   "std::chrono::milliseconds(1));\n"
                   "}\n")
        self.assertClean("src/a.cc")

    def test_sleep_allow_escape(self):
        self.write("tests/a_test.cc",
                   "TEST(T, Latency) {\n"
                   "  // Simulates work. statcube-lint: allow(sleep)\n"
                   "  std::this_thread::sleep_for("
                   "std::chrono::milliseconds(2));\n"
                   "}\n")
        self.assertClean("tests/a_test.cc")

    def test_sleep_in_comment_ok(self):
        self.write("tests/a_test.cc",
                   "// never std::this_thread::sleep_for in tests\n"
                   "TEST(T, X) { Poll(); }\n")
        self.assertClean("tests/a_test.cc")


class HarvestTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="statcube_lint_harvest_")
        self.addCleanup(shutil.rmtree, self.tmp)

    def write(self, rel, content):
        path = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)

    def test_harvest_drops_ambiguous_names(self):
        self.write("src/a.h",
                   "Status Expand(size_t dim, size_t by);\n"
                   "Result<double> Get(size_t i);\n"
                   "Status Set(size_t i, double v);\n")
        self.write("src/b.h",
                   "void Set(double v);\n"       # ambiguous with a.h
                   "uint64_t Get(size_t i) const;\n")  # ambiguous with a.h
        names = statcube_lint.harvest_status_names(
            os.path.join(self.tmp, "src"))
        self.assertEqual(names, {"Expand"})


class RepoTest(unittest.TestCase):
    """The real tree must lint clean — this is the gate ctest runs."""

    def test_repo_is_clean(self):
        rc = statcube_lint.main([])
        self.assertEqual(rc, 0, "statcube-lint found violations in the repo")


if __name__ == "__main__":
    unittest.main(verbosity=2)
