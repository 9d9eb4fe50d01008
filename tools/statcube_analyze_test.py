#!/usr/bin/env python3
"""Self-test for statcube-analyze: per pass, one fixture that seeds a
violation of the invariant (must be caught) and one clean fixture (must
pass), plus the suppression-file contract (mandatory justification,
stale entries fail) and the include scanner's comment handling.

Runs under plain `python3 tools/statcube_analyze_test.py`; ctest
registers it as `statcube_analyze_selftest`.
"""

import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

_TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_TOOLS, "statcube_analyze"))
sys.path.insert(0, _TOOLS)

import analyze            # noqa: E402
import core               # noqa: E402
import include_graph      # noqa: E402
import pass_determinism   # noqa: E402
import pass_hotpath       # noqa: E402
import pass_layers        # noqa: E402
import pass_locks         # noqa: E402


class FixtureTest(unittest.TestCase):
    """Writes a fixture repo under a temp root and analyzes it."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="statcube_analyze_test_")
        self.addCleanup(shutil.rmtree, self.tmp)

    def write(self, rel, content):
        path = os.path.join(self.tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def layers(self, modules):
        return self.write("layers.json", json.dumps(
            {"modules": {m: {"deps": deps} for m, deps in modules.items()}}))

    def ctx(self, layers=None):
        return core.AnalyzeContext(self.tmp, layers_path=layers)

    def keys(self, findings):
        return [f"{f.pass_id}/{f.key}" for f in findings]


# ---------------------------------------------------------------- layers

class LayersPassTest(FixtureTest):
    def test_forbidden_edge_fires(self):
        lp = self.layers({"common": [], "cache": ["common"],
                          "query": ["cache", "common"]})
        self.write("src/statcube/cache/a.cc",
                   '#include "statcube/query/parser.h"\n')
        found = self.keys(pass_layers.run(self.ctx(lp)))
        self.assertIn("layers/edge:cache->query", found)

    def test_allowed_edge_clean(self):
        lp = self.layers({"common": [], "query": ["common"]})
        self.write("src/statcube/query/a.cc",
                   '#include "statcube/common/status.h"\n')
        self.assertEqual(self.keys(pass_layers.run(self.ctx(lp))), [])

    def test_unknown_module_fires(self):
        lp = self.layers({"common": []})
        self.write("src/statcube/rogue/a.cc", "int x;\n")
        found = self.keys(pass_layers.run(self.ctx(lp)))
        self.assertIn("layers/unknown-module:rogue", found)

    def test_actual_cycle_fires(self):
        lp = self.layers({"alpha": [], "beta": []})
        self.write("src/statcube/alpha/a.h",
                   '#include "statcube/beta/b.h"\n')
        self.write("src/statcube/beta/b.h",
                   '#include "statcube/alpha/a.h"\n')
        found = self.keys(pass_layers.run(self.ctx(lp)))
        self.assertIn("layers/cycle:alpha,beta", found)

    def test_cyclic_layer_map_rejected(self):
        lp = self.layers({"alpha": ["beta"], "beta": ["alpha"]})
        with self.assertRaises(ValueError):
            pass_layers.validate_layer_map(self.ctx(lp))

    def test_commented_include_ignored(self):
        lp = self.layers({"common": [], "cache": ["common"]})
        self.write("src/statcube/cache/a.cc",
                   '// #include "statcube/query/parser.h"\n'
                   'int x;\n')
        self.assertEqual(self.keys(pass_layers.run(self.ctx(lp))), [])


# ----------------------------------------------------------------- locks

LOCK_PRELUDE = """\
class Widget {
 public:
  void AB();
  void BA();
 private:
  Mutex a_;
  Mutex b_;
};
"""


class LocksPassTest(FixtureTest):
    def run_locks(self):
        ctx = self.ctx()
        return self.keys(pass_locks.run(ctx))

    def test_inversion_fires(self):
        self.write("src/statcube/serve/widget.h", LOCK_PRELUDE)
        self.write("src/statcube/serve/widget.cc", """\
void Widget::AB() {
  MutexLock la(a_);
  MutexLock lb(b_);
}
void Widget::BA() {
  MutexLock lb(b_);
  MutexLock la(a_);
}
""")
        found = self.run_locks()
        self.assertIn("locks/cycle:Widget::a_,Widget::b_", found)

    def test_consistent_order_clean(self):
        self.write("src/statcube/serve/widget.h", LOCK_PRELUDE)
        self.write("src/statcube/serve/widget.cc", """\
void Widget::AB() {
  MutexLock la(a_);
  MutexLock lb(b_);
}
void Widget::BA() {
  MutexLock la(a_);
  MutexLock lb(b_);
}
""")
        self.assertEqual(self.run_locks(), [])

    def test_scoped_release_breaks_edge(self):
        self.write("src/statcube/serve/widget.h", LOCK_PRELUDE)
        self.write("src/statcube/serve/widget.cc", """\
void Widget::AB() {
  { MutexLock la(a_); }
  MutexLock lb(b_);
}
void Widget::BA() {
  { MutexLock lb(b_); }
  MutexLock la(a_);
}
""")
        self.assertEqual(self.run_locks(), [])

    def test_inversion_via_call_edge_fires(self):
        self.write("src/statcube/serve/widget.h", LOCK_PRELUDE)
        self.write("src/statcube/serve/widget.cc", """\
void Widget::TakeB() { MutexLock lb(b_); }
void Widget::AB() {
  MutexLock la(a_);
  TakeB();
}
void Widget::BA() {
  MutexLock lb(b_);
  MutexLock la(a_);
}
""")
        found = self.run_locks()
        self.assertIn("locks/cycle:Widget::a_,Widget::b_", found)

    def test_lambda_not_nested_under_definition_site(self):
        # The worker lambda runs later on another thread; its acquisition
        # of b_ must not become an a_ -> b_ edge.
        self.write("src/statcube/serve/widget.h", LOCK_PRELUDE)
        self.write("src/statcube/serve/widget.cc", """\
void Widget::AB() {
  MutexLock la(a_);
  workers_.emplace_back([this] {
    MutexLock lb(b_);
  });
}
void Widget::BA() {
  MutexLock lb(b_);
  MutexLock la(a_);
}
""")
        self.assertEqual(self.run_locks(), [])


# ----------------------------------------------------------- determinism

class DeterminismPassTest(FixtureTest):
    def run_det(self):
        return self.keys(pass_determinism.run(self.ctx()))

    def test_unordered_emit_fires(self):
        self.write("src/statcube/exec/emit.cc", """\
#include <unordered_map>
void Emit(Table& out) {
  std::unordered_map<int, double> groups;
  for (const auto& [k, v] : groups) {
    out.AppendRow({k, v});
  }
}
""")
        self.assertIn("determinism/src/statcube/exec/emit.cc:groups",
                      self.run_det())

    def test_sort_after_loop_clean(self):
        self.write("src/statcube/exec/emit.cc", """\
void Emit(std::vector<Row>& rows) {
  std::unordered_map<int, double> groups;
  for (const auto& [k, v] : groups) {
    rows.push_back({k, v});
  }
  std::sort(rows.begin(), rows.end());
}
""")
        self.assertEqual(self.run_det(), [])

    def test_ordered_map_clean(self):
        self.write("src/statcube/exec/emit.cc", """\
void Emit(Table& out) {
  std::map<int, double> groups;
  for (const auto& [k, v] : groups) {
    out.AppendRow({k, v});
  }
}
""")
        self.assertEqual(self.run_det(), [])

    def test_alias_type_fires(self):
        self.write("src/statcube/relational/agg.h",
                   "using GroupedStates = "
                   "std::unordered_map<Row, AggState>;\n")
        self.write("src/statcube/exec/emit.cc", """\
Table Emit(const GroupedStates& states) {
  Table out;
  for (const auto& [row, st] : states) {
    out.AppendRow(row);
  }
  return out;
}
""")
        self.assertIn("determinism/src/statcube/exec/emit.cc:states",
                      self.run_det())

    def test_non_result_module_ignored(self):
        self.write("src/statcube/io/emit.cc", """\
void Emit(Table& out) {
  std::unordered_map<int, double> groups;
  for (const auto& [k, v] : groups) {
    out.AppendRow({k, v});
  }
}
""")
        self.assertEqual(self.run_det(), [])

    def test_loop_without_emit_clean(self):
        self.write("src/statcube/exec/emit.cc", """\
size_t Count() {
  std::unordered_map<int, double> groups;
  size_t n = 0;
  for (const auto& [k, v] : groups) {
    n += v > 0;
  }
  return n;
}
""")
        self.assertEqual(self.run_det(), [])


# --------------------------------------------------------------- hotpath

class HotpathPassTest(FixtureTest):
    def run_hot(self):
        return self.keys(pass_hotpath.run(self.ctx()))

    def test_mutex_in_morsel_lambda_fires(self):
        self.write("src/statcube/exec/k.cc", """\
void Kernel() {
  ParallelFor(
      n,
      [&](size_t m, size_t begin, size_t end) {
        MutexLock lock(mu_);
      },
      loop);
}
""")
        self.assertIn(
            "hotpath/src/statcube/exec/k.cc:ParallelFor-lambda:mutex",
            self.run_hot())

    def test_alloc_in_block_kernel_fires(self):
        self.write("src/statcube/common/vb.cc", """\
double SumBlockOrdered(const double* v, size_t n) {
  auto scratch = std::make_unique<double[]>(n);
  return 0.0;
}
""")
        self.assertIn(
            "hotpath/src/statcube/common/vb.cc:SumBlockOrdered:alloc",
            self.run_hot())

    def test_transitive_helper_fires(self):
        self.write("src/statcube/exec/k.cc", """\
void Helper(size_t r) {
  obs::MetricsRegistry::Global().GetCounter("x").Add(1);
}
void Kernel() {
  RunMorsels(
      n, morsel, nmorsels, next,
      [&](size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) Helper(r);
      });
}
""")
        self.assertIn("hotpath/src/statcube/exec/k.cc:Helper:registry",
                      self.run_hot())

    def test_clean_kernel_passes(self):
        self.write("src/statcube/exec/k.cc", """\
void Kernel() {
  ParallelFor(
      n,
      [&](size_t m, size_t begin, size_t end) {
        for (size_t r = begin; r < end; ++r) acc[m] += v[r];
      },
      loop);
}
""")
        self.assertEqual(self.run_hot(), [])

    def test_static_initializer_exonerated(self):
        self.write("src/statcube/exec/k.cc", """\
double SumBlockAuto(const double* v, size_t n) {
  static obs::Counter& c = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.fast");
  c.Add(1);
  return 0.0;
}
""")
        self.assertEqual(self.run_hot(), [])


# ---------------------------------------------------- suppressions/driver

class DriverTest(FixtureTest):
    def drive(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = analyze.main(argv)
        return code, out.getvalue(), err.getvalue()

    def seeded_fixture(self):
        lp = self.layers({"common": [], "cache": ["common"]})
        self.write("src/statcube/cache/a.cc",
                   '#include "statcube/common/status.h"\n')
        return lp

    def test_clean_tree_exit_zero(self):
        lp = self.seeded_fixture()
        supp = self.write("supp.txt", "")
        code, out, _ = self.drive(
            ["--repo-root", self.tmp, "--layers", lp,
             "--suppressions", supp])
        self.assertEqual(code, 0, out)

    def test_finding_exit_one(self):
        lp = self.layers({"common": [], "cache": ["common"]})
        self.write("src/statcube/cache/a.cc",
                   '#include "statcube/serve/http.h"\n')
        supp = self.write("supp.txt", "")
        code, out, _ = self.drive(
            ["--repo-root", self.tmp, "--layers", lp,
             "--suppressions", supp])
        self.assertEqual(code, 1)
        self.assertIn("edge:cache->serve", out)

    def test_suppression_silences_finding(self):
        lp = self.layers({"common": [], "cache": ["common"]})
        self.write("src/statcube/cache/a.cc",
                   '#include "statcube/serve/http.h"\n')
        supp = self.write(
            "supp.txt",
            "layers edge:cache->serve  # fixture justification\n")
        code, out, _ = self.drive(
            ["--repo-root", self.tmp, "--layers", lp,
             "--suppressions", supp])
        self.assertEqual(code, 0, out)
        self.assertIn("1 suppressed", out)

    def test_suppression_without_justification_rejected(self):
        lp = self.seeded_fixture()
        supp = self.write("supp.txt", "layers edge:cache->serve\n")
        code, _, err = self.drive(
            ["--repo-root", self.tmp, "--layers", lp,
             "--suppressions", supp])
        self.assertEqual(code, 2)
        self.assertIn("justification", err)

    def test_stale_suppression_fails(self):
        lp = self.seeded_fixture()
        supp = self.write(
            "supp.txt", "layers edge:cache->serve  # no longer real\n")
        code, _, err = self.drive(
            ["--repo-root", self.tmp, "--layers", lp,
             "--suppressions", supp])
        self.assertEqual(code, 1)
        self.assertIn("stale suppression", err)

    def test_unknown_pass_rejected(self):
        code, _, err = self.drive(["--passes", "nope"])
        self.assertEqual(code, 2)
        self.assertIn("unknown pass", err)


# -------------------------------------------------------- include scanner

class IncludeGraphTest(FixtureTest):
    def test_direct_includes_and_closure(self):
        self.write("src/statcube/common/a.h", "int a;\n")
        self.write("src/statcube/core/b.h",
                   '#include "statcube/common/a.h"\n')
        self.write("src/statcube/core/b.cc",
                   '#include "statcube/core/b.h"\n')
        ctx = self.ctx()
        incs = include_graph.direct_includes(ctx, "src/statcube/core/b.cc")
        self.assertEqual(incs, [(1, "statcube/core/b.h")])
        closure = include_graph.tu_closure_scan(ctx, "src/statcube/core/b.cc")
        self.assertEqual(closure, {"src/statcube/core/b.h",
                                   "src/statcube/common/a.h"})


if __name__ == "__main__":
    unittest.main()
