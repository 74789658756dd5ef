// The benches' design suite: the run that builds gcnt_bench_cache/ and
// every run that reads it back see the same netlists, in the same node
// order, with the same labels.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench_common.h"

namespace gcnt {
namespace {

TEST(BenchSuite, CacheBuildingRunMatchesCachedRun) {
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path dir =
      home / ("bench_suite_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  fs::current_path(dir);
  ::setenv("GCNT_BENCH_GATES", "300", 1);
  const std::vector<Dataset> built = bench::load_suite();
  ASSERT_TRUE(fs::exists("gcnt_bench_cache"));
  const std::vector<Dataset> cached = bench::load_suite();
  ::unsetenv("GCNT_BENCH_GATES");
  fs::current_path(home);
  fs::remove_all(dir);

  ASSERT_EQ(built.size(), 4u);
  ASSERT_EQ(cached.size(), built.size());
  for (std::size_t i = 0; i < built.size(); ++i) {
    const Netlist& a = built[i].netlist;
    const Netlist& b = cached[i].netlist;
    SCOPED_TRACE(a.name());
    ASSERT_EQ(a.size(), b.size());
    for (NodeId v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a.node_name(v), b.node_name(v)) << "node " << v;
    }
    EXPECT_EQ(built[i].tensors.labels, cached[i].tensors.labels);
    EXPECT_EQ(built[i].tensors.features, cached[i].tensors.features);
    EXPECT_GT(built[i].positives(), 0u);
  }
}

}  // namespace
}  // namespace gcnt
