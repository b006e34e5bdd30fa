// Tests for the shared bench harness (bench/harness.hpp): scale selection
// from the environment, the dataset table at every scale, and the JSON
// reporting layer: the exact bytes of a record (golden lines; CI reads
// them with tools/check_bench_records.py) and the reporter's file append.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "test_util.hpp"

namespace bench = ccastream::bench;

namespace {

using ccastream::test::ScopedEnv;

TEST(ScaleFromEnv, DefaultsToPaperWhenUnset) {
  const ScopedEnv env("CCASTREAM_SCALE", nullptr);
  EXPECT_EQ(bench::scale_from_env(), bench::Scale::kPaper);
}

TEST(ScaleFromEnv, ReadsEachKnownValue) {
  {
    const ScopedEnv env("CCASTREAM_SCALE", "tiny");
    EXPECT_EQ(bench::scale_from_env(), bench::Scale::kTiny);
  }
  {
    const ScopedEnv env("CCASTREAM_SCALE", "paper");
    EXPECT_EQ(bench::scale_from_env(), bench::Scale::kPaper);
  }
  {
    const ScopedEnv env("CCASTREAM_SCALE", "large");
    EXPECT_EQ(bench::scale_from_env(), bench::Scale::kLarge);
  }
}

TEST(ScaleFromEnv, UnknownValueFallsBackToPaper) {
  const ScopedEnv env("CCASTREAM_SCALE", "galactic");
  EXPECT_EQ(bench::scale_from_env(), bench::Scale::kPaper);
}

TEST(Datasets, TwoRowsAtEveryScale) {
  for (const auto scale :
       {bench::Scale::kTiny, bench::Scale::kPaper, bench::Scale::kLarge}) {
    const auto ds = bench::datasets(scale);
    ASSERT_EQ(ds.size(), 2u) << bench::to_string(scale);
    EXPECT_LT(ds[0].vertices, ds[1].vertices);
    for (const auto& d : ds) {
      EXPECT_FALSE(d.label.empty());
      EXPECT_GT(d.vertices, 0u);
      EXPECT_GT(d.edges, d.vertices);  // all rows are denser than a tree
    }
  }
}

TEST(Datasets, PaperRowsMatchTable1) {
  const auto ds = bench::datasets(bench::Scale::kPaper);
  EXPECT_EQ(ds[0].label, "50K");
  EXPECT_EQ(ds[0].vertices, 50'000u);
  EXPECT_EQ(ds[0].edges, 1'000'000u);
  EXPECT_FALSE(ds[0].scaled);
  EXPECT_TRUE(ds[1].scaled);

  const auto large = bench::datasets(bench::Scale::kLarge);
  EXPECT_EQ(large[1].vertices, 500'000u);
  EXPECT_EQ(large[1].edges, 10'200'000u);
}

TEST(Datasets, TinyIsCiSized) {
  for (const auto& d : bench::datasets(bench::Scale::kTiny)) {
    EXPECT_LE(d.edges, 200'000u);
    EXPECT_TRUE(d.scaled);
  }
}

TEST(ScaleNames, RoundTripThroughEnv) {
  for (const auto scale :
       {bench::Scale::kTiny, bench::Scale::kPaper, bench::Scale::kLarge}) {
    const ScopedEnv env("CCASTREAM_SCALE", bench::to_string(scale));
    EXPECT_EQ(bench::scale_from_env(), scale);
  }
}

// The tail every record with default backend fields ends in.
constexpr const char* kDefaultTail =
    R"("threads":1,"partition":"rows","engine":"scan","host_cores":1})";

TEST(JsonRecord, FormatsEveryFieldInSchemaOrder) {
  bench::BenchRecord r{"bench_table2", "500K(1/5)", 123456789, 4669.125,
                       "paper", /*threads=*/4, /*wall_ms=*/123.456};
  r.partition = "rows+rebalance";
  r.engine = "active";
  r.cell_visits = 123'456;
  r.rss_kb = 214'780;
  r.host_cores = 96;
  EXPECT_EQ(bench::format_record(r),
            R"json({"bench":"bench_table2","dataset":"500K(1/5)",)json"
            R"("cycles":123456789,"energy_uj":4669.125,"scale":"paper",)"
            R"("threads":4,"partition":"rows+rebalance","engine":"active",)"
            R"("wall_ms":123.456,"cell_visits":123456,"rss_kb":214780,)"
            R"("host_cores":96})");
}

TEST(JsonRecord, OmitsUnmeasuredFields) {
  // wall_ms, cell_visits and rss_kb read 0 when unmeasured and are then
  // left out; every other field is always written.
  EXPECT_EQ(bench::format_record({"b", "d", 1, 1.0, "tiny"}),
            std::string(R"({"bench":"b","dataset":"d","cycles":1,)"
                        R"("energy_uj":1,"scale":"tiny",)") +
                kDefaultTail);
}

TEST(JsonRecord, EscapesQuotesBackslashesAndWhitespace) {
  // One line per record, and %.17g keeps the double bit-exact: 0.1 + 0.2
  // is not 0.3.
  const bench::BenchRecord r{"bench \"quoted\"\\slash", "ds\nnewline\ttab",
                             0, 0.1 + 0.2, "tiny"};
  EXPECT_EQ(bench::format_record(r),
            std::string(R"({"bench":"bench \"quoted\"\\slash",)"
                        R"("dataset":"ds\nnewline\ttab","cycles":0,)"
                        R"("energy_uj":0.30000000000000004,"scale":"tiny",)") +
                kDefaultTail);
}

TEST(JsonRecord, EscapesControlCharacters) {
  const bench::BenchRecord r{"bench\rcarriage", "ds\x01\x1f", 7, 1.0, "tiny"};
  EXPECT_EQ(bench::format_record(r),
            std::string(R"({"bench":"bench\u000dcarriage",)"
                        R"("dataset":"ds\u0001\u001f","cycles":7,)"
                        R"("energy_uj":1,"scale":"tiny",)") +
                kDefaultTail);
}

TEST(JsonRecord, CyclesAbove2Pow53StayExact) {
  const bench::BenchRecord r{"b", "d", (1ull << 53) + 1, 0.0, "large"};
  EXPECT_EQ(bench::format_record(r),
            std::string(R"({"bench":"b","dataset":"d",)"
                        R"("cycles":9007199254740993,"energy_uj":0,)"
                        R"("scale":"large",)") +
                kDefaultTail);
}

TEST(PathSafeLabel, StripsDirectorySeparators) {
  EXPECT_EQ(bench::path_safe_label("500K(1/5)"), "500K(1-5)");
  EXPECT_EQ(bench::path_safe_label("a\\b c"), "a-b-c");
  EXPECT_EQ(bench::path_safe_label("2K(tiny)"), "2K(tiny)");
}

/// What a reporter writes for one measurement: the backend fields resolve
/// from whatever CCASTREAM_THREADS / CCASTREAM_PARTITION / CCASTREAM_ENGINE
/// the suite itself runs under (e.g. CI's thread and partition matrices),
/// and the reporter stamps the measuring host's core count.
std::string reported_line(const char* bench_name, const char* dataset,
                          std::uint64_t cycles, double energy_uj,
                          const char* scale) {
  bench::BenchRecord r{bench_name, dataset, cycles, energy_uj, scale};
  r.threads = ccastream::sim::resolve_threads(0);
  r.partition = ccastream::sim::resolve_partition({}).to_string();
  r.engine = ccastream::sim::to_string(ccastream::sim::resolve_engine({}));
  r.host_cores = std::max(1u, std::thread::hardware_concurrency());
  return bench::format_record(r);
}

/// Every line of `path`.
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(JsonReporter, FixedScaleOverridesEnvironment) {
  const ScopedEnv scale("CCASTREAM_SCALE", "paper");
  const std::string path = ::testing::TempDir() + "harness_test_fixed.jsonl";
  std::remove(path.c_str());
  const ScopedEnv json("CCASTREAM_BENCH_JSON", path.c_str());
  const bench::JsonReporter reporter("bench_micro", "fixed");
  reporter.record("2K/20K(ingest)", 1, 1.0);
  EXPECT_EQ(read_lines(path),
            std::vector<std::string>{reported_line(
                "bench_micro", "2K/20K(ingest)", 1, 1.0, "fixed")});
  std::remove(path.c_str());
}

TEST(JsonReporter, DisabledWithoutEnvWritesNothing) {
  const ScopedEnv env("CCASTREAM_BENCH_JSON", nullptr);
  const bench::JsonReporter reporter("bench_x");
  EXPECT_FALSE(reporter.enabled());
  reporter.record("ds", 1, 1.0);  // must be a no-op, not a crash
}

TEST(JsonReporter, AppendsOneLinePerRecordToEnvNamedFile) {
  const std::string path =
      ::testing::TempDir() + "harness_test_records.jsonl";
  std::remove(path.c_str());
  const ScopedEnv json(("CCASTREAM_BENCH_JSON"), path.c_str());
  const ScopedEnv scale("CCASTREAM_SCALE", "tiny");

  {
    const bench::JsonReporter reporter("bench_alpha");
    ASSERT_TRUE(reporter.enabled());
    reporter.record("2K(tiny)", 1000, 1.5);
  }
  {
    const bench::JsonReporter reporter("bench_beta");
    reporter.record("8K(tiny)", 2000, 2.5);  // appends, never truncates
  }

  EXPECT_EQ(read_lines(path),
            (std::vector<std::string>{
                reported_line("bench_alpha", "2K(tiny)", 1000, 1.5, "tiny"),
                reported_line("bench_beta", "8K(tiny)", 2000, 2.5, "tiny")}));
  std::remove(path.c_str());
}

TEST(PeakRss, ReportsANonDecreasingHighWaterOnLinux) {
  const std::uint64_t before = bench::peak_rss_kb();
  if (before == 0) GTEST_SKIP() << "procfs unavailable on this host";
  // Touch a few MiB so the high-water mark has definitely been pushed past
  // zero; the mark never decreases within a process lifetime.
  std::vector<char> ballast(8u << 20, 1);
  EXPECT_GE(bench::peak_rss_kb(), before);
  EXPECT_GT(ballast[4u << 20], 0);
}

}  // namespace
