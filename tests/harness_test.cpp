// Tests for the shared bench harness (bench/harness.hpp): scale selection
// from the environment, the dataset table at every scale, and the JSON
// reporting layer round trip (format -> parse, and file append -> re-read).
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

TEST(JsonRecord, FormatParseRoundTrip) {
  const bench::BenchRecord r{"bench_table2", "500K(1/5)", 123456789,
                             4669.125, "paper"};
  const auto parsed = bench::parse_record(bench::format_record(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
}

TEST(JsonRecord, RoundTripPreservesAwkwardValues) {
  const bench::BenchRecord r{"bench \"quoted\"\\slash", "ds\nnewline\ttab",
                             0, 0.1 + 0.2, "tiny"};
  const std::string line = bench::format_record(r);
  EXPECT_EQ(line.find('\n'), std::string::npos) << "records must be one line";
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);  // %.17g keeps the double bit-exact
}

TEST(JsonRecord, ControlCharactersEscapeAndRoundTrip) {
  const bench::BenchRecord r{"bench\rcarriage", "ds\x01\x1f", 7, 1.0, "tiny"};
  const std::string line = bench::format_record(r);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control char leaked into JSON";
  }
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
}

TEST(JsonRecord, CyclesAbove2Pow53StayExact) {
  const bench::BenchRecord r{"b", "d", (1ull << 53) + 1, 0.0, "large"};
  const auto parsed = bench::parse_record(bench::format_record(r));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cycles, (1ull << 53) + 1);
}

TEST(PathSafeLabel, StripsDirectorySeparators) {
  EXPECT_EQ(bench::path_safe_label("500K(1/5)"), "500K(1-5)");
  EXPECT_EQ(bench::path_safe_label("a\\b c"), "a-b-c");
  EXPECT_EQ(bench::path_safe_label("2K(tiny)"), "2K(tiny)");
}

TEST(JsonRecord, ParseRejectsGarbage) {
  EXPECT_FALSE(bench::parse_record("").has_value());
  EXPECT_FALSE(bench::parse_record("not json at all").has_value());
  EXPECT_FALSE(
      bench::parse_record("{\"bench\":\"x\",\"cycles\":1}").has_value());
  EXPECT_FALSE(
      bench::parse_record("{\"bench\":\"unterminated").has_value());
}

TEST(JsonRecord, ThreadsFieldRoundTrips) {
  const bench::BenchRecord r{"b", "64x64", 100, 2.5, "tiny", /*threads=*/4};
  const std::string line = bench::format_record(r);
  EXPECT_NE(line.find("\"threads\":4"), std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->threads, 4u);
  EXPECT_EQ(*parsed, r);
}

TEST(JsonRecord, WallMsRoundTripsAndIsOmittedWhenUnmeasured) {
  const bench::BenchRecord measured{"b", "64x64", 100, 2.5, "tiny",
                                    /*threads=*/4, /*wall_ms=*/123.456};
  const std::string line = bench::format_record(measured);
  EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, measured);  // %.17g keeps the double bit-exact

  const bench::BenchRecord unmeasured{"b", "d", 1, 1.0, "tiny"};
  const std::string bare = bench::format_record(unmeasured);
  EXPECT_EQ(bare.find("wall_ms"), std::string::npos);
  const auto reparsed = bench::parse_record(bare);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->wall_ms, 0.0);
}

TEST(JsonRecord, PartitionFieldRoundTrips) {
  bench::BenchRecord r{"b", "64x64", 100, 2.5, "tiny", /*threads=*/4};
  r.partition = "rows+rebalance";
  const std::string line = bench::format_record(r);
  EXPECT_NE(line.find("\"partition\":\"rows+rebalance\""),
            std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->partition, "rows+rebalance");
  EXPECT_EQ(*parsed, r);
}

TEST(JsonRecord, RecordWithoutABackendFieldIsRejected) {
  // format_record always writes threads, partition, engine and
  // host_cores, and every committed record carries them, so a line
  // missing one is not a record: there is no default to guess for the
  // backend or the host it was measured on.
  const std::string full = bench::format_record(
      bench::BenchRecord{"b", "d", 5, 1.0, "tiny", /*threads=*/4});
  ASSERT_TRUE(bench::parse_record(full).has_value());
  for (const std::string field :
       {"\"threads\":4", "\"partition\":\"rows\"", "\"engine\":\"scan\"",
        "\"host_cores\":1"}) {
    SCOPED_TRACE(field);
    std::string line = full;
    const auto at = line.find("," + field);
    ASSERT_NE(at, std::string::npos);
    line.erase(at, field.size() + 1);
    EXPECT_FALSE(bench::parse_record(line).has_value()) << line;
  }
  // The shape of a record written before any of those fields existed.
  EXPECT_FALSE(bench::parse_record(
                   "{\"bench\":\"b\",\"dataset\":\"d\",\"cycles\":5,"
                   "\"energy_uj\":1.0,\"scale\":\"tiny\"}")
                   .has_value());
}

TEST(JsonRecord, RecordsWithRetiredFieldsStillParse) {
  // Records from the retired dense/sparse hybrid engine carry
  // dense_pct/cap_peak/cap_end; the parser skips fields it does not know.
  const std::string line =
      "{\"bench\":\"b\",\"dataset\":\"d\",\"cycles\":5,"
      "\"energy_uj\":1.0,\"scale\":\"tiny\",\"threads\":4,"
      "\"partition\":\"rows\",\"engine\":\"active\",\"cell_visits\":9,"
      "\"dense_pct\":50,\"cap_peak\":638,\"cap_end\":128,"
      "\"host_cores\":4}";
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cell_visits, 9u);
  EXPECT_EQ(parsed->host_cores, 4u);
  EXPECT_EQ(bench::format_record(*parsed).find("dense_pct"),
            std::string::npos);
}

TEST(JsonRecord, ParseRejectsNegativeCycles) {
  const std::string line =
      "{\"bench\":\"b\",\"dataset\":\"d\",\"cycles\":-1,"
      "\"energy_uj\":1.0,\"scale\":\"tiny\",\"threads\":1,"
      "\"partition\":\"rows\",\"engine\":\"scan\",\"host_cores\":1}";
  EXPECT_FALSE(bench::parse_record(line).has_value());
}

TEST(JsonReporter, FixedScaleOverridesEnvironment) {
  const ScopedEnv scale("CCASTREAM_SCALE", "paper");
  const std::string path = ::testing::TempDir() + "harness_test_fixed.jsonl";
  std::remove(path.c_str());
  const ScopedEnv json("CCASTREAM_BENCH_JSON", path.c_str());
  const bench::JsonReporter reporter("bench_micro", "fixed");
  reporter.record("2K/20K(ingest)", 1, 1.0);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto r = bench::parse_record(line);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->scale, "fixed");
  std::remove(path.c_str());
}

TEST(JsonReporter, DisabledWithoutEnvWritesNothing) {
  const ScopedEnv env("CCASTREAM_BENCH_JSON", nullptr);
  const bench::JsonReporter reporter("bench_x");
  EXPECT_FALSE(reporter.enabled());
  reporter.record("ds", 1, 1.0);  // must be a no-op, not a crash
}

TEST(JsonReporter, AppendsParseableRecordsToEnvNamedFile) {
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

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<bench::BenchRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    const auto r = bench::parse_record(line);
    ASSERT_TRUE(r.has_value()) << line;
    records.push_back(*r);
  }
  ASSERT_EQ(records.size(), 2u);
  // The reporter tags every record with the env-resolved backend (thread
  // count and partition spec), so the expectations must match whatever
  // CCASTREAM_THREADS / CCASTREAM_PARTITION the suite itself runs under
  // (e.g. CI's thread and partition matrices).
  const std::uint64_t backend = ccastream::sim::resolve_threads(0);
  const std::string partition = ccastream::sim::resolve_partition({}).to_string();
  const std::string engine{
      ccastream::sim::to_string(ccastream::sim::resolve_engine({}))};
  bench::BenchRecord alpha{"bench_alpha", "2K(tiny)", 1000,
                           1.5, "tiny",   backend,    0.0,
                           partition,     engine};
  bench::BenchRecord beta{"bench_beta", "8K(tiny)", 2000,
                          2.5, "tiny",  backend,    0.0,
                          partition,    engine};
  // The reporter stamps the measuring host's core count on every record.
  alpha.host_cores = std::max(1u, std::thread::hardware_concurrency());
  beta.host_cores = alpha.host_cores;
  EXPECT_EQ(records[0], alpha);
  EXPECT_EQ(records[1], beta);
  std::remove(path.c_str());
}

TEST(JsonRecord, HostCoresRoundTrips) {
  bench::BenchRecord r{"b", "64x64", 100, 2.5, "tiny"};
  r.host_cores = 96;
  const std::string line = bench::format_record(r);
  EXPECT_NE(line.find("\"host_cores\":96"), std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);
}

TEST(JsonReporter, StampsHostCoresOnEveryRecord) {
  const std::string path = ::testing::TempDir() + "harness_test_cores.jsonl";
  std::remove(path.c_str());
  const ScopedEnv json("CCASTREAM_BENCH_JSON", path.c_str());
  const bench::JsonReporter reporter("bench_cores", "fixed");
  reporter.record("ds", 1, 1.0);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto r = bench::parse_record(line);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->host_cores, std::max(1u, std::thread::hardware_concurrency()));
  std::remove(path.c_str());
}

TEST(JsonRecord, RssKbRoundTripsAndIsOmittedWhenUnmeasured) {
  bench::BenchRecord r{"b", "256x256", 100, 2.5, "paper"};
  r.rss_kb = 214'780;
  const std::string line = bench::format_record(r);
  EXPECT_NE(line.find("\"rss_kb\":214780"), std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);

  // 0 means unmeasured (no procfs): the field is omitted on write and
  // parses back to the same 0.
  const bench::BenchRecord bare{"b", "d", 1, 1.0, "tiny"};
  const std::string bare_line = bench::format_record(bare);
  EXPECT_EQ(bare_line.find("rss_kb"), std::string::npos);
  const auto reparsed = bench::parse_record(bare_line);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->rss_kb, 0u);
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

TEST(JsonRecord, EngineAndCellVisitsRoundTrip) {
  bench::BenchRecord r{"b", "64x64", 100, 2.5, "tiny", /*threads=*/4};
  r.engine = "active";
  r.cell_visits = 123'456;
  const std::string line = bench::format_record(r);
  EXPECT_NE(line.find("\"engine\":\"active\""), std::string::npos);
  EXPECT_NE(line.find("\"cell_visits\":123456"), std::string::npos);
  const auto parsed = bench::parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, r);

  // Unmeasured visit counts are omitted and parse back to 0.
  const bench::BenchRecord bare{"b", "d", 1, 1.0, "tiny"};
  const std::string bare_line = bench::format_record(bare);
  EXPECT_EQ(bare_line.find("cell_visits"), std::string::npos);
  const auto reparsed = bench::parse_record(bare_line);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->cell_visits, 0u);
}

}  // namespace
