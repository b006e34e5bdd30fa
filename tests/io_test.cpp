// I/O round trips: edge lists and CSV experiment outputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_util.hpp"

namespace ccastream::io {
namespace {

TEST(EdgeList, RoundTripThroughStream) {
  const std::vector<StreamEdge> edges{{0, 1, 1}, {5, 3, 9}, {2, 2, 1}};
  std::stringstream ss;
  write_edgelist(ss, edges);
  EXPECT_EQ(read_edgelist(ss), edges);
}

TEST(EdgeList, SkipsCommentsAndBlanks) {
  std::stringstream ss("# a comment\n\n  \t\n1 2\n# more\n3 4 7\n");
  const auto edges = read_edgelist(ss);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (StreamEdge{1, 2, 1}));  // default weight
  EXPECT_EQ(edges[1], (StreamEdge{3, 4, 7}));
}

TEST(EdgeList, MalformedLineThrows) {
  std::stringstream ss("1 2\nbogus\n");
  EXPECT_THROW(read_edgelist(ss), std::runtime_error);
  // A sign on any field, or a weight that is not a whole u32, is malformed
  // too: `>>` would wrap -1 to 2^64-1 (or 2^32-3 as a weight), read "abc"
  // or 2^32 as the default weight, and stop at junk after a number.
  for (const char* bad : {"-1 0", "0 -1", "0 1 -3", "0 1 abc", "0 1 4294967296",
                          "0 1 5x", "0 1x 5", "7"}) {
    SCOPED_TRACE(bad);
    std::stringstream in(std::string("# header\n") + bad + "\n3 4\n");
    try {
      (void)read_edgelist(in);
      ADD_FAILURE() << "accepted a malformed line";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed line 2"), std::string::npos)
          << e.what();
    }
  }
  std::stringstream max_weight("0 1 4294967295\n");
  EXPECT_EQ(read_edgelist(max_weight),
            (std::vector<StreamEdge>{{0, 1, 4294967295u}}));
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edgelist_file("/nonexistent/nope.el"), std::runtime_error);
}

TEST(EdgeList, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ccastream_io_test.el";
  const std::vector<StreamEdge> edges{{10, 20, 2}, {30, 40, 1}};
  write_edgelist_file(path, edges);
  EXPECT_EQ(read_edgelist_file(path), edges);
  std::remove(path.c_str());
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/ccastream_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row({"hello", "wor,ld"});
    csv.row_numeric({1.5, 2.0});
  }
  std::ifstream f(path);
  std::string l1, l2, l3;
  std::getline(f, l1);
  std::getline(f, l2);
  std::getline(f, l3);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "hello,\"wor,ld\"");
  EXPECT_EQ(l3, "1.5,2");
  std::remove(path.c_str());
}

TEST(Trace, PercentSeriesAndStats) {
  sim::ActivationTrace trace;
  trace.set_enabled(true);
  for (int i = 0; i < 100; ++i) {
    trace.record(i < 50 ? 64 : 0, 64);  // half the run fully active
  }
  EXPECT_DOUBLE_EQ(trace.peak_active_fraction(64), 1.0);
  EXPECT_NEAR(trace.mean_active_fraction(64), 0.5, 1e-9);
  const auto series = trace.percent_series(64, 10);
  ASSERT_FALSE(series.empty());
  EXPECT_LE(series.size(), 11u);
  EXPECT_DOUBLE_EQ(series.front().second, 100.0);
  EXPECT_DOUBLE_EQ(series.back().second, 0.0);
}

TEST(Trace, DisabledRecordsNothing) {
  sim::ActivationTrace trace;
  trace.record(1, 1);
  EXPECT_TRUE(trace.samples().empty());
  EXPECT_DOUBLE_EQ(trace.mean_active_fraction(4), 0.0);
}

TEST(Trace, GridWriterProducesPgm) {
  sim::ActivityGridWriter writer(::testing::TempDir(), 4, 2);
  EXPECT_TRUE(writer.write_frame(0, std::vector<std::uint8_t>(8, 128)));
  EXPECT_FALSE(writer.write_frame(1, std::vector<std::uint8_t>(3, 0)));  // bad size
  std::ifstream f(::testing::TempDir() + "/frame_0.pgm", std::ios::binary);
  std::string magic;
  f >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove((::testing::TempDir() + "/frame_0.pgm").c_str());
}

}  // namespace
}  // namespace ccastream::io
