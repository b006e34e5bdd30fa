// The binary increment-log codec (io/increment_codec): round-trips every op
// shape the streaming layer produces, rejects malformed input with
// structured errors instead of UB (this suite is part of the ubsan CI
// preset), and pins the v1 wire format byte-for-byte so a rewrite cannot
// silently change what recorded logs mean.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using io::IncrementCodecError;
using io::IncrementLogReader;
using io::IncrementLogWriter;

std::string encode(std::uint64_t num_vertices,
                   const std::vector<std::vector<StreamEdge>>& incs) {
  std::ostringstream out;
  io::write_increment_log(out, num_vertices, incs);
  return out.str();
}

// --- Round-trips -------------------------------------------------------------

TEST(IncrementCodec, RoundTripsInsertOnlyIncrements) {
  const std::vector<std::vector<StreamEdge>> incs = {
      {make_insert_edge(0, 1), make_insert_edge(1, 2, 7)},
      {},  // an empty increment is legal and must survive framing
      {make_insert_edge(41, 0, 3)},
  };
  std::istringstream in(encode(42, incs));
  const io::DecodedIncrementLog log = io::read_increment_log(in);
  EXPECT_EQ(log.header.version, io::kIncrementLogVersion);
  EXPECT_EQ(log.header.num_vertices, 42u);
  EXPECT_EQ(log.increments, incs);
}

TEST(IncrementCodec, RoundTripsDeleteAndWindowedStreams) {
  // A windowed schedule is the realistic mixed-op producer: aged edges
  // come back as delete ops, including delete-only drain increments.
  auto sched = wl::make_graphchallenge_like(60, 600, wl::SamplingKind::kEdge,
                                            /*increments=*/4, /*seed=*/7);
  sched = wl::apply_sliding_window(sched, /*window=*/2, /*drain=*/true);
  std::uint64_t deletes = 0;
  for (const auto& inc : sched.increments) {
    for (const auto& e : inc) deletes += e.is_delete() ? 1 : 0;
  }
  ASSERT_GT(deletes, 0u) << "window produced no deletions";

  std::istringstream in(encode(60, sched.increments));
  const io::DecodedIncrementLog log = io::read_increment_log(in);
  EXPECT_EQ(log.increments, sched.increments);
}

TEST(IncrementCodec, RoundTripsExtremeFieldValues) {
  const std::vector<std::vector<StreamEdge>> incs = {{
      StreamEdge{~0ull, ~0ull, ~0u, EdgeOp::kDelete},
      StreamEdge{0, 0, 0, EdgeOp::kInsert},
  }};
  std::istringstream in(encode(~0ull, incs));
  const io::DecodedIncrementLog log = io::read_increment_log(in);
  EXPECT_EQ(log.header.num_vertices, ~0ull);
  EXPECT_EQ(log.increments, incs);
}

TEST(IncrementCodec, StreamingReaderYieldsFramesInOrder) {
  const std::vector<std::vector<StreamEdge>> incs = {
      {make_insert_edge(1, 2)}, {make_delete_edge(1, 2)}};
  std::istringstream in(encode(3, incs));
  IncrementLogReader r(in);
  EXPECT_EQ(r.increments_read(), 0u);
  EXPECT_EQ(r.next(), incs[0]);
  EXPECT_EQ(r.next(), incs[1]);
  EXPECT_EQ(r.increments_read(), 2u);
  EXPECT_EQ(r.next(), std::nullopt);  // clean EOF at a frame boundary
  EXPECT_EQ(r.next(), std::nullopt);  // and stays there
}

// --- Golden pin of format v1 -------------------------------------------------

// The exact bytes of a two-increment v1 log. If this test fails, the wire
// format changed: bump kIncrementLogVersion and add a new pin — do not
// update these bytes in place, existing recorded logs would rot silently.
TEST(IncrementCodec, GoldenBytesForFormatV1) {
  const std::vector<std::vector<StreamEdge>> incs = {
      {make_insert_edge(0x0102030405060708ull, 0x11, 0xAABB)},
      {make_delete_edge(0x11, 0x22)},
  };
  const std::string got = encode(/*num_vertices=*/0x2A, incs);

  const unsigned char want[] = {
      // header: magic "CCIL", version 1, record stride 24,
      // num_vertices 0x2A, reserved 0 (all little-endian)
      'C', 'C', 'I', 'L', 0x01, 0x00, 0x18, 0x00,
      0x2A, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0,
      // frame 1: "INCR", op count 1
      'I', 'N', 'C', 'R', 0x01, 0x00, 0x00, 0x00,
      // record: src, dst, weight, op=insert, padding
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x11, 0, 0, 0, 0, 0, 0, 0,
      0xBB, 0xAA, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // frame 2: "INCR", op count 1
      'I', 'N', 'C', 'R', 0x01, 0x00, 0x00, 0x00,
      // record: src, dst, weight=1, op=delete, padding
      0x11, 0, 0, 0, 0, 0, 0, 0,
      0x22, 0, 0, 0, 0, 0, 0, 0,
      0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
  };
  ASSERT_EQ(got.size(), sizeof want);
  for (std::size_t i = 0; i < sizeof want; ++i) {
    ASSERT_EQ(static_cast<unsigned char>(got[i]), want[i])
        << "byte " << i << " diverged from the v1 pin";
  }

  // And the pinned bytes decode back to the source increments (the pin is
  // not write-only).
  std::istringstream in(got);
  EXPECT_EQ(io::read_increment_log(in).increments, incs);
}

TEST(IncrementCodec, SizeConstantsMatchTheLayout) {
  EXPECT_EQ(encode(1, {}).size(), io::kIncrementLogHeaderBytes);
  EXPECT_EQ(encode(1, {{}}).size(),
            io::kIncrementLogHeaderBytes + io::kIncrementFrameHeaderBytes);
  EXPECT_EQ(encode(1, {{make_insert_edge(0, 0)}}).size(),
            io::kIncrementLogHeaderBytes + io::kIncrementFrameHeaderBytes +
                io::kIncrementRecordBytes);
}

// --- Malformed input: structured rejection, no UB ---------------------------

void expect_rejects(std::string bytes, const char* fragment) {
  std::istringstream in(bytes);
  try {
    (void)io::read_increment_log(in);
    FAIL() << "decoder accepted malformed input (wanted error containing '"
           << fragment << "')";
  } catch (const IncrementCodecError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "actual error: " << e.what();
  }
}

TEST(IncrementCodec, RejectsGarbageMagic) {
  // A text snapshot misfed to the binary reader (long enough to fill the
  // fixed-size header, so the failure is the magic check, not truncation).
  expect_rejects("ccastream-snapshot v2\nchip 8 8\n", "bad magic");
  expect_rejects(std::string(64, '\xFF'), "bad magic");
  // Anything shorter than one header is truncation by definition.
  expect_rejects("CCIL", "truncated header");
}

TEST(IncrementCodec, RejectsFutureAndZeroVersions) {
  std::string log = encode(5, {});
  log[4] = 0x02;  // version 2: a future build's log
  expect_rejects(log, "unsupported version 2");
  log[4] = 0x00;
  expect_rejects(log, "unsupported version 0");
}

TEST(IncrementCodec, RejectsTruncationAtEveryByteBoundary) {
  const std::string full = encode(9, {{make_insert_edge(1, 2)},
                                      {make_delete_edge(1, 2)}});
  // Chopping the log anywhere that is not a frame boundary must throw a
  // structured "truncated ..." error — never return partial data, never
  // read out of bounds (the ubsan leg watches this loop).
  const std::size_t frame1_end = io::kIncrementLogHeaderBytes +
                                 io::kIncrementFrameHeaderBytes +
                                 io::kIncrementRecordBytes;
  for (std::size_t len = 1; len < full.size(); ++len) {
    if (len == io::kIncrementLogHeaderBytes || len == frame1_end) {
      // These are clean frame boundaries: a shorter log, not a broken one.
      std::istringstream in(full.substr(0, len));
      EXPECT_NO_THROW((void)io::read_increment_log(in)) << "length " << len;
      continue;
    }
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    expect_rejects(full.substr(0, len), "truncated");
  }
}

TEST(IncrementCodec, RejectsCorruptFrameAndRecordFields) {
  const std::string full = encode(9, {{make_insert_edge(1, 2)}});
  {
    std::string log = full;
    log[6] = 0x10;  // record stride 16 instead of 24
    expect_rejects(log, "record stride");
  }
  {
    std::string log = full;
    log[20] = 0x01;  // reserved header word no longer zero
    expect_rejects(log, "reserved");
  }
  {
    std::string log = full;
    log[io::kIncrementLogHeaderBytes] = 'X';  // frame tag corrupted
    expect_rejects(log, "frame tag");
  }
  {
    std::string log = full;
    // op byte beyond EdgeOp::kDelete
    log[io::kIncrementLogHeaderBytes + io::kIncrementFrameHeaderBytes + 20] =
        0x07;
    expect_rejects(log, "unknown op kind 7");
  }
  {
    std::string log = full;
    // nonzero record padding: reject so the bytes stay canonical (a v2
    // could repurpose them without ambiguity)
    log[io::kIncrementLogHeaderBytes + io::kIncrementFrameHeaderBytes + 23] =
        0x01;
    expect_rejects(log, "padding");
  }
}

TEST(IncrementCodec, RejectsOverdeclaredOpCount) {
  // Frame promises 1000 ops but carries one: truncated record, not a hang
  // or an overread.
  std::string log = encode(9, {{make_insert_edge(1, 2)}});
  log[io::kIncrementLogHeaderBytes + 4] = 0xE8;  // op count -> 1000
  log[io::kIncrementLogHeaderBytes + 5] = 0x03;
  expect_rejects(log, "truncated record");
  // The largest count a frame can declare: still the structured error,
  // not an allocation sized by the untrusted count (std::bad_alloc).
  for (std::size_t b = 4; b < 8; ++b) {
    log[io::kIncrementLogHeaderBytes + b] = static_cast<char>(0xFF);
  }
  expect_rejects(log, "truncated record");
}

TEST(IncrementCodec, ReaderErrorsAreSticky) {
  // After a framing error the stream is desynchronised by definition;
  // continuing to call next() keeps throwing rather than resyncing on
  // garbage.
  std::string log = encode(9, {{make_insert_edge(1, 2)}, {}});
  log[io::kIncrementLogHeaderBytes] = 'X';
  std::istringstream in(log);
  IncrementLogReader r(in);
  EXPECT_THROW((void)r.next(), IncrementCodecError);
  EXPECT_THROW((void)r.next(), IncrementCodecError);
}

}  // namespace
}  // namespace ccastream
