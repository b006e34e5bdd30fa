// Binary increment-log codec (see increment_codec.hpp for the format).
//
// Encoding goes through explicit little-endian byte packing — never a raw
// struct memcpy — so the on-disk bytes are identical on every host and the
// decoder touches nothing but bounds-checked buffers (no misaligned loads,
// no uninitialised padding reads: the properties the ubsan CI leg checks).
#include "io/increment_codec.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

namespace ccastream::io {

namespace {

/// The most records next() reserves before reading them. A frame's op
/// count is untrusted (reserving all of it let a 32-byte log ask for
/// 96 GiB), but the reserve itself stays: growing each increment's vector
/// from empty raised ccbench bfs_window's peak RSS by 6.5 %. A frame
/// beyond this many records grows as they arrive.
constexpr std::uint32_t kMaxReservedOps = 1u << 16;

void put_u16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v & 0xFF);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFF);
  }
}

[[nodiscard]] std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(static_cast<std::uint16_t>(p[0]) |
                                    static_cast<std::uint16_t>(p[1]) << 8);
}

[[nodiscard]] std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void write_bytes(std::ostream& out, const unsigned char* p, std::size_t n,
                 const char* what) {
  out.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!out) throw IncrementCodecError(std::string("write failed (") + what + ")");
}

/// Reads exactly n bytes. Returns false on an immediate clean EOF (zero
/// bytes read) when eof_ok; throws on truncation (some but not all bytes).
bool read_bytes(std::istream& in, unsigned char* p, std::size_t n,
                const char* what, bool eof_ok) {
  in.read(reinterpret_cast<char*>(p), static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == n) return true;
  if (got == 0 && eof_ok) return false;
  throw IncrementCodecError(std::string("truncated ") + what + " (got " +
                            std::to_string(got) + " of " + std::to_string(n) +
                            " bytes)");
}

}  // namespace

IncrementLogWriter::IncrementLogWriter(std::ostream& out,
                                       std::uint64_t num_vertices)
    : out_(out) {
  std::array<unsigned char, kIncrementLogHeaderBytes> h{};
  std::memcpy(h.data(), kIncrementLogMagic, 4);
  put_u16(h.data() + 4, kIncrementLogVersion);
  put_u16(h.data() + 6, static_cast<std::uint16_t>(kIncrementRecordBytes));
  put_u64(h.data() + 8, num_vertices);
  put_u64(h.data() + 16, 0);  // reserved
  write_bytes(out_, h.data(), h.size(), "header");
}

void IncrementLogWriter::write_increment(std::span<const StreamEdge> ops) {
  std::array<unsigned char, kIncrementFrameHeaderBytes> f{};
  std::memcpy(f.data(), kIncrementFrameMagic, 4);
  if (ops.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw IncrementCodecError("increment exceeds the u32 op-count field");
  }
  put_u32(f.data() + 4, static_cast<std::uint32_t>(ops.size()));
  write_bytes(out_, f.data(), f.size(), "frame header");

  std::array<unsigned char, kIncrementRecordBytes> r{};
  for (const StreamEdge& e : ops) {
    put_u64(r.data() + 0, e.src);
    put_u64(r.data() + 8, e.dst);
    put_u32(r.data() + 16, e.weight);
    r[20] = static_cast<unsigned char>(e.op);
    r[21] = r[22] = r[23] = 0;
    write_bytes(out_, r.data(), r.size(), "record");
  }
  ++increments_;
}

IncrementLogReader::IncrementLogReader(std::istream& in) : in_(in) {
  std::array<unsigned char, kIncrementLogHeaderBytes> h{};
  read_bytes(in_, h.data(), h.size(), "header", /*eof_ok=*/false);
  if (std::memcmp(h.data(), kIncrementLogMagic, 4) != 0) {
    throw IncrementCodecError("bad magic (not an increment log)");
  }
  header_.version = get_u16(h.data() + 4);
  if (header_.version == 0 || header_.version > kIncrementLogVersion) {
    throw IncrementCodecError(
        "unsupported version " + std::to_string(header_.version) +
        " (this build reads v" + std::to_string(kIncrementLogVersion) + ")");
  }
  const std::uint16_t record_bytes = get_u16(h.data() + 6);
  if (record_bytes != kIncrementRecordBytes) {
    throw IncrementCodecError("unexpected record stride " +
                              std::to_string(record_bytes) + " (want " +
                              std::to_string(kIncrementRecordBytes) + ")");
  }
  header_.num_vertices = get_u64(h.data() + 8);
  if (get_u64(h.data() + 16) != 0) {
    throw IncrementCodecError("nonzero reserved header field");
  }
}

std::optional<std::vector<StreamEdge>> IncrementLogReader::next() {
  std::array<unsigned char, kIncrementFrameHeaderBytes> f{};
  if (!read_bytes(in_, f.data(), f.size(), "frame header", /*eof_ok=*/true)) {
    return std::nullopt;  // clean end-of-log at a frame boundary
  }
  if (std::memcmp(f.data(), kIncrementFrameMagic, 4) != 0) {
    throw IncrementCodecError("bad frame tag (log desynchronised or corrupt)");
  }
  const std::uint32_t count = get_u32(f.data() + 4);

  std::vector<StreamEdge> ops;
  ops.reserve(std::min(count, kMaxReservedOps));
  std::array<unsigned char, kIncrementRecordBytes> r{};
  for (std::uint32_t i = 0; i < count; ++i) {
    read_bytes(in_, r.data(), r.size(), "record", /*eof_ok=*/false);
    StreamEdge e;
    e.src = get_u64(r.data() + 0);
    e.dst = get_u64(r.data() + 8);
    e.weight = get_u32(r.data() + 16);
    const unsigned char op = r[20];
    if (op > static_cast<unsigned char>(EdgeOp::kDelete)) {
      throw IncrementCodecError("unknown op kind " + std::to_string(op));
    }
    e.op = static_cast<EdgeOp>(op);
    if (r[21] != 0 || r[22] != 0 || r[23] != 0) {
      throw IncrementCodecError("nonzero record padding");
    }
    ops.push_back(e);
  }
  ++increments_;
  return ops;
}

void write_increment_log(std::ostream& out, std::uint64_t num_vertices,
                         std::span<const std::vector<StreamEdge>> increments) {
  IncrementLogWriter w(out, num_vertices);
  for (const auto& inc : increments) w.write_increment(inc);
}

DecodedIncrementLog read_increment_log(std::istream& in) {
  IncrementLogReader r(in);
  DecodedIncrementLog log;
  log.header = r.header();
  while (auto inc = r.next()) log.increments.push_back(std::move(*inc));
  return log;
}

}  // namespace ccastream::io
