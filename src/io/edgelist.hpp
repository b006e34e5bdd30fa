// Plain-text edge list I/O ("src dst [weight]" per line, '#' comments) so
// real datasets — e.g. the actual GraphChallenge files — can be streamed
// through the chip in place of the synthetic generators.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/stream_edge.hpp"

namespace ccastream::io {

/// Parses an edge list stream. Throws std::runtime_error, naming the line,
/// on a line whose ids are not whole u64 tokens or whose optional weight
/// is not a whole u32 token (a sign, junk or an out-of-range value).
[[nodiscard]] std::vector<StreamEdge> read_edgelist(std::istream& in);

/// Reads a file; throws std::runtime_error if it cannot be opened.
[[nodiscard]] std::vector<StreamEdge> read_edgelist_file(const std::string& path);

void write_edgelist(std::ostream& out, const std::vector<StreamEdge>& edges);
void write_edgelist_file(const std::string& path,
                         const std::vector<StreamEdge>& edges);

}  // namespace ccastream::io
