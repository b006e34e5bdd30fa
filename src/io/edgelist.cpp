#include "io/edgelist.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace ccastream::io {

namespace {

/// Parses a whole token as an unsigned integer in range for T. Unlike
/// `>>`, it rejects a sign (a negative id would wrap) and trailing junk.
template <typename T>
bool parse_whole(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::vector<StreamEdge> read_edgelist(std::istream& in) {
  std::vector<StreamEdge> edges;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string src, dst, weight;
    ls >> src >> dst >> weight;
    StreamEdge e;  // weight 1 unless the line gives one
    if (!parse_whole(src, e.src) || !parse_whole(dst, e.dst) ||
        (!weight.empty() && !parse_whole(weight, e.weight))) {
      throw std::runtime_error("edgelist: malformed line " + std::to_string(lineno) +
                               ": '" + line + "'");
    }
    edges.push_back(e);
  }
  return edges;
}

std::vector<StreamEdge> read_edgelist_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("edgelist: cannot open '" + path + "'");
  return read_edgelist(f);
}

void write_edgelist(std::ostream& out, const std::vector<StreamEdge>& edges) {
  for (const auto& e : edges) {
    out << e.src << ' ' << e.dst << ' ' << e.weight << '\n';
  }
}

void write_edgelist_file(const std::string& path,
                         const std::vector<StreamEdge>& edges) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("edgelist: cannot open '" + path + "' for write");
  write_edgelist(f, edges);
}

}  // namespace ccastream::io
