// Shared helpers for the serve-protocol tests.
//
//   * replay() runs a request script in process through
//     engine::run_blocking_session — the same driver the stdin REPL and the
//     threads transport run — with a string-backed read that hands out at
//     most `chunk` bytes per call, so a test can replay one script at any
//     fragmentation (one byte, a few bytes, or all of it at once).
//   * ReplyReader, drain() and run_scripted_session() are the client side
//     of the loopback socket tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "engine/protocol.hpp"
#include "net/line_scanner.hpp"
#include "net/socket.hpp"

namespace probgraph::serve_test {

/// replay() chunk size that hands the whole script over in one read.
inline constexpr std::size_t kWholeScript = std::numeric_limits<std::size_t>::max();

struct Replay {
  std::string replies;       ///< every reply byte, in order
  std::size_t answered = 0;  ///< run_blocking_session's return value
};

/// Replay `script` against a fresh session host over `eng` (an Engine or
/// a LiveEngine), each read returning at most `chunk` bytes.
template <typename EngineT>
Replay replay(EngineT& eng, std::string_view script, std::size_t chunk = kWholeScript) {
  const auto host = engine::make_session_host(eng);
  Replay r;
  std::size_t pos = 0;
  r.answered = engine::run_blocking_session(
      *host,
      [&](char* buf, std::size_t cap) {
        const std::size_t n = std::min({chunk, cap, script.size() - pos});
        std::memcpy(buf, script.data() + pos, n);
        pos += n;
        return static_cast<long>(n);
      },
      [&](std::string_view bytes) {
        r.replies.append(bytes);
        return true;
      });
  return r;
}

/// Newline-framed reply lines off a client socket.
class ReplyReader {
 public:
  explicit ReplyReader(net::Socket& sock) : sock_(sock) {}

  /// Read one reply line (newline stripped); a closed connection fails the
  /// test and returns what was buffered.
  std::string next() {
    std::string line;
    while (scanner_.next(line) != net::LineScanner::Next::kLine) {
      char buf[4096];
      const long got = sock_.read_some(buf, sizeof buf);
      if (got <= 0) {
        ADD_FAILURE() << "connection closed before a complete reply line";
        (void)scanner_.finish(line);
        return line;
      }
      scanner_.feed(buf, static_cast<std::size_t>(got));
    }
    return line;
  }

 private:
  net::Socket& sock_;
  net::LineScanner scanner_{1 << 16};
};

/// Read every byte until the server closes the connection.
inline std::string drain(net::Socket& sock) {
  std::string out;
  char buf[4096];
  for (;;) {
    const long got = sock.read_some(buf, sizeof buf);
    if (got <= 0) break;
    out.append(buf, static_cast<std::size_t>(got));
  }
  return out;
}

/// Scripted client: connect, send the whole script, half-close, read the
/// full transcript. Mirrors `pgtool client < script`. The single write is
/// also the pipelining workload: every request of the script may land in
/// one segment, and the transcript must still be every reply in order.
inline std::string run_scripted_session(std::uint16_t port, const std::string& script) {
  net::Socket sock = net::connect_to("127.0.0.1", port);
  EXPECT_TRUE(sock.write_all(script));
  sock.shutdown_write();
  return drain(sock);
}

}  // namespace probgraph::serve_test
