// shc_serve — long-lived certification server.
//
// Speaks newline-delimited JSON: one request object per line in, one
// response row per line out, the same row schema shc_sweep emits (plus
// an `"id"`/`"cache_hit"` envelope).  A line longer than 64 KiB is
// answered with an error row instead of being parsed.  Two transports
// share one ServeEngine (shc/api/serve.hpp) — and with it one
// certificate cache, one WorkerPool, and one admission controller — and
// one bounded line reader (serve_stream):
//
//   shc_serve                          # stdin/stdout loop
//   shc_serve --socket /tmp/shc.sock   # AF_UNIX listener, concurrent
//                                      # clients, one thread each
//
// Example session:
//
//   $ echo '{"id":1,"workload":"broadcast-symbolic","n":24,"k":2}' | shc_serve
//   {"engine":"symbolic","n":24,...,"id":1,"cache_hit":false}
//
// Knobs:
//   --threads T       shared WorkerPool workers lent to one query at a
//                     time (default 1: every query runs inline)
//   --heavy-groups G  predicted-group-count admission threshold
//   --heavy-slots S   concurrently admitted heavy queries (default 1)
//   --no-cache        disable certificate memoization
//   --selftest        run the built-in protocol check and exit 0/1
//                     (the tier-1 ctest smoke test)
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "shc/shc.hpp"

namespace {

using namespace shc;

int parse_int_or_die(const char* s) {
  int v = 0;
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc{} || ptr != end) {
    std::cerr << "shc_serve: not a number: " << s << "\n";
    std::exit(2);
  }
  return v;
}

/// Removes the service envelope (`"id"`, `"cache_hit"`) so selftest can
/// compare the cached row bytes against the cold row bytes.
std::string strip_envelope(std::string row) {
  for (const char* key : {",\"id\":", ",\"cache_hit\":"}) {
    const std::size_t at = row.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = at + std::strlen(key);
    while (end < row.size() && row[end] != ',' && row[end] != '}') ++end;
    row.erase(at, end - at);
  }
  return row;
}

bool is_socket(int fd) {
  struct stat st {};
  return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

/// Writes all of `row` to fd; false if the peer went away.  Sockets get
/// send(MSG_NOSIGNAL), so a client that hangs up cannot SIGPIPE the
/// server; send() fails on a pipe or file, which take write().
bool write_all(int fd, bool socket, const std::string& row) {
  std::size_t off = 0;
  while (off < row.size()) {
    const ssize_t wrote =
        socket ? ::send(fd, row.data() + off, row.size() - off, MSG_NOSIGNAL)
               : ::write(fd, row.data() + off, row.size() - off);
    if (wrote <= 0) return false;
    off += static_cast<std::size_t>(wrote);
  }
  return true;
}

/// The one line reader of both transports: lines in from `in_fd`, one
/// row per line out to `out_fd`, until EOF or a failed write.  A line
/// that outgrows ServeEngine::kMaxLineBytes before its newline arrives
/// is answered once (the engine's over-long-line error row) and the
/// rest of it is discarded up to the next newline, so a client that
/// never sends '\n' cannot grow the buffer without bound.  A last line
/// cut off by EOF is still answered.
void serve_stream(ServeEngine& engine, int in_fd, int out_fd) {
  const bool socket = is_socket(out_fd);
  std::string buf;
  bool discarding = false;  // inside an over-long line already answered
  char chunk[4096];
  const auto reply = [&](const std::string& line) {
    return write_all(out_fd, socket, engine.handle_line(line) + "\n");
  };
  for (;;) {
    const ssize_t got = ::read(in_fd, chunk, sizeof(chunk));
    if (got <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(got));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      if (discarding) {
        discarding = false;
      } else if (!reply(buf.substr(start, nl - start))) {
        return;
      }
      start = nl + 1;
    }
    buf.erase(0, start);
    if (discarding) {
      buf.clear();
    } else if (buf.size() > ServeEngine::kMaxLineBytes) {
      if (!reply(buf)) return;
      buf.clear();
      discarding = true;
    }
  }
  if (!discarding && !buf.empty()) reply(buf);
}

/// One connected socket client.
void serve_connection(ServeEngine& engine, int fd) {
  serve_stream(engine, fd, fd);
  ::close(fd);
}

/// Drives serve_stream over a socketpair (`socket`) or a pair of pipes:
/// a 1 MiB line with no newline until its end, then a real query.
/// Returns the rows read back, one per line.
std::vector<std::string> rows_for_overlong_line(ServeEngine& engine, bool socket) {
  int client_out = -1, client_in = -1, server_in = -1, server_out = -1;
  if (socket) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return {};
    client_out = client_in = sv[0];
    server_in = server_out = sv[1];
  } else {
    int to_server[2], from_server[2];
    if (::pipe(to_server) != 0) return {};
    if (::pipe(from_server) != 0) {
      ::close(to_server[0]);
      ::close(to_server[1]);
      return {};
    }
    server_in = to_server[0];
    client_out = to_server[1];
    client_in = from_server[0];
    server_out = from_server[1];
  }
  std::thread server([&] {
    serve_stream(engine, server_in, server_out);
    ::close(server_in);
    if (server_out != server_in) ::close(server_out);
  });
  std::string out;
  std::thread reader([&] {
    char chunk[4096];
    for (;;) {
      const ssize_t got = ::read(client_in, chunk, sizeof(chunk));
      if (got <= 0) break;
      out.append(chunk, static_cast<std::size_t>(got));
    }
  });
  const std::string junk(std::size_t{1} << 20, 'x');
  bool sent = write_all(client_out, socket, junk) && write_all(client_out, socket, "\n");
  sent = sent && write_all(client_out, socket,
                           "{\"id\":4,\"workload\":\"broadcast-streaming\","
                           "\"n\":8,\"k\":2}\n");
  if (socket) {
    ::shutdown(client_out, SHUT_WR);
  } else {
    ::close(client_out);
  }
  server.join();
  reader.join();
  ::close(client_in);
  std::vector<std::string> rows;
  if (!sent) return rows;
  std::size_t start = 0;
  for (std::size_t nl; (nl = out.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    rows.push_back(out.substr(start, nl - start));
  }
  return rows;
}

/// Fixed request script through an in-process engine; any mismatch is a
/// failed smoke test.  Covers the protocol surface the serve_test gtest
/// suite checks in depth: ok rows, cache-hit byte identity, structured
/// errors for malformed lines, admission refusal, and the line reader's
/// length cap over both transports (socket and pipe).
int selftest() {
  int failures = 0;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      ++failures;
      std::cerr << "selftest FAIL: " << what << "\n";
    }
  };

  ServeEngine engine(ServeOptions{});
  const std::string cold = engine.handle_line(
      "{\"id\":1,\"workload\":\"broadcast-streaming\",\"n\":8,\"k\":2}");
  expect(cold.find("\"ok\":true") != std::string::npos, "cold query ok: " + cold);
  expect(cold.find("\"cache_hit\":false") != std::string::npos,
         "cold query is a miss: " + cold);
  const std::string warm = engine.handle_line(
      "{\"id\":2,\"workload\":\"broadcast-streaming\",\"n\":8,\"k\":2}");
  expect(warm.find("\"cache_hit\":true") != std::string::npos,
         "warm query is a hit: " + warm);
  expect(strip_envelope(warm) == strip_envelope(cold),
         "cache hit row bytes == cold row bytes");

  const std::string bad = engine.handle_line("{nope");
  expect(bad.find("\"ok\":false") != std::string::npos &&
             bad.find("\"error\":") != std::string::npos,
         "malformed line answers a structured error row: " + bad);
  const std::string unknown = engine.handle_line(
      "{\"workload\":\"frisbee\",\"n\":8}");
  expect(unknown.find("\"ok\":false") != std::string::npos,
         "unknown workload answers an error row: " + unknown);

  ServeOptions strict;
  strict.heavy_groups = 1;  // everything is heavy...
  strict.heavy_slots = 0;   // ...and nothing is admitted
  ServeEngine gate(strict);
  const std::string refused = gate.handle_line(
      "{\"id\":3,\"workload\":\"broadcast-streaming\",\"n\":8}");
  expect(refused.find("\"refused\":true") != std::string::npos,
         "admission refusal row: " + refused);

  // Both transports: an over-long line is answered once and dropped up
  // to its newline; the next line is served normally.
  for (const bool socket : {true, false}) {
    const std::string via = socket ? "socket: " : "pipe: ";
    const std::vector<std::string> rows = rows_for_overlong_line(engine, socket);
    expect(rows.size() == 2, via + "two rows for an over-long line plus a query, got " +
                                 std::to_string(rows.size()));
    if (rows.size() == 2) {
      expect(rows[0] == "{\"ok\":false,\"error\":\"parse: line longer than "
                        "65536 bytes\"}",
             via + "over-long line answers the line-length error row: " + rows[0]);
      expect(rows[1].find("\"ok\":true") != std::string::npos &&
                 rows[1].find("\"id\":4") != std::string::npos,
             via + "the query after it is served: " + rows[1]);
    }
  }

  if (failures == 0) std::cout << "shc_serve selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}

int serve_socket(ServeEngine& engine, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "shc_serve: socket: " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::cerr << "shc_serve: socket path too long\n";
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    std::cerr << "shc_serve: bind/listen " << path << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  std::cerr << "shc_serve: listening on " << path << "\n";
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::cerr << "shc_serve: accept: " << std::strerror(errno) << "\n";
      return 1;
    }
    // One thread per client; the engine is thread-safe and the cache,
    // pool, and admission slots are shared across all of them.
    std::thread(serve_connection, std::ref(engine), fd).detach();
  }
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt;
  std::string socket_path;
  bool run_selftest = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--threads" && a + 1 < argc) {
      opt.threads = parse_int_or_die(argv[++a]);
    } else if (arg == "--heavy-groups" && a + 1 < argc) {
      opt.heavy_groups = static_cast<std::uint64_t>(parse_int_or_die(argv[++a]));
    } else if (arg == "--heavy-slots" && a + 1 < argc) {
      opt.heavy_slots = parse_int_or_die(argv[++a]);
    } else if (arg == "--no-cache") {
      opt.enable_cache = false;
    } else if (arg == "--socket" && a + 1 < argc) {
      socket_path = argv[++a];
    } else if (arg == "--selftest") {
      run_selftest = true;
    } else {
      std::cerr << "usage: shc_serve [--threads T] [--heavy-groups G] "
                   "[--heavy-slots S] [--no-cache] [--socket PATH] "
                   "[--selftest]\n";
      return 2;
    }
  }
  if (run_selftest) return selftest();
  if (opt.threads > kMaxCheckThreads) {
    std::cerr << "shc_serve: --threads must be <= " << kMaxCheckThreads << "\n";
    return 2;
  }

  ServeEngine engine(opt);
  if (!socket_path.empty()) return serve_socket(engine, socket_path);

  // stdin/stdout transport: the same reader as a socket client.
  serve_stream(engine, STDIN_FILENO, STDOUT_FILENO);
  return 0;
}
