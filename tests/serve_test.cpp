// Service suite for ServeEngine (shc/api/serve.hpp): malformed input
// answers structured error rows (never a crash), concurrent clients all
// get correct answers, cache hits return the cold run's row bytes
// unchanged, and admission control refuses excess heavy queries while
// an admitted one completes without starving the small ones.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "shc/api/serve.hpp"

namespace shc {
namespace {

/// Removes the per-request envelope fields so row payloads can be
/// compared across requests.
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

TEST(ServeEngine, MalformedLinesAnswerErrorRowsNotCrashes) {
  ServeEngine engine{ServeOptions{}};
  for (const char* bad :
       {"", "{", "{oops", "[1,2,3]", "42", "{\"workload\":7,\"n\":8}",
        "{\"workload\":\"frisbee\",\"n\":8}",
        "{\"workload\":\"broadcast-streaming\"}",                   // missing n
        "{\"n\":8}",                                                // missing workload
        "{\"workload\":\"broadcast-streaming\",\"n\":8,\"x\":1}",   // unknown field
        "{\"workload\":\"broadcast-streaming\",\"n\":8,\"threads\":0}",
        "{\"workload\":\"broadcast-streaming\",\"n\":8,\"cuts\":[\"a\"]}",
        "{\"workload\":\"broadcast-streaming\",\"n\":8} trailing",
        "{\"workload\":\"broadcast-streaming\",\"n\":8,\"model\":\"bogus\"}"}) {
    const std::string row = engine.handle_line(bad);
    EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << bad << " -> " << row;
    EXPECT_NE(row.find("\"error\":\""), std::string::npos) << bad << " -> " << row;
  }
  EXPECT_EQ(engine.stats().errors, 14u);

  // The engine is still alive and answers real queries afterwards.
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-streaming\",\"n\":8,\"k\":2}");
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;

  // An unbuildable spec is an error row too, not an escaped throw.
  const std::string badspec = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":8,\"cuts\":[5,3]}");
  EXPECT_NE(badspec.find("\"ok\":false"), std::string::npos) << badspec;
}

TEST(ServeEngine, ControlCharactersInAnErrorAreEscapedOntoOneLine) {
  // The field name arrives JSON-escaped and leaves in the error text; a
  // raw 0x01 or newline in the row would break one line per request.
  ServeEngine engine{ServeOptions{}};
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":8,\"a\\u0001b\\nc\\r\\td\":1}");
  EXPECT_EQ(row, "{\"ok\":false,\"error\":\"unknown field: a\\u0001b\\nc\\r\\td\"}");
  EXPECT_EQ(json_escape(std::string("\"\\\x1f\x7f", 4)), "\\\"\\\\\\u001f\x7f");
}

TEST(ServeEngine, DesignArgumentsOutOfRangeAnswerErrorRows) {
  // The cut designers guard n > k >= 2 with typed exceptions; these
  // probes used to index past the designer's tables and crash.
  ServeEngine engine{ServeOptions{}};
  std::uint64_t probes = 0;
  for (const char* workload :
       {"broadcast-streaming", "broadcast-symbolic", "gossip-symbolic"}) {
    for (const char* args : {"\"n\":20,\"k\":1", "\"n\":20,\"k\":0",
                             "\"n\":0", "\"n\":0,\"k\":0", "\"n\":3,\"k\":3",
                             "\"n\":2,\"k\":5", "\"n\":-4,\"k\":2"}) {
      const std::string line = std::string("{\"workload\":\"") + workload +
                               "\"," + args + "}";
      const std::string row = engine.handle_line(line);
      ++probes;
      EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << line << " -> " << row;
      EXPECT_NE(row.find("\"error\":\"spec: design_sparse_hypercube: need n > k >= 2"),
                std::string::npos)
          << line << " -> " << row;
      EXPECT_EQ(row.find("std::"), std::string::npos) << line << " -> " << row;
      EXPECT_EQ(row.find("max_size()"), std::string::npos) << line << " -> " << row;
    }
  }
  EXPECT_EQ(engine.stats().errors, probes);

  // Still serving.
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":20,\"k\":2}");
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;
}

TEST(ServeEngine, HostileCutsAnswerNamedSpecErrors) {
  // The cut vector arrives from the client.  construct used to guard it
  // with asserts only, so these rows read a std::vector length error,
  // an ok:true k = 2 row for a cut at n, or a stray lemma2_labeling
  // message.
  ServeEngine engine{ServeOptions{}};
  const std::pair<const char*, const char*> cases[] = {
      {"\"n\":10,\"cuts\":[11]", "spec: construct: last cut 11 must be below n = 10"},
      {"\"n\":10,\"cuts\":[10]", "spec: construct: last cut 10 must be below n = 10"},
      {"\"n\":10,\"cuts\":[5,3]", "spec: construct: cuts must be strictly increasing"},
      {"\"n\":10,\"cuts\":[3,3]", "spec: construct: cuts must be strictly increasing"},
      {"\"n\":10,\"cuts\":[0]", "spec: construct: cuts must be >= 1, got 0"},
      {"\"n\":10,\"cuts\":[-2,4]", "spec: construct: cuts must be >= 1, got -2"},
      {"\"n\":40,\"cuts\":[30]",
       "spec: construct: level 0 window (0, 30] is 30 dims wide, above the 24 a labeling "
       "spans"},
      {"\"n\":40,\"cuts\":[3,33]",
       "spec: construct: level 1 window (3, 33] is 30 dims wide, above the 24 a labeling "
       "spans"},
  };
  std::uint64_t probes = 0;
  for (const char* workload :
       {"broadcast-streaming", "broadcast-symbolic", "gossip-symbolic"}) {
    for (const auto& [args, error] : cases) {
      const std::string line = std::string("{\"workload\":\"") + workload + "\"," + args + "}";
      const std::string row = engine.handle_line(line);
      ++probes;
      EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << line << " -> " << row;
      EXPECT_NE(row.find(std::string("\"error\":\"") + error + "\""), std::string::npos)
          << line << " -> " << row;
      EXPECT_EQ(row.find("std::"), std::string::npos) << line << " -> " << row;
      EXPECT_EQ(row.find("max_size()"), std::string::npos) << line << " -> " << row;
      EXPECT_EQ(row.find("lemma2_labeling"), std::string::npos) << line << " -> " << row;
    }
  }
  EXPECT_EQ(engine.stats().errors, probes);

  // A valid cut vector still certifies.
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":10,\"cuts\":[3,6]}");
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;
}

TEST(ServeEngine, ExchangeGossipRejectsKAndCutsItWouldIgnore) {
  // The exchange engine always runs k = 1 on the full cube, so a request
  // naming another k or a cut vector answers a spec: row instead of a
  // k = 1 row it did not ask for.
  ServeEngine engine{ServeOptions{}};
  for (const char* args : {"\"k\":3", "\"cuts\":[2]", "\"k\":1,\"cuts\":[2]"}) {
    const std::string line =
        std::string("{\"workload\":\"exchange-gossip\",\"n\":8,") + args + "}";
    const std::string row = engine.handle_line(line);
    EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << line << " -> " << row;
    EXPECT_NE(row.find("\"error\":\"spec: exchange-gossip always runs k = 1"),
              std::string::npos)
        << line << " -> " << row;
    EXPECT_EQ(row.find("std::"), std::string::npos) << line << " -> " << row;
  }
  EXPECT_EQ(engine.stats().errors, 3u);

  // k = 1 and an omitted k still certify.
  for (const char* line : {"{\"workload\":\"exchange-gossip\",\"n\":8,\"k\":1}",
                           "{\"workload\":\"exchange-gossip\",\"n\":8}"}) {
    const std::string row = engine.handle_line(line);
    EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << line << " -> " << row;
    EXPECT_NE(row.find("\"engine\":\"exchange-gossip\""), std::string::npos) << row;
  }
  EXPECT_EQ(engine.stats().errors, 3u);
}

TEST(ServeEngine, DeeplyNestedLinesAnswerParseErrorRows) {
  // The reader recursed once per '[' / '{' without a limit, so one line
  // of 200 000 brackets exhausted the stack.  A request nests at most
  // an array inside the object, and anything deeper is refused.  The
  // probes stay under the line-length cap so they reach the parser.
  ServeEngine engine{ServeOptions{}};
  std::string deep_objects;
  for (int i = 0; i < 13000; ++i) deep_objects += "{\"a\":";
  const std::vector<std::string> lines = {
      std::string(ServeEngine::kMaxLineBytes, '['), deep_objects,
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"cuts\":[[3]]}"};
  for (const std::string& line : lines) {
    const std::string row = engine.handle_line(line);
    const std::string head = line.substr(0, 48);
    EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << head << " -> " << row;
    EXPECT_NE(row.find("\"error\":\"parse: nesting deeper than 2 at byte "),
              std::string::npos)
        << head << " -> " << row;
    EXPECT_EQ(row.find("std::"), std::string::npos) << head << " -> " << row;
  }
  EXPECT_EQ(engine.stats().errors, lines.size());

  // Still serving.
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"cuts\":[3]}");
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;
}

TEST(ServeEngine, OutOfRangeIntegersAnswerErrorRowsNotWrappedRows) {
  // Integers up to 9e15 pass the integer check; narrowing them to int
  // used to wrap 2^32 + 20 to 20 and answer the certified n = 20 row.
  ServeEngine engine{ServeOptions{}};
  const std::pair<const char*, const char*> probes[] = {
      {"\"n\":4294967316,\"k\":2", "n out of range"},
      {"\"n\":-4294967276,\"k\":2", "n out of range"},
      {"\"n\":20,\"k\":4294967298", "k out of range"},
      {"\"n\":20,\"cuts\":[4294967299]", "cuts entry out of range"},
      {"\"n\":20,\"k\":2,\"threads\":4294967297", "threads out of range"},
  };
  for (const auto& [args, error] : probes) {
    const std::string line =
        std::string("{\"workload\":\"broadcast-symbolic\",") + args + "}";
    const std::string row = engine.handle_line(line);
    EXPECT_EQ(row, std::string("{\"ok\":false,\"error\":\"") + error + "\"}")
        << line;
    EXPECT_EQ(row.find("\"n\":20"), std::string::npos) << line << " -> " << row;
  }
  EXPECT_EQ(engine.stats().errors, std::size(probes));

  // One past the engines' worker cap answers the same row; the engine
  // never sees the request.
  const std::string over = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2,\"threads\":" +
      std::to_string(kMaxCheckThreads + 1) + "}");
  EXPECT_EQ(over, "{\"ok\":false,\"error\":\"threads out of range\"}");
  ServeOptions too_many;
  too_many.threads = kMaxCheckThreads + 1;
  EXPECT_THROW(ServeEngine{too_many}, std::invalid_argument);

  // Still serving.
  const std::string row = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":20,\"k\":2}");
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;
}

TEST(ServeEngine, OverlongLinesAnswerLineLengthErrorRows) {
  // A line of any length used to reach the parser.  Past the fixed cap
  // the engine answers one error row without parsing, whatever the
  // bytes; a line exactly at the cap is still parsed.
  ServeEngine engine{ServeOptions{}};
  const std::string query =
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2}";
  const std::vector<std::string> lines = {
      std::string(std::size_t{1} << 20, 'x'),
      std::string(std::size_t{1} << 20, '['),
      query + std::string(ServeEngine::kMaxLineBytes + 1 - query.size(), ' ')};
  for (const std::string& line : lines) {
    const std::string row = engine.handle_line(line);
    EXPECT_EQ(row, "{\"ok\":false,\"error\":\"parse: line longer than 65536 "
                   "bytes\"}")
        << line.substr(0, 48);
    EXPECT_EQ(row.find("std::"), std::string::npos) << row;
  }
  EXPECT_EQ(engine.stats().errors, lines.size());

  // Still serving, and a line padded to exactly the cap parses.
  const std::string at_cap =
      query + std::string(ServeEngine::kMaxLineBytes - query.size(), ' ');
  const std::string row = engine.handle_line(at_cap);
  EXPECT_NE(row.find("\"ok\":true"), std::string::npos) << row;
}

TEST(ServeEngine, CacheHitReturnsByteIdenticalRow) {
  ServeEngine engine{ServeOptions{}};
  const std::string cold = engine.handle_line(
      "{\"id\":1,\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2}");
  ASSERT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  ASSERT_NE(cold.find("\"cache_hit\":false"), std::string::npos) << cold;

  const std::string warm = engine.handle_line(
      "{\"id\":2,\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2}");
  EXPECT_NE(warm.find("\"cache_hit\":true"), std::string::npos) << warm;
  EXPECT_EQ(strip_envelope(warm), strip_envelope(cold));

  // Thread count is not part of the key — the engines' reports are
  // thread-invariant, so a different `threads` still hits.
  const std::string threaded = engine.handle_line(
      "{\"id\":3,\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2,"
      "\"threads\":2}");
  EXPECT_NE(threaded.find("\"cache_hit\":true"), std::string::npos) << threaded;
  EXPECT_EQ(strip_envelope(threaded), strip_envelope(cold));

  // Explicit cuts equal to the designed spec's coincide in the cache.
  const std::string cuts = strip_envelope(cold);
  const std::size_t at = cuts.find("\"cuts\":[");
  ASSERT_NE(at, std::string::npos);
  const std::string cut_list =
      cuts.substr(at + 8, cuts.find(']', at) - at - 8);
  const std::string explicit_req =
      "{\"id\":4,\"workload\":\"broadcast-symbolic\",\"n\":12,\"cuts\":[" +
      cut_list + "]}";
  const std::string via_cuts = engine.handle_line(explicit_req);
  EXPECT_NE(via_cuts.find("\"cache_hit\":true"), std::string::npos) << via_cuts;

  // Different source, model, or workload are different certificates.
  const std::string other = engine.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":12,\"k\":2,\"source\":1}");
  EXPECT_NE(other.find("\"cache_hit\":false"), std::string::npos) << other;

  const ServeStats s = engine.stats();
  EXPECT_EQ(s.cache_hits, 3u);
  EXPECT_EQ(s.cache_misses, 2u);

  ServeOptions nocache;
  nocache.enable_cache = false;
  ServeEngine uncached(nocache);
  const std::string a = uncached.handle_line(
      "{\"workload\":\"broadcast-streaming\",\"n\":8}");
  const std::string b = uncached.handle_line(
      "{\"workload\":\"broadcast-streaming\",\"n\":8}");
  EXPECT_NE(a.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_NE(b.find("\"cache_hit\":false"), std::string::npos);
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
}

TEST(ServeEngine, StreamingRowOnTheLentPoolEqualsTheInlineRow) {
  // A threads = 2 engine lends its pool to a streaming query, which
  // shards on it instead of building a pool of its own; the row must
  // be the inline engine's, wall time aside.
  const auto without_seconds = [](std::string row) {
    const std::size_t at = row.find(",\"seconds\":");
    if (at != std::string::npos) row.erase(at, row.find_first_of(",}", at + 1) - at);
    return strip_envelope(row);
  };
  ServeOptions two;
  two.threads = 2;
  ServeEngine pooled(two);
  ServeEngine inline_engine{ServeOptions{}};
  for (const char* line :
       {"{\"workload\":\"broadcast-streaming\",\"n\":12,\"k\":3}",
        "{\"workload\":\"broadcast-streaming\",\"n\":11,\"k\":2,"
        "\"model\":\"vertex-disjoint\",\"source\":5}"}) {
    const std::string serial = without_seconds(inline_engine.handle_line(line));
    EXPECT_NE(serial.find("\"ok\":true"), std::string::npos) << serial;
    EXPECT_EQ(without_seconds(pooled.handle_line(line)), serial) << line;
  }
}

TEST(ServeEngine, SixtyFourConcurrentClientsAllAnswered) {
  // 64 client threads × a 4-query mix; every response must be an ok row
  // and every repeat of a key must match the first answer byte-for-byte
  // (modulo the envelope).
  ServeOptions opt;
  opt.threads = 2;
  ServeEngine engine(opt);
  const std::vector<std::string> mix = {
      "{\"workload\":\"broadcast-streaming\",\"n\":8,\"k\":2}",
      "{\"workload\":\"broadcast-symbolic\",\"n\":10,\"k\":2}",
      "{\"workload\":\"gossip-symbolic\",\"n\":8,\"k\":2}",
      "{\"workload\":\"exchange-gossip\",\"n\":8}",
  };
  constexpr int kClients = 64;
  std::vector<std::vector<std::string>> answers(kClients);
  std::atomic<int> bad{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (const std::string& q : mix) {
          std::string row = engine.handle_line(q);
          if (row.find("\"ok\":true") == std::string::npos) bad.fetch_add(1);
          answers[static_cast<std::size_t>(c)].push_back(
              strip_envelope(std::move(row)));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(answers[static_cast<std::size_t>(c)], answers[0]) << "client " << c;
  }
  const ServeStats s = engine.stats();
  EXPECT_EQ(s.queries, static_cast<std::uint64_t>(kClients) * mix.size());
  EXPECT_EQ(s.ok, s.queries);
  EXPECT_EQ(s.refused, 0u);
  EXPECT_EQ(s.errors, 0u);
  // Exactly one cold run per distinct key; everything else hit.
  EXPECT_EQ(s.cache_misses, mix.size());
  EXPECT_EQ(s.cache_hits, s.queries - mix.size());
}

TEST(ServeEngine, AdmissionControlRefusesAndCompletes) {
  // heavy_slots = 0: every heavy query refuses with a structured row.
  ServeOptions closed;
  closed.heavy_groups = 1;  // everything is heavy
  closed.heavy_slots = 0;
  ServeEngine gate(closed);
  const std::string refused = gate.handle_line(
      "{\"id\":9,\"workload\":\"broadcast-streaming\",\"n\":8}");
  EXPECT_NE(refused.find("\"refused\":true"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"ok\":false"), std::string::npos) << refused;
  EXPECT_NE(refused.find("\"id\":9"), std::string::npos) << refused;
  EXPECT_EQ(gate.stats().refused, 1u);
  // Refusals are transient, so they must not be cached: opening the
  // gate is pointless if the refusal row sticks.
  EXPECT_EQ(gate.stats().cache_misses, 0u);

  // At the default heavy_groups, a congestion request is priced by the
  // concrete schedule it materializes (2^24 - 1 calls here), so it is
  // heavy; the same request without congestion is light and answered.
  ServeOptions no_heavy;
  no_heavy.heavy_slots = 0;
  ServeEngine light_only(no_heavy);
  const std::string congested = light_only.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":24,\"k\":3,\"congestion\":true}");
  EXPECT_NE(congested.find("\"refused\":true"), std::string::npos) << congested;
  const std::string plain = light_only.handle_line(
      "{\"workload\":\"broadcast-symbolic\",\"n\":24,\"k\":3}");
  EXPECT_NE(plain.find("\"ok\":true"), std::string::npos) << plain;
  EXPECT_EQ(light_only.stats().refused, 1u);

  // heavy_slots = 1: an admitted heavy query (n = 16 symbolic, over the
  // tiny threshold) completes while concurrent small streaming queries
  // keep being answered — the mixed-load shape the bench row measures
  // at designed-47 scale.
  ServeOptions open;
  open.heavy_groups = 1u << 8;
  open.heavy_slots = 1;
  ServeEngine engine(open);
  std::atomic<int> small_bad{0};
  std::string heavy_row;
  {
    std::thread heavy([&] {
      heavy_row = engine.handle_line(
          "{\"workload\":\"broadcast-symbolic\",\"n\":16,\"k\":2}");
    });
    std::vector<std::thread> small;
    for (int c = 0; c < 8; ++c) {
      small.emplace_back([&] {
        for (int q = 0; q < 4; ++q) {
          const std::string row = engine.handle_line(
              "{\"workload\":\"broadcast-streaming\",\"n\":6,\"k\":2}");
          if (row.find("\"ok\":true") == std::string::npos) small_bad.fetch_add(1);
        }
      });
    }
    heavy.join();
    for (std::thread& t : small) t.join();
  }
  EXPECT_NE(heavy_row.find("\"ok\":true"), std::string::npos) << heavy_row;
  EXPECT_EQ(small_bad.load(), 0);
  EXPECT_EQ(engine.stats().refused, 0u);
}

}  // namespace
}  // namespace shc
