// serve-mix: JSON request lines into one in-process ServeEngine
// (ServeOptions::threads = 1, heavy_slots = handler count, so a correct
// server refuses nothing), from 1 generator thread and 3 handler
// threads.
//
// Phase 1 offers a fixed rate, open loop: request i is due at
// start + i / rate, and its latency runs from that due time.  Phase 2
// saturates: the handlers run a second stream closed loop and sat_qps is
// its completion rate.  Both streams are seeded blocks of 103 lines with
// a fixed composition, shuffled: each of the 16 hot keys (all four
// engines) 6 times, 6 keys the server has never seen (symbolic broadcast on
// construct(n, [7]) for n = 26, 26, 25; streaming n = 16/18; symbolic
// gossip n = 14/16; exchange gossip), and 1 malformed line that must come
// back as an error row.  With 2 of the 6 misses at n = 26 (the slowest
// kind), p99 sits inside the n = 26 latencies rather than on the edge
// between two kinds.
//
// The cold-certification metrics (cert_s, cert_2t_s, groups_per_s)
// re-certify n = 26 miss keys the server has served through shc::certify
// at 1 and 2 threads, and each row must equal the row the server served.
// The untraced run interleaves the three parts in kRounds rounds.
//
// Idle threads sleep: handlers block on a semaphore the generator
// releases once per due request, and the generator sleeps until shortly
// before each due time.
//
// A HostSpeed reference pass runs after each set-up, each phase and each
// replayed call, with no request in flight, and every reported timing but
// lat_p50_ms is scaled by it (host_speed.hpp).

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <semaphore>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "host_speed.hpp"
#include "layer_report.hpp"
#include "layers.hpp"
#include "shc/api/certify.hpp"
#include "shc/api/serve.hpp"
#include "shc/mlbg/params.hpp"
#include "shc/sim/worker_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kHandlers = 3;
constexpr int kSetupReps = 15;
constexpr int kHotKeys = 16;
constexpr int kHitsPerKey = 6;  ///< per hot key per block
constexpr int kMissesPerBlock = 6;
constexpr int kBlock = kHotKeys * kHitsPerKey + kMissesPerBlock + 1;
constexpr double kOfferedRate = 100.0;  ///< requests per second, phase 1
/// Share of --seconds given to the fixed-rate phase.
constexpr double kFixedShare = 0.5;
/// Saturation blocks per --seconds (about 0.2 s of saturation each).
constexpr double kSatBlocksPerSecond = 1.25;
/// The untraced run splits both streams and the cold replay into this
/// many rounds, each fixed rate, then saturation, then replay, so every
/// metric samples the whole run rather than one stretch of it.
constexpr int kRounds = 4;
/// The generator sleeps until this long before a due time, then yields.
constexpr std::uint64_t kGeneratorSpinNs = 200'000;
/// p99 limit at the offered rate, from the seed commit's measurement.
constexpr double kLatencyLimitMs = 600.0;
constexpr int kReplayKeys = 16;
/// Gossip miss keys the traced pass also replays, for the gossip layers.
constexpr int kGossipReplayKeys = 4;
constexpr int kReplayN = 26;
/// Symbolic misses certify construct(n, [kCut]), like broadcast-c7.
constexpr int kCut = 7;

enum class Kind { kHit, kMiss, kMalformed };

struct Key {
  shc::Workload workload = shc::Workload::kBroadcastStreaming;
  int n = 0;
  int k = 0;    ///< 1 for exchange gossip; 2 with an explicit cut
  int cut = 0;  ///< explicit single cut, or 0 for design_sparse_hypercube(n, k)
  shc::Vertex source = 0;

  [[nodiscard]] std::string id() const {
    return std::string(shc::workload_name(workload)) + "|" + std::to_string(n) + "|" +
           std::to_string(k) + "|" + std::to_string(cut) + "|" + std::to_string(source);
  }
};

/// A seeded source whose label bits (below the spec's last cut) are 0:
/// the label sets the group count, so pinning it keeps every seed's work
/// equal (see broadcast_c7.cpp).
shc::Vertex pinned_source(std::mt19937_64& rng, const Key& key) {
  if (key.workload == shc::Workload::kExchangeGossip) return rng() & shc::mask_low(20);
  const int last_cut =
      key.cut > 0 ? key.cut : shc::design_sparse_hypercube(key.n, key.k).cuts().back();
  return rng() & shc::mask_low(key.n) & ~shc::mask_low(last_cut);
}

struct Request {
  Kind kind = Kind::kHit;
  Key key;
  long long id = 0;
  std::string line;
};

std::string line_for(const Key& key, long long id) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"workload\":\"" +
                     shc::workload_name(key.workload) + "\",\"n\":" + std::to_string(key.n);
  if (key.cut > 0) {
    line += ",\"cuts\":[" + std::to_string(key.cut) + "]";
  } else if (key.workload != shc::Workload::kExchangeGossip) {
    line += ",\"k\":" + std::to_string(key.k);
  }
  return line + ",\"source\":" + std::to_string(key.source) + "}";
}

/// Malformed lines the server must answer with an error row.  None of
/// them reaches a spec constructor with k = 1 or n = 0 (known crashes and
/// leaked messages, left to the hardening work).
std::string malformed_line(std::mt19937_64& rng, long long id) {
  const std::string tag = "{\"id\":" + std::to_string(id);
  switch (rng() % 6) {
    case 0: return tag + ",\"workload\":\"broadcast-symbolic\",\"n\":";
    case 1: return tag + ",\"workload\":\"teleport\",\"n\":12}";
    case 2: return tag + ",\"workload\":\"gossip-symbolic\"}";
    case 3: return tag + ",\"workload\":\"broadcast-streaming\",\"n\":12,\"k\":2,\"colour\":1}";
    case 4: return "not json " + std::to_string(id);
    default: return "[" + std::to_string(id) + ",2,3]";
  }
}

/// The hot set: small designs on all four engines, seeded sources.
std::vector<Key> hot_set(std::mt19937_64& rng) {
  using W = shc::Workload;
  const std::array<Key, kHotKeys> shapes = {{
      {W::kBroadcastStreaming, 10, 2},  {W::kBroadcastStreaming, 12, 2},
      {W::kBroadcastStreaming, 12, 3},  {W::kBroadcastStreaming, 14, 2},
      {W::kBroadcastSymbolic, 16, 2},   {W::kBroadcastSymbolic, 20, 2},
      {W::kBroadcastSymbolic, 20, 3},   {W::kBroadcastSymbolic, 24, 2},
      {W::kGossipSymbolic, 10, 2},      {W::kGossipSymbolic, 12, 3},
      {W::kGossipSymbolic, 14, 3},      {W::kGossipSymbolic, 16, 2},
      {W::kExchangeGossip, 16, 1},      {W::kExchangeGossip, 24, 1},
      {W::kExchangeGossip, 32, 1},      {W::kExchangeGossip, 48, 1},
  }};
  std::vector<Key> keys(shapes.begin(), shapes.end());
  for (Key& key : keys) key.source = pinned_source(rng, key);
  return keys;
}

/// Seeded request streams; every miss key is new to the server.
class StreamMaker {
 public:
  StreamMaker(std::uint64_t seed, std::vector<Key> hot)
      : rng_(seed ^ 0x5e12e5e12eULL), hot_(std::move(hot)) {
    for (const Key& key : hot_) used_.insert(key.id());
  }

  [[nodiscard]] const std::vector<Key>& hot() const { return hot_; }

  std::vector<Request> blocks(int count) {
    std::vector<Request> out;
    for (int b = 0; b < count; ++b) {
      std::vector<Request> block;
      for (const Key& key : hot_) {
        for (int i = 0; i < kHitsPerKey; ++i) block.push_back({Kind::kHit, key, 0, {}});
      }
      const bool odd = (block_index_++ % 2) == 1;
      for (const Key& shape : miss_shapes(odd)) {
        block.push_back({Kind::kMiss, fresh(shape), 0, {}});
      }
      block.push_back({Kind::kMalformed, {}, 0, {}});
      std::shuffle(block.begin(), block.end(), rng_);
      for (Request& r : block) {
        r.id = next_id_++;
        r.line = r.kind == Kind::kMalformed ? malformed_line(rng_, r.id) : line_for(r.key, r.id);
        out.push_back(std::move(r));
      }
    }
    return out;
  }

 private:
  static std::array<Key, kMissesPerBlock> miss_shapes(bool odd) {
    using W = shc::Workload;
    return {{{W::kBroadcastSymbolic, 26, 2, kCut},
            {W::kBroadcastSymbolic, 26, 2, kCut},
            {W::kBroadcastSymbolic, 25, 2, kCut},
            {W::kBroadcastStreaming, odd ? 18 : 16, 3},
            {W::kGossipSymbolic, odd ? 16 : 14, 3},
            {W::kExchangeGossip, 0, 1}}};
  }

  /// A key of `shape` the server has not seen.
  Key fresh(Key shape) {
    for (;;) {
      if (shape.workload == shc::Workload::kExchangeGossip) {
        shape.n = 33 + static_cast<int>(rng_() % 27);  // 33..59
      }
      shape.source = pinned_source(rng_, shape);
      if (used_.insert(shape.id()).second) return shape;
    }
  }

  std::mt19937_64 rng_;
  std::vector<Key> hot_;
  std::set<std::string> used_;
  long long next_id_ = 1;
  int block_index_ = 0;
};

/// The served row without its envelope, or empty if the envelope is not
/// `,"id":<id>,"cache_hit":<hit>}` exactly.
std::string bare_row(const std::string& resp, long long id, bool hit) {
  const std::string envelope = ",\"id\":" + std::to_string(id) +
                               ",\"cache_hit\":" + (hit ? "true" : "false") + "}";
  if (resp.size() <= envelope.size() ||
      resp.compare(resp.size() - envelope.size(), envelope.size(), envelope) != 0) {
    return {};
  }
  return resp.substr(0, resp.size() - envelope.size()) + "}";
}

/// Does `row` answer `key`: the engine's row shape for (n, k), a clean
/// verdict and the round count the engine must take.
bool row_answers(const std::string& row, const Key& key) {
  const std::string nk = "\"n\":" + std::to_string(key.n) + ",\"k\":" + std::to_string(key.k);
  std::string head;
  int rounds = key.n;
  switch (key.workload) {
    case shc::Workload::kBroadcastStreaming: head = "{" + nk + ","; break;
    case shc::Workload::kBroadcastSymbolic: head = "{\"engine\":\"symbolic\"," + nk + ","; break;
    case shc::Workload::kGossipSymbolic:
      head = "{\"engine\":\"symbolic-gossip\"," + nk + ",";
      rounds = 2 * key.n;
      break;
    case shc::Workload::kExchangeGossip:
      head = "{\"engine\":\"exchange-gossip\"," + nk + ",";
      break;
  }
  return row.rfind(head, 0) == 0 && row.find("\"ok\":true") != std::string::npos &&
         row.find(",\"rounds\":" + std::to_string(rounds) + ",") != std::string::npos;
}

struct Served {
  std::vector<RequestTiming> timing;
  std::vector<std::string> response;
  double elapsed_s = 0.0;  ///< closed loop only
};

void wait_until(std::uint64_t t_ns) {
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t_ns) return;
    if (t_ns - now > kGeneratorSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now - kGeneratorSpinNs));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Phase 1: the calling thread generates at `rate`; kHandlers threads
/// sleep on a semaphore and each wakes for the next released request.
Served open_loop(shc::ServeEngine& engine, std::span<const Request> reqs, double rate) {
  Served s;
  const std::size_t n = reqs.size();
  s.timing.resize(n);
  s.response.resize(n);
  std::counting_semaphore<> released(0);
  // Taken only after a release, so a handler never holds an unsent request.
  std::atomic<std::size_t> next{0};
  const std::uint64_t period_ns = static_cast<std::uint64_t>(1e9 / rate);
  const std::uint64_t start = now_ns() + 2'000'000;
  {
    std::vector<std::jthread> handlers;
    for (int h = 0; h < kHandlers; ++h) {
      handlers.emplace_back([&] {
        for (;;) {
          released.acquire();
          const std::size_t i = next.fetch_add(1);
          if (i >= n) return;
          s.timing[i].started_ns = now_ns();
          s.response[i] = engine.handle_line(reqs[i].line);
          s.timing[i].done_ns = now_ns();
        }
      });
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t due = start + i * period_ns;
      wait_until(due);
      s.timing[i].due_ns = due;
      s.timing[i].released_ns = now_ns();
      released.release();
    }
    released.release(kHandlers);  // one past the end for every handler
  }
  return s;
}

/// Phase 2: kHandlers clients, each sending its next line as soon as
/// the previous answer is back.
Served closed_loop(shc::ServeEngine& engine, std::span<const Request> reqs) {
  Served s;
  const std::size_t n = reqs.size();
  s.timing.resize(n);
  s.response.resize(n);
  std::atomic<std::size_t> next{0};
  const std::uint64_t start = now_ns();
  {
    std::vector<std::jthread> handlers;
    for (int h = 0; h < kHandlers; ++h) {
      handlers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          RequestTiming& t = s.timing[i];
          t.due_ns = t.released_ns = t.started_ns = now_ns();
          s.response[i] = engine.handle_line(reqs[i].line);
          t.done_ns = now_ns();
        }
      });
    }
  }
  s.elapsed_s = seconds_since(start);
  return s;
}

/// The largest request of the run, certified once before set-up so that
/// it, and not the chance overlap of concurrent misses, sets the
/// process's peak resident set.
constexpr int kLargestStreamingN = 22;

void certify_largest(Outcome& out) {
  shc::CertifyRequest req;
  req.workload = shc::Workload::kBroadcastStreaming;
  req.n = kLargestStreamingN;
  req.k = 3;
  const shc::CertifyResult r = shc::certify(req);
  out.check(r.ok && r.report.minimum_time, "largest request: " + shc::to_json_row(r));
}

/// A fresh engine with the hot set certified into its cache.
struct Server {
  std::unique_ptr<shc::ServeEngine> engine;
  std::map<std::string, std::string> cold_rows;  ///< key id -> bare row
};

Server start_server(const std::vector<Key>& hot, Outcome& out) {
  Server s;
  shc::ServeOptions opt;
  opt.threads = 1;
  opt.heavy_slots = kHandlers;
  s.engine = std::make_unique<shc::ServeEngine>(opt);
  long long id = -1;
  for (const Key& key : hot) {
    const std::string resp = s.engine->handle_line(line_for(key, id));
    const std::string row = bare_row(resp, id, false);
    out.check(row_answers(row, key), "hot-set fill " + key.id() + ": " + resp);
    s.cold_rows[key.id()] = row;
    --id;
  }
  return s;
}

/// Checks every response of a phase; returns per-request correctness.
std::vector<bool> check_phase(Outcome& out, Server& server, std::span<const Request> reqs,
                              const Served& served) {
  std::vector<bool> ok(reqs.size(), false);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    const std::string& resp = served.response[i];
    bool good = false;
    if (r.kind == Kind::kMalformed) {
      good = resp.rfind("{\"ok\":false,\"error\":\"", 0) == 0 &&
             resp.find("\"refused\"") == std::string::npos;
    } else {
      const bool hit = r.kind == Kind::kHit;
      const std::string row = bare_row(resp, r.id, hit);
      good = row_answers(row, r.key);
      if (hit) {
        good = good && row == server.cold_rows[r.key.id()];
      } else {
        server.cold_rows[r.key.id()] = row;
      }
    }
    ok[i] = good;
    out.check(good, "request " + r.line + " -> " + resp);
  }
  return ok;
}

/// The first `count` misses of `workload` (symbolic broadcast: n = 26 only).
std::vector<Key> miss_keys(std::span<const Request> reqs, shc::Workload workload, int count) {
  std::vector<Key> keys;
  for (const Request& r : reqs) {
    if (r.kind == Kind::kMiss && r.key.workload == workload &&
        (workload != shc::Workload::kBroadcastSymbolic || r.key.n == kReplayN) &&
        static_cast<int>(keys.size()) < count) {
      keys.push_back(r.key);
    }
  }
  return keys;
}

/// The spec a miss key's row was certified on.
shc::SparseHypercubeSpec spec_of(const Key& key) {
  return key.cut > 0 ? shc::SparseHypercubeSpec::construct(key.n, {key.cut})
                     : shc::design_sparse_hypercube(key.n, key.k);
}

shc::CertifyRequest replay_request(const Key& key, int threads, shc::WorkerPool* pool) {
  shc::CertifyRequest req;
  req.workload = key.workload;
  req.n = key.n;
  req.k = key.k;
  if (key.cut > 0) req.cuts = {key.cut};
  req.source = key.source;
  req.checks.threads = threads;
  if (threads > 1) req.checks.pool = pool;
  return req;
}

struct Phases {
  std::vector<Request> fixed;
  std::vector<Request> saturate;
};

/// Round `round` of kRounds contiguous shares of a stream, in whole
/// blocks, so every share holds n = 26 misses to replay.
std::span<const Request> part(const std::vector<Request>& stream, int round) {
  const std::size_t blocks = stream.size() / kBlock;
  const std::size_t lo = blocks * static_cast<std::size_t>(round) / kRounds * kBlock;
  const std::size_t hi = blocks * static_cast<std::size_t>(round + 1) / kRounds * kBlock;
  return std::span<const Request>(stream).subspan(lo, hi - lo);
}

Phases make_phases(StreamMaker& maker, double seconds) {
  Phases p;
  const int fixed_blocks = std::max(
      kRounds, static_cast<int>(kOfferedRate * kFixedShare * seconds / kBlock + 0.5));
  const int sat_blocks =
      std::max(kRounds, static_cast<int>(kSatBlocksPerSecond * seconds + 0.5));
  p.fixed = maker.blocks(fixed_blocks);
  p.saturate = maker.blocks(sat_blocks);
  return p;
}

Outcome run_untraced(const RunArgs& args) {
  Outcome out;
  std::mt19937_64 rng(args.seed);
  StreamMaker maker(args.seed, hot_set(rng));
  const Phases phases = make_phases(maker, args.seconds);

  // Every timing is host-normalised: its wall time times the factor of
  // the reference pass that follows it (host_speed.hpp).
  HostSpeed host;
  certify_largest(out);
  std::vector<double> setup_s;
  std::optional<Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const std::uint64_t t0 = now_ns();
    server.emplace(start_server(maker.hot(), out));
    const double dt = seconds_since(t0);
    setup_s.push_back(dt * host.factor());
  }

  shc::WorkerPool pool(2);
  std::vector<double> latency, unscaled_latency, late, wait, hit_service;
  double sat_elapsed_s = 0.0;
  double one_thread_total_s = 0.0, two_thread_total_s = 0.0;
  std::uint64_t one_thread_groups = 0;
  std::size_t replays = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::span<const Request> fixed_part = part(phases.fixed, round);
    const std::span<const Request> sat_part = part(phases.saturate, round);
    const Served fixed = open_loop(*server->engine, fixed_part, kOfferedRate);
    const double fixed_factor = host.factor();
    const Served sat = closed_loop(*server->engine, sat_part);
    sat_elapsed_s += sat.elapsed_s * host.factor();
    const std::vector<bool> fixed_ok = check_phase(out, *server, fixed_part, fixed);
    check_phase(out, *server, sat_part, sat);
    for (std::size_t i = 0; i < fixed.timing.size(); ++i) {
      const RequestTiming& t = fixed.timing[i];
      unscaled_latency.push_back(latency_ms(t, fixed_ok[i]));
      latency.push_back(unscaled_latency.back() * fixed_factor);
      late.push_back(lateness_ms(t));
      wait.push_back(queue_wait_ms(t));
      if (fixed_part[i].kind == Kind::kHit) hit_service.push_back(service_us(t));
    }

    // Cold replay of this round's first n = 26 miss keys at 1 and 2 threads.
    for (const Key& key : miss_keys(fixed_part, shc::Workload::kBroadcastSymbolic,
                                    kReplayKeys / kRounds)) {
      const std::string served = without_field(server->cold_rows[key.id()], "seconds");
      for (const int threads : {1, 2}) {
        const std::uint64_t t0 = now_ns();
        const shc::CertifyResult r = shc::certify(replay_request(key, threads, &pool));
        const double dt = seconds_since(t0) * host.factor();
        out.check(without_field(shc::to_json_row(r), "seconds") == served,
                  "replay of " + key.id() + " at " + std::to_string(threads) +
                      " threads equals the served row");
        if (threads == 1) {
          one_thread_total_s += dt;
          one_thread_groups += r.checks.groups;
        } else {
          two_thread_total_s += dt;
        }
      }
      ++replays;
    }
  }
  const shc::ServeStats stats = server->engine->stats();
  out.check(stats.refused == 0, "the server refused nothing");
  const double p99 = tail(latency);

  out.add("setup_s", median(setup_s), "s");
  // Means over the replayed keys, as on broadcast-c7.
  out.add("cert_s", one_thread_total_s / static_cast<double>(replays), "s");
  out.add("cert_2t_s", two_thread_total_s / static_cast<double>(replays), "s");
  out.add("groups_per_s", static_cast<double>(one_thread_groups) / one_thread_total_s, "1/s");
  // The median line is a cache hit plus waking a handler, which the
  // reference does not track: scaled, its ten-run spread rose from 0.06 to
  // 0.10-0.18.  It alone is reported unscaled.
  out.add("lat_p50_ms", median(unscaled_latency), "ms");
  out.add("lat_p99_ms", std::isfinite(p99) ? p99 : 1e9, "ms");
  out.add("sat_qps", static_cast<double>(phases.saturate.size()) / sat_elapsed_s, "1/s");
  out.add("peak_rss_mb", host.workload_peak_rss_mb(), "MB");
  std::fprintf(stderr,
               "perfbench: %zu lines at %.0f/s (host-scaled p99 %.1f ms, limit %.0f ms: %s), "
               "%zu lines saturated in %.2f host-scaled s, %llu hits / %llu misses / "
               "%llu errors\n",
               phases.fixed.size(), kOfferedRate, p99, kLatencyLimitMs,
               p99 <= kLatencyLimitMs ? "met" : "MISSED", phases.saturate.size(), sat_elapsed_s,
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.cache_misses),
               static_cast<unsigned long long>(stats.errors));
  std::fprintf(stderr,
               "perfbench: at the offered rate, medians: generator late %.4f ms, "
               "queue wait %.4f ms, hit service %.1f us (unscaled); reference pass median "
               "%.4f s, nominal %.3f s\n",
               median(late), median(wait), median(hit_service), median(host.passes_s()),
               HostSpeed::kNominalPassS);
  return out;
}

/// Service-time figures of one traced serve pass.
void api_layer(ApiLayer& api, const Phases& phases, const Served& fixed, const Served& sat,
               const shc::ServeStats& stats) {
  std::vector<double> hit_us, error_us, wait_ms, late_ms;
  std::array<std::vector<double>, 4> miss_ms;
  const auto take = [&](const std::vector<Request>& reqs, const Served& s) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const double us = service_us(s.timing[i]);
      switch (reqs[i].kind) {
        case Kind::kHit: hit_us.push_back(us); break;
        case Kind::kMalformed: error_us.push_back(us); break;
        case Kind::kMiss:
          miss_ms[static_cast<std::size_t>(reqs[i].key.workload)].push_back(us * 1e-3);
          break;
      }
    }
  };
  take(phases.fixed, fixed);
  take(phases.saturate, sat);
  for (const RequestTiming& t : fixed.timing) {
    wait_ms.push_back(queue_wait_ms(t));
    late_ms.push_back(lateness_ms(t));
  }
  api.hit_us = median(hit_us);
  api.hit_p99_us = tail(hit_us);
  for (std::size_t w = 0; w < miss_ms.size(); ++w) api.miss_ms[w] = median(miss_ms[w]);
  api.error_us = median(error_us);
  api.queue_wait_ms = median(wait_ms);
  api.queue_wait_p99_ms = tail(wait_ms);
  api.late_p99_ms = tail(late_ms);
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  api.cache_hit_ratio = lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  api.cache_entries = static_cast<double>(stats.cache_misses);
  api.refused = static_cast<double>(stats.refused);
  api.errors = static_cast<double>(stats.errors);
}

bool same_stats(const shc::ServeStats& a, const shc::ServeStats& b) {
  return a.queries == b.queries && a.ok == b.ok && a.cache_hits == b.cache_hits &&
         a.cache_misses == b.cache_misses && a.refused == b.refused && a.errors == b.errors;
}

/// Both streams untraced (the fixed-rate one closed loop: only its rows
/// are compared), then again, at the offered rate, on a fresh server under
/// a TraceSession; then the replay keys, and a few gossip miss keys for
/// the gossip layers, through the recomposed pipelines.
Outcome run_traced(const RunArgs& args) {
  Outcome out;
  std::mt19937_64 rng(args.seed);
  StreamMaker maker(args.seed, hot_set(rng));
  const Phases phases = make_phases(maker, args.seconds);
  LayerAccum acc;

  Server plain = start_server(maker.hot(), out);
  const Served plain_fixed = closed_loop(*plain.engine, phases.fixed);
  const Served plain_sat = closed_loop(*plain.engine, phases.saturate);
  check_phase(out, plain, phases.fixed, plain_fixed);
  check_phase(out, plain, phases.saturate, plain_sat);

  Server traced = start_server(maker.hot(), out);
  std::optional<Served> fixed, sat;
  {
    shc::obs::TraceSession session(shc::obs::TraceOptions{});
    fixed.emplace(open_loop(*traced.engine, phases.fixed, kOfferedRate));
    sat.emplace(closed_loop(*traced.engine, phases.saturate));
    acc.trace.absorb(session.recorder());
  }
  check_phase(out, traced, phases.fixed, *fixed);
  check_phase(out, traced, phases.saturate, *sat);
  const auto rows_match = [&](const Served& a, const Served& b) {
    for (std::size_t i = 0; i < a.response.size(); ++i) {
      if (without_field(a.response[i], "seconds") != without_field(b.response[i], "seconds")) {
        return false;
      }
    }
    return true;
  };
  out.check(rows_match(plain_fixed, *fixed) && rows_match(plain_sat, *sat),
            "traced serve pass answers every line as the untraced pass did");
  const shc::ServeStats stats = traced.engine->stats();
  out.check(same_stats(stats, plain.engine->stats()), "traced ServeStats equal untraced");
  api_layer(acc.api, phases, *fixed, *sat, stats);
  acc.overhead_override = sat->elapsed_s / plain_sat.elapsed_s;

  std::vector<Key> keys = miss_keys(phases.fixed, shc::Workload::kBroadcastSymbolic, kReplayKeys);
  for (const Key& key : miss_keys(phases.fixed, shc::Workload::kGossipSymbolic,
                                  kGossipReplayKeys)) {
    keys.push_back(key);
  }
  shc::WorkerPool pool(2);
  std::vector<std::uint64_t> traced_groups;  ///< per key, from its 1-thread run
  {
    shc::obs::TraceSession session(shc::obs::TraceOptions{});
    for (const Key& key : keys) {
      const shc::SparseHypercubeSpec spec = spec_of(key);
      const std::string served = without_field(traced.cold_rows[key.id()], "seconds");
      for (const int threads : {1, 2}) {
        shc::CommonCheckOptions common;
        common.threads = threads;
        if (threads > 1) common.pool = &pool;
        TracedRun run = key.workload == shc::Workload::kBroadcastSymbolic
                            ? traced_broadcast(spec, key.source, common)
                            : traced_gossip(spec, key.source, common);
        out.check(without_field(shc::to_json_row(run.result), "seconds") == served,
                  "traced replay of " + key.id() + " equals the served row");
        acc.add_run(run, threads);
        if (threads == 1) {
          traced_groups.push_back(key.workload == shc::Workload::kBroadcastSymbolic
                                      ? run.result.checks.groups
                                      : run.result.gossip_checks.groups);
        }
      }
    }
    acc.pipeline_trace.absorb(session.recorder());
  }
  // The producer alone, once per traced call (each key ran at 1 and at 2
  // threads), so mlbg.emit_s and mlbg.produce_self_s cover the same calls.
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const Key& key = keys[k];
    const shc::SparseHypercubeSpec spec = spec_of(key);
    for (int call = 0; call < 2; ++call) {
      const std::uint64_t t0 = now_ns();
      const ProducerCount c = key.workload == shc::Workload::kBroadcastSymbolic
                                  ? count_broadcast(spec, key.source)
                                  : count_gossip(spec, key.source);
      acc.emit_s += seconds_since(t0);
      out.check(c.groups == traced_groups[k],
                "producer alone emits the validated group count for " + key.id());
    }
  }
  acc.report(out);
  return out;
}

}  // namespace

Outcome run_serve_mix(const RunArgs& args) {
  return args.trace ? run_traced(args) : run_untraced(args);
}

}  // namespace perfbench
