// Flight-recorder implementation: event buffers, the deterministic
// merge, and the two sinks (Chrome trace_event JSON, per-round JSONL).
//
// This is the one translation unit of the repo that may read a clock
// (shc-lint's timestamp rule pins std::chrono to src/obs/).  Timestamps
// are measurements: they appear in the trace files but never decide
// the merged event *order*, which is the (track, seq) sort.
#include "shc/obs/recorder.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string_view>

namespace shc::obs {

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t rss_high_water_kb() noexcept {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    // NOLINTNEXTLINE(cert-err34-c): parse failure leaves kb at 0.
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb);
#else
  return 0;
#endif
}

TraceOptions trace_options_from_base(const std::string& base) {
  TraceOptions opt;
  const std::string_view b = base;
  auto ends_with = [&](std::string_view suffix) {
    return b.size() >= suffix.size() &&
           b.substr(b.size() - suffix.size()) == suffix;
  };
  if (ends_with(".jsonl")) {
    opt.jsonl_path = base;
  } else if (ends_with(".json")) {
    opt.chrome_path = base;
  } else {
    opt.chrome_path = base + ".trace.json";
    opt.jsonl_path = base + ".rounds.jsonl";
  }
  return opt;
}

// ---- TraceRecorder ------------------------------------------------------

std::atomic<TraceRecorder*> TraceRecorder::g_active{nullptr};

namespace {

/// Instance ids let the thread-local cache notice a new recorder: a
/// cached (id, buffer) pair from an earlier session never aliases the
/// current one.
std::atomic<std::uint64_t> g_next_recorder_id{1};

struct LocalCache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_cache;

/// The calling thread's innermost open SeqLease (leases nest).
thread_local SeqLease* t_lease = nullptr;

}  // namespace

SeqLease::SeqLease(const TraceRecorder* rec, std::uint64_t first,
                   std::uint64_t count) noexcept
    : rec_(rec), next_(first), end_(first + count) {
  if (rec_ != nullptr) {
    prev_ = t_lease;
    t_lease = this;
  }
}

SeqLease::~SeqLease() {
  if (rec_ != nullptr) t_lease = prev_;
}

std::uint64_t TraceRecorder::next_seq() noexcept {
  if (SeqLease* lease = t_lease;
      lease != nullptr && lease->rec_ == this && lease->next_ < lease->end_) {
    return lease->next_++;
  }
  return seq_.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {}

TraceRecorder::~TraceRecorder() {
  if (g_active.load(std::memory_order_acquire) == this) uninstall();
}

void TraceRecorder::install() {
  TraceRecorder* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    throw std::runtime_error(
        "TraceRecorder::install: another recorder is already active");
  }
}

void TraceRecorder::uninstall() {
  g_active.store(nullptr, std::memory_order_release);
}

TraceRecorder::ThreadBuffer* TraceRecorder::local_buffer() {
  if (t_cache.recorder_id == id_) {
    return static_cast<ThreadBuffer*>(t_cache.buffer);
  }
  auto owned = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = owned.get();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  t_cache = {id_, raw};
  return raw;
}

void TraceRecorder::append(const TraceEvent& e) {
  local_buffer()->events.push_back(e);
}

void TraceRecorder::scope_event(const char* name, std::uint32_t track,
                                std::uint64_t seq, std::uint64_t t0_ns,
                                std::uint64_t dur_ns, std::uint64_t value) {
  append(TraceEvent{name, EventKind::kScope, track, seq, t0_ns, dur_ns, value});
}

void TraceRecorder::counter(const char* name, std::uint64_t value) {
  append(TraceEvent{name, EventKind::kCounter, kMainTrack, next_seq(),
                    trace_now_ns(), 0, value});
}

void TraceRecorder::instant(const char* name) {
  append(TraceEvent{name, EventKind::kInstant, kMainTrack, next_seq(),
                    trace_now_ns(), 0, 0});
}

void TraceRecorder::round_mark(std::uint64_t round) {
  counter("rss_hwm_kb", rss_high_water_kb());
  append(TraceEvent{"round", EventKind::kRound, kMainTrack, next_seq(),
                    trace_now_ns(), 0, round});
}

std::vector<TraceEvent> TraceRecorder::merged_events() const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& b : buffers_) total += b->events.size();
    out.reserve(total);
    for (const auto& b : buffers_) {
      out.insert(out.end(), b->events.begin(), b->events.end());
    }
  }
  // (track, seq) is unique per event — each seq comes from one atomic
  // counter (main track) — so this order is total and deterministic.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.track != b.track ? a.track < b.track : a.seq < b.seq;
            });
  return out;
}

// ---- sinks --------------------------------------------------------------

namespace {

/// Event names are C++ literals (identifier-ish ASCII), but escape
/// defensively so the sinks always emit valid JSON.
void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

/// Microseconds with 3-decimal precision, as Chrome's `ts`/`dur` expect.
std::string us_from_ns(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

/// Milliseconds with 3-decimal precision for the JSONL rows.
std::string ms_from_ns(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000000),
                static_cast<unsigned long long>((ns / 1000) % 1000));
  return buf;
}

bool open_sink(std::ofstream& out, const std::string& path) {
  out.open(path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "shc-trace: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool TraceRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out;
  if (!open_sink(out, path)) return false;
  const std::vector<TraceEvent> events = merged_events();
  std::uint64_t t0 = UINT64_MAX;
  for (const TraceEvent& e : events) t0 = std::min(t0, e.ts_ns);
  if (t0 == UINT64_MAX) t0 = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":" << json_str(e.name) << ",\"pid\":1,\"tid\":"
        << e.track << ",\"ts\":" << us_from_ns(e.ts_ns - t0);
    switch (e.kind) {
      case EventKind::kScope:
        out << ",\"ph\":\"X\",\"dur\":" << us_from_ns(e.dur_ns);
        if (e.value != 0) out << ",\"args\":{\"value\":" << e.value << "}";
        break;
      case EventKind::kCounter:
        out << ",\"ph\":\"C\",\"args\":{\"value\":" << e.value << "}";
        break;
      case EventKind::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case EventKind::kRound:
        out << ",\"ph\":\"i\",\"s\":\"g\",\"args\":{\"round\":" << e.value
            << "}";
        break;
    }
    out << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool TraceRecorder::write_round_jsonl(const std::string& path) const {
  std::ofstream out;
  if (!open_sink(out, path)) return false;

  // Rows are the windows between kRound marks in timestamp order (the
  // engines emit marks from one thread, so ts order == seq order).  A
  // counter's row value is its last sample in or before the window;
  // phase durations are summed per name over scopes *starting* in the
  // window.  Events after the last mark become a tail row, round -1
  // (the endgame / finish work).
  std::vector<TraceEvent> events = merged_events();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::uint64_t t0 = events.empty() ? 0 : events.front().ts_ns;

  std::map<std::string_view, std::uint64_t> counters;
  std::map<std::string_view, std::uint64_t> phases_ns;
  std::uint64_t window_start = t0;

  auto emit_row = [&](long long round, std::uint64_t window_end) {
    out << "{\"round\":" << round << ",\"ts_ms\":"
        << ms_from_ns(window_end - t0) << ",\"wall_ms\":"
        << ms_from_ns(window_end - window_start) << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!first) out << ",";
      first = false;
      out << json_str(name) << ":" << value;
    }
    out << "},\"phases_ms\":{";
    first = true;
    for (const auto& [name, ns] : phases_ns) {
      if (!first) out << ",";
      first = false;
      out << json_str(name) << ":" << ms_from_ns(ns);
    }
    out << "}}\n";
    phases_ns.clear();
    window_start = window_end;
  };

  bool tail = false;  // any scope/counter activity since the last mark
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kScope:
        phases_ns[e.name] += e.dur_ns;
        tail = true;
        break;
      case EventKind::kCounter:
        counters[e.name] = e.value;
        tail = true;
        break;
      case EventKind::kInstant:
        tail = true;
        break;
      case EventKind::kRound:
        emit_row(static_cast<long long>(e.value), e.ts_ns);
        tail = false;
        break;
    }
  }
  if (tail && !events.empty()) emit_row(-1, events.back().ts_ns);
  return static_cast<bool>(out);
}

// ---- TraceSession -------------------------------------------------------

TraceSession::TraceSession(TraceOptions opt)
    : opt_(std::move(opt)), rec_(std::make_unique<TraceRecorder>()) {
  rec_->install();
}

TraceSession::~TraceSession() {
  rec_->uninstall();
  if (!opt_.chrome_path.empty()) rec_->write_chrome_trace(opt_.chrome_path);
  if (!opt_.jsonl_path.empty()) rec_->write_round_jsonl(opt_.jsonl_path);
}

std::unique_ptr<TraceSession> TraceSession::from_env() {
  const char* base = std::getenv("SHC_TRACE");
  if (base == nullptr || base[0] == '\0') return nullptr;
  return std::make_unique<TraceSession>(trace_options_from_base(base));
}

}  // namespace shc::obs
