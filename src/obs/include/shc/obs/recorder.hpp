// Flight recorder — zero-overhead-when-disabled phase tracing, a
// counter/gauge registry, and per-round run telemetry for the symbolic
// engines.
//
// The engines are instrumented with RAII phase scopes
// (SHC_TRACE_SCOPE("caller_tiling")), counter samples
// (SHC_TRACE_COUNTER("frontier_subcubes", n)) and per-round marks
// (SHC_TRACE_ROUND(r)).  With no recorder installed every macro is one
// relaxed atomic load and a branch — no allocation, no clock read, no
// lock — so the hot paths carry the instrumentation permanently.
// Installing a TraceSession (explicitly, or via the SHC_TRACE
// environment variable) turns the same call sites into a timestamped
// event stream:
//
//   * events are appended to per-thread buffers (registration takes the
//     recorder mutex once per thread per session; appends are
//     lock-free — each thread owns its buffer);
//   * every event carries a deterministic (track, seq) key assigned at
//     the call site: main-track sequence numbers are handed out in the
//     engine thread's program order, so the flush-time merge — a sort
//     on (track, seq) — is bit-for-bit reproducible run over run and at
//     every thread count.  Timestamps and durations are measurements;
//     they exist only in the trace files, never in the event ordering;
//   * sinks: a Chrome trace_event JSON (loadable in about:tracing /
//     https://ui.perfetto.dev) and a compact per-round JSONL time
//     series (one object per SHC_TRACE_ROUND mark: wall time, the
//     latest value of every counter, and the phase-duration breakdown
//     of the round's window) — tools/trace_report.py renders it.
//
// Hard contract (enforced by trace_recorder_test and the shc-lint
// timestamp rule): recorder calls never influence verdicts or report
// counters; reports are bit-for-bit identical with tracing on or off;
// steady_clock lives only inside src/obs/.  Compile with
// -DSHC_OBS_DISABLE to compile every macro away entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace shc::obs {

/// What one recorded event is.
enum class EventKind : std::uint8_t {
  kScope,    ///< a completed phase (Chrome "X"): ts + dur
  kCounter,  ///< a gauge sample (Chrome "C"): name -> value
  kInstant,  ///< a point event (Chrome "i")
  kRound,    ///< a per-round mark; value is the round index
};

/// One trace event.  `name` must be a string with static storage
/// duration (the call sites pass literals); nothing is copied or freed.
struct TraceEvent {
  const char* name = "";
  EventKind kind = EventKind::kInstant;
  std::uint32_t track = 0;   ///< deterministic stream id (merge key, Chrome tid)
  std::uint64_t seq = 0;     ///< deterministic order within the track
  std::uint64_t ts_ns = 0;   ///< steady-clock start (trace files only)
  std::uint64_t dur_ns = 0;  ///< kScope only (trace files only)
  std::uint64_t value = 0;   ///< counter value / round index / payload
};

/// The engine thread's track: sequence numbers on it are assigned in
/// program order of the (single) thread driving the validators, which
/// is what makes the merged event order deterministic.
inline constexpr std::uint32_t kMainTrack = 0;

/// Steady-clock nanoseconds.  Defined in recorder.cpp — the ONLY
/// translation unit of the repo allowed to read a clock (shc-lint's
/// timestamp rule keeps it that way).
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// Resident-set high-water mark in KiB (/proc/self/status VmHWM);
/// 0 where unavailable.  Sampled by round marks while tracing.
[[nodiscard]] std::uint64_t rss_high_water_kb() noexcept;

/// Sink selection.  An empty path disables that sink.
struct TraceOptions {
  std::string chrome_path;  ///< Chrome trace_event JSON
  std::string jsonl_path;   ///< per-round JSONL time series
};

/// Maps a user-supplied base path to sinks: "*.json" is Chrome-only,
/// "*.jsonl" is JSONL-only, anything else writes both `base.trace.json`
/// and `base.rounds.jsonl`.  This is the SHC_TRACE=<path> convention.
[[nodiscard]] TraceOptions trace_options_from_base(const std::string& base);

/// The event store.  At most one recorder is *active* (installed as the
/// process-global target of the macros) at a time; TraceSession manages
/// that lifecycle.  Recording threads must quiesce before flush /
/// merged_events (the engines guarantee this: a validation run joins
/// its pool before the session ends).
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The installed recorder, or nullptr.  This is the whole cost of a
  /// disabled call site.
  [[nodiscard]] static TraceRecorder* active() noexcept {
    return g_active.load(std::memory_order_acquire);
  }

  /// Next main-track sequence number.  Call sites on the engine thread
  /// draw these in program order; that order IS the merge order.  On a
  /// thread holding a SeqLease the number comes from the lease instead.
  [[nodiscard]] std::uint64_t next_seq() noexcept;

  /// Reserves `count` consecutive main-track sequence numbers and
  /// returns the first.  The engine thread reserves a block for a job
  /// it is about to fork, so the job's events keep their serial-order
  /// place whichever thread runs it (see SeqLease).
  [[nodiscard]] std::uint64_t reserve_seqs(std::uint64_t count) noexcept {
    return seq_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Appends a completed phase scope (TraceScope's destructor).
  void scope_event(const char* name, std::uint32_t track, std::uint64_t seq,
                   std::uint64_t t0_ns, std::uint64_t dur_ns,
                   std::uint64_t value = 0);
  /// Appends a gauge sample.
  void counter(const char* name, std::uint64_t value);
  /// Appends a point event.
  void instant(const char* name);
  /// Appends a per-round mark (plus an rss_hwm_kb gauge sample).
  void round_mark(std::uint64_t round);

  /// All events merged across thread buffers, sorted by (track, seq) —
  /// the deterministic flush order.  For tests and the sinks.
  [[nodiscard]] std::vector<TraceEvent> merged_events() const;

  /// Writes the Chrome trace_event JSON / per-round JSONL sinks.
  /// Returns false (after printing to stderr) when the file cannot be
  /// written; tracing failures never fail a run.
  bool write_chrome_trace(const std::string& path) const;
  bool write_round_jsonl(const std::string& path) const;

 private:
  friend class TraceSession;
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
  };

  void install();    ///< becomes the active recorder (throws if one is)
  void uninstall();  ///< detaches; pending thread caches invalidate via id
  [[nodiscard]] ThreadBuffer* local_buffer();
  void append(const TraceEvent& e);

  static std::atomic<TraceRecorder*> g_active;
  std::uint64_t id_;  ///< unique per instance; invalidates thread caches
  std::atomic<std::uint64_t> seq_{0};
  mutable std::mutex mu_;  ///< buffer registration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Routes the calling thread's main-track sequence draws into a block
/// reserved with TraceRecorder::reserve_seqs, for the lifetime of the
/// lease.  A forked job (one side of a WorkerPool run) opens its lease
/// first thing: every scope, counter and nested scope it records then
/// takes the next number of its own block, in the job's program order,
/// so the merged trace does not depend on which thread ran the job or
/// on how the jobs interleaved.  A job that records more events than
/// its block holds falls back to the shared counter (still a valid
/// trace, no longer reproducible); size blocks to the job's maximum.
/// A null recorder makes the lease a no-op.
class SeqLease {
 public:
  SeqLease(const TraceRecorder* rec, std::uint64_t first,
           std::uint64_t count) noexcept;
  SeqLease(const SeqLease&) = delete;
  SeqLease& operator=(const SeqLease&) = delete;
  ~SeqLease();

 private:
  friend class TraceRecorder;
  const TraceRecorder* rec_;
  SeqLease* prev_ = nullptr;
  std::uint64_t next_ = 0;
  std::uint64_t end_ = 0;
};

/// RAII phase scope.  Constructed cost when disabled: one atomic load.
/// When enabled it draws a main-track sequence number at *construction*
/// (program order) and appends one kScope event at destruction.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept
      : rec_(TraceRecorder::active()), name_(name) {
    if (rec_ != nullptr) {
      seq_ = rec_->next_seq();
      t0_ = trace_now_ns();
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() {
    if (rec_ != nullptr) {
      rec_->scope_event(name_, kMainTrack, seq_, t0_, trace_now_ns() - t0_);
    }
  }

 private:
  TraceRecorder* rec_;
  const char* name_;
  std::uint64_t seq_ = 0;
  std::uint64_t t0_ = 0;
};

/// Owns one recorder's active lifetime: installs at construction,
/// uninstalls and writes the configured sinks at destruction.  The
/// session must outlive every traced call (the engines' sessions wrap
/// whole runs, so this holds by construction).
class TraceSession {
 public:
  explicit TraceSession(TraceOptions opt);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  [[nodiscard]] TraceRecorder& recorder() noexcept { return *rec_; }

  /// A session configured from SHC_TRACE=<path>, or nullptr when the
  /// variable is unset/empty.
  [[nodiscard]] static std::unique_ptr<TraceSession> from_env();

 private:
  TraceOptions opt_;
  std::unique_ptr<TraceRecorder> rec_;
};

}  // namespace shc::obs

// ---- instrumentation macros ---------------------------------------------
//
// All of them compile to `if (active recorder) record;` — one relaxed
// atomic load when disabled — or to nothing under SHC_OBS_DISABLE.

#if defined(SHC_OBS_DISABLE)

#define SHC_TRACE_SCOPE(name) \
  do {                        \
  } while (false)
#define SHC_TRACE_COUNTER(name, value) \
  do {                                 \
  } while (false)
#define SHC_TRACE_INSTANT(name) \
  do {                          \
  } while (false)
#define SHC_TRACE_ROUND(round) \
  do {                         \
  } while (false)

#else

#define SHC_OBS_CAT2(a, b) a##b
#define SHC_OBS_CAT(a, b) SHC_OBS_CAT2(a, b)

/// Times the enclosing scope as one phase event.
#define SHC_TRACE_SCOPE(name) \
  const ::shc::obs::TraceScope SHC_OBS_CAT(shc_trace_scope_, __LINE__)(name)

/// Records a gauge sample into the counter registry.
#define SHC_TRACE_COUNTER(name, value)                               \
  do {                                                               \
    if (::shc::obs::TraceRecorder* shc_obs_rec_ =                    \
            ::shc::obs::TraceRecorder::active()) {                   \
      shc_obs_rec_->counter((name),                                  \
                            static_cast<std::uint64_t>(value));      \
    }                                                                \
  } while (false)

/// Records a point event.
#define SHC_TRACE_INSTANT(name)                    \
  do {                                             \
    if (::shc::obs::TraceRecorder* shc_obs_rec_ =  \
            ::shc::obs::TraceRecorder::active()) { \
      shc_obs_rec_->instant(name);                 \
    }                                              \
  } while (false)

/// Marks a round boundary (the JSONL sink emits one row per mark).
#define SHC_TRACE_ROUND(round)                                       \
  do {                                                               \
    if (::shc::obs::TraceRecorder* shc_obs_rec_ =                    \
            ::shc::obs::TraceRecorder::active()) {                   \
      shc_obs_rec_->round_mark(static_cast<std::uint64_t>(round));   \
    }                                                                \
  } while (false)

#endif  // SHC_OBS_DISABLE
