// ServeEngine: line protocol parsing, certificate cache, admission
// control, pool lending.  No transport here — examples/shc_serve.cpp
// owns the stdin/socket plumbing.

#include "shc/api/serve.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "shc/mlbg/params.hpp"

namespace shc {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader — just enough for the request protocol (objects,
// arrays, strings, numbers, booleans, null).  Malformed input produces
// an error message, never UB: the server's contract is that every bad
// line becomes a structured error row.

/// Deepest container nesting a line may use.  A request is an object
/// whose only nested value is the `cuts` array, so depth 2 admits every
/// valid request; deeper lines are refused before the recursive descent
/// can exhaust the stack.
constexpr int kMaxJsonDepth = 2;

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the whole line as one value; trailing non-space is an error.
  bool parse(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (i_ != s_.size()) return fail("trailing characters after value");
    return true;
  }

  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  bool fail(const std::string& what) {
    if (err_.empty()) {
      err_ = what + " at byte " + std::to_string(i_);
    }
    return false;
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\r' || s_[i_] == '\n')) {
      ++i_;
    }
  }

  bool consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(JsonValue* out) {
    if (i_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
      }
      ++depth_;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return parse_string(&out->str);
    }
    if (c == 't' || c == 'f') return parse_bool(out);
    if (c == 'n') return parse_null(out);
    return parse_number(out);
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue val;
      if (!parse_value(&val)) return false;
      out->obj.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue val;
      if (!parse_value(&val)) return false;
      out->arr.push_back(std::move(val));
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return fail("dangling escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int d = 0; d < 4; ++d) {
            const char h = s_[i_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape digit");
          }
          // Basic-plane code point to UTF-8 (surrogate pairs are not
          // a thing request fields need; reject them explicitly).
          if (cp >= 0xD800 && cp <= 0xDFFF) return fail("surrogate \\u escape");
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_bool(JsonValue* out) {
    out->kind = JsonValue::kBool;
    if (s_.compare(i_, 4, "true") == 0) {
      out->b = true;
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      out->b = false;
      i_ += 5;
      return true;
    }
    return fail("expected true/false");
  }

  bool parse_null(JsonValue* out) {
    out->kind = JsonValue::kNull;
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return true;
    }
    return fail("expected null");
  }

  bool parse_number(JsonValue* out) {
    out->kind = JsonValue::kNumber;
    const char* begin = s_.data() + i_;
    const char* end = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, out->num);
    if (ec != std::errc{} || ptr == begin) return fail("expected a value");
    i_ = static_cast<std::size_t>(ptr - s_.data());
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  int depth_ = 0;
  std::string err_;
};

// ---------------------------------------------------------------------------

/// Appends the service envelope before the row's closing brace.
std::string with_envelope(std::string row, bool has_id, long long id,
                          bool has_hit, bool hit) {
  std::string extra;
  if (has_id) extra += ",\"id\":" + std::to_string(id);
  if (has_hit) extra += std::string(",\"cache_hit\":") + (hit ? "true" : "false");
  if (extra.empty()) return row;
  if (!row.empty() && row.back() == '}') {
    row.insert(row.size() - 1, extra);
  }
  return row;
}

std::string error_row(const std::string& msg, bool has_id, long long id) {
  return with_envelope("{\"ok\":false,\"error\":\"" + json_escape(msg) + "\"}",
                       has_id, id, false, false);
}

bool integral(const JsonValue& v, long long* out) {
  if (v.kind != JsonValue::kNumber) return false;
  if (v.num != std::floor(v.num) || std::abs(v.num) > 9.0e15) return false;
  *out = static_cast<long long>(v.num);
  return true;
}

/// Whether an integral() value survives narrowing to int — checked
/// before every int field is stored, so 2^32 + 20 is refused instead of
/// wrapping to 20.
bool fits_int(long long v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

}  // namespace

/// One decoded request line: the certify query plus the envelope id.
struct ServeEngine::Parsed {
  CertifyRequest req;
  bool has_id = false;
  long long id = 0;
  std::string error;  ///< non-empty => the line is invalid
};

ServeEngine::ServeEngine(ServeOptions opt) : opt_(opt) {
  if (opt_.threads > 1) {
    require_check_threads("ServeEngine: threads", opt_.threads);
    pool_ = std::make_unique<WorkerPool>(opt_.threads);
  }
}

ServeEngine::~ServeEngine() = default;

ServeStats ServeEngine::stats() const {
  ServeStats s;
  s.queries = queries_.load();
  s.ok = ok_.load();
  s.cache_hits = cache_hits_.load();
  s.cache_misses = cache_misses_.load();
  s.refused = refused_.load();
  s.errors = errors_.load();
  return s;
}

std::string ServeEngine::cache_key(const CertifyRequest& req,
                                   const std::vector<int>& resolved_cuts) const {
  std::ostringstream key;
  key << workload_name(req.workload) << '|' << req.n << '|';
  for (std::size_t i = 0; i < resolved_cuts.size(); ++i) {
    key << (i ? "," : "") << resolved_cuts[i];
  }
  key << '|' << req.source << '|'
      << (req.vertex_disjoint ? "vertex-disjoint" : "edge-disjoint")
      << (req.with_congestion ? "|congestion" : "");
  return key.str();
}

std::string ServeEngine::handle_line(const std::string& line) {
  queries_.fetch_add(1);

  // Decode.  Every exit below answers with exactly one row.
  if (line.size() > kMaxLineBytes) {
    errors_.fetch_add(1);
    return error_row("parse: line longer than " + std::to_string(kMaxLineBytes) +
                         " bytes",
                     false, 0);
  }
  Parsed p;
  {
    JsonValue root;
    JsonParser parser(line);
    if (!parser.parse(&root)) {
      errors_.fetch_add(1);
      return error_row("parse: " + parser.error(), false, 0);
    }
    if (root.kind != JsonValue::kObject) {
      errors_.fetch_add(1);
      return error_row("parse: request must be a JSON object", false, 0);
    }
    bool saw_workload = false, saw_n = false, saw_k = false;
    for (const auto& [key, val] : root.obj) {
      long long num = 0;
      if (key == "id") {
        if (!integral(val, &p.id)) { p.error = "id must be an integer"; break; }
        p.has_id = true;
      } else if (key == "workload") {
        if (val.kind != JsonValue::kString ||
            !workload_from_name(val.str, &p.req.workload)) {
          p.error = "unknown workload (want broadcast-streaming | "
                    "broadcast-symbolic | gossip-symbolic | exchange-gossip)";
          break;
        }
        saw_workload = true;
      } else if (key == "n") {
        if (!integral(val, &num)) { p.error = "n must be an integer"; break; }
        if (!fits_int(num)) { p.error = "n out of range"; break; }
        p.req.n = static_cast<int>(num);
        saw_n = true;
      } else if (key == "k") {
        if (!integral(val, &num)) { p.error = "k must be an integer"; break; }
        if (!fits_int(num)) { p.error = "k out of range"; break; }
        p.req.k = static_cast<int>(num);
        saw_k = true;
      } else if (key == "cuts") {
        if (val.kind != JsonValue::kArray) {
          p.error = "cuts must be an array of integers";
          break;
        }
        for (const JsonValue& c : val.arr) {
          if (!integral(c, &num)) { p.error = "cuts must be an array of integers"; break; }
          if (!fits_int(num)) { p.error = "cuts entry out of range"; break; }
          p.req.cuts.push_back(static_cast<int>(num));
        }
        if (!p.error.empty()) break;
      } else if (key == "source" || key == "root") {
        if (!integral(val, &num) || num < 0) {
          p.error = key + " must be a non-negative integer";
          break;
        }
        p.req.source = static_cast<Vertex>(num);
      } else if (key == "model") {
        if (val.kind == JsonValue::kString && val.str == "edge-disjoint") {
          p.req.vertex_disjoint = false;
        } else if (val.kind == JsonValue::kString && val.str == "vertex-disjoint") {
          p.req.vertex_disjoint = true;
        } else {
          p.error = "model must be \"edge-disjoint\" or \"vertex-disjoint\"";
          break;
        }
      } else if (key == "threads") {
        if (!integral(val, &num) || num <= 0) {
          p.error = "threads must be an integer >= 1";
          break;
        }
        if (!fits_int(num) || num > kMaxCheckThreads) {
          p.error = "threads out of range";
          break;
        }
        p.req.checks.threads = static_cast<int>(num);
      } else if (key == "congestion") {
        if (val.kind != JsonValue::kBool) { p.error = "congestion must be a boolean"; break; }
        p.req.with_congestion = val.b;
      } else {
        // Strict: an unknown key is a typo'd knob, and silently
        // ignoring it would certify something other than what the
        // client asked for.
        p.error = "unknown field: " + key;
        break;
      }
    }
    if (p.error.empty() && !saw_workload) p.error = "missing field: workload";
    if (p.error.empty() && !saw_n) p.error = "missing field: n";
    // The exchange engine always runs k = 1 on the full cube; a request
    // naming another k or a cut vector asked for something else.
    if (p.error.empty() && p.req.workload == Workload::kExchangeGossip &&
        ((saw_k && p.req.k != 1) || !p.req.cuts.empty())) {
      p.error = "spec: exchange-gossip always runs k = 1 on the full cube; "
                "it takes no other k and no cuts";
    }
  }
  if (!p.error.empty()) {
    errors_.fetch_add(1);
    return error_row(p.error, p.has_id, p.id);
  }

  // Resolve the cut vector once: it keys the cache, and a spec the
  // constructors reject becomes an error row here instead of a throw
  // deep in certify.
  std::vector<int> resolved_cuts;
  if (p.req.workload != Workload::kExchangeGossip) {
    try {
      resolved_cuts = p.req.cuts.empty()
                          ? design_sparse_hypercube(p.req.n, p.req.k).cuts()
                          : SparseHypercubeSpec::construct(p.req.n, p.req.cuts).cuts();
    } catch (const std::exception& e) {
      errors_.fetch_add(1);
      return error_row(std::string("spec: ") + e.what(), p.has_id, p.id);
    }
  }
  const std::string key = cache_key(p.req, resolved_cuts);

  // Single-flight cache: one leader per cold key certifies; everyone
  // else waits on its slot and replays the stored bytes, so a key's
  // row — `seconds` included — is identical across every response and
  // exactly one certification runs per distinct key.  A leader that
  // produces no row (refusal, engine error) unlinks the slot and wakes
  // the waiters to re-compete — each retry either finds a completed
  // row, leads, or is refused itself, so every request terminates.
  for (;;) {
    std::shared_ptr<CacheEntry> entry;
    bool leader = true;
    if (opt_.enable_cache) {
      std::lock_guard<std::mutex> lock(cache_mu_);
      auto [it, inserted] =
          cache_.try_emplace(key, std::make_shared<CacheEntry>());
      entry = it->second;
      leader = inserted;
    }

    if (!leader) {
      std::unique_lock<std::mutex> wait_lock(entry->mu);
      entry->cv.wait(wait_lock, [&] { return entry->ready; });
      if (entry->row.empty()) continue;  // leader failed; compete again
      cache_hits_.fetch_add(1);
      if (entry->row.find("\"ok\":true") != std::string::npos) ok_.fetch_add(1);
      return with_envelope(entry->row, p.has_id, p.id, true, true);
    }

    // Leader from here on: every exit must publish the slot's outcome.
    const auto abandon = [&] {
      if (!entry) return;
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.erase(key);
      }
      std::lock_guard<std::mutex> lock(entry->mu);
      entry->ready = true;  // row stays empty => waiters re-compete
      entry->cv.notify_all();
    };

    // Admission: heavy queries take a slot or answer a refusal row.
    const std::uint64_t cost = predicted_group_cost(p.req);
    const bool heavy = cost >= opt_.heavy_groups;
    if (heavy) {
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lock(admit_mu_);
        if (heavy_in_flight_ < opt_.heavy_slots) {
          ++heavy_in_flight_;
          admitted = true;
        }
      }
      if (!admitted) {
        refused_.fetch_add(1);
        abandon();
        return with_envelope(
            "{\"ok\":false,\"refused\":true,\"error\":\"admission: predicted "
            "group cost " + std::to_string(cost) + " >= heavy_groups " +
            std::to_string(opt_.heavy_groups) + " and no heavy slot is free\"}",
            p.has_id, p.id, false, false);
      }
    }

    std::string row;
    bool row_ok = false;
    try {
      // Lend the shared pool to one query at a time; everyone else runs
      // inline (WorkerPool::run is not reentrant).
      std::unique_lock<std::mutex> pool_lock(pool_mu_, std::defer_lock);
      if (pool_ && pool_lock.try_lock()) {
        p.req.checks.pool = pool_.get();
      } else {
        p.req.checks.threads = 1;
        p.req.checks.pool = nullptr;
      }
      const CertifyResult res = certify(p.req);
      row = to_json_row(res);
      row_ok = res.ok;
    } catch (const std::exception& e) {
      if (heavy) {
        std::lock_guard<std::mutex> lock(admit_mu_);
        --heavy_in_flight_;
      }
      errors_.fetch_add(1);
      abandon();
      return error_row(e.what(), p.has_id, p.id);
    }
    if (heavy) {
      std::lock_guard<std::mutex> lock(admit_mu_);
      --heavy_in_flight_;
    }

    cache_misses_.fetch_add(1);
    if (row_ok) ok_.fetch_add(1);
    if (entry) {
      std::lock_guard<std::mutex> lock(entry->mu);
      entry->row = row;
      entry->ready = true;
      entry->cv.notify_all();
    }
    return with_envelope(std::move(row), p.has_id, p.id, true, false);
  }
}

}  // namespace shc
