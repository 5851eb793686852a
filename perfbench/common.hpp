// Shared helpers of the pgbench subcommands: flag parsing, line files, the
// reply checker, and the span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pgbench {

using Flags = std::map<std::string, std::string>;

inline Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value, got " + key);
    }
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

inline const std::string& flag(const Flags& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

inline std::uint64_t flag_u64(const Flags& f, const std::string& key) {
  return std::stoull(flag(f, key));
}

inline double flag_double(const Flags& f, const std::string& key) {
  return std::stod(flag(f, key));
}

inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

inline void write_lines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& l : lines) out << l << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ---------------------------------------------------------------------------
// Reply checking. Every reply is compared byte for byte with the reply the
// library computes in-process for the same request on the same snapshot. A
// live server may answer from either of two graph states, so a reply may
// match one of several expected lines.

enum class Verdict : std::uint8_t { kOk, kErr, kWrong, kMissing };

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kErr: return "err";
    case Verdict::kWrong: return "wrong";
    case Verdict::kMissing: return "missing";
  }
  return "?";
}

/// `got` is nullopt when no reply arrived (connection closed or timed out).
inline Verdict check_reply(const std::optional<std::string>& got,
                           std::string_view expected,
                           std::optional<std::string_view> alternative = std::nullopt) {
  if (!got) return Verdict::kMissing;
  if (*got == expected || (alternative && *got == *alternative)) return Verdict::kOk;
  if (got->rfind("err", 0) == 0) return Verdict::kErr;
  return Verdict::kWrong;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t wrong = 0;
  std::uint64_t missing = 0;

  void add(Verdict v) {
    ++attempted;
    switch (v) {
      case Verdict::kOk: ++ok; break;
      case Verdict::kErr: ++err; break;
      case Verdict::kWrong: ++wrong; break;
      case Verdict::kMissing: ++missing; break;
    }
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    err += o.err;
    wrong += o.wrong;
    missing += o.missing;
  }
};

// ---------------------------------------------------------------------------
// Spans of the traced run: kept in memory, written out when the run ends.
// Spans opened while another is open become its children; `request` groups
// the spans of one request (0 = not tied to a request).

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // index into Tracer::spans, -1 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, std::string name, std::uint64_t request = 0) : t_(t) {
      index_ = t_.spans_.size();
      const std::int64_t parent = t_.open_.empty() ? -1 : t_.open_.back();
      if (request == 0 && parent >= 0) request = t_.spans_[parent].request;
      t_.spans_.push_back({std::move(name), now_ns(), 0, parent, request});
      t_.open_.push_back(static_cast<std::int64_t>(index_));
    }
    ~Scope() {
      t_.spans_[index_].end_ns = now_ns();
      t_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.name == name) d.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return d;
  }

  /// Self times (ns) of every span named `name`: duration minus the time
  /// its direct children cover (children never overlap: one thread).
  [[nodiscard]] std::vector<double> self_times(std::string_view name) const {
    std::vector<double> self;
    std::map<std::size_t, std::size_t> slot;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) {
        slot[i] = self.size();
        self.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
      }
    }
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const auto it = slot.find(static_cast<std::size_t>(s.parent));
      if (it != slot.end()) self[it->second] -= static_cast<double>(s.end_ns - s.start_ns);
    }
    return self;
  }

  /// One tab-separated line per span: index, parent, request, name, start, end.
  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "index\tparent\trequest\tname\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name << '\t'
          << s.start_ns << '\t' << s.end_ns << '\n';
    }
    if (!out.flush()) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace pgbench
