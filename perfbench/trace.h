// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each engine module; nothing inside the
// engine is instrumented. With a null Tracer every span is a no-op, which
// is how the end-to-end run uses it.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // a string literal: "<module>.<operation>"
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;   // index of the enclosing span, -1 for a root
    int32_t request;  // index of the root span of the same request
  };

  int32_t Begin(const char* name) {
    const int32_t id = static_cast<int32_t>(spans_.size());
    const int32_t parent = open_.empty() ? -1 : open_.back();
    const int32_t request = parent < 0 ? id : spans_[parent].request;
    spans_.push_back({name, Now(), 0, parent, request});
    open_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[id].end_ns = Now();
    open_.pop_back();
  }

  // Durations in nanoseconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_ns - s.start_ns);
    }
    return out;
  }

  // Writes one line per span name: count, total and self time (the span's
  // duration minus the time covered by its direct children).
  void Dump(std::FILE* out) const {
    struct Totals {
      uint64_t count = 0;
      int64_t total_ns = 0;
      int64_t self_ns = 0;
    };
    std::map<std::string, Totals> by_name;
    for (const Span& s : spans_) {
      Totals& t = by_name[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += s.end_ns - s.start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      by_name[spans_[s.parent].name].self_ns -= s.end_ns - s.start_ns;
    }
    std::fprintf(out, "# spans: name count total_ms self_ms\n");
    for (const auto& [name, t] : by_name) {
      std::fprintf(out, "#   %-28s %9llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                   t.self_ns / 1e6);
    }
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; does nothing when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
