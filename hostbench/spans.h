// Host wall-clock spans for the benchmark's traced runs.
//
// The driver wraps each call into a library layer in a ScopedSpan.  A
// span records its name, start and end (microseconds of
// std::chrono::steady_clock since the recorder was created), its parent
// (the span open when it began) and the session it belongs to.  Spans
// stay in memory until the run ends; ToChromeTrace renders them as
// Chrome Trace Event JSON (complete "X" events), which Perfetto loads.
//
// Host time is non-deterministic by nature: nothing here ever feeds the
// library's byte-stable simulated-time artifacts.  Recording is
// single-threaded — only the driver thread opens spans.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;   // index into the recorder's spans, -1 = root
  int session = -1;  // driver session the span was recorded in
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }

  /// Switch recording on or off for spans opened from now on, tagging
  /// them with `session` (-1 = outside any session).
  void Record(bool enabled, int session) {
    enabled_ = enabled;
    session_ = session;
  }

  /// Open a span under the innermost open one; returns its index.
  int Begin(std::string name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the time covered by direct children, in ms.
  double SelfMs(int id) const;

  /// Chrome Trace Event JSON; `metadata` pairs land in "otherData".
  std::string ToChromeTrace(
      const std::vector<std::pair<std::string, std::string>>& metadata)
      const;

 private:
  double NowUs() const;

  bool enabled_ = false;
  int session_ = -1;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_us_;  // per span: summed direct-child time
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) recorder_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace hostbench
