#include "spans.h"

#include <cstdio>
#include <sstream>

namespace hostbench {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session_;
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  child_us_.push_back(0.0);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = NowUs();
  open_.pop_back();
  if (span.parent >= 0)
    child_us_[static_cast<std::size_t>(span.parent)] +=
        span.end_us - span.start_us;
}

double SpanRecorder::SelfMs(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return (span.end_us - span.start_us -
          child_us_[static_cast<std::size_t>(id)]) /
         1000.0;
}

std::string SpanRecorder::ToChromeTrace(
    const std::vector<std::pair<std::string, std::string>>& metadata)
    const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < metadata.size(); ++i)
    os << (i ? "," : "") << '"' << JsonEscape(metadata[i].first) << "\":\""
       << JsonEscape(metadata[i].second) << '"';
  os << "},\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"hostbench\"}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << ",{\"name\":\"" << JsonEscape(s.name)
       << "\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << s.start_us << ",\"dur\":" << s.end_us - s.start_us
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"session\":" << s.session << ",\"end_us\":" << s.end_us
       << "}}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace hostbench
