#include "obs/chrome_trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace db::obs {
namespace {

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += StrFormat("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

std::string Microseconds(std::int64_t ticks, double frequency_mhz) {
  return StrFormat("%.3f",
                   static_cast<double>(ticks) / frequency_mhz);
}

std::string ArgsJson(const Span& span) {
  if (span.args.empty()) return {};
  std::string out = ",\"args\":{";
  for (std::size_t i = 0; i < span.args.size(); ++i) {
    if (i > 0) out += ",";
    // Appended piecewise: `"\"" + std::string` trips GCC 12's false
    // -Wrestrict at -O3.
    out += '"';
    out += EscapeJson(span.args[i].first);
    out += "\":\"";
    out += EscapeJson(span.args[i].second);
    out += '"';
  }
  out += "}";
  return out;
}

/// One emitted trace event with its deterministic sort key.  Async
/// begins rank before ends at equal ts so a zero-length span still
/// opens before it closes (pairs are matched by id, so order across
/// different spans at one ts is free).
struct Event {
  std::int64_t ts_ticks = 0;
  int kind_rank = 0;  // async-begin < complete < async-end at equal ts
  std::int64_t dur_ticks = 0;
  std::string track;
  std::string name;
  std::int64_t id = 0;
  std::string json;
};

}  // namespace

std::string WriteChromeTrace(const Tracer& tracer, double frequency_mhz) {
  DB_CHECK_MSG(frequency_mhz > 0, "frequency must be positive");
  const std::vector<Span> spans = tracer.Sorted();

  // Tracks in sorted-name order get dense thread ids: identical span
  // sets map to identical tids no matter which thread recorded first.
  std::map<std::string, int> tids;
  for (const Span& span : spans) tids.emplace(span.track, 0);
  int next_tid = 1;
  for (auto& [track, tid] : tids) tid = next_tid++;

  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (const Span& span : spans) {
    const int tid = tids.at(span.track);
    const std::string cat =
        EscapeJson(span.category.empty() ? "span" : span.category);
    const std::string name = EscapeJson(span.name);
    if (span.async) {
      Event begin;
      begin.ts_ticks = span.start;
      begin.kind_rank = 0;
      begin.dur_ticks = span.end - span.start;
      begin.track = span.track;
      begin.name = span.name;
      begin.id = span.id;
      begin.json = StrFormat(
          "{\"ph\":\"b\",\"pid\":1,\"tid\":%d,\"id\":%lld,\"cat\":\"%s\","
          "\"name\":\"%s\",\"ts\":%s%s}",
          tid, static_cast<long long>(span.id), cat.c_str(), name.c_str(),
          Microseconds(span.start, frequency_mhz).c_str(),
          ArgsJson(span).c_str());
      Event end = begin;
      end.ts_ticks = span.end;
      end.kind_rank = 2;
      end.json = StrFormat(
          "{\"ph\":\"e\",\"pid\":1,\"tid\":%d,\"id\":%lld,\"cat\":\"%s\","
          "\"name\":\"%s\",\"ts\":%s}",
          tid, static_cast<long long>(span.id), cat.c_str(), name.c_str(),
          Microseconds(span.end, frequency_mhz).c_str());
      events.push_back(std::move(begin));
      events.push_back(std::move(end));
    } else {
      Event ev;
      ev.ts_ticks = span.start;
      ev.kind_rank = 1;
      ev.dur_ticks = span.end - span.start;
      ev.track = span.track;
      ev.name = span.name;
      ev.id = span.id;
      ev.json = StrFormat(
          "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\","
          "\"name\":\"%s\",\"ts\":%s,\"dur\":%s%s}",
          tid, cat.c_str(), name.c_str(),
          Microseconds(span.start, frequency_mhz).c_str(),
          Microseconds(span.end - span.start, frequency_mhz).c_str(),
          ArgsJson(span).c_str());
      events.push_back(std::move(ev));
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) {
              if (a.ts_ticks != b.ts_ticks) return a.ts_ticks < b.ts_ticks;
              if (a.kind_rank != b.kind_rank)
                return a.kind_rank < b.kind_rank;
              if (a.dur_ticks != b.dur_ticks)
                return a.dur_ticks > b.dur_ticks;  // parents before children
              if (a.track != b.track) return a.track < b.track;
              if (a.name != b.name) return a.name < b.name;
              return a.id < b.id;
            });

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"frequency_mhz\":"
     << StrFormat("%.6g", frequency_mhz) << "},\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"deepburning\"}}";
  for (const auto& [track, tid] : tids)
    os << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << EscapeJson(track) << "\"}}";
  for (const Event& ev : events) os << ",\n" << ev.json;
  os << "\n]}\n";
  return os.str();
}

}  // namespace db::obs
