#include "obs/export.h"

#include <cstdio>
#include <map>
#include <sstream>

namespace propeller::obs {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// %.17g round-trips doubles exactly, keeping exports bit-faithful.
std::string JsonDouble(double d) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string Indent(int level) { return std::string(2 * level, ' '); }

void AppendHistogram(std::ostringstream& os, const HistogramSnapshot& h,
                     int level) {
  os << "{\"count\": " << h.count << ", \"sum\": " << JsonDouble(h.sum)
     << ", \"max\": " << JsonDouble(h.max)
     << ", \"mean\": " << JsonDouble(h.Mean())
     << ", \"p50\": " << JsonDouble(h.Percentile(50))
     << ", \"p95\": " << JsonDouble(h.Percentile(95))
     << ", \"p99\": " << JsonDouble(h.Percentile(99)) << "}";
  (void)level;
}

void AppendSnapshot(std::ostringstream& os, const MetricsSnapshot& snap,
                    int level) {
  os << "{\n";
  os << Indent(level + 1) << "\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "\n" : ",\n") << Indent(level + 2) << '"'
       << JsonEscape(name) << "\": " << v;
    first = false;
  }
  if (!first) os << '\n' << Indent(level + 1);
  os << "},\n";
  os << Indent(level + 1) << "\"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "\n" : ",\n") << Indent(level + 2) << '"'
       << JsonEscape(name) << "\": " << JsonDouble(v);
    first = false;
  }
  if (!first) os << '\n' << Indent(level + 1);
  os << "},\n";
  os << Indent(level + 1) << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "\n" : ",\n") << Indent(level + 2) << '"'
       << JsonEscape(name) << "\": ";
    AppendHistogram(os, h, level + 2);
    first = false;
  }
  if (!first) os << '\n' << Indent(level + 1);
  os << "}\n";
  os << Indent(level) << "}";
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot, int indent) {
  std::ostringstream os;
  os << Indent(indent);
  AppendSnapshot(os, snapshot, indent);
  return os.str();
}

std::string MetricsReportToJson(
    const std::vector<std::pair<std::string, MetricsSnapshot>>& sections) {
  MetricsSnapshot merged;
  for (const auto& [name, snap] : sections) merged.Merge(snap);
  std::ostringstream os;
  os << "{\n  \"sections\": {";
  bool first = true;
  for (const auto& [name, snap] : sections) {
    os << (first ? "\n" : ",\n") << Indent(2) << '"' << JsonEscape(name)
       << "\": ";
    AppendSnapshot(os, snap, 2);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"merged\": ";
  AppendSnapshot(os, merged, 1);
  os << "\n}\n";
  return os.str();
}

std::string SpansToChromeTrace(const std::vector<Span>& spans) {
  // chrome://tracing wants distinct (pid, tid) rows; give each trace its
  // own tid so concurrent requests do not interleave on one row.
  std::map<uint64_t, uint64_t> trace_tid;
  for (const Span& s : spans) {
    trace_tid.emplace(s.trace_id, trace_tid.size() + 1);
  }
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"ph\": \"X\", \"name\": \"" << JsonEscape(s.name)
       << "\", \"cat\": \"propeller\""
       << ", \"pid\": " << s.node << ", \"tid\": " << trace_tid[s.trace_id]
       << ", \"ts\": " << JsonDouble(s.start_s * 1e6)
       << ", \"dur\": " << JsonDouble((s.end_s - s.start_s) * 1e6)
       << ", \"args\": {\"trace_id\": \"" << std::hex << s.trace_id
       << "\", \"span_id\": \"" << s.span_id << "\", \"parent_id\": \""
       << s.parent_id << "\"" << std::dec;
    for (const auto& [k, v] : s.tags) {
      os << ", \"" << JsonEscape(k) << "\": \"" << JsonEscape(v) << "\"";
    }
    os << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return os.str();
}

}  // namespace propeller::obs
