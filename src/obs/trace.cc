#include "obs/trace.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

namespace geotp {
namespace obs {

namespace {

void JsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

void WriteChromeEvent(std::ostream& os, const SpanRecord& s, int pid,
                      bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"";
  JsonEscape(os, s.name);
  os << "\",\"ph\":\"X\",\"ts\":" << s.start
     << ",\"dur\":" << s.Duration() << ",\"pid\":" << pid
     << ",\"tid\":" << s.node << ",\"args\":{\"trace_id\":\"" << std::hex
     << s.trace_id << "\",\"span_id\":\"" << s.span_id
     << "\",\"parent\":\"" << s.parent_span_id << std::dec << "\"}}";
}

}  // namespace

void Tracer::Enable(const TraceConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  enabled_.store(config.sample_rate > 0.0, std::memory_order_relaxed);
}

void Tracer::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

double Tracer::sample_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_.sample_rate;
}

bool Tracer::Sample(double u01) const {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return u01 < config_.sample_rate;
}

uint64_t Tracer::NextSpanId(NodeId node) {
  const uint64_t seq = next_id_.fetch_add(1, std::memory_order_relaxed);
  // Node in the high bits keeps ids from different OS processes (which
  // each count from 1) disjoint before the mix even runs; the mix spreads
  // that (node, counter) structure so ids look random in exports.
  uint64_t id = Mix64((static_cast<uint64_t>(node + 1) << 40) ^ seq);
  if (id == 0) id = 1;
  return id;
}

TraceContext Tracer::NewTrace(uint64_t random, NodeId node) {
  uint64_t id = Mix64(random ^ (static_cast<uint64_t>(node + 1) << 40));
  // 0 is "unsampled" and kSystemTraceId is reserved.
  if (id <= kSystemTraceId) id += 2;
  return TraceContext{id, 0, 0};
}

SpanHandle Tracer::BeginSpan(const TraceContext& parent, const char* name,
                             NodeId node, Micros start,
                             TraceContext* child_ctx) {
  if (!enabled() || !parent.valid()) return kInvalidSpan;
  SpanRecord rec;
  rec.trace_id = parent.trace_id;
  rec.span_id = NextSpanId(node);
  rec.parent_span_id = parent.span_id;
  rec.name = name;
  rec.node = node;
  rec.start = start;
  if (child_ctx != nullptr) {
    *child_ctx =
        TraceContext{rec.trace_id, rec.span_id, rec.parent_span_id};
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= config_.max_spans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kInvalidSpan;
  }
  spans_.push_back(std::move(rec));
  return spans_.size();  // index + 1
}

void Tracer::EndSpan(SpanHandle handle, Micros end) {
  if (handle == kInvalidSpan) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (handle > spans_.size()) return;
  spans_[handle - 1].end = end;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void Tracer::ExportChromeTrace(std::ostream& os, int pid) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      WriteChromeEvent(os, s, pid, &first);
    }
  }
  os << "\n]}\n";
}

void Tracer::DumpText(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    os << "span " << s.trace_id << ' ' << s.span_id << ' '
       << s.parent_span_id << ' ' << s.name << ' ' << s.node << ' '
       << s.start << ' ' << s.end << '\n';
  }
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

size_t ReadSpansText(std::istream& is, std::vector<SpanRecord>* out) {
  size_t read = 0;
  std::string tag;
  while (is >> tag) {
    if (tag != "span") {
      // Skip the rest of an unrecognized line.
      std::string rest;
      std::getline(is, rest);
      continue;
    }
    SpanRecord s;
    if (!(is >> s.trace_id >> s.span_id >> s.parent_span_id >> s.name >>
          s.node >> s.start >> s.end)) {
      break;
    }
    out->push_back(std::move(s));
    ++read;
  }
  return read;
}

std::string ChromeTraceJson(
    const std::vector<std::pair<int, std::vector<SpanRecord>>>& per_pid) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, spans] : per_pid) {
    for (const SpanRecord& s : spans) {
      WriteChromeEvent(os, s, pid, &first);
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::string SlowestTracesReport(const std::vector<SpanRecord>& spans,
                                size_t k) {
  // A trace's duration is its root span's (parent == 0, non-system).
  std::vector<const SpanRecord*> roots;
  std::map<uint64_t, std::vector<const SpanRecord*>> by_trace;
  for (const SpanRecord& s : spans) {
    if (s.trace_id == kSystemTraceId) continue;
    by_trace[s.trace_id].push_back(&s);
    if (s.parent_span_id == 0) roots.push_back(&s);
  }
  std::sort(roots.begin(), roots.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->Duration() > b->Duration();
            });
  if (roots.size() > k) roots.resize(k);

  std::ostringstream os;
  os << "slowest " << roots.size() << " traces ("
     << by_trace.size() << " sampled):\n";
  for (const SpanRecord* root : roots) {
    os << "  trace " << std::hex << root->trace_id << std::dec << " "
       << root->name << " " << root->Duration() << "us\n";
    auto& members = by_trace[root->trace_id];
    std::sort(members.begin(), members.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start < b->start;
              });
    for (const SpanRecord* s : members) {
      if (s == root) continue;
      os << "    +" << (s->start - root->start) << "us " << s->name
         << " node=" << s->node << " " << s->Duration() << "us\n";
    }
  }
  return os.str();
}

}  // namespace obs
}  // namespace geotp
