#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace hostbench
{

const char *
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Update: return "update";
      case SpanKind::ImportDecide: return "import_decide";
      case SpanKind::Export: return "export";
      case SpanKind::FibInstall: return "fib_install";
      case SpanKind::SnapshotBuild: return "snapshot_build";
      case SpanKind::Query: return "query";
      case SpanKind::Scenario: return "scenario_run";
    }
    return "unknown";
}

uint32_t
SpanLog::add(SpanKind kind, uint64_t start, uint64_t end,
             uint32_t parent)
{
    if (spans_.size() >= cap_) {
        ++dropped_;
        return 0;
    }
    spans_.push_back(Span{start, end, parent, kind});
    return uint32_t(spans_.size());
}

bool
writeTraceFile(const std::string &path,
               const std::vector<const SpanLog *> &logs,
               const std::string &manifestJson)
{
    std::ofstream out(path);
    if (!out)
        return false;
    uint64_t origin = UINT64_MAX;
    for (const SpanLog *log : logs) {
        for (const Span &span : log->spans())
            origin = std::min(origin, span.startNs);
    }
    out << "{\"metadata\":" << manifestJson
        << ",\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    char line[256];
    for (const SpanLog *log : logs) {
        const std::vector<Span> &spans = log->spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            // Chrome trace timestamps are microseconds.
            std::snprintf(
                line, sizeof line,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"id\":%zu,\"parent\":%u}}",
                first ? "" : ",", spanName(span.kind), log->thread(),
                double(span.startNs - origin) / 1e3,
                double(span.endNs - span.startNs) / 1e3, i + 1,
                span.parent);
            out << line;
            first = false;
        }
    }
    out << "\n]}\n";
    out.close();
    return bool(out);
}

} // namespace hostbench
