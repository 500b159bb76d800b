/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into
 * each layer (the traced run only).
 *
 * A span is a name, a start and end on the steady clock, the span
 * that caused it, and the thread it ran on. Spans stay in memory in
 * per-thread logs, capped so a long run cannot grow without bound
 * (spans past the cap are counted, not kept), and are written out
 * once at the end as a Chrome trace-event JSON file. The per-layer
 * metrics are accumulated at the same call sites independently of
 * the cap, so they cover every operation of the run.
 *
 * The program's own virtual-time obs::Tracer is a different thing and
 * is not used here.
 */

#ifndef HOSTBENCH_TRACE_HH
#define HOSTBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench
{

/** Nanoseconds on the steady clock since an arbitrary epoch. */
inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

/** Span names; an index into spanName(). */
enum class SpanKind : uint8_t
{
    Update,
    ImportDecide,
    Export,
    FibInstall,
    SnapshotBuild,
    Query,
    Scenario,
};

const char *spanName(SpanKind kind);

struct Span
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** Index + 1 of the causing span in the same log; 0 = root. */
    uint32_t parent = 0;
    SpanKind kind = SpanKind::Update;
};

/** One thread's spans. */
class SpanLog
{
  public:
    explicit SpanLog(uint32_t thread, size_t cap)
        : thread_(thread), cap_(cap)
    {}

    /**
     * Keep a span; returns its handle for children (0 when the cap
     * dropped it, which also makes its children roots).
     */
    uint32_t add(SpanKind kind, uint64_t start, uint64_t end,
                 uint32_t parent = 0);

    uint32_t thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

  private:
    uint32_t thread_;
    size_t cap_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * Write @p logs as a Chrome trace-event file at @p path, with
 * @p manifestJson (one JSON object) under "metadata". Times are
 * rebased to the earliest span. Returns false when the file could not
 * be written.
 */
bool writeTraceFile(const std::string &path,
                    const std::vector<const SpanLog *> &logs,
                    const std::string &manifestJson);

} // namespace hostbench

#endif // HOSTBENCH_TRACE_HH
