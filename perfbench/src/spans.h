/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The benchmark wraps each call into a layer's public function in a
 * Span.  A span records its name, the id of the program or request
 * it belongs to, its parent span and its start and end.  Each thread
 * records into its own SpanTrack, so recording takes no lock; tracks
 * are merged only when the run ends.  A null track makes Span a no-op,
 * which is how the untraced runs call the same code.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct SpanRecord
{
    const char* name = "";
    uint64_t id = 0;
    /** Index of the parent in the same track; -1 for a root. */
    int32_t parent = -1;
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class SpanTrack
{
  public:
    explicit SpanTrack(int tid) : tid_(tid) {}

    int tid() const { return tid_; }
    const std::vector<SpanRecord>& spans() const { return spans_; }

  private:
    friend class Span;
    int tid_;
    std::vector<SpanRecord> spans_;
    std::vector<int32_t> open_;
};

/** RAII span; records nothing when @p track is null. */
class Span
{
  public:
    Span(SpanTrack* track, const char* name, uint64_t id);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    SpanTrack* track_;
    int32_t index_ = -1;
};

/** Nanoseconds on the steady clock (the span time base). */
int64_t nowNs();

/** Per-name totals over every track. */
struct SpanTotals
{
    int64_t count = 0;
    int64_t totalNs = 0;
    /** Duration minus the part covered by direct children. */
    int64_t selfNs = 0;
};

class SpanRecorder
{
  public:
    /** A new track for the calling thread; owned by the recorder. */
    SpanTrack* newTrack();

    std::map<std::string, SpanTotals> totals() const;

    /**
     * Write every span of @p recorders to @p path, one JSON object per
     * line: name, id, track, parent name, start and duration in
     * microseconds.  Track numbers run on across the recorders.
     */
    static bool writeJsonLines(
        const std::string& path,
        const std::vector<const SpanRecorder*>& recorders);

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<SpanTrack>> tracks_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
