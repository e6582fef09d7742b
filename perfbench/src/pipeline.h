/**
 * @file
 * The compile-and-simulate paths the batch workloads time, and the
 * golden-model judge they are checked with.
 *
 * Two compile paths produce the same CompileResult:
 *   - shipped: cash::compileSource, the path cashc and cashd run;
 *   - staged: the same public calls made one by one (parse+sema,
 *     layout, lower, points-to, MOD/REF, build, verify, optimize per
 *     function), each wrapped in a Span.  It mirrors compileSource at
 *     jobs=1 with isolation on; the traced run checks that both give
 *     byte-identical results (fingerprint()).
 */
#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/compiler.h"
#include "sim/dataflow_sim.h"
#include "spans.h"

namespace perfbench {

/** The reference interpreter's verdict on one (program, call). */
struct Golden
{
    /** False when the interpreter trapped (result left unjudged). */
    bool judged = false;
    std::string trap;
    uint32_t returnValue = 0;
    /** (address, bytes) of every global object after the call. */
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> globals;
};

/** Interpret @p entry(@p args) in @p source (span "baseline.interp"). */
Golden computeGolden(const std::string& source, const std::string& entry,
                     const std::vector<uint32_t>& args, SpanTrack* track,
                     uint64_t id);

/**
 * Empty when @p out and the final memory image agree with @p golden
 * (return value and every global byte); otherwise what differs.  An
 * unjudged golden checks nothing here.
 */
std::string judge(const Golden& golden, const cash::SimResult& out,
                  const cash::MemoryImage& image);

/** compileSource at @p level, jobs=1 (the shipped path). */
cash::CompileResult compileShipped(const std::string& source,
                                   cash::OptLevel level);

/** The same compilation as a sequence of spanned public calls. */
cash::CompileResult compileStaged(const std::string& source,
                                  cash::OptLevel level, SpanTrack* track,
                                  uint64_t id);

/** One simulated call of a compiled program. */
struct SimRun
{
    cash::SimResult out;
    /** Host seconds in the simulator constructor and in run(). */
    double indexSeconds = 0;
    double runSeconds = 0;
    std::string judgement;
};

/**
 * Construct a simulator (span "sim.index"), run @p entry(@p args)
 * (span "sim.run") and judge the result against @p golden.
 */
SimRun simulate(const cash::CompileResult& r, const cash::MemConfig& mem,
                uint64_t maxEvents, const std::string& entry,
                const std::vector<uint32_t>& args, const Golden& golden,
                SpanTrack* track, uint64_t id);

/**
 * Deterministic identity of a compilation: wall-clock-stripped stats,
 * live node count and static loads and stores.
 */
std::string fingerprint(const cash::CompileResult& r);

/** Deterministic identity of one simulated call. */
std::string fingerprint(const cash::SimResult& out);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
