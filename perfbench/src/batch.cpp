/**
 * @file
 * The batch workloads, suite-sweep and gen-calls.  Both are a list of
 * (program, opt level, memory systems) items run in passes: compile
 * once, simulate on each memory system, judge every result against
 * the reference interpreter.
 *
 * Untraced run: passes of the shipped path (compileSource) for
 * --seconds; rates are medians over passes, exact metrics come from
 * the first pass.  Traced run: half the time on the shipped path,
 * half on the staged path inside spans; the first pass of each must
 * fingerprint identically, and the per-layer metrics are the span
 * and counter totals of the staged half, per pass.
 */
#include <algorithm>
#include <map>

#include "benchsuite/kernels.h"
#include "fuzz/generator.h"
#include "metrics.h"
#include "pipeline.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

using namespace cash;

namespace {

/** One distinct (program, call) with its reference verdict. */
struct Input
{
    std::string label;
    std::string source;
    std::string entry;
    std::vector<uint32_t> args;
    Golden golden;
};

/** One compile of an input at a level, simulated on several memories. */
struct Item
{
    int input = 0;
    OptLevel level = OptLevel::Full;
    std::vector<int> mems;
};

struct Batch
{
    std::vector<Input> inputs;
    std::vector<std::pair<std::string, MemConfig>> mems;
    /** In the seed's order. */
    std::vector<Item> items;
    uint64_t maxEvents = 0;

    int64_t
    resultsPerPass() const
    {
        int64_t n = 0;
        for (const Item& it : items)
            n += static_cast<int64_t>(it.mems.size());
        return n;
    }
};

/**
 * gen-calls pool: generator seeds kGenCallsFirstSeed.. (fixed, so the
 * exact metrics do not move with --seed; see README.md).
 */
constexpr int kGenCallsPrograms = 40;
constexpr uint64_t kGenCallsFirstSeed = 1000;

template <typename T>
void
shuffle(std::vector<T>& v, uint64_t seed)
{
    fuzz::Rng rng(seed ^ 0x5eedf19ull);
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[static_cast<size_t>(rng.below(
                                static_cast<int64_t>(i)))]);
}

Batch
suiteSweepBatch(uint64_t seed)
{
    Batch b;
    b.mems = {{"perfect", MemConfig::perfectMemory()},
              {"real1", MemConfig::realistic(1)},
              {"real2", MemConfig::realistic(2)},
              {"real4", MemConfig::realistic(4)}};
    for (const Kernel& k : kernelSuite()) {
        b.inputs.push_back({k.name, k.source, k.entry, k.args, {}});
        for (OptLevel level :
             {OptLevel::None, OptLevel::Medium, OptLevel::Full})
            b.items.push_back(
                {static_cast<int>(b.inputs.size()) - 1, level, {0, 1, 2, 3}});
    }
    shuffle(b.items, seed);
    return b;
}

Batch
genCallsBatch(uint64_t seed)
{
    Batch b;
    b.mems = {{"real2", MemConfig::realistic(2)}};
    // cashd's default event cap: every pool program finishes well
    // inside it (the largest needs about 10M equivalent events).
    b.maxEvents = ServiceConfig().maxEventsCap;
    const fuzz::GenProfile profile = fuzz::GenProfile::byName("calls");
    for (int i = 0; i < kGenCallsPrograms; i++) {
        uint64_t genSeed = kGenCallsFirstSeed + i;
        b.inputs.push_back(
            {"calls#" + std::to_string(genSeed),
             fuzz::generateProgram(genSeed, profile).render(),
             fuzz::GenProgram::entryName(),
             {static_cast<uint32_t>(genSeed % 17)},
             {}});
        b.items.push_back({i, OptLevel::Full, {0}});
    }
    shuffle(b.items, seed);
    return b;
}

/** What one pass over the items measured. */
struct Pass
{
    double wallSeconds = 0;
    int64_t results = 0;
    int64_t functions = 0;
    int64_t eqEvents = 0;
    int64_t hwOps = 0;
    std::vector<double> cycles;
    /** Per item, in item order: compile, simulation and whole-item
     *  (source to judged results) seconds. */
    std::vector<double> compileSeconds;
    std::vector<double> simSeconds;
    std::vector<double> itemSeconds;
    /** Per result: its item's compile plus its own simulation. */
    std::vector<double> resultSeconds;
    /** Item label -> fingerprint (first pass of a window only). */
    std::map<std::string, std::string> prints;
    StatSet compileStats;
    StatSet simStats;
};

/** Sum every counter of @p from into @p into, gauges included. */
void
addAll(StatSet& into, const StatSet& from)
{
    for (const auto& [key, value] : from.all())
        into.add(key, value);
}

std::string
itemLabel(const Batch& b, const Item& it)
{
    return b.inputs[it.input].label + "@" + optLevelName(it.level);
}

/**
 * One pass over every item.  The first pass of a window (@p first)
 * also fingerprints every result and names every failed one; later
 * passes only count failures.
 */
Pass
runPass(const Batch& b, bool staged, SpanTrack* track, uint64_t idBase,
        bool first, RunReport* rep)
{
    Pass p;
    Clock::time_point passStart = Clock::now();
    for (size_t i = 0; i < b.items.size(); i++) {
        const Item& it = b.items[i];
        const Input& in = b.inputs[it.input];
        const uint64_t id = idBase + i + 1;
        Span item(track, "bench.item", id);
        Clock::time_point t0 = Clock::now();
        CompileResult r = staged ? compileStaged(in.source, it.level,
                                                 track, id)
                                 : compileShipped(in.source, it.level);
        p.compileSeconds.push_back(secondsSince(t0));
        p.simSeconds.push_back(0);
        p.functions += static_cast<int64_t>(r.graphs.size());
        p.hwOps += r.totalNodes();
        if (track)
            addAll(p.compileStats, r.stats);

        std::string label = itemLabel(b, it);
        if (first)
            p.prints[label] = fingerprint(r);
        std::string rollback;
        if (!r.diagnostics.empty())
            rollback = "pass rollback: " + r.diagnostics[0].str();

        for (int m : it.mems) {
            SimRun s = simulate(r, b.mems[m].second, b.maxEvents, in.entry,
                                in.args, in.golden, track, id);
            p.simSeconds.back() += s.indexSeconds + s.runSeconds;
            p.resultSeconds.push_back(p.compileSeconds.back() +
                                      s.indexSeconds + s.runSeconds);
            p.eqEvents += s.out.stats.get("sim.events.equivalent");
            p.cycles.push_back(static_cast<double>(s.out.cycles));
            p.results++;
            if (track)
                addAll(p.simStats, s.out.stats);
            if (first)
                p.prints[label + "/" + b.mems[m].first] =
                    fingerprint(s.out);
            std::string why = !rollback.empty() ? rollback : s.judgement;
            if (!why.empty()) {
                rep->failed++;
                if (first)
                    rep->failures.push_back(label + "/" + b.mems[m].first +
                                            ": " + why);
            }
        }
        p.itemSeconds.push_back(secondsSince(t0));
    }
    p.wallSeconds = secondsSince(passStart);
    rep->attempted += p.results;
    return p;
}

/**
 * Passes until about @p seconds have gone (at least one): a pass
 * starts only when half of the previous one still fits.
 */
std::vector<Pass>
runWindow(const Batch& b, double seconds, bool staged, SpanTrack* track,
          RunReport* rep)
{
    std::vector<Pass> passes;
    Clock::time_point start = Clock::now();
    do {
        uint64_t idBase = passes.size() * (b.items.size() + 1);
        passes.push_back(
            runPass(b, staged, track, idBase, passes.empty(), rep));
    } while (secondsSince(start) + passes.back().wallSeconds / 2 < seconds);
    return passes;
}

template <typename F>
double
medianOver(const std::vector<Pass>& passes, F f)
{
    std::vector<double> v;
    for (const Pass& p : passes)
        v.push_back(f(p));
    return median(v);
}

double
resultsPerSecond(const Pass& p)
{
    return p.results / p.wallSeconds;
}

void
computeGoldens(Batch& b, SpanTrack* track)
{
    for (size_t i = 0; i < b.inputs.size(); i++) {
        Input& in = b.inputs[i];
        in.golden = computeGolden(in.source, in.entry, in.args, track, i + 1);
    }
}

int64_t
unjudgedPerPass(const Batch& b)
{
    int64_t n = 0;
    for (const Item& it : b.items)
        if (!b.inputs[it.input].golden.judged)
            n += static_cast<int64_t>(it.mems.size());
    return n;
}

/**
 * Per element (item or result), its least time over the passes.  On a
 * shared host other tenants slow some passes by 10-30%; the least of
 * several repeats of the same deterministic work is the measurement
 * they disturb least (perfbench/README.md, "Noise").
 */
std::vector<double>
leastSeconds(const std::vector<Pass>& passes,
             std::vector<double> Pass::*perElement)
{
    std::vector<double> least = passes[0].*perElement;
    for (const Pass& p : passes)
        for (size_t i = 0; i < least.size(); i++)
            least[i] = std::min(least[i], (p.*perElement)[i]);
    return least;
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

void
reportEndToEnd(const Batch& b, const std::vector<Pass>& passes,
               RunReport* rep)
{
    const Pass& first = passes[0];
    rep->metric("results_per_s",
                first.results / sum(leastSeconds(passes, &Pass::itemSeconds)),
                "1/s");
    rep->metric("compile_funcs_per_s",
                first.functions /
                    sum(leastSeconds(passes, &Pass::compileSeconds)),
                "1/s");
    rep->metric("sim_meps",
                first.eqEvents /
                    sum(leastSeconds(passes, &Pass::simSeconds)) / 1e6,
                "Meq-ev/s");
    std::vector<double> latency = leastSeconds(passes, &Pass::resultSeconds);
    for (double& x : latency)
        x *= 1e3;
    const Tail tail = tailOf(latency);
    rep->metric("latency_p50_ms", median(latency), "ms");
    rep->metric("latency_tail_ms", tail.value, "ms");
    rep->metric("sim_cycles_geomean", geomean(first.cycles), "cycles");
    rep->metric("hw_ops", static_cast<double>(first.hwOps), "nodes");
    rep->metric("peak_rss_mb", peakRssMiB(), "MiB");
    std::string rates;
    for (const Pass& p : passes)
        rates += " " + std::to_string(resultsPerSecond(p));
    rep->notes.push_back("results/s per pass:" + rates);
    rep->notes.push_back("passes=" + std::to_string(passes.size()) +
                         " results/pass=" +
                         std::to_string(b.resultsPerPass()) +
                         " items/pass=" + std::to_string(b.items.size()) +
                         " latency samples=" +
                         std::to_string(latency.size()) + " (per result, "
                         "least over passes) tail=" +
                         percentileLabel(tail.percentile));
}

void
comparePrints(const Pass& shipped, const Pass& staged, RunReport* rep)
{
    for (const auto& [label, print] : shipped.prints) {
        auto it = staged.prints.find(label);
        if (it == staged.prints.end() || it->second != print)
            rep->harnessErrors.push_back(
                "staged calls differ from compileSource on " + label);
    }
    if (shipped.prints.size() != staged.prints.size())
        rep->harnessErrors.push_back(
            "staged and shipped passes cover different results");
}

void
reportLayers(const Batch& b, const std::vector<Pass>& passes,
             const SpanRecorder& spans, const SpanRecorder& golden,
             double windowSeconds, RunReport* rep)
{
    const double n = static_cast<double>(passes.size());
    std::map<std::string, SpanTotals> t = spans.totals();
    auto selfUs = [&](const char* name) {
        return t.count(name) ? t.at(name).selfNs / 1e3 / n : 0.0;
    };
    StatSet cs, ss;
    for (const Pass& p : passes) {
        addAll(cs, p.compileStats);
        addAll(ss, p.simStats);
    }
    auto perPass = [&](const StatSet& s, const std::string& key) {
        return s.get(key) / n;
    };

    rep->metric("frontend.parse_sema_us", selfUs("frontend.parse_sema"), "us");
    rep->metric("frontend.layout_us", selfUs("frontend.layout"), "us");
    rep->metric("cfg.lower_us", selfUs("cfg.lower"), "us");
    rep->metric("analysis.points_to_us", selfUs("analysis.points_to"), "us");
    rep->metric("analysis.modref_us", selfUs("analysis.modref"), "us");
    rep->metric("pegasus.build_us", selfUs("pegasus.build"), "us");
    rep->metric("pegasus.verify_us", selfUs("pegasus.verify"), "us");
    rep->metric("pegasus.nodes_built", perPass(cs, "ir.nodes.initial"),
                "count");

    double optimizeUs = selfUs("opt.optimize");
    double passesUs = 0;
    for (const auto& [key, value] : cs.all())
        if (key.rfind("opt.pass.", 0) == 0 &&
            key.size() > 8 &&
            key.compare(key.size() - 8, 8, ".time_us") == 0)
            passesUs += value / n;
    rep->metric("opt.optimize_us", optimizeUs, "us");
    rep->metric("opt.passes_us", passesUs, "us");
    rep->metric("opt.manager_us", optimizeUs - passesUs, "us");
    rep->metric("opt.manager_share",
                optimizeUs > 0 ? (optimizeUs - passesUs) / optimizeUs : 0,
                "ratio");
    rep->metric("opt.rounds", perPass(cs, "opt.rounds"), "count");
    rep->metric("opt.rollbacks", perPass(cs, "opt.rollbacks"), "count");
    rep->metric("opt.nodes_removed",
                perPass(cs, "ir.nodes.initial") -
                    perPass(cs, "ir.nodes.final"),
                "count");
    for (const std::string& pass : trackedPasses()) {
        rep->metric("opt.pass." + pass + "_us",
                    perPass(cs, "opt.pass." + pass + ".time_us"), "us");
        rep->metric("opt.pass." + pass + ".runs",
                    perPass(cs, "opt.pass." + pass + ".runs"), "count");
    }

    rep->metric("sim.index_us", selfUs("sim.index"), "us");
    rep->metric("sim.run_us", selfUs("sim.run"), "us");
    rep->metric("sim.eq_events", perPass(ss, "sim.events.equivalent"),
                "count");
    for (const char* key :
         {"sim.events", "sim.region.fired", "sim.region.ops_inlined",
          "sim.queue.heap_ops", "sim.mem.accesses", "sim.mem.dram.accesses",
          "sim.mem.tlb.misses"})
        rep->metric(key, perPass(ss, key), "count");

    std::map<std::string, SpanTotals> g = golden.totals();
    const SpanTotals interp = g.count("baseline.interp")
                                  ? g.at("baseline.interp")
                                  : SpanTotals{};
    rep->metric("baseline.interp_us",
                interp.count ? interp.totalNs / 1e3 / interp.count : 0.0,
                "us");
    rep->metric("baseline.unjudged", static_cast<double>(unjudgedPerPass(b)),
                "count");
    rep->metric("baseline.results", static_cast<double>(b.resultsPerPass()),
                "count");

    // Every span but the per-item root is a layer call or the
    // benchmark's own golden check.
    double coveredNs = 0;
    for (const auto& [name, tot] : t)
        if (name != "bench.item")
            coveredNs += tot.selfNs;
    double share = coveredNs / 1e9 / windowSeconds;
    rep->metric("trace.layer_share", share, "ratio");
    if (share < kMinSpanCoverage)
        rep->harnessErrors.push_back("spans cover only " +
                                     std::to_string(share * 100) +
                                     "% of the traced wall time");
    rep->notes.push_back("traced passes=" + std::to_string(passes.size()) +
                         " layer spans cover " +
                         std::to_string(share * 100) +
                         "% of the traced wall time");
}

RunReport
runBatch(Batch b, const RunOptions& opt)
{
    RunReport rep;
    SpanRecorder goldenSpans;
    computeGoldens(b, opt.trace ? goldenSpans.newTrack() : nullptr);
    rep.notes.push_back(
        "baseline.unjudged=" + std::to_string(unjudgedPerPass(b)) + " of " +
        std::to_string(b.resultsPerPass()) +
        " results per pass (interpreter trapped)");

    if (!opt.trace) {
        std::vector<Pass> passes =
            runWindow(b, opt.seconds, false, nullptr, &rep);
        reportEndToEnd(b, passes, &rep);
        return rep;
    }

    std::vector<Pass> shipped =
        runWindow(b, opt.seconds / 2, false, nullptr, &rep);
    SpanRecorder spans;
    SpanTrack* track = spans.newTrack();
    Clock::time_point t0 = Clock::now();
    std::vector<Pass> staged =
        runWindow(b, opt.seconds / 2, true, track, &rep);
    double windowSeconds = secondsSince(t0);

    comparePrints(shipped[0], staged[0], &rep);
    reportLayers(b, staged, spans, goldenSpans, windowSeconds, &rep);
    double overhead = 1 - medianOver(staged, resultsPerSecond) /
                              medianOver(shipped, resultsPerSecond);
    rep.metric("trace.overhead", overhead, "ratio");
    SpanRecorder::writeJsonLines(opt.outDir + "/spans-" + opt.workload +
                                     "-" + std::to_string(opt.seed) +
                                     ".jsonl",
                                 {&goldenSpans, &spans});
    return rep;
}

} // namespace

RunReport
runSuiteSweep(const RunOptions& opt)
{
    return runBatch(suiteSweepBatch(opt.seed), opt);
}

RunReport
runGenCalls(const RunOptions& opt)
{
    return runBatch(genCallsBatch(opt.seed), opt);
}

int
batchSetupProbe(const std::string& workload)
{
    // A fixed warm-up, whatever the run's seed: the first input at the
    // default level on the first memory system, unjudged.
    Batch b = workload == "suite-sweep" ? suiteSweepBatch(0)
                                        : genCallsBatch(0);
    const Input& in = b.inputs[0];
    CompileResult r = compileShipped(in.source, OptLevel::Full);
    SimRun s = simulate(r, b.mems[0].second, b.maxEvents, in.entry, in.args,
                        Golden{}, nullptr, 0);
    return s.out.ok() ? 0 : 1;
}

} // namespace perfbench
