/**
 * @file
 * The fixed metric names every run reports (BENCHMARK.json lists the
 * same names).  An untraced run prints every end-to-end metric, a
 * traced run every per-layer metric; a per-layer metric of a layer
 * the workload never calls reads 0.
 */
#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <string>
#include <vector>

namespace perfbench {

struct MetricDef
{
    std::string name;
    std::string unit;
};

inline const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"results_per_s", "1/s"},
        {"compile_funcs_per_s", "1/s"},
        {"sim_meps", "Meq-ev/s"},
        {"latency_p50_ms", "ms"},
        {"latency_tail_ms", "ms"},
        {"sim_cycles_geomean", "cycles"},
        {"hw_ops", "nodes"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

/** Standard-pipeline passes with their own per-layer metrics. */
inline const std::vector<std::string>&
trackedPasses()
{
    static const std::vector<std::string> names = {
        "scalar_opts",          "dead_code",
        "immutable_loads",      "token_removal",
        "transitive_reduction", "monotone_pipelining",
        "interproc_token_pruning", "memory_merge",
        "store_forwarding",     "dead_store",
        "loop_invariant",       "readonly_split",
        "loop_decoupling",
    };
    return names;
}

inline const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"frontend.parse_sema_us", "us"},
            {"frontend.layout_us", "us"},
            {"cfg.lower_us", "us"},
            {"analysis.points_to_us", "us"},
            {"analysis.modref_us", "us"},
            {"pegasus.build_us", "us"},
            {"pegasus.verify_us", "us"},
            {"pegasus.nodes_built", "count"},
            {"opt.optimize_us", "us"},
            {"opt.passes_us", "us"},
            {"opt.manager_us", "us"},
            {"opt.manager_share", "ratio"},
            {"opt.rounds", "count"},
            {"opt.rollbacks", "count"},
            {"opt.nodes_removed", "count"},
        };
        for (const std::string& p : trackedPasses()) {
            d.push_back({"opt.pass." + p + "_us", "us"});
            d.push_back({"opt.pass." + p + ".runs", "count"});
        }
        const std::vector<MetricDef> rest = {
            {"sim.index_us", "us"},
            {"sim.run_us", "us"},
            {"sim.eq_events", "count"},
            {"sim.events", "count"},
            {"sim.region.fired", "count"},
            {"sim.region.ops_inlined", "count"},
            {"sim.queue.heap_ops", "count"},
            {"sim.mem.accesses", "count"},
            {"sim.mem.dram.accesses", "count"},
            {"sim.mem.tlb.misses", "count"},
            {"service.hit_us", "us"},
            {"service.miss_us", "us"},
            {"service.server_p50_us", "us"},
            {"service.hit_ratio", "ratio"},
            {"service.requests", "count"},
            {"service.queue.peak", "count"},
            {"service.batches", "count"},
            {"service.overhead_us", "us"},
            {"driver.request_us", "us"},
            {"baseline.interp_us", "us"},
            {"baseline.unjudged", "count"},
            {"baseline.results", "count"},
            {"trace.layer_share", "ratio"},
            {"trace.overhead", "ratio"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
