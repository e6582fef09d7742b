/**
 * @file
 * perfbench: run one workload by name with a seed, check its outputs
 * and print its metrics.
 *
 *   perfbench --workload suite-sweep|gen-calls|svc-mix --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR]
 *
 * The last line of standard output is one JSON object:
 *   {"correct": bool, "attempted": N, "failed": N,
 *    "metrics": {"<name>": {"value": x, "unit": "u"}, ...}}
 * With --trace 0 the metrics are the end-to-end ones, with --trace 1
 * the per-layer ones (metrics.h).  Earlier lines give context: sample
 * counts, the tail percentile used, fail_ratio with its base and each
 * failed result by name.
 *
 * setup_s is the median wall time of kSetupProbes child processes
 * (`perfbench --probe WORKLOAD`), each of which starts, readies the
 * program once (static init, pass registry, warm-up; for svc-mix the
 * server start and client connects) and exits.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <set>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "bench.h"
#include "metrics.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupProbes = 25;
constexpr size_t kFailuresShown = 20;

const std::set<std::string>&
workloadNames()
{
    static const std::set<std::string> names = {"suite-sweep", "gen-calls",
                                                "svc-mix"};
    return names;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload suite-sweep|gen-calls|svc-mix "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 msg);
    return 2;
}

/** Wall seconds of one probe child; negative when it failed. */
double
runProbe(const RunOptions& opt)
{
    std::vector<std::string> args = {opt.self, "--probe", opt.workload,
                                     "--out-dir", opt.outDir};
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    Clock::time_point t0 = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, opt.self.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0)
        return -1;
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -1;
    double s = secondsSince(t0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? s : -1;
}

void
printResult(const RunReport& rep, const std::vector<MetricDef>& defs)
{
    std::map<std::string, const Metric*> byName;
    for (const Metric& m : rep.metrics)
        byName[m.name] = &m;
    std::vector<std::string> errors = rep.harnessErrors;
    std::string metrics;
    for (const MetricDef& d : defs) {
        double v = 0;
        auto it = byName.find(d.name);
        if (it != byName.end())
            v = it->second->value;
        if (!std::isfinite(v)) {
            errors.push_back("metric " + d.name + " is not finite");
            v = 0;
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + d.name + "\": {\"value\": " + buf +
                   ", \"unit\": \"" + d.unit + "\"}";
    }

    for (const std::string& n : rep.notes)
        std::printf("%s\n", n.c_str());
    std::printf("fail_ratio=%.6f (%lld failed of %lld attempted)\n",
                rep.attempted ? static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                              : 0.0,
                static_cast<long long>(rep.failed),
                static_cast<long long>(rep.attempted));
    for (size_t i = 0; i < rep.failures.size() && i < kFailuresShown; i++)
        std::printf("FAILED %s\n", rep.failures[i].c_str());
    if (rep.failures.size() > kFailuresShown)
        std::printf("FAILED ... %zu more\n",
                    rep.failures.size() - kFailuresShown);
    for (const std::string& e : errors)
        std::printf("CHECK FAILED %s\n", e.c_str());

    bool correct = rep.failed == 0 && errors.empty() && rep.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(rep.attempted),
                static_cast<long long>(rep.failed), metrics.c_str());
    std::fflush(stdout);
}

int
run(int argc, char** argv)
{
    RunOptions opt;
    opt.self = argv[0];
    std::string probe;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--probe") {
            probe = v;
        } else if (a == "--out-dir") {
            opt.outDir = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            haveSeed = end != v && *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            haveSeconds = end != v && *end == '\0' && opt.seconds > 0;
        } else if (a == "--trace") {
            haveTrace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
            opt.trace = std::strcmp(v, "1") == 0;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!probe.empty()) {
        if (!workloadNames().count(probe))
            return usage("unknown workload");
        return probe == "svc-mix" ? svcSetupProbe(opt.outDir)
                                  : batchSetupProbe(probe);
    }
    if (!workloadNames().count(opt.workload))
        return usage("unknown or missing --workload");
    if (!haveSeed || !haveSeconds || !haveTrace)
        return usage("--seed, --seconds and --trace are required");

    std::vector<double> setup;
    if (!opt.trace) {
        for (int i = 0; i < kSetupProbes; i++) {
            double s = runProbe(opt);
            if (s < 0) {
                std::fprintf(stderr, "perfbench: set-up probe failed\n");
                return 1;
            }
            setup.push_back(s);
        }
    }

    RunReport rep = opt.workload == "suite-sweep" ? runSuiteSweep(opt)
                    : opt.workload == "gen-calls" ? runGenCalls(opt)
                                                  : runSvcMix(opt);
    if (!opt.trace) {
        rep.metric("setup_s", median(setup), "s");
        printResult(rep, endToEndMetrics());
    } else {
        printResult(rep, perLayerMetrics());
    }
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
