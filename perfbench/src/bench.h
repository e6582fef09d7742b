/**
 * @file
 * Shared vocabulary of the perfbench binary: run options, the metric
 * list a run reports, the failure ledger, and order statistics.
 *
 * Every workload fills one RunReport.  main.cpp renders it as the
 * final JSON line; the per-metric meaning is documented in
 * perfbench/README.md.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/**
 * Least share of the traced wall time that the spans (layer calls and
 * the benchmark's own judging) must cover; below it the run fails.
 */
constexpr double kMinSpanCoverage = 0.95;

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Path of this executable (re-run for the set-up probes). */
    std::string self;
    /** Directory for sockets and span dumps (inside the checkout). */
    std::string outDir = ".";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run measured and judged. */
struct RunReport
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** One line per failed result, naming it (printed, capped). */
    std::vector<std::string> failures;
    /** Checks that are not per-result (staged-vs-shipped, coverage). */
    std::vector<std::string> harnessErrors;
    std::vector<Metric> metrics;
    /** Human-readable context lines, printed before the JSON line. */
    std::vector<std::string> notes;

    void
    fail(const std::string& what)
    {
        failed++;
        failures.push_back(what);
    }
    void
    metric(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty set. */
double quantile(std::vector<double> v, double q);

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The highest percentile of {99.9, 99, 90, 75, 50} with at least ten
 * samples beyond it — the tail a run of this size can resolve.
 */
struct Tail
{
    double percentile = 50;
    double value = 0;
};
Tail tailOf(const std::vector<double>& samples);

/** Geometric mean of positive values (values <= 0 count as 1). */
double geomean(const std::vector<double>& v);

/** Peak resident set of this process, MiB. */
double peakRssMiB();

/** Short "p99" / "p99.9" label. */
std::string percentileLabel(double p);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
