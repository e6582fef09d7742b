#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail
tailOf(const std::vector<double>& samples)
{
    Tail t;
    for (double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
        double beyond =
            static_cast<double>(samples.size()) * (100.0 - p) / 100.0;
        if (beyond >= 10 || p == 50.0) {
            t.percentile = p;
            t.value = quantile(samples, p / 100.0);
            return t;
        }
    }
    return t;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    // Sorted, so the sum (and the last digit) does not depend on the
    // order the results came in.
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    double logSum = 0;
    for (double x : sorted)
        logSum += std::log(x > 0 ? x : 1.0);
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
percentileLabel(double p)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", p);
    return buf;
}

} // namespace perfbench
