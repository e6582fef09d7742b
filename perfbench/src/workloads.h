/**
 * @file
 * The workloads (perfbench/README.md records why each was chosen,
 * which layer it loads, and why gen-calls is not in BENCHMARK.json).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "bench.h"

namespace perfbench {

/** Figure 19: every suite kernel x {none, medium, full} x 4 memories. */
RunReport runSuiteSweep(const RunOptions& opt);

/** Seeded multi-function `calls`-profile programs at the default target. */
RunReport runGenCalls(const RunOptions& opt);

/** cashd's server in process, driven by one closed-loop client. */
RunReport runSvcMix(const RunOptions& opt);

/**
 * Ready the program once, as a set-up probe process does (main.cpp):
 * a batch workload compiles and simulates its first item; svc-mix
 * starts the server and connects and pings every client.  Each
 * returns a process exit code.
 */
int batchSetupProbe(const std::string& workload);
int svcSetupProbe(const std::string& outDir);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
