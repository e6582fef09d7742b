/**
 * @file
 * svc-mix: cashd's ServiceServer in process, driven in a closed loop
 * by kClients ServiceClient connections, one thread each.  Every
 * request is a `compile` op with a run spec at the default target.  The
 * seeded stream runs in passes that repeat the same work; every block
 * of 4 requests repeats 3 suite kernels (cache hits after each
 * kernel's first miss) and sends 1 `small`-profile program the cache
 * has not seen (always a miss).  Latencies and rates take each
 * request position's least round trip over the passes.
 *
 * One client, because the dispatcher runs one batch at a time: with
 * several clients a hit waits for whatever miss shares or precedes its
 * batch, and latency then measures the arrival phases of the clients
 * on a shared host more than the server's code.
 *
 * Checks, after the timed window: every response envelope is the one
 * svcResponse() renders for its id and cached flag; every distinct
 * body is compared byte for byte once with svcResultBody() of
 * runDriverRequest() on the same request (the cache contract), and
 * every other response of the same program must carry the same bytes
 * (checked by digest); the reply must be healthy and its return value
 * must match the reference interpreter.
 */
#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <sched.h>
#include <thread>
#include <unordered_map>
#include <unistd.h>

#include "benchsuite/kernels.h"
#include "driver/driver_lib.h"
#include "frontend/parser.h"
#include "fuzz/generator.h"
#include "pipeline.h"
#include "service/client.h"
#include "service/server.h"
#include "workloads.h"

namespace perfbench {

using namespace cash;

namespace {

constexpr int kClients = 1;
/** Threads computing the references after the timed window. */
constexpr int kReferenceThreads = 4;
/** Each block of this many requests holds exactly one fresh program. */
constexpr size_t kBlock = 4;
/** Fresh programs: generator seeds 0 .. kPool-1, one per block. */
constexpr uint64_t kPool = 25;
/** Requests per pass: the stream repeats with this period. */
constexpr size_t kPass = kPool * kBlock;
/**
 * peak_rss_mb is read when the first pass has been answered: the cache
 * grows with every miss, so a peak read at the end of the window would
 * grow with the speed of the run.
 */
constexpr size_t kRssAfter = kPass;
/** Stream length; a run must not exhaust it. */
constexpr size_t kStreamLength = 250 * kPass;

struct Program
{
    std::string label;
    std::string source;
    std::string entry;
    std::vector<uint32_t> args;
    int64_t functions = 0;
    Json request;
};

/**
 * cashd's default configuration, except for one pool worker per
 * client: with one closed-loop client every batch holds one request,
 * and a wider pool only adds idle workers that wake for each batch and
 * may steal its one request.
 */
ServiceConfig
serviceConfig(const std::string& socketPath)
{
    ServiceConfig cfg;
    cfg.socketPath = socketPath;
    cfg.jobs = kClients;
    return cfg;
}

/**
 * While alive, confines the calling thread, and every thread it starts,
 * to the CPU it runs on.  A hit's round trip is three thread hand-offs
 * (client, connection reader, dispatcher).  Left to the scheduler, the
 * hit latency of a run fell into one of two clusters (p50 0.11-0.13 ms
 * or 0.15-0.17 ms) with the placement of those threads; on one CPU the
 * hand-offs are plain context switches and it follows host speed only.
 */
class PinToOneCpu
{
  public:
    PinToOneCpu()
    {
        const int cpu = sched_getcpu();
        saved_ = cpu >= 0 && sched_getaffinity(0, sizeof mask_, &mask_) == 0;
        if (saved_) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof one, &one);
        }
    }
    ~PinToOneCpu()
    {
        if (saved_)
            sched_setaffinity(0, sizeof mask_, &mask_);
    }
    PinToOneCpu(const PinToOneCpu&) = delete;
    PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  private:
    cpu_set_t mask_;
    bool saved_ = false;
};

Json
compileRequest(const std::string& source, const std::string& run)
{
    Json options = Json::object();
    options.set("run", Json::string(run));
    return makeCompileRequest("compile", source, std::move(options));
}

Program
kernelProgram(const Kernel& k)
{
    std::string run = k.entry + "(";
    for (size_t i = 0; i < k.args.size(); i++)
        run += (i ? "," : "") + std::to_string(k.args[i]);
    run += ")";
    Program p;
    p.label = k.name;
    p.source = k.source;
    p.entry = k.entry;
    p.args = k.args;
    p.functions =
        static_cast<int64_t>(parseProgram(k.source).functions.size());
    p.request = compileRequest(k.source, run);
    return p;
}

/**
 * The seeded request stream, in passes of kPass requests that repeat
 * the same work.  Request i names a program by key: a suite kernel
 * (key < kernels()) or the fresh request of block j = i / kBlock (key =
 * kernels() + j), rendered only when sent.  A pass repeats every
 * kernel equally often, to within one; the seed draws, once for every
 * pass, their order and where in each block its fresh request goes.
 * The fresh request of block j compiles pool program j % kPool
 * (generator seed j % kPool, the same for every stream) with the pass
 * number appended as a comment, so it misses the cache in every pass
 * while its work stays that of the pool program (see README.md).
 */
class Stream
{
  public:
    explicit Stream(uint64_t seed)
    {
        for (const Kernel& k : kernelSuite())
            kernels_.push_back(kernelProgram(k));
        fuzz::Rng rng(seed ^ 0x5e7c0deull);
        std::vector<int64_t> repeats(kPool * (kBlock - 1));
        for (size_t i = 0; i < repeats.size(); i++)
            repeats[i] = static_cast<int64_t>(i) % kernels();
        for (size_t i = repeats.size(); i > 1; i--)
            std::swap(repeats[i - 1],
                      repeats[static_cast<size_t>(
                          rng.below(static_cast<int64_t>(i)))]);
        // One pass: a kernel index, or -1 for the block's fresh request.
        std::vector<int64_t> pass;
        size_t next = 0;
        for (uint64_t j = 0; j < kPool; j++) {
            const int64_t at = rng.below(static_cast<int64_t>(kBlock));
            for (int64_t k = 0; k < static_cast<int64_t>(kBlock); k++)
                pass.push_back(k == at ? -1 : repeats[next++]);
        }
        keys_.reserve(kStreamLength);
        for (size_t i = 0; i < kStreamLength; i++) {
            const int64_t k = pass[i % kPass];
            keys_.push_back(k >= 0 ? static_cast<uint64_t>(k)
                                   : kernels() + i / kBlock);
        }
    }

    int64_t kernels() const
    {
        return static_cast<int64_t>(kernels_.size());
    }
    size_t size() const { return keys_.size(); }
    uint64_t key(size_t i) const { return keys_[i]; }

    /** The program of @p key (generated for fresh keys). */
    Program
    program(uint64_t key) const
    {
        if (key < kernels_.size())
            return kernels_[key];
        const uint64_t block = key - kernels_.size();
        const uint64_t genSeed = block % kPool;
        const std::string passNo = std::to_string(block / kPool);
        fuzz::GenProgram gp = fuzz::generateProgram(
            genSeed, fuzz::GenProfile::byName("small"));
        Program p;
        p.label = "small#" + std::to_string(genSeed) + "/pass" + passNo;
        p.source = gp.render() + "\n// pass " + passNo + "\n";
        p.entry = fuzz::GenProgram::entryName();
        p.args = {static_cast<uint32_t>(genSeed % 17)};
        p.functions = gp.functionCount();
        p.request = compileRequest(
            p.source, "run(" + std::to_string(genSeed % 17) + ")");
        return p;
    }

  private:
    std::vector<Program> kernels_;
    std::vector<uint64_t> keys_;
};

/** One response as the client saw it. */
struct Response
{
    uint32_t index = 0;
    bool ok = false;
    bool cached = false;
    double latencyUs = 0;
    /** Seconds from the window start to the reply. */
    double doneAt = 0;
    /** FNV-1a 64 of the body (the cache's own content digest). */
    std::string bodyDigest;
    std::string error;
};

/** The first reply received for a program: its request and body. */
struct FirstReply
{
    size_t index = 0;
    std::string body;
};

/** Shared state of the closed loop. */
struct Loop
{
    const Stream* stream = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<bool> exhausted{false};
    /** peakRssMiB() when request kRssAfter was answered; 0 before. */
    std::atomic<double> rssMiB{0};
    /** Program key -> the first reply received for it. */
    std::mutex firstMu;
    std::unordered_map<uint64_t, FirstReply> first;
};

void
clientLoop(const std::string& socketPath, Loop* loop,
           Clock::time_point start, Clock::time_point deadline,
           SpanTrack* track, std::vector<Response>* out,
           std::string* error)
{
    ServiceClient client;
    Status st = client.connect(socketPath);
    if (!st) {
        *error = "connect: " + st.message();
        return;
    }
    const Stream& s = *loop->stream;
    while (Clock::now() < deadline) {
        size_t i = loop->next.fetch_add(1);
        if (i >= s.size()) {
            loop->exhausted = true;
            break;
        }
        const uint64_t key = s.key(i);
        Json req = std::move(s.program(key).request);
        req.set("id", Json::number(static_cast<int64_t>(i + 1)));
        Json resp;
        std::string raw;
        Response r;
        r.index = static_cast<uint32_t>(i);
        Clock::time_point t0 = Clock::now();
        {
            Span span(track, "service.request", i + 1);
            st = client.call(std::move(req), &resp, &raw);
        }
        Clock::time_point t1 = Clock::now();
        r.latencyUs = secondsBetween(t0, t1) * 1e6;
        r.doneAt = secondsBetween(start, t1);
        if (!st) {
            *error = "transport: " + st.message();
            r.error = *error;
            out->push_back(std::move(r));
            return;
        }
        if (!resp.getBool("ok")) {
            const Json* e = resp.get("error");
            r.error = "error response: " +
                      (e ? e->getString("code") : std::string("?"));
            out->push_back(std::move(r));
            continue;
        }
        r.cached = resp.getBool("cached");
        // The envelope must be exactly svcResponse()'s for this id.
        SvcRequest envelope;
        envelope.op = SvcOp::Compile;
        envelope.id = static_cast<int64_t>(i + 1);
        std::string prefix = svcResponse(envelope, r.cached, "");
        prefix.pop_back();
        if (raw.size() <= prefix.size() ||
            raw.compare(0, prefix.size(), prefix) != 0 ||
            raw.back() != '}') {
            r.error = "response envelope differs from svcResponse()";
            out->push_back(std::move(r));
            continue;
        }
        std::string body =
            raw.substr(prefix.size(), raw.size() - prefix.size() - 1);
        r.bodyDigest = fnv1a64Hex(body);
        r.ok = true;
        {
            std::lock_guard<std::mutex> lock(loop->firstMu);
            loop->first.try_emplace(key, FirstReply{i, std::move(body)});
        }
        out->push_back(std::move(r));
        if (i + 1 == kRssAfter)
            loop->rssMiB = peakRssMiB();
    }
}

/** The driver-side reference for one distinct program. */
struct Reference
{
    int64_t functions = 0;
    std::string bodyDigest;
    std::string problem;
    double driverUs = 0;
    uint64_t cycles = 0;
    int64_t nodes = 0;
    int64_t eqEvents = 0;
    bool judged = false;
};

Reference
referenceFor(const Program& p, const std::string& firstBody,
             uint64_t maxEventsCap, SpanTrack* track, uint64_t id)
{
    Reference ref;
    ref.functions = p.functions;
    SvcRequest req;
    Status st = parseSvcRequest(p.request, &req);
    if (!st) {
        ref.problem = "request rejected: " + st.message();
        return ref;
    }
    // The server's own adjustments (ServiceServer::handleOne).
    DriverRequest d = req.driver;
    d.jobs = 1;
    if (maxEventsCap && (d.maxEvents == 0 || d.maxEvents > maxEventsCap))
        d.maxEvents = maxEventsCap;
    Clock::time_point t0 = Clock::now();
    DriverReply rep;
    {
        Span span(track, "driver.request", id);
        rep = runDriverRequest(d);
    }
    ref.driverUs = secondsSince(t0) * 1e6;
    std::string body = svcResultBody(req, rep);
    ref.bodyDigest = fnv1a64Hex(body);
    ref.cycles = rep.cycles;
    ref.nodes = rep.compileStats.get("ir.nodes.final");
    ref.eqEvents = rep.simStats.get("sim.events.equivalent");

    const Golden g = computeGolden(p.source, p.entry, p.args, track, id);
    ref.judged = g.judged;
    if (body != firstBody)
        ref.problem = "response body differs from runDriverRequest()";
    else if (!rep.fatal.empty())
        ref.problem = "fatal: " + rep.fatal;
    else if (!rep.diagnostics.empty())
        ref.problem = "pass rollback: " + rep.diagnostics[0].str();
    else if (!rep.ranSim || rep.simOutcome != SimOutcome::Ok)
        ref.problem = std::string("sim outcome ") +
                      simOutcomeName(rep.simOutcome);
    else if (g.judged && rep.returnValue != g.returnValue)
        ref.problem = "returned " + std::to_string(rep.returnValue) +
                      ", interpreter " + std::to_string(g.returnValue);
    return ref;
}

/**
 * Per position of a pass, its least round trip (µs) over the complete
 * passes of @p rs, a window that starts at request 0; @p passes gets
 * their number.  On a shared host other tenants slow some passes; the
 * least of several repeats of the same request is the one they
 * disturbed least.
 */
std::vector<double>
leastPerPosition(const std::vector<Response>& rs, size_t* passes)
{
    *passes = rs.size() / kPass;
    std::vector<double> least(kPass,
                              std::numeric_limits<double>::infinity());
    for (const Response& r : rs)
        if (r.index < *passes * kPass)
            least[r.index % kPass] =
                std::min(least[r.index % kPass], r.latencyUs);
    return least;
}

/** Run one closed-loop window; responses in completion-time order. */
std::vector<Response>
runWindow(const std::string& socketPath, Loop* loop, double seconds,
          SpanRecorder* spans, RunReport* rep)
{
    std::vector<std::vector<Response>> perClient(kClients);
    std::vector<std::string> errors(kClients);
    std::vector<SpanTrack*> tracks(kClients, nullptr);
    if (spans)
        for (auto& t : tracks)
            t = spans->newTrack();
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; c++)
            threads.emplace_back([&, c] {
                try {
                    clientLoop(socketPath, loop, start, deadline, tracks[c],
                               &perClient[c], &errors[c]);
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        for (auto& t : threads)
            t.join();
    }
    for (const std::string& e : errors)
        if (!e.empty())
            rep->harnessErrors.push_back("client: " + e);
    if (loop->exhausted)
        rep->harnessErrors.push_back("request stream exhausted");
    std::vector<Response> all;
    for (auto& v : perClient)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end(),
              [](const Response& a, const Response& b) {
                  return a.doneAt < b.doneAt;
              });
    return all;
}

/** References for every program sent, on kReferenceThreads threads. */
std::unordered_map<uint64_t, Reference>
computeReferences(const Stream& stream, const Loop& loop,
                  uint64_t maxEventsCap, SpanRecorder* spans)
{
    std::unordered_map<uint64_t, Reference> refs;
    std::vector<uint64_t> keys;
    for (const auto& [key, reply] : loop.first) {
        refs[key];
        keys.push_back(key);
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kReferenceThreads; c++)
        threads.emplace_back([&] {
            SpanTrack* track = spans ? spans->newTrack() : nullptr;
            for (size_t j; (j = next.fetch_add(1)) < keys.size();) {
                const uint64_t key = keys[j];
                Reference& ref = refs.at(key);
                const FirstReply& reply = loop.first.at(key);
                try {
                    // Spans carry the number of the request replied to.
                    ref = referenceFor(stream.program(key), reply.body,
                                       maxEventsCap, track, reply.index + 1);
                } catch (const std::exception& e) {
                    ref.problem = std::string("reference failed: ") +
                                  e.what();
                }
            }
        });
    for (auto& t : threads)
        t.join();
    return refs;
}

} // namespace

RunReport
runSvcMix(const RunOptions& opt)
{
    RunReport rep;
    Stream stream(opt.seed);

    ServiceConfig cfg = serviceConfig(
        opt.outDir + "/svc-" + std::to_string(::getpid()) + ".sock");
    const uint64_t maxEventsCap = cfg.maxEventsCap;
    // The server's threads and the client share one CPU until the
    // server stops; the references after it use every CPU.
    std::optional<PinToOneCpu> pin(std::in_place);
    ServiceServer server(cfg);
    Status st = server.start();
    if (!st) {
        rep.harnessErrors.push_back("server start: " + st.message());
        return rep;
    }

    // Untraced run: one window.  Traced run: an untraced half, then a
    // traced half on the same (warm) server.
    Loop loop;
    loop.stream = &stream;
    Clock::time_point ta = Clock::now();
    std::vector<Response> a = runWindow(
        cfg.socketPath, &loop, opt.trace ? opt.seconds / 2 : opt.seconds,
        nullptr, &rep);
    const double windowA = secondsSince(ta);
    SpanRecorder spans;
    std::vector<Response> b;
    Clock::time_point tb = Clock::now();
    if (opt.trace)
        b = runWindow(cfg.socketPath, &loop, opt.seconds / 2, &spans, &rep);
    const double windowB = secondsSince(tb);
    StatSet serverMetrics = server.metrics();
    server.stop();
    pin.reset();
    if (loop.rssMiB == 0)
        rep.harnessErrors.push_back("window ended before request " +
                                    std::to_string(kRssAfter));

    SpanRecorder refSpans;
    std::unordered_map<uint64_t, Reference> refs = computeReferences(
        stream, loop, maxEventsCap, opt.trace ? &refSpans : nullptr);
    // A program whose every reply was an error has no reference.
    const Reference none;
    auto refAt = [&](size_t index) -> const Reference& {
        auto it = refs.find(stream.key(index));
        return it == refs.end() ? none : it->second;
    };
    auto refOf = [&](const Response& r) -> const Reference& {
        return refAt(r.index);
    };

    // Judge every response.
    for (const auto* rs : {&a, &b}) {
        for (const Response& r : *rs) {
            rep.attempted++;
            std::string why = r.error;
            if (why.empty() && r.bodyDigest != refOf(r).bodyDigest)
                why = "response body differs from runDriverRequest()";
            if (why.empty())
                why = refOf(r).problem;
            if (!why.empty())
                rep.fail("request " + std::to_string(r.index + 1) + " (" +
                         stream.program(stream.key(r.index)).label +
                         "): " + why);
        }
    }
    if (serverMetrics.get("svc.requests.rejected") > 0)
        rep.harnessErrors.push_back(
            "server rejected " +
            std::to_string(serverMetrics.get("svc.requests.rejected")) +
            " requests (overloaded)");

    // Exact metrics over every kernel and the first pass's fresh
    // requests (the pool): the same programs for every seed.
    std::vector<double> countedCycles;
    int64_t countedNodes = 0;
    for (uint64_t key = 0;
         key < static_cast<uint64_t>(stream.kernels()) + kPool; key++) {
        auto it = refs.find(key);
        if (it == refs.end()) {
            rep.harnessErrors.push_back(
                "program " + std::to_string(key) + " never sent");
            break;
        }
        countedCycles.push_back(static_cast<double>(it->second.cycles));
        countedNodes += it->second.nodes;
    }

    auto latencies = [](const std::vector<Response>& rs, int cached) {
        std::vector<double> v;
        for (const Response& r : rs)
            if (cached < 0 || (r.ok && r.cached == (cached == 1)))
                v.push_back(r.latencyUs);
        return v;
    };
    if (!opt.trace) {
        size_t passes = 0;
        std::vector<double> least = leastPerPosition(a, &passes);
        if (passes == 0)
            rep.harnessErrors.push_back("no complete pass of " +
                                        std::to_string(kPass) +
                                        " requests");
        const double passSeconds =
            std::accumulate(least.begin(), least.end(), 0.0) / 1e6;
        // Only the fresh requests compile and simulate once every
        // kernel is cached.
        double functions = 0, eqEvents = 0;
        for (size_t i = 0; i < kPass; i++)
            if (stream.key(i) >= static_cast<uint64_t>(stream.kernels())) {
                functions += static_cast<double>(refAt(i).functions);
                eqEvents += static_cast<double>(refAt(i).eqEvents);
            }
        rep.metric("results_per_s", kPass / passSeconds, "1/s");
        rep.metric("compile_funcs_per_s", functions / passSeconds, "1/s");
        rep.metric("sim_meps", eqEvents / passSeconds / 1e6, "Meq-ev/s");
        for (double& v : least)
            v /= 1e3;
        Tail tail = tailOf(least);
        rep.metric("latency_p50_ms", median(least), "ms");
        rep.metric("latency_tail_ms", tail.value, "ms");
        rep.metric("sim_cycles_geomean", geomean(countedCycles), "cycles");
        rep.metric("hw_ops", static_cast<double>(countedNodes), "nodes");
        rep.metric("peak_rss_mb", loop.rssMiB, "MiB");
        rep.notes.push_back(
            "requests=" + std::to_string(a.size()) + " hits=" +
            std::to_string(latencies(a, 1).size()) + " misses=" +
            std::to_string(latencies(a, 0).size()) + " clients=" +
            std::to_string(kClients) + " complete passes=" +
            std::to_string(passes) + " latency samples=" +
            std::to_string(kPass) + " (per position of a pass, least "
            "over passes) tail=" + percentileLabel(tail.percentile));
        return rep;
    }

    // Traced run: per-layer metrics from the traced half.
    std::vector<double> hits = latencies(b, 1), misses = latencies(b, 0);
    std::vector<double> driverUs;
    int64_t unjudged = 0;
    std::unordered_map<uint64_t, bool> seenMiss;
    for (const Response& r : b) {
        if (!refOf(r).judged)
            unjudged++;
        if (r.ok && !r.cached && !seenMiss[stream.key(r.index)]) {
            seenMiss[stream.key(r.index)] = true;
            driverUs.push_back(refOf(r).driverUs);
        }
    }
    const double missP50 = median(misses), driverP50 = median(driverUs);
    rep.metric("service.hit_us", median(hits), "us");
    rep.metric("service.miss_us", missP50, "us");
    rep.metric("service.server_p50_us",
               static_cast<double>(serverMetrics.get("svc.latency.p50_us")),
               "us");
    rep.metric("service.hit_ratio",
               b.empty() ? 0 : static_cast<double>(hits.size()) / b.size(),
               "ratio");
    rep.metric("service.requests", static_cast<double>(b.size()), "count");
    rep.metric("service.queue.peak",
               static_cast<double>(serverMetrics.get("svc.queue.peak")),
               "count");
    rep.metric("service.batches",
               static_cast<double>(serverMetrics.get("svc.batches")),
               "count");
    rep.metric("service.overhead_us", missP50 - driverP50, "us");
    rep.metric("driver.request_us", driverP50, "us");

    std::map<std::string, SpanTotals> g = refSpans.totals();
    const SpanTotals interp = g.count("baseline.interp")
                                  ? g.at("baseline.interp")
                                  : SpanTotals{};
    rep.metric("baseline.interp_us",
               interp.count ? interp.totalNs / 1e3 / interp.count : 0.0,
               "us");
    rep.metric("baseline.unjudged", static_cast<double>(unjudged), "count");
    rep.metric("baseline.results", static_cast<double>(b.size()), "count");

    std::map<std::string, SpanTotals> t = spans.totals();
    double covered = t.count("service.request")
                         ? t.at("service.request").selfNs / 1e9
                         : 0.0;
    double share = covered / (kClients * windowB);
    rep.metric("trace.layer_share", share, "ratio");
    if (share < kMinSpanCoverage)
        rep.harnessErrors.push_back("request spans cover only " +
                                    std::to_string(share * 100) +
                                    "% of the clients' traced wall time");
    // Window A's first pass pays the kernels' first misses; leave it
    // out of the untraced rate when a later pass follows.
    double rateA = static_cast<double>(a.size()) / windowA;
    if (a.size() > kPass)
        rateA = static_cast<double>(a.size() - kPass) /
                (windowA - a[kPass - 1].doneAt);
    rep.metric("trace.overhead",
               1 - (static_cast<double>(b.size()) / windowB) / rateA,
               "ratio");
    rep.notes.push_back("traced requests=" + std::to_string(b.size()) +
                        " hits=" + std::to_string(hits.size()) +
                        " misses=" + std::to_string(misses.size()) +
                        "; request spans cover " +
                        std::to_string(share * 100) +
                        "% of the clients' traced wall time");
    SpanRecorder::writeJsonLines(opt.outDir + "/spans-" + opt.workload +
                                     "-" + std::to_string(opt.seed) +
                                     ".jsonl",
                                 {&spans, &refSpans});
    return rep;
}

int
svcSetupProbe(const std::string& outDir)
{
    ServiceConfig cfg = serviceConfig(
        outDir + "/probe-" + std::to_string(::getpid()) + ".sock");
    ServiceServer server(cfg);
    if (!server.start())
        return 1;
    int rc = 0;
    {
        std::vector<std::unique_ptr<ServiceClient>> clients;
        for (int c = 0; c < kClients; c++) {
            clients.push_back(std::make_unique<ServiceClient>());
            if (!clients.back()->connect(cfg.socketPath) ||
                !clients.back()->ping())
                rc = 1;
        }
        // Warm-up: one compile request of the stream's first kernel.
        Json resp;
        if (rc == 0 &&
            (!clients[0]->call(kernelProgram(kernelSuite()[0]).request,
                               &resp) ||
             !resp.getBool("ok")))
            rc = 1;
    }
    server.stop();
    return rc;
}

} // namespace perfbench
