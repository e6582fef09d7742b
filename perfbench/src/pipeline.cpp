#include "pipeline.h"

#include "analysis/modref.h"
#include "analysis/points_to.h"
#include "baseline/interpreter.h"
#include "cfg/lower.h"
#include "driver/driver_lib.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "pegasus/builder.h"
#include "pegasus/verifier.h"
#include "support/diagnostics.h"

namespace perfbench {

using namespace cash;

Golden
computeGolden(const std::string& source, const std::string& entry,
              const std::vector<uint32_t>& args, SpanTrack* track,
              uint64_t id)
{
    Golden g;
    Program prog = parseProgram(source);
    analyzeProgram(prog);
    MemoryLayout layout;
    layout.build(prog);
    Interpreter interp(prog, layout);
    try {
        Span s(track, "baseline.interp", id);
        g.returnValue = interp.call(entry, args).returnValue;
        g.judged = true;
    } catch (const FatalError& e) {
        // The interpreter is fatal on x/0 and x%0, which Pegasus
        // defines as 0: such a call cannot be judged here.
        g.trap = e.what();
        return g;
    }
    for (const MemObject& obj : layout.objects()) {
        if (!obj.isGlobal)
            continue;
        const uint8_t* base = interp.memory().data() + obj.address;
        g.globals.emplace_back(
            obj.address, std::vector<uint8_t>(base, base + obj.size));
    }
    return g;
}

std::string
judge(const Golden& golden, const SimResult& out, const MemoryImage& image)
{
    if (!golden.judged)
        return "";
    if (out.returnValue != golden.returnValue)
        return "returned " + std::to_string(out.returnValue) +
               ", interpreter " + std::to_string(golden.returnValue);
    const std::vector<uint8_t>& bytes = image.bytes();
    for (const auto& [addr, expect] : golden.globals)
        for (size_t i = 0; i < expect.size(); i++)
            if (addr + i >= bytes.size() || bytes[addr + i] != expect[i])
                return "global byte at " + std::to_string(addr + i) +
                       " differs from the interpreter";
    return "";
}

CompileResult
compileShipped(const std::string& source, OptLevel level)
{
    return compileSource(source, CompileOptions().opt(level).jobs(1));
}

CompileResult
compileStaged(const std::string& source, OptLevel level, SpanTrack* track,
              uint64_t id)
{
    CompileResult r;
    {
        Span s(track, "frontend.parse_sema", id);
        r.ast = std::make_shared<Program>(parseProgram(source));
        analyzeProgram(*r.ast);
    }
    {
        Span s(track, "frontend.layout", id);
        r.layout = std::make_shared<MemoryLayout>();
        r.layout->build(*r.ast);
    }
    {
        Span s(track, "cfg.lower", id);
        r.cfg = lowerProgram(*r.ast, *r.layout);
    }
    {
        Span s(track, "analysis.points_to", id);
        runPointsTo(*r.cfg, *r.ast, *r.layout);
    }
    // compileSource's defaults: ipo on, points-to in construction.
    const bool interproc = level == OptLevel::Full;
    {
        Span s(track, "analysis.modref", id);
        r.summaries = std::make_shared<ModRefSummaries>(
            computeModRef(*r.cfg, *r.layout, interproc));
    }
    BuildOptions bo;
    bo.usePointsTo = level != OptLevel::None;
    bo.interprocEffects = interproc;
    {
        Span s(track, "pegasus.build", id);
        r.graphs = buildPegasus(*r.cfg, *r.ast, *r.layout, bo);
    }

    const std::vector<std::string> names = standardPipelineNames(level);
    for (auto& gp : r.graphs) {
        Graph& g = *gp;
        StatSet stats;
        std::vector<std::string> problems;
        {
            Span s(track, "pegasus.verify", id);
            problems = verifyGraph(g);
        }
        if (!problems.empty()) {
            PassFailure fail;
            fail.function = g.name;
            fail.pass = "<construction>";
            fail.code = ErrorCode::VerifyError;
            fail.message = problems[0] + " (" +
                           std::to_string(problems.size()) + " problems)";
            r.diagnostics.push_back(std::move(fail));
            stats.add("opt.construction_verify_failures");
            stats.add("ir.nodes.initial", g.numLive());
            stats.add("ir.nodes.final", g.numLive());
            r.stats.merge(stats);
            continue;
        }
        stats.add("ir.nodes.initial", g.numLive());
        std::vector<std::unique_ptr<Pass>> pipeline;
        {
            Span s(track, "opt.pipeline", id);
            pipeline = PassRegistry::global().createPipeline(names);
        }
        OptContext ctx;
        ctx.oracle = &r.cfg->oracle;
        ctx.layout = r.layout.get();
        ctx.stats = &stats;
        ctx.verifyAfterEachPass = true;
        ctx.isolatePasses = true;
        ctx.failures = &r.diagnostics;
        int rounds = 0;
        {
            Span s(track, "opt.optimize", id);
            rounds = optimizeGraph(g, pipeline, ctx);
        }
        stats.add("opt.rounds", rounds);
        stats.add("ir.nodes.final", g.numLive());
        r.stats.merge(stats);
    }
    r.stats.set("ir.static.loads", r.staticLoads());
    r.stats.set("ir.static.stores", r.staticStores());
    return r;
}

SimRun
simulate(const CompileResult& r, const MemConfig& mem, uint64_t maxEvents,
         const std::string& entry, const std::vector<uint32_t>& args,
         const Golden& golden, SpanTrack* track, uint64_t id)
{
    SimRun run;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<DataflowSimulator> sim;
    {
        Span s(track, "sim.index", id);
        sim = std::make_unique<DataflowSimulator>(r.graphPtrs(), *r.layout,
                                                  mem);
    }
    Clock::time_point t1 = Clock::now();
    if (maxEvents)
        sim->setMaxEvents(maxEvents);
    {
        Span s(track, "sim.run", id);
        run.out = sim->run(entry, args);
    }
    Clock::time_point t2 = Clock::now();
    run.indexSeconds = secondsBetween(t0, t1);
    run.runSeconds = secondsBetween(t1, t2);
    {
        Span s(track, "bench.check", id);
        if (!run.out.ok())
            run.judgement = std::string("sim outcome ") +
                            simOutcomeName(run.out.outcome) + ": " +
                            run.out.error;
        else
            run.judgement = judge(golden, run.out, sim->memory());
    }
    return run;
}

std::string
fingerprint(const CompileResult& r)
{
    return stripWallClock(r.stats).str() +
           "nodes=" + std::to_string(r.totalNodes()) +
           " loads=" + std::to_string(r.staticLoads()) +
           " stores=" + std::to_string(r.staticStores()) +
           " diagnostics=" + std::to_string(r.diagnostics.size());
}

std::string
fingerprint(const SimResult& out)
{
    return stripWallClock(out.stats).str() +
           "outcome=" + simOutcomeName(out.outcome) +
           " return=" + std::to_string(out.returnValue) +
           " cycles=" + std::to_string(out.cycles);
}

} // namespace perfbench
