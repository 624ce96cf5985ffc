/**
 * @file
 * vision_stream and sequence_stream: one closed-loop caller issuing
 * Sod2Engine::run(ctx, ...) round-robin over the workload's models, one
 * RunContext per engine, fresh seeded inputs on every request.
 */

#include <cstdio>
#include <memory>

#include "ledger.h"
#include "runtime/interpreter.h"

namespace ledger {

using sod2::ModelSpec;
using sod2::RunContext;
using sod2::RunStats;
using sod2::Sod2Engine;
using sod2::Tensor;

namespace {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 5;
/** The first this-many rounds of the timed stream are checked against
 *  the reference interpreter after timing ends. */
constexpr uint64_t kCheckRounds = 2;

struct EngineSet
{
    std::vector<ModelSpec> models;
    std::vector<std::unique_ptr<Sod2Engine>> engines;
    std::vector<std::unique_ptr<RunContext>> contexts;
};

}  // namespace

Outcome
runEngineWorkload(const RunConfig& cfg, SpanLog& spans)
{
    const WorkloadDef& wl = *cfg.workload;
    const size_t num_models = wl.models.size();
    // Input generation only: sample() does not depend on the weights.
    const std::vector<ModelSpec> gen = buildModels(wl);
    const std::vector<RequestSpec> prefix = warmupPrefix(gen);
    std::vector<std::vector<Tensor>> prefix_inputs;
    for (const RequestSpec& q : prefix)
        prefix_inputs.push_back(inputsFor(gen[q.model], q));

    Outcome out;
    EngineLayerTally tally;
    std::vector<size_t> peak_bytes(num_models, 0);
    SpanLog off(false);

    // Set-up: model build, engine compile, warm-up prefix. Repeated; the
    // last set is the one measured.
    std::unique_ptr<EngineSet> set;
    std::vector<double> setup_s, warmup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        set.reset();
        const bool last = rep + 1 == kSetupReps;
        ScopedSpan setup(spans, "setup", 0);
        const auto t0 = Clock::now();
        set = std::make_unique<EngineSet>();
        {
            ScopedSpan s(spans, "model.build", 0, setup.id());
            set->models = buildModels(wl);
        }
        for (const ModelSpec& spec : set->models) {
            ScopedSpan s(spans, "core.compile", 0, setup.id());
            set->engines.push_back(std::make_unique<Sod2Engine>(
                spec.graph.get(), engineOptions(spec)));
            set->contexts.push_back(std::make_unique<RunContext>());
        }
        const auto tw = Clock::now();
        {
            ScopedSpan s(spans, "core.warmup", 0, setup.id());
            for (size_t i = 0; i < prefix.size(); ++i) {
                const int mi = prefix[i].model;
                RunStats st;
                const auto r0 = Clock::now();
                set->engines[mi]->run(*set->contexts[mi], prefix_inputs[i],
                                      &st);
                if (last) {
                    tally.add(*set->engines[mi], st,
                              secondsBetween(r0, Clock::now()));
                    peak_bytes[mi] =
                        std::max(peak_bytes[mi], st.peakMemoryBytes);
                }
            }
        }
        const auto t1 = Clock::now();
        setup_s.push_back(secondsBetween(t0, t1));
        warmup_s.push_back(secondsBetween(tw, t1));
    }

    // Timed closed loop. A traced run alternates untraced and traced
    // blocks of two rounds, so trace.overhead_pct compares like with
    // like; only run() is inside the latency timer.
    std::vector<double> latency, request_plain, request_traced;
    std::vector<std::vector<double>> per_model(num_models);
    std::vector<std::pair<uint64_t, std::vector<Tensor>>> checked;
    const uint64_t block = 2 * num_models;
    const auto t_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg.seconds));
    for (uint64_t i = 0; Clock::now() < t_end; ++i) {
        const RequestSpec q = requestAt(wl, gen, cfg.seed, i);
        const std::vector<Tensor> in = inputsFor(gen[q.model], q);
        Sod2Engine& engine = *set->engines[q.model];
        RunContext& ctx = *set->contexts[q.model];
        const bool traced = cfg.trace && (i / block) % 2 == 1;
        SpanLog& log = traced ? spans : off;
        ++out.attempted;

        const auto req0 = Clock::now();
        ScopedSpan request(log, "request", i + 1);
        if (traced) {
            ScopedSpan bind(log, "core.bind", i + 1, request.id());
            const auto b0 = Clock::now();
            engine.signatureFor(in);
            tally.addBind(secondsBetween(b0, Clock::now()));
        }
        RunStats st;
        std::vector<Tensor> outputs;
        double seconds = 0.0;
        try {
            ScopedSpan run(log, "core.run", i + 1, request.id());
            const auto r0 = Clock::now();
            outputs = engine.run(ctx, in, &st);
            seconds = secondsBetween(r0, Clock::now());
        } catch (const std::exception& e) {
            ++out.failed;
            std::fprintf(stderr, "ledger: request %llu (%s) failed: %s\n",
                         static_cast<unsigned long long>(i),
                         wl.models[q.model].c_str(), e.what());
            continue;
        }
        latency.push_back(seconds);
        per_model[q.model].push_back(seconds);
        peak_bytes[q.model] = std::max(peak_bytes[q.model],
                                       st.peakMemoryBytes);
        if (cfg.trace)
            tally.add(engine, st, seconds);
        if (i < kCheckRounds * num_models)
            checked.emplace_back(i, snapshot(outputs));
        (traced ? request_traced : request_plain)
            .push_back(secondsBetween(req0, Clock::now()));
    }

    // Before the checks and probes, whose allocations are not the
    // workload's.
    out.metrics["rss_peak_mb"] = rssPeakMb();

    // Output check, outside the timed region: the reference interpreter
    // on the same inputs.
    for (const auto& [index, got] : checked) {
        const RequestSpec q = requestAt(wl, gen, cfg.seed, index);
        std::string why;
        bool ok = false;
        try {
            sod2::Interpreter ref(set->models[q.model].graph.get(), {});
            ok = withinTolerance(got, ref.run(inputsFor(gen[q.model], q)),
                                 kReferenceRtol, &why);
        } catch (const std::exception& e) {
            why = e.what();
        }
        if (!ok) {
            ++out.wrong;
            ++out.failed;
            std::fprintf(stderr,
                         "ledger: request %llu (%s, size %lld) does not "
                         "match the reference interpreter: %s\n",
                         static_cast<unsigned long long>(index),
                         wl.models[q.model].c_str(),
                         static_cast<long long>(q.size), why.c_str());
        }
    }

    auto& m = out.metrics;
    double busy = 0.0;
    size_t within = 0;
    for (double s : latency) {
        busy += s;
        within += s * 1e3 <= wl.sloMs;
    }
    std::vector<double> model_medians;
    for (size_t mi = 0; mi < num_models; ++mi) {
        if (per_model[mi].empty())
            continue;
        model_medians.push_back(median(per_model[mi]) * 1e3);
        std::printf("# model %-16s median_ms %.4g p90_ms %.4g n %zu\n",
                    wl.models[mi].c_str(), model_medians.back(),
                    quantile(per_model[mi], 0.9) * 1e3,
                    per_model[mi].size());
    }
    std::printf("# latency samples %zu (p99 has %zu beyond it)\n",
                latency.size(), latency.size() / 100);
    size_t peak_total = 0;
    for (size_t b : peak_bytes)
        peak_total += b;
    m["latency_p50_ms"] = quantile(latency, 0.50) * 1e3;
    m["latency_p99_ms"] = quantile(latency, 0.99) * 1e3;
    m["model_geomean_ms"] = geomean(model_medians);
    m["capacity_rps"] = busy > 0 ? latency.size() / busy : 0.0;
    m["slo_attain"] = out.attempted ? double(within) / out.attempted : 0.0;
    m["peak_mem_mb"] = peak_total / 1048576.0;
    m["setup_s"] = median(setup_s);

    if (cfg.trace) {
        tally.finish(&m);
        m["core.warmup_s"] = median(warmup_s);
        m["trace.overhead_pct"] =
            (median(request_traced) / median(request_plain) - 1.0) * 100.0;
        timeCompilePhases(set->models, &m);
        std::vector<const Sod2Engine*> engines;
        std::vector<std::vector<Tensor>> first_inputs;
        for (size_t mi = 0; mi < num_models; ++mi) {
            engines.push_back(set->engines[mi].get());
            first_inputs.push_back(
                inputsFor(gen[mi], requestAt(wl, gen, cfg.seed, mi)));
        }
        timeKernels(engines, first_inputs, &m);
        m["kernels.peak_gflops"] = peakGflops();
        m["support.parallel_for_us"] = parallelForMicros();
    }
    return out;
}

}  // namespace ledger
