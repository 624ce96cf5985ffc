/**
 * @file
 * fleet_open: one Sod2Fleet with two members (DGNet and CodeBERT, two
 * workers each, every other option at its built-in default).
 *
 *  1. Open loop: one generator thread sends Poisson arrivals at
 *     kFleetRateRps. Latency runs from each request's due time to the
 *     moment its future is seen resolved by a polling collector (poll
 *     period kPoll), so a slow request never hides the ones behind it.
 *  2. Capacity: bursts of kBurstSize requests submitted at once; each
 *     burst's completed requests per second of drain time is a sample.
 *
 * No zoo model passes the stackability proof, so the servers never
 * stack a batch here: batching only ever coalesces per-item runs.
 */

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "fleet/fleet.h"
#include "ledger.h"

namespace ledger {

using sod2::ModelSpec;
using sod2::RunResult;
using sod2::Tensor;
using sod2::fleet::FleetMemberSpec;
using sod2::fleet::Sod2Fleet;

namespace {

constexpr int kSetupReps = 5;
/** Share of --seconds given to the open loop; the bursts get the rest. */
constexpr double kOpenShare = 0.85;
constexpr int kMinBursts = 3;
/** Open-loop requests per model whose outputs are checked. */
constexpr int kCheckPerModel = 8;
constexpr auto kPoll = std::chrono::microseconds(100);
constexpr auto kSampleEvery = std::chrono::milliseconds(10);

struct FleetSet
{
    std::vector<ModelSpec> models;
    // Declared after the models its members compile: destroyed first.
    std::unique_ptr<Sod2Fleet> fleet;
};

std::unique_ptr<Sod2Fleet>
startFleet(const std::vector<ModelSpec>& models)
{
    std::vector<FleetMemberSpec> specs;
    for (const ModelSpec& model : models) {
        FleetMemberSpec s;
        s.name = model.name;
        s.model = model.name;
        s.graph = model.graph.get();
        s.engineOptions = engineOptions(model);
        s.serverOptions.workers = kFleetWorkers;
        specs.push_back(std::move(s));
    }
    return std::make_unique<Sod2Fleet>(std::move(specs));
}

struct InFlight
{
    uint64_t index = 0;
    int model = 0;
    Clock::time_point due, sent;
    std::future<RunResult> result;
    bool traced = false;
    bool check = false;
    uint64_t span = 0;
};

/** Samples fleet state every kSampleEvery: resident arena bytes always,
 *  per-worker busy flags when tracing. */
struct Sampler
{
    Sampler(Sod2Fleet& f, bool sample_busy) : fleet(f), busy(sample_busy) {}

    Sod2Fleet& fleet;
    bool busy;
    Clock::time_point next{};
    size_t max_resident = 0;
    std::vector<uint64_t> busy_counts;
    uint64_t samples = 0;

    void poll()
    {
        const auto now = Clock::now();
        if (now < next)
            return;
        next = now + kSampleEvery;
        max_resident = std::max(max_resident, fleet.residentArenaBytes());
        if (!busy)
            return;
        ++samples;
        size_t w = 0;
        for (size_t i = 0; i < fleet.memberCount(); ++i) {
            for (const auto& worker : fleet.memberServer(i).health().workers) {
                if (busy_counts.size() <= w)
                    busy_counts.resize(w + 1, 0);
                busy_counts[w++] += worker.busy;
            }
        }
    }
};

/** Resolves every ready future in @p pending through @p handle. */
template <class Handle>
void
collectReady(std::vector<InFlight>& pending, Handle&& handle)
{
    for (size_t i = 0; i < pending.size();) {
        if (pending[i].result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
            ++i;
            continue;
        }
        const auto done = Clock::now();
        RunResult r = pending[i].result.get();
        handle(pending[i], r, done);
        pending[i] = std::move(pending.back());
        pending.pop_back();
    }
}

}  // namespace

Outcome
runFleetWorkload(const RunConfig& cfg, SpanLog& spans)
{
    const WorkloadDef& wl = *cfg.workload;
    const size_t num_models = wl.models.size();
    const std::vector<ModelSpec> gen = buildModels(wl);
    const std::vector<RequestSpec> prefix = warmupPrefix(gen);
    std::vector<std::vector<Tensor>> prefix_inputs;
    for (const RequestSpec& q : prefix)
        prefix_inputs.push_back(inputsFor(gen[q.model], q));

    Outcome out;
    SpanLog off(false);

    // Set-up: model build, fleet start (engine compile, server threads),
    // warm-up prefix through the fleet. Repeated; the last one is kept.
    FleetSet set;
    std::vector<double> setup_s, warmup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        set.fleet.reset();
        ScopedSpan setup(spans, "setup", 0);
        const auto t0 = Clock::now();
        {
            ScopedSpan s(spans, "model.build", 0, setup.id());
            set.models = buildModels(wl);
        }
        {
            ScopedSpan s(spans, "fleet.start", 0, setup.id());
            set.fleet = startFleet(set.models);
        }
        const auto tw = Clock::now();
        {
            ScopedSpan s(spans, "core.warmup", 0, setup.id());
            for (size_t i = 0; i < prefix.size(); ++i) {
                sod2::serving::Request req;
                req.inputs = prefix_inputs[i];
                RunResult r = set.fleet->run(wl.models[prefix[i].model],
                                             std::move(req));
                if (!r.ok())
                    throw std::runtime_error("fleet warm-up failed: " +
                                             r.message);
            }
        }
        const auto t1 = Clock::now();
        setup_s.push_back(secondsBetween(t0, t1));
        warmup_s.push_back(secondsBetween(tw, t1));
    }
    Sod2Fleet& fleet = *set.fleet;
    Sampler sampler(fleet, cfg.trace);
    std::vector<sod2::serving::ServerStats> before;
    for (size_t i = 0; i < num_models; ++i)
        before.push_back(fleet.memberServer(i).stats());

    // Result accounting shared by both phases.
    std::vector<double> latency, lat_plain, lat_traced, queue_wait, service;
    std::vector<std::vector<double>> per_model(num_models);
    std::vector<std::pair<uint64_t, std::vector<Tensor>>> checked;
    uint64_t open_sent = 0, within = 0;
    bool open_phase = true;
    Clock::time_point last_done{};
    auto handle = [&](InFlight& f, RunResult& r, Clock::time_point done) {
        last_done = std::max(last_done, done);
        if (!r.ok()) {
            ++out.failed;
            std::fprintf(stderr, "ledger: request %llu (%s) failed: %s\n",
                         static_cast<unsigned long long>(f.index),
                         wl.models[f.model].c_str(), r.message.c_str());
            return;
        }
        if (!open_phase)
            return;
        const double lat = secondsBetween(f.due, done);
        latency.push_back(lat);
        per_model[f.model].push_back(lat);
        within += lat * 1e3 <= wl.sloMs;
        service.push_back(r.serviceSeconds);
        queue_wait.push_back(secondsBetween(f.sent, done) - r.serviceSeconds);
        (f.traced ? lat_traced : lat_plain).push_back(lat);
        if (f.traced)
            spans.record("request", f.due, done, f.span, 0, f.index + 1);
        if (f.check)
            checked.emplace_back(f.index, std::move(r.outputs));
    };

    // Phase 1: open loop.
    std::mutex mu;
    std::vector<InFlight> handoff;
    std::atomic<bool> gen_done{false};
    std::string gen_error;  // written by the generator before gen_done
    std::vector<double> late, route_s, submit_s;
    const auto start = Clock::now();
    const auto open_end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds * kOpenShare));
    auto send_open_loop = [&] {
        std::vector<int> checks(num_models, 0);
        RequestSpec q = requestAt(wl, gen, cfg.seed, 0);
        std::vector<Tensor> in = inputsFor(gen[q.model], q);
        double due_s = q.gapSeconds;
        for (uint64_t i = 0;; ++i) {
            InFlight f;
            f.due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due_s));
            if (f.due >= open_end)
                break;
            std::this_thread::sleep_until(f.due);
            f.sent = Clock::now();
            f.index = i;
            f.model = q.model;
            f.check = checks[q.model]++ < kCheckPerModel;
            // One-second blocks alternate untraced / traced.
            f.traced = cfg.trace && static_cast<int64_t>(due_s) % 2 == 1;
            f.span = f.traced ? spans.newId() : 0;
            SpanLog& log = f.traced ? spans : off;
            late.push_back(secondsBetween(f.due, f.sent));
            const std::string& model = wl.models[q.model];
            if (f.traced) {
                ScopedSpan s(log, "fleet.route", i + 1, f.span);
                const auto r0 = Clock::now();
                fleet.routePreview(model, in);
                route_s.push_back(secondsBetween(r0, Clock::now()));
            }
            {
                ScopedSpan s(log, "fleet.submit", i + 1, f.span);
                sod2::serving::Request req;
                req.inputs = std::move(in);
                const auto s0 = Clock::now();
                f.result = fleet.submit(model, std::move(req));
                submit_s.push_back(secondsBetween(s0, Clock::now()));
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                handoff.push_back(std::move(f));
            }
            q = requestAt(wl, gen, cfg.seed, i + 1);
            in = inputsFor(gen[q.model], q);
            due_s += q.gapSeconds;
        }
    };
    // jthread: joined on every exit path, exceptions included.
    std::jthread generator([&] {
        try {
            send_open_loop();
        } catch (const std::exception& e) {
            gen_error = e.what();
        }
        gen_done.store(true, std::memory_order_release);
    });
    std::vector<InFlight> pending;
    for (;;) {
        const bool generator_finished =
            gen_done.load(std::memory_order_acquire);
        {
            std::lock_guard<std::mutex> lock(mu);
            open_sent += handoff.size();
            for (InFlight& f : handoff)
                pending.push_back(std::move(f));
            handoff.clear();
        }
        collectReady(pending, handle);
        sampler.poll();
        if (generator_finished && pending.empty())
            break;
        std::this_thread::sleep_for(kPoll);
    }
    generator.join();
    if (!gen_error.empty())
        throw std::runtime_error("open-loop generator: " + gen_error);
    out.attempted += open_sent;

    // Phase 2: capacity bursts. Inputs are made before each burst's clock
    // starts; the burst mix is exactly half per model.
    open_phase = false;
    std::vector<double> capacity;
    const auto burst_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               cfg.seconds * (1.0 - kOpenShare)));
    for (int b = 0; b < kMinBursts || Clock::now() < burst_end; ++b) {
        std::vector<std::pair<int, std::vector<Tensor>>> burst;
        for (int j = 0; j < kBurstSize; ++j) {
            const RequestSpec q = requestAt(
                wl, gen, cfg.seed,
                kBurstBase + static_cast<uint64_t>(b) * kBurstSize + j);
            burst.emplace_back(q.model, inputsFor(gen[q.model], q));
        }
        const auto t0 = Clock::now();
        for (auto& [model, in] : burst) {
            InFlight f;
            f.model = model;
            f.due = f.sent = t0;
            sod2::serving::Request req;
            req.inputs = std::move(in);
            f.result = fleet.submit(wl.models[model], std::move(req));
            pending.push_back(std::move(f));
        }
        while (!pending.empty()) {
            collectReady(pending, handle);
            sampler.poll();
            std::this_thread::sleep_for(kPoll);
        }
        out.attempted += kBurstSize;
        capacity.push_back(kBurstSize / secondsBetween(t0, last_done));
    }

    // Before the checks and probes, whose allocations are not the
    // workload's.
    out.metrics["rss_peak_mb"] = rssPeakMb();

    // Output check, outside the timed phases: byte-exact against direct
    // runs of the member engine that served the request.
    EngineLayerTally tally;
    std::vector<std::unique_ptr<sod2::RunContext>> contexts;
    for (size_t i = 0; i < num_models; ++i)
        contexts.push_back(std::make_unique<sod2::RunContext>());
    for (const auto& [index, got] : checked) {
        const RequestSpec q = requestAt(wl, gen, cfg.seed, index);
        const std::vector<Tensor> in = inputsFor(gen[q.model], q);
        const sod2::Sod2Engine& engine = fleet.memberEngine(q.model);
        std::string why;
        bool ok = false;
        try {
            const auto b0 = Clock::now();
            engine.signatureFor(in);
            tally.addBind(secondsBetween(b0, Clock::now()));
            sod2::RunStats st;
            const auto r0 = Clock::now();
            std::vector<Tensor> ref = engine.run(*contexts[q.model], in, &st);
            tally.add(engine, st, secondsBetween(r0, Clock::now()));
            ok = bytesEqual(got, ref, &why);
        } catch (const std::exception& e) {
            why = e.what();
        }
        if (!ok) {
            ++out.wrong;
            ++out.failed;
            std::fprintf(stderr,
                         "ledger: fleet request %llu (%s) differs from a "
                         "direct run of its member engine: %s\n",
                         static_cast<unsigned long long>(index),
                         wl.models[q.model].c_str(), why.c_str());
        }
    }

    auto& m = out.metrics;
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
    std::printf("# latency samples %zu (p99 has %zu beyond it), %zu bursts\n",
                latency.size(), latency.size() / 100, capacity.size());
    m["latency_p50_ms"] = quantile(latency, 0.50) * 1e3;
    m["latency_p99_ms"] = quantile(latency, 0.99) * 1e3;
    m["model_geomean_ms"] = geomean(model_medians);
    m["capacity_rps"] = median(capacity);
    m["slo_attain"] = open_sent ? double(within) / open_sent : 0.0;
    m["peak_mem_mb"] = sampler.max_resident / 1048576.0;
    m["setup_s"] = median(setup_s);

    if (cfg.trace) {
        // Engine-layer numbers come from the direct reference runs: the
        // fleet does not expose RunStats of the runs it serves.
        tally.finish(&m);
        m["core.warmup_s"] = median(warmup_s);
        m["trace.overhead_pct"] =
            (median(lat_traced) / median(lat_plain) - 1.0) * 100.0;
        m["fleet.submit_us"] = median(submit_s) * 1e6;
        m["fleet.route_us"] = median(route_s) * 1e6;
        m["serving.queue_wait_p50_ms"] = quantile(queue_wait, 0.50) * 1e3;
        m["serving.queue_wait_p99_ms"] = quantile(queue_wait, 0.99) * 1e3;
        m["serving.service_p50_ms"] = median(service) * 1e3;
        m["gen.late_p99_ms"] = quantile(late, 0.99) * 1e3;
        m["fleet.resident_arena_mb"] = sampler.max_resident / 1048576.0;
        double completed = 0, batches = 0, shed = 0, expired = 0;
        for (size_t i = 0; i < num_models; ++i) {
            const auto now = fleet.memberServer(i).stats();
            completed += now.completed - before[i].completed;
            batches += now.batches - before[i].batches;
            shed += now.shed - before[i].shed;
            expired += now.expired - before[i].expired;
        }
        m["serving.batch_mean"] = batches > 0 ? completed / batches : 0.0;
        m["serving.shed"] = shed;
        m["serving.expired"] = expired;
        if (sampler.samples > 0 && !sampler.busy_counts.empty()) {
            auto [lo, hi] = std::minmax_element(sampler.busy_counts.begin(),
                                                sampler.busy_counts.end());
            m["serving.busy_share_max"] = double(*hi) / sampler.samples;
            m["serving.busy_share_min"] = double(*lo) / sampler.samples;
        }
        const auto health = fleet.health();
        m["fleet.failovers"] = static_cast<double>(health.failovers);
        m["fleet.governor_denials"] =
            static_cast<double>(health.governor.denials);

        timeCompilePhases(set.models, &m);
        std::vector<const sod2::Sod2Engine*> engines;
        std::vector<std::vector<Tensor>> first_inputs(num_models);
        for (size_t i = 0; i < num_models; ++i)
            engines.push_back(&fleet.memberEngine(i));
        for (uint64_t i = 0, found = 0; found < num_models; ++i) {
            const RequestSpec q = requestAt(wl, gen, cfg.seed, i);
            if (first_inputs[q.model].empty()) {
                first_inputs[q.model] = inputsFor(gen[q.model], q);
                ++found;
            }
        }
        timeKernels(engines, first_inputs, &m);
        m["kernels.peak_gflops"] = peakGflops();
        m["support.parallel_for_us"] = parallelForMicros();
    }
    return out;
}

}  // namespace ledger
