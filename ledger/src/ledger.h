#ifndef SOD2_LEDGER_LEDGER_H_
#define SOD2_LEDGER_LEDGER_H_

/**
 * @file
 * The wall-clock performance ledger: three workloads driven through the
 * public API of core (Sod2Engine), serving (Sod2Server, inside the
 * fleet) and fleet (Sod2Fleet), timed from outside the program on the
 * non-simulated mobile-CPU profile. See ledger/README.md for the
 * workloads, the metrics and which layer metric should move which
 * end-to-end metric.
 *
 * Every timing here comes from std::chrono::steady_clock reads around
 * calls; RunStats::seconds is never used (on simulated profiles it holds
 * cost-model time). RunStats fields that are wall time on this profile
 * (planSeconds, groupSeconds) and byte counts feed only the per-layer
 * breakdown of the traced run.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sod2_engine.h"
#include "models/model_zoo.h"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// --- workloads and their request streams ------------------------------

/** One workload: the models it drives and its latency limit. */
struct WorkloadDef
{
    std::string name;
    /** Zoo model names (model_zoo.h), in stream round-robin order. */
    std::vector<std::string> models;
    /** True: open-loop traffic through one Sod2Fleet; false: one
     *  closed-loop caller on Sod2Engine::run. */
    bool fleet = false;
    /** Latency limit for slo_attain, in ms (README.md gives reasons). */
    double sloMs = 0.0;
};

const std::vector<WorkloadDef>& workloads();
/** The workload named @p name, or null. */
const WorkloadDef* findWorkload(const std::string& name);

/** fleet_open: Poisson arrival rate of the open-loop phase, frozen at
 *  about 40% of the capacity_rps measured on the seed code (~95 req/s
 *  on a 4-core host). At 60% queueing turned small changes in host
 *  speed into large swings of latency between runs. */
inline constexpr double kFleetRateRps = 40.0;
/** fleet_open: workers per member server. */
inline constexpr int kFleetWorkers = 2;
/** fleet_open: requests per burst of the capacity phase (half per
 *  model, so each member's default 64-deep queue never overflows). */
inline constexpr int kBurstSize = 96;
/** Stream indices of burst requests start here, so the burst inputs do
 *  not depend on how many open-loop requests a run managed to send. */
inline constexpr uint64_t kBurstBase = uint64_t{1} << 40;

/** One request of a stream: a pure function of (workload, seed, index). */
struct RequestSpec
{
    int model = 0;
    /** Primary size: image side or sequence length, always legal. */
    int64_t size = 0;
    /** Seeds the input values (fresh per request). */
    uint64_t valueSeed = 0;
    /** fleet_open: exponential gap before this request is due. */
    double gapSeconds = 0.0;
};

/** Builds the workload's models; weights come from a fixed seed, so
 *  every run measures the same programs. */
std::vector<sod2::ModelSpec> buildModels(const WorkloadDef& wl);

/** Request @p index of the stream of @p seed. */
RequestSpec requestAt(const WorkloadDef& wl,
                      const std::vector<sod2::ModelSpec>& models,
                      uint64_t seed, uint64_t index);

/** The fixed warm-up prefix: every model at its largest then its
 *  smallest legal size, with values from a fixed seed, so set-up does
 *  the same work on every run and the arena is already at its
 *  high-water mark when timing starts. */
std::vector<RequestSpec>
warmupPrefix(const std::vector<sod2::ModelSpec>& models);

/** Materializes @p r's input tensors. */
std::vector<sod2::Tensor> inputsFor(const sod2::ModelSpec& model,
                                    const RequestSpec& r);

/** Engine options for @p model on the non-simulated mobile CPU with
 *  every other option at its built-in default. */
sod2::Sod2Options engineOptions(const sod2::ModelSpec& model);

// --- statistics -------------------------------------------------------

/** Nearest-rank @p q-quantile (0 <= q <= 1); 0 for an empty input. */
double quantile(std::vector<double> v, double q);
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
/** Geometric mean of positive values; 0 for an empty input. */
double geomean(const std::vector<double>& v);

// --- spans of the traced run ------------------------------------------

/**
 * In-memory span recorder for the traced run. Each span has a name,
 * start, end, parent span and the id of the request it belongs to
 * (0 = set-up work); spans are written out once, at the end, as Chrome
 * trace-event JSON. Disabled logs record nothing. Thread-safe.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    /** A fresh span id (ids start at 1; 0 means "no parent"). */
    uint64_t newId();
    void record(const char* name, Clock::time_point start,
                Clock::time_point end, uint64_t id, uint64_t parent,
                uint64_t request);
    size_t size() const;
    /** Writes the spans to @p path; false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        Clock::time_point start, end;
        uint64_t id, parent, request;
    };
    bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    uint64_t next_id_ = 0;
    std::vector<Span> spans_;
};

/** Records one span around a scope when @p log is enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const char* name, uint64_t request,
               uint64_t parent = 0)
        : log_(log), name_(name), request_(request), parent_(parent),
          id_(log.enabled() ? log.newId() : 0), start_(Clock::now())
    {
    }
    ~ScopedSpan()
    {
        if (log_.enabled())
            log_.record(name_, start_, Clock::now(), id_, parent_,
                        request_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanLog& log_;
    const char* name_;
    uint64_t request_, parent_, id_;
    Clock::time_point start_;
};

// --- output checks ----------------------------------------------------

/** Normwise relative tolerance against the reference interpreter:
 *  loose enough for re-ordered float accumulation, far below what a
 *  wrong plan or arena offset produces. */
inline constexpr double kReferenceRtol = 1e-3;

/** Deep copies of @p outputs (engine outputs alias the context arena). */
std::vector<sod2::Tensor> snapshot(const std::vector<sod2::Tensor>& outputs);

/** Same count, dtypes and shapes; float tensors within @p rtol of the
 *  reference's largest magnitude, every other dtype exact. */
bool withinTolerance(const std::vector<sod2::Tensor>& got,
                     const std::vector<sod2::Tensor>& ref, double rtol,
                     std::string* why);

/** Same count, dtypes, shapes and bytes. */
bool bytesEqual(const std::vector<sod2::Tensor>& got,
                const std::vector<sod2::Tensor>& ref, std::string* why);

// --- metrics ----------------------------------------------------------

struct MetricSpec
{
    const char* name;
    const char* unit;
};
/** The end-to-end metrics (printed with --trace 0), BENCHMARK.json
 *  order. Every workload reports all of them. */
const std::vector<MetricSpec>& endToEndMetrics();
/** The per-layer metrics (printed with --trace 1). A workload reports
 *  0 for a layer it bypasses (README.md lists which). */
const std::vector<MetricSpec>& perLayerMetrics();

/** What one workload run measured. */
struct Outcome
{
    uint64_t attempted = 0;
    /** Failed, shed, or wrong results (wrong ones also in @ref wrong). */
    uint64_t failed = 0;
    uint64_t wrong = 0;
    /** name -> value, units from the metric tables. */
    std::map<std::string, double> metrics;
};

struct RunConfig
{
    const WorkloadDef* workload = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

Outcome runEngineWorkload(const RunConfig& cfg, SpanLog& spans);
Outcome runFleetWorkload(const RunConfig& cfg, SpanLog& spans);

/**
 * Per-request engine-layer tally shared by the engine workloads and the
 * fleet's direct reference runs: groups executed, plan-cache hit/miss
 * time, host time outside kernels, and kernel time per op class
 * (attributed by each fusion group's anchor op).
 */
class EngineLayerTally
{
  public:
    enum Class {
        kConv,
        kMatMul,
        kNormSoftmax,
        kDataMovement,
        kElementwise,
        kOther,
        kClassCount
    };

    /** Records one run of @p engine that took @p wallSeconds. */
    void add(const sod2::Sod2Engine& engine, const sod2::RunStats& stats,
             double wallSeconds);
    void addBind(double seconds) { bind_s_.push_back(seconds); }
    /** Writes the engine/kernel/memory per-layer metrics. */
    void finish(std::map<std::string, double>* metrics) const;

  private:
    const std::vector<int>& classesOf(const sod2::Sod2Engine& engine);

    std::map<const sod2::Sod2Engine*, std::vector<int>> classes_;
    std::vector<double> bind_s_, hit_s_, miss_s_, host_s_;
    double class_s_[kClassCount] = {};
    double groups_ = 0.0;
    uint64_t runs_ = 0;
    size_t arena_max_ = 0, dynamic_max_ = 0;
};

// --- probes (traced run only) -----------------------------------------

/** Single-core FMA throughput of the widest vector ISA the host has. */
double peakGflops();
/** Median wall time of one empty ThreadPool::global().parallelFor that
 *  dispatches to every pool thread, in microseconds. */
double parallelForMicros();
/** Writes rdp.analyze_ms, fusion.plan_ms, planning.sep_ms and
 *  core.compile_ms: direct calls of each compile phase, median of a
 *  few repetitions, summed over @p models. */
void timeCompilePhases(const std::vector<sod2::ModelSpec>& models,
                       std::map<std::string, double>* metrics);
/** Writes kernels.conv_gflops and kernels.gemm_gflops: single-threaded
 *  conv2d / gemmF32 calls on every Conv and MatMul shape that
 *  @p engines execute for @p inputs (one input set per engine). */
void timeKernels(const std::vector<const sod2::Sod2Engine*>& engines,
                 const std::vector<std::vector<sod2::Tensor>>& inputs,
                 std::map<std::string, double>* metrics);

// --- environment and report -------------------------------------------

/** Non-empty reason when the environment would change the program
 *  under test (SOD2_* behavior knobs, a simulated device profile). */
std::string refusedEnvironment();
/** Host and build fingerprint as one JSON object. */
std::string fingerprintJson();
/** Peak resident set size of this process, in MB. */
double rssPeakMb();

}  // namespace ledger

#endif  // SOD2_LEDGER_LEDGER_H_
