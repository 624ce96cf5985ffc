/**
 * @file
 * Per-layer measurements: the engine-layer tally fed from RunStats, and
 * the traced run's direct probes of compile phases, kernels, the thread
 * pool and the host's single-core peak.
 */

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <functional>
#include <set>

#include "fusion/fusion_plan.h"
#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "ledger.h"
#include "planning/execution_plan.h"
#include "rdp/rdp_analysis.h"
#include "support/threadpool.h"

namespace ledger {

using sod2::Sod2Engine;
using sod2::Tensor;

// --- engine-layer tally -------------------------------------------------

namespace {

int
classOfOp(const std::string& op)
{
    static const std::set<std::string> kNormSoftmax = {
        "LayerNormalization", "GroupNormalization", "BatchNormalization",
        "Softmax"};
    static const std::set<std::string> kDataMovement = {
        "Transpose", "Reshape", "Concat",  "Slice",   "Split",
        "Gather",    "Pad",     "Expand",  "Tile",    "Squeeze",
        "Unsqueeze", "Flatten", "Resize",  "Identity"};
    if (op == "Conv")
        return EngineLayerTally::kConv;
    if (op == "MatMul")
        return EngineLayerTally::kMatMul;
    if (kNormSoftmax.count(op))
        return EngineLayerTally::kNormSoftmax;
    if (kDataMovement.count(op))
        return EngineLayerTally::kDataMovement;
    if (sod2::isUnaryElementwise(op) || sod2::isBinaryElementwise(op) ||
        op == "Where")
        return EngineLayerTally::kElementwise;
    return EngineLayerTally::kOther;
}

}  // namespace

const std::vector<int>&
EngineLayerTally::classesOf(const Sod2Engine& engine)
{
    auto it = classes_.find(&engine);
    if (it != classes_.end())
        return it->second;
    // Attribute each group to its anchor: the Conv/MatMul of a fused
    // heavy group, "elementwise" for a fused chain, else the node's op.
    std::vector<int> classes;
    for (const sod2::FusionGroup& g : engine.fusionPlan().groups) {
        if (g.kind == sod2::GroupKind::kElementwiseChain) {
            classes.push_back(kElementwise);
            continue;
        }
        int cls = classOfOp(engine.graph()->node(g.nodes.front()).op);
        for (sod2::NodeId n : g.nodes) {
            int c = classOfOp(engine.graph()->node(n).op);
            if (c == kConv || c == kMatMul) {
                cls = c;
                break;
            }
        }
        classes.push_back(cls);
    }
    return classes_.emplace(&engine, std::move(classes)).first->second;
}

void
EngineLayerTally::add(const Sod2Engine& engine, const sod2::RunStats& stats,
                      double wallSeconds)
{
    const std::vector<int>& classes = classesOf(engine);
    double kernel_s = 0.0;
    for (size_t g = 0; g < stats.groupSeconds.size() && g < classes.size();
         ++g) {
        class_s_[classes[g]] += stats.groupSeconds[g];
        kernel_s += stats.groupSeconds[g];
    }
    host_s_.push_back(wallSeconds - kernel_s - stats.planSeconds);
    (stats.planCacheHit ? hit_s_ : miss_s_).push_back(stats.planSeconds);
    groups_ += stats.executedGroups;
    arena_max_ = std::max(arena_max_, stats.arenaBytes);
    dynamic_max_ = std::max(dynamic_max_, stats.dynamicBytes);
    ++runs_;
}

void
EngineLayerTally::finish(std::map<std::string, double>* m) const
{
    if (runs_ == 0)
        return;
    const double runs = static_cast<double>(runs_);
    double kernel_s = 0.0;
    for (double s : class_s_)
        kernel_s += s;
    auto& out = *m;
    out["fusion.groups"] = groups_ / runs;
    out["core.bind_us"] = median(bind_s_) * 1e6;
    out["core.plan_hit_ratio"] = hit_s_.size() / runs;
    out["core.plan_hit_us"] = median(hit_s_) * 1e6;
    out["core.plan_miss_us"] = median(miss_s_) * 1e6;
    out["engine.host_us"] = median(host_s_) * 1e6;
    out["kernels.conv_ms"] = class_s_[kConv] / runs * 1e3;
    out["kernels.matmul_ms"] = class_s_[kMatMul] / runs * 1e3;
    out["kernels.norm_softmax_ms"] = class_s_[kNormSoftmax] / runs * 1e3;
    out["kernels.data_movement_ms"] = class_s_[kDataMovement] / runs * 1e3;
    out["kernels.elementwise_ms"] = class_s_[kElementwise] / runs * 1e3;
    out["kernels.other_ms"] = class_s_[kOther] / runs * 1e3;
    if (kernel_s > 0.0) {
        out["kernels.conv_share"] = class_s_[kConv] / kernel_s;
        out["kernels.matmul_share"] = class_s_[kMatMul] / kernel_s;
    }
    out["memory.arena_mb"] = arena_max_ / 1048576.0;
    out["memory.dynamic_mb"] = dynamic_max_ / 1048576.0;
}

// --- probes -------------------------------------------------------------

namespace {

#if defined(__x86_64__)
// Twelve independent accumulators cover FMA latency x issue width on
// current x86 cores; each iteration is 12 vector FMAs (2 flops/lane).
constexpr int kAcc = 12;

__attribute__((target("avx512f"))) double
fmaLoop512(int64_t iters, float x)
{
    __m512 acc[kAcc];
    const __m512 m = _mm512_set1_ps(x), a = _mm512_set1_ps(1e-7f);
    for (int j = 0; j < kAcc; ++j)
        acc[j] = _mm512_set1_ps(static_cast<float>(j));
    for (int64_t i = 0; i < iters; ++i)
        for (int j = 0; j < kAcc; ++j)
            acc[j] = _mm512_fmadd_ps(acc[j], m, a);
    __m512 sum = acc[0];
    for (int j = 1; j < kAcc; ++j)
        sum = _mm512_add_ps(sum, acc[j]);
    float lanes[16];
    _mm512_storeu_ps(lanes, sum);
    double total = 0.0;
    for (float v : lanes)
        total += v;
    return total;
}

__attribute__((target("avx2,fma"))) double
fmaLoop256(int64_t iters, float x)
{
    __m256 acc[kAcc];
    const __m256 m = _mm256_set1_ps(x), a = _mm256_set1_ps(1e-7f);
    for (int j = 0; j < kAcc; ++j)
        acc[j] = _mm256_set1_ps(static_cast<float>(j));
    for (int64_t i = 0; i < iters; ++i)
        for (int j = 0; j < kAcc; ++j)
            acc[j] = _mm256_fmadd_ps(acc[j], m, a);
    __m256 sum = acc[0];
    for (int j = 1; j < kAcc; ++j)
        sum = _mm256_add_ps(sum, acc[j]);
    float lanes[8];
    _mm256_storeu_ps(lanes, sum);
    double total = 0.0;
    for (float v : lanes)
        total += v;
    return total;
}
#endif

/** Best of @p reps timings of @p fn, in seconds. */
double
bestSeconds(int reps, const std::function<void()>& fn)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        best = std::min(best, secondsBetween(t0, Clock::now()));
    }
    return best;
}

volatile double g_sink = 0.0;

}  // namespace

double
peakGflops()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    const int64_t iters = 4000000;
    // The multiplier comes from a volatile so the loop cannot be folded.
    const float x = static_cast<float>(0.999999 + g_sink);
    int lanes = 0;
    double s = 0.0;
    if (__builtin_cpu_supports("avx512f")) {
        lanes = 16;
        s = bestSeconds(3, [&] { g_sink = g_sink + fmaLoop512(iters, x); });
    } else if (__builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma")) {
        lanes = 8;
        s = bestSeconds(3, [&] { g_sink = g_sink + fmaLoop256(iters, x); });
    }
    if (lanes > 0)
        return 2.0 * kAcc * lanes * static_cast<double>(iters) / s * 1e-9;
#endif
    // No vector FMA: eight independent scalar multiply-add chains.
    const int64_t scalar_iters = 20000000;
    double acc[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    const double mul = 0.999999 + g_sink;
    const double scalar_s = bestSeconds(3, [&] {
        for (int64_t i = 0; i < scalar_iters; ++i)
            for (double& v : acc)
                v = v * mul + 1e-7;
        g_sink = g_sink + acc[0];
    });
    return 2.0 * 8 * static_cast<double>(scalar_iters) / scalar_s * 1e-9;
}

double
parallelForMicros()
{
    sod2::ThreadPool& pool = sod2::ThreadPool::global();
    // One chunk per pool thread plus the caller: every worker wakes.
    const int64_t total = pool.numThreads() + 1;
    const std::function<void(int64_t, int64_t)> empty = [](int64_t,
                                                           int64_t) {};
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i) {
        auto t0 = Clock::now();
        pool.parallelFor(total, empty, 1);
        samples.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(samples) * 1e6;
}

void
timeCompilePhases(const std::vector<sod2::ModelSpec>& models,
                  std::map<std::string, double>* metrics)
{
    constexpr int kReps = 5;
    double rdp_s = 0, fusion_s = 0, sep_s = 0, compile_s = 0;
    for (const sod2::ModelSpec& spec : models) {
        const sod2::Graph& g = *spec.graph;
        std::vector<double> rdp, fusion, sep, compile;
        for (int r = 0; r < kReps; ++r) {
            auto t0 = Clock::now();
            sod2::RdpResult res = sod2::runRdp(g, spec.rdp);
            auto t1 = Clock::now();
            sod2::FusionPlan plan = sod2::buildRdpFusionPlan(g, res);
            auto t2 = Clock::now();
            sod2::ExecutionPlan order = sod2::buildExecutionPlan(
                g, res, plan, engineOptions(spec).sep);
            auto t3 = Clock::now();
            Sod2Engine engine(&g, engineOptions(spec));
            auto t4 = Clock::now();
            rdp.push_back(secondsBetween(t0, t1));
            fusion.push_back(secondsBetween(t1, t2));
            sep.push_back(secondsBetween(t2, t3));
            compile.push_back(secondsBetween(t3, t4));
        }
        rdp_s += median(rdp);
        fusion_s += median(fusion);
        sep_s += median(sep);
        compile_s += median(compile);
    }
    (*metrics)["rdp.analyze_ms"] = rdp_s * 1e3;
    (*metrics)["fusion.plan_ms"] = fusion_s * 1e3;
    (*metrics)["planning.sep_ms"] = sep_s * 1e3;
    (*metrics)["core.compile_ms"] = compile_s * 1e3;
}

void
timeKernels(const std::vector<const Sod2Engine*>& engines,
            const std::vector<std::vector<Tensor>>& inputs,
            std::map<std::string, double>* metrics)
{
    sod2::Rng rng(7);
    std::set<std::string> seen;
    double conv_flops = 0, conv_s = 0, gemm_flops = 0, gemm_s = 0;
    sod2::ConvVariant conv_variant;
    conv_variant.parallel = false;  // single core, like the peak loop
    sod2::GemmVariant gemm_variant;
    gemm_variant.parallel = false;
    for (size_t e = 0; e < engines.size(); ++e) {
        const Sod2Engine& engine = *engines[e];
        const sod2::Graph& g = *engine.graph();
        std::vector<sod2::Shape> concrete;
        for (const Tensor& t : inputs[e])
            concrete.push_back(t.shape());
        const auto bindings =
            sod2::bindInputSymbols(g, engine.options().rdp, concrete);
        for (sod2::NodeId n = 0; n < g.numNodes(); ++n) {
            const sod2::Node& node = g.node(n);
            if (node.op != "Conv" && node.op != "MatMul")
                continue;
            std::vector<sod2::Shape> shapes;
            std::string key = node.op;
            for (sod2::ValueId v : {node.inputs[0], node.inputs[1],
                                    node.outputs[0]}) {
                auto dims = engine.rdp().shapeOf(v).evaluate(bindings);
                if (!dims)
                    break;
                shapes.emplace_back(*dims);
                key += shapes.back().toString();
            }
            if (shapes.size() != 3)
                continue;  // data-dependent shape: not statically known
            const int64_t stride = node.attrs.getInt("stride", 1);
            const int64_t pad = node.attrs.getInt("pad", 0);
            const int64_t group = node.attrs.getInt("group", 1);
            key += std::to_string(stride) + "/" + std::to_string(pad) +
                   "/" + std::to_string(group);
            if (!seen.insert(key).second)
                continue;
            Tensor a = Tensor::randomUniform(shapes[0], rng);
            Tensor b = Tensor::randomUniform(shapes[1], rng);
            Tensor out(sod2::DType::kFloat32, shapes[2]);
            if (node.op == "Conv") {
                conv_s += bestSeconds(2, [&] {
                    sod2::conv2d(a, b, nullptr, &out, stride, pad, group,
                                 conv_variant);
                });
                conv_flops +=
                    sod2::convFlops(shapes[0], shapes[1], shapes[2], group);
                continue;
            }
            // MatMul: one gemmF32 per broadcast batch (operands reused).
            const int64_t m = shapes[0].dimAt(-2), k = shapes[0].dimAt(-1);
            const int64_t nn = shapes[1].dimAt(-1);
            const int64_t batches =
                shapes[2].numElements() / std::max<int64_t>(1, m * nn);
            gemm_s += bestSeconds(2, [&] {
                for (int64_t i = 0; i < batches; ++i)
                    sod2::gemmF32(a.data<float>(), b.data<float>(),
                                  out.data<float>(), m, nn, k,
                                  gemm_variant);
            });
            gemm_flops += sod2::matmulFlops(shapes[0], shapes[1]);
        }
    }
    (*metrics)["kernels.conv_gflops"] = conv_s > 0 ? conv_flops / conv_s * 1e-9 : 0;
    (*metrics)["kernels.gemm_gflops"] = gemm_s > 0 ? gemm_flops / gemm_s * 1e-9 : 0;
}

}  // namespace ledger
