/**
 * @file
 * Workload table and seeded request streams. A request is a pure
 * function of (workload, seed, index), so a run can be replayed request
 * by request (the output checks regenerate inputs this way) and the
 * ledger's tests can prove the stream deterministic.
 */

#include <algorithm>
#include <cmath>

#include "ledger.h"

namespace ledger {

using sod2::ModelSpec;
using sod2::Rng;
using sod2::Tensor;

namespace {

/** Weights of every model come from this seed; only inputs vary. */
constexpr uint64_t kWeightSeed = 0x5eed50d2ULL;
/** Warm-up values come from this seed: set-up is the same work on
 *  every run, whatever --seed is. */
constexpr uint64_t kWarmupSeed = 0x3a7f00d5ULL;
/** Size strata per model (see requestAt). */
constexpr int64_t kStrata = 64;
/** fleet_open: arrival-gap strata (see requestAt). */
constexpr int64_t kGapStrata = 64;
/** fleet_open: requests of each model per block of the model order. */
constexpr int64_t kFleetMixBlock = 4;
/** Key tags that keep the block permutations' random streams apart from
 *  the per-request ones (and from each other). */
constexpr uint64_t kOrderTag = 0x6f72646572000000ULL;
constexpr uint64_t kStrataTag = 0x7374726174000000ULL;
constexpr uint64_t kGapTag = 0x6761707300000000ULL;

uint64_t
mix(uint64_t seed, uint64_t index)
{
    Rng r(seed * 0x9e3779b97f4a7c15ULL ^
          (index + 1) * 0xd1b54a32d192ed03ULL);
    return r.next();
}

/** A permutation of 0..n-1 drawn from @p key. */
std::vector<int64_t>
seededPermutation(uint64_t key, int64_t n)
{
    Rng r(key);
    std::vector<int64_t> perm(n);
    for (int64_t i = 0; i < n; ++i)
        perm[i] = i;
    for (int64_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[r.uniformInt(0, i)]);
    return perm;
}

}  // namespace

const std::vector<WorkloadDef>&
workloads()
{
    static const std::vector<WorkloadDef> kAll = {
        {"vision_stream",
         {"YOLO-V6", "SkipNet", "DGNet", "ConvNet-AIG", "RaNet",
          "BlockDrop"},
         false,
         100.0},
        {"sequence_stream",
         {"SDE", "SegmentAnything", "Conformer", "CodeBERT"},
         false,
         50.0},
        {"fleet_open", {"DGNet", "CodeBERT"}, true, 100.0},
    };
    return kAll;
}

const WorkloadDef*
findWorkload(const std::string& name)
{
    for (const WorkloadDef& wl : workloads())
        if (wl.name == name)
            return &wl;
    return nullptr;
}

std::vector<ModelSpec>
buildModels(const WorkloadDef& wl)
{
    std::vector<ModelSpec> models;
    for (const std::string& name : wl.models) {
        Rng weights(kWeightSeed);
        models.push_back(sod2::buildModel(name, weights));
    }
    return models;
}

RequestSpec
requestAt(const WorkloadDef& wl, const std::vector<ModelSpec>& models,
          uint64_t seed, uint64_t index)
{
    Rng r(mix(seed, index));
    const int64_t count = static_cast<int64_t>(models.size());
    RequestSpec q;
    // k: how many earlier requests of the stream went to the same model.
    uint64_t k = 0;
    if (wl.fleet && index < kBurstBase) {
        // Models in seeded order within blocks that hold each model
        // equally often: the mix is exact, the sequence unpredictable.
        const int64_t block = kFleetMixBlock * count;
        const std::vector<int64_t> order = seededPermutation(
            mix(seed ^ kOrderTag, index / block), block);
        const int64_t pos = static_cast<int64_t>(index % block);
        q.model = static_cast<int>(order[pos] % count);
        k = index / block * kFleetMixBlock;
        for (int64_t j = 0; j < pos; ++j)
            k += order[j] % count == q.model;
        // Exponential gaps from stratified uniforms: every block of
        // kGapStrata arrivals draws one u from each of kGapStrata equal
        // slices of [0, 1), in seeded order, so each run sees nearly the
        // same gap mix. 1 - u is in (0, 1], so the log is finite.
        const int64_t slice = seededPermutation(
            mix(seed ^ kGapTag, index / kGapStrata),
            kGapStrata)[index % kGapStrata];
        const double u = (slice + r.uniformFloat()) / kGapStrata;
        q.gapSeconds = -std::log(1.0 - u) / kFleetRateRps;
    } else {
        // Round-robin: the engine workloads, and the fleet's bursts (an
        // exact half-and-half mix keeps every burst the same work).
        q.model = static_cast<int>(index % static_cast<uint64_t>(count));
        k = index / count;
    }
    // Sizes are uniform over the model's legal range, drawn stratified:
    // the range's legal steps are cut into up to kStrata equal strata and
    // every block of that many requests of one model visits each stratum
    // once, in a seeded order. The marginal stays uniform, but every run
    // sees nearly the same size mix, which keeps per-model medians from
    // jumping between seeds.
    const ModelSpec& m = models[q.model];
    const int64_t steps = (m.maxSize - m.minSize) / m.sizeMultiple + 1;
    const int64_t strata = std::min<int64_t>(kStrata, steps);
    const int64_t stratum = seededPermutation(
        mix(mix(seed ^ kStrataTag, static_cast<uint64_t>(q.model)),
            k / strata),
        strata)[k % strata];
    const int64_t lo = stratum * steps / strata;
    const int64_t hi = (stratum + 1) * steps / strata - 1;
    q.size = m.legalizeSize(m.minSize +
                            m.sizeMultiple * r.uniformInt(lo, hi));
    q.valueSeed = r.next();
    return q;
}

std::vector<RequestSpec>
warmupPrefix(const std::vector<ModelSpec>& models)
{
    std::vector<RequestSpec> prefix;
    for (size_t m = 0; m < models.size(); ++m) {
        for (int64_t size : {models[m].maxSize, models[m].minSize}) {
            RequestSpec q;
            q.model = static_cast<int>(m);
            q.size = size;
            q.valueSeed = mix(kWarmupSeed, prefix.size());
            prefix.push_back(q);
        }
    }
    return prefix;
}

std::vector<Tensor>
inputsFor(const ModelSpec& model, const RequestSpec& r)
{
    Rng values(r.valueSeed);
    return model.sample(values, r.size);
}

sod2::Sod2Options
engineOptions(const ModelSpec& model)
{
    sod2::Sod2Options o;
    o.rdp = model.rdp;
    o.device = sod2::DeviceProfile::mobileCpu();
    return o;
}

}  // namespace ledger
