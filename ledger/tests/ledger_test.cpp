/**
 * @file
 * The ledger's own tests: request streams are a pure function of the
 * seed, the output checks accept float re-association but reject a
 * displaced buffer, the environment guard refuses behavior knobs, and
 * the metric tables the binary prints match BENCHMARK.json.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "ledger.h"

using namespace ledger;
using sod2::Tensor;

namespace {

/** The first @p n requests of a stream plus the input bytes of the
 *  first @p withInputs of them, as one comparable string. */
std::string
streamDigest(const WorkloadDef& wl, uint64_t seed, uint64_t n,
             uint64_t withInputs)
{
    const std::vector<sod2::ModelSpec> models = buildModels(wl);
    std::ostringstream s;
    for (uint64_t i = 0; i < n; ++i) {
        const RequestSpec q = requestAt(wl, models, seed, i);
        s << q.model << ':' << q.size << ':' << q.valueSeed << ':'
          << q.gapSeconds << ';';
        if (i < withInputs) {
            for (const Tensor& t : inputsFor(models[q.model], q))
                s.write(static_cast<const char*>(t.raw()),
                        static_cast<std::streamsize>(t.byteSize()));
        }
    }
    return s.str();
}

std::vector<std::string>
namesIn(const std::string& json, const std::string& section)
{
    // Minimal scan: every "name": "..." between the section key and the
    // closing bracket of its list.
    std::vector<std::string> names;
    size_t pos = json.find("\"" + section + "\"");
    const size_t end = json.find(']', pos);
    while (pos != std::string::npos) {
        pos = json.find("\"name\"", pos);
        if (pos == std::string::npos || pos > end)
            break;
        const size_t open = json.find('"', json.find(':', pos) + 1);
        const size_t close = json.find('"', open + 1);
        names.push_back(json.substr(open + 1, close - open - 1));
        pos = close;
    }
    return names;
}

}  // namespace

TEST(Stream, SameSeedSameStreamDifferentSeedDifferentStream)
{
    for (const WorkloadDef& wl : workloads()) {
        SCOPED_TRACE(wl.name);
        const std::string a = streamDigest(wl, 11, 200, 6);
        EXPECT_EQ(a, streamDigest(wl, 11, 200, 6));
        EXPECT_NE(a, streamDigest(wl, 12, 200, 6));
    }
}

TEST(Stream, SizesCoverEachModelsLegalRange)
{
    const WorkloadDef& wl = *findWorkload("vision_stream");
    const std::vector<sod2::ModelSpec> models = buildModels(wl);
    std::vector<std::set<int64_t>> seen(models.size());
    for (uint64_t i = 0; i < 3000; ++i) {
        const RequestSpec q = requestAt(wl, models, 5, i);
        const sod2::ModelSpec& m = models[q.model];
        ASSERT_EQ(q.size, m.legalizeSize(q.size));
        seen[q.model].insert(q.size);
    }
    for (size_t mi = 0; mi < models.size(); ++mi) {
        const sod2::ModelSpec& m = models[mi];
        EXPECT_EQ(*seen[mi].begin(), m.minSize) << m.name;
        EXPECT_EQ(*seen[mi].rbegin(), m.maxSize) << m.name;
        EXPECT_EQ(static_cast<int64_t>(seen[mi].size()),
                  (m.maxSize - m.minSize) / m.sizeMultiple + 1)
            << m.name;
    }
}

TEST(Stream, WarmupCoversEachModelsExtremes)
{
    const WorkloadDef& wl = *findWorkload("sequence_stream");
    const std::vector<sod2::ModelSpec> models = buildModels(wl);
    const std::vector<RequestSpec> prefix = warmupPrefix(models);
    ASSERT_EQ(prefix.size(), 2 * models.size());
    for (size_t i = 0; i < prefix.size(); ++i) {
        const sod2::ModelSpec& m = models[prefix[i].model];
        EXPECT_EQ(prefix[i].size, i % 2 ? m.minSize : m.maxSize);
    }
}

TEST(Stream, FleetBurstsSplitEvenlyAndArrivalsAverageTheRate)
{
    const WorkloadDef& wl = *findWorkload("fleet_open");
    const std::vector<sod2::ModelSpec> models = buildModels(wl);
    int per_model[2] = {0, 0};
    for (int j = 0; j < kBurstSize; ++j)
        ++per_model[requestAt(wl, models, 3, kBurstBase + j).model];
    EXPECT_EQ(per_model[0], kBurstSize / 2);
    EXPECT_EQ(per_model[1], kBurstSize / 2);
    double gaps = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        gaps += requestAt(wl, models, 3, i).gapSeconds;
    EXPECT_NEAR(n / gaps, kFleetRateRps, 0.05 * kFleetRateRps);
}

TEST(Stream, FleetStrataCountPerModelAndGapsCoverEverySlice)
{
    const WorkloadDef& wl = *findWorkload("fleet_open");
    const std::vector<sod2::ModelSpec> models = buildModels(wl);
    // Strata per model and gap slices per block, as in stream.cpp.
    constexpr int64_t kBlock = 64;
    std::vector<std::set<int64_t>> strata(models.size());
    std::vector<int64_t> seen(models.size(), 0);
    std::set<int64_t> slices;
    for (uint64_t i = 0; i < 8 * kBlock; ++i) {
        const RequestSpec q = requestAt(wl, models, 9, i);
        if (i < kBlock) {
            const double u = 1.0 - std::exp(-q.gapSeconds * kFleetRateRps);
            slices.insert(static_cast<int64_t>(u * kBlock + 1e-9));
        }
        const sod2::ModelSpec& m = models[q.model];
        const int64_t steps = (m.maxSize - m.minSize) / m.sizeMultiple + 1;
        const int64_t n = std::min(kBlock, steps);
        if (seen[q.model]++ >= n)
            continue;
        // The first n requests of a model fall in n different strata.
        const int64_t step = (q.size - m.minSize) / m.sizeMultiple;
        for (int64_t s = 0; s < n; ++s)
            if (s * steps / n <= step && step < (s + 1) * steps / n)
                strata[q.model].insert(s);
    }
    EXPECT_EQ(static_cast<int64_t>(slices.size()), kBlock);
    for (size_t mi = 0; mi < models.size(); ++mi) {
        const sod2::ModelSpec& m = models[mi];
        const int64_t steps = (m.maxSize - m.minSize) / m.sizeMultiple + 1;
        EXPECT_EQ(static_cast<int64_t>(strata[mi].size()),
                  std::min(kBlock, steps))
            << m.name;
    }
}

TEST(Checks, ToleranceAcceptsReassociationRejectsDisplacedData)
{
    sod2::Rng rng(1);
    Tensor ref = Tensor::randomUniform(sod2::Shape({4, 64}), rng);
    Tensor near = ref.clone();
    near.data<float>()[3] *= 1.0f + 1e-6f;
    std::string why;
    EXPECT_TRUE(withinTolerance({near}, {ref}, kReferenceRtol, &why)) << why;

    // A buffer read at the wrong offset: same values, shifted by one.
    Tensor shifted = ref.clone();
    std::memmove(shifted.data<float>() + 1, ref.data<float>(),
                 (ref.shape().numElements() - 1) * sizeof(float));
    EXPECT_FALSE(withinTolerance({shifted}, {ref}, kReferenceRtol, &why));
    EXPECT_FALSE(bytesEqual({near}, {ref}, &why));
    EXPECT_TRUE(bytesEqual({ref.clone()}, {ref}, &why));

    Tensor nan = ref.clone();
    nan.data<float>()[0] = std::nanf("");
    EXPECT_FALSE(withinTolerance({nan}, {ref}, kReferenceRtol, &why));
}

TEST(Environment, RefusesBehaviorKnobs)
{
    ASSERT_EQ(refusedEnvironment(), "");
    for (const char* knob :
         {"SOD2_TRACE", "SOD2_SPECIALIZE_AFTER", "SOD2_SERVER_WORKERS",
          "SOD2_FLEET_ROUTING", "SOD2_ARENA_BUDGET"}) {
        setenv(knob, "1", 1);
        EXPECT_NE(refusedEnvironment().find(knob), std::string::npos);
        unsetenv(knob);
    }
    setenv("SOD2_NUM_THREADS", "2", 1);
    EXPECT_EQ(refusedEnvironment(), "");
    unsetenv("SOD2_NUM_THREADS");
}

TEST(Report, QuantilesAndGeomean)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.5), 500);
    EXPECT_EQ(quantile(v, 0.99), 990);
    EXPECT_NEAR(geomean({1.0, 100.0}), 10.0, 1e-12);
}

TEST(Report, MetricTablesMatchBenchmarkJson)
{
    std::ifstream in(std::string(LEDGER_SOURCE_DIR) + "/../BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found next to ledger/";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();
    std::vector<std::string> e2e, layer, wls;
    for (const MetricSpec& m : endToEndMetrics())
        e2e.push_back(m.name);
    for (const MetricSpec& m : perLayerMetrics())
        layer.push_back(m.name);
    for (const WorkloadDef& wl : workloads())
        wls.push_back(wl.name);
    EXPECT_EQ(namesIn(json, "end_to_end"), e2e);
    EXPECT_EQ(namesIn(json, "per_layer"), layer);
    EXPECT_EQ(namesIn(json, "workloads"), wls);
}
