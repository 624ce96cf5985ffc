/**
 * @file
 * Statistics, spans, output checks, the metric tables, the environment
 * guard and the host/build fingerprint.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "kernels/device_profile.h"
#include "ledger.h"
#include "support/threadpool.h"

extern char** environ;

namespace ledger {

using sod2::DType;
using sod2::Tensor;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / v.size());
}

// --- spans --------------------------------------------------------------

uint64_t
SpanLog::newId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
}

void
SpanLog::record(const char* name, Clock::time_point start,
                Clock::time_point end, uint64_t id, uint64_t parent,
                uint64_t request)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, start, end, id, parent, request});
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    // Chrome trace-event JSON: one lane (tid) per request, 0 = set-up.
    out << "{\"traceEvents\":[";
    char buf[320];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
            "\"parent\":%llu,\"request\":%llu}}",
            i ? "," : "", s.name,
            static_cast<unsigned long long>(s.request),
            secondsBetween(origin_, s.start) * 1e6,
            secondsBetween(s.start, s.end) * 1e6,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.request));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// --- output checks ------------------------------------------------------

std::vector<Tensor>
snapshot(const std::vector<Tensor>& outputs)
{
    std::vector<Tensor> copies;
    copies.reserve(outputs.size());
    for (const Tensor& t : outputs)
        copies.push_back(t.clone());
    return copies;
}

namespace {

bool
sameLayout(const std::vector<Tensor>& got, const std::vector<Tensor>& ref,
           std::string* why)
{
    if (got.size() != ref.size()) {
        *why = "output count " + std::to_string(got.size()) + " vs " +
               std::to_string(ref.size());
        return false;
    }
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].dtype() != ref[i].dtype() ||
            got[i].shape() != ref[i].shape()) {
            *why = "output " + std::to_string(i) + " layout " +
                   got[i].shape().toString() + " vs " +
                   ref[i].shape().toString();
            return false;
        }
    }
    return true;
}

}  // namespace

bool
withinTolerance(const std::vector<Tensor>& got,
                const std::vector<Tensor>& ref, double rtol,
                std::string* why)
{
    if (!sameLayout(got, ref, why))
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].dtype() != DType::kFloat32) {
            if (std::memcmp(got[i].raw(), ref[i].raw(),
                            ref[i].byteSize()) != 0) {
                *why = "output " + std::to_string(i) + " differs";
                return false;
            }
            continue;
        }
        const float* a = got[i].data<float>();
        const float* b = ref[i].data<float>();
        const int64_t n = ref[i].shape().numElements();
        double scale = 0.0, err = 0.0;
        for (int64_t k = 0; k < n; ++k) {
            // NaN compares false everywhere: make it fail explicitly.
            if (std::isnan(a[k]) != std::isnan(b[k])) {
                *why = "output " + std::to_string(i) + " NaN mismatch";
                return false;
            }
            scale = std::max(scale, std::fabs(static_cast<double>(b[k])));
            err = std::max(err, std::fabs(static_cast<double>(a[k]) - b[k]));
        }
        if (err > rtol * std::max(scale, 1e-30)) {
            std::ostringstream s;
            s << "output " << i << " max error " << err << " vs scale "
              << scale;
            *why = s.str();
            return false;
        }
    }
    return true;
}

bool
bytesEqual(const std::vector<Tensor>& got, const std::vector<Tensor>& ref,
           std::string* why)
{
    if (!sameLayout(got, ref, why))
        return false;
    for (size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(got[i].raw(), ref[i].raw(), ref[i].byteSize()) !=
            0) {
            *why = "output " + std::to_string(i) + " bytes differ";
            return false;
        }
    }
    return true;
}

// --- metric tables ------------------------------------------------------

const std::vector<MetricSpec>&
endToEndMetrics()
{
    static const std::vector<MetricSpec> kAll = {
        {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
        {"model_geomean_ms", "ms"}, {"capacity_rps", "1/s"},
        {"slo_attain", "share"},    {"peak_mem_mb", "MB"},
        {"rss_peak_mb", "MB"},      {"setup_s", "s"},
    };
    return kAll;
}

const std::vector<MetricSpec>&
perLayerMetrics()
{
    static const std::vector<MetricSpec> kAll = {
        {"rdp.analyze_ms", "ms"},
        {"fusion.plan_ms", "ms"},
        {"planning.sep_ms", "ms"},
        {"core.compile_ms", "ms"},
        {"core.warmup_s", "s"},
        {"fusion.groups", "count"},
        {"core.bind_us", "us"},
        {"core.plan_hit_ratio", "share"},
        {"core.plan_hit_us", "us"},
        {"core.plan_miss_us", "us"},
        {"engine.host_us", "us"},
        {"support.parallel_for_us", "us"},
        {"kernels.conv_ms", "ms"},
        {"kernels.conv_share", "share"},
        {"kernels.matmul_ms", "ms"},
        {"kernels.matmul_share", "share"},
        {"kernels.norm_softmax_ms", "ms"},
        {"kernels.data_movement_ms", "ms"},
        {"kernels.elementwise_ms", "ms"},
        {"kernels.other_ms", "ms"},
        {"kernels.conv_gflops", "GFLOP/s"},
        {"kernels.gemm_gflops", "GFLOP/s"},
        {"kernels.peak_gflops", "GFLOP/s"},
        {"memory.arena_mb", "MB"},
        {"memory.dynamic_mb", "MB"},
        {"fleet.submit_us", "us"},
        {"fleet.route_us", "us"},
        {"serving.queue_wait_p50_ms", "ms"},
        {"serving.queue_wait_p99_ms", "ms"},
        {"serving.service_p50_ms", "ms"},
        {"serving.batch_mean", "count"},
        {"serving.busy_share_max", "share"},
        {"serving.busy_share_min", "share"},
        {"serving.shed", "count"},
        {"serving.expired", "count"},
        {"fleet.failovers", "count"},
        {"fleet.governor_denials", "count"},
        {"fleet.resident_arena_mb", "MB"},
        {"gen.late_p99_ms", "ms"},
        {"trace.overhead_pct", "%"},
    };
    return kAll;
}

// --- environment and fingerprint ----------------------------------------

std::string
refusedEnvironment()
{
    // Knobs that change what the program under test does. SOD2_NUM_THREADS
    // is allowed: it is reported as intra_op_threads in the fingerprint.
    static const char* const kPrefixes[] = {
        "SOD2_TRACE",     "SOD2_FAULT",   "SOD2_VALIDATE_PLANS",
        "SOD2_SPECIALIZE", "SOD2_SERVER_", "SOD2_BATCH_",
        "SOD2_BREAKER_",  "SOD2_RETRY_",  "SOD2_FLEET_",
        "SOD2_ARENA_BUDGET", "SOD2_SNAPSHOT", "SOD2_WATCHDOG_",
    };
    std::string refused;
    for (char** e = environ; e && *e; ++e) {
        const std::string entry(*e);
        const std::string name = entry.substr(0, entry.find('='));
        for (const char* prefix : kPrefixes) {
            if (name.rfind(prefix, 0) == 0) {
                refused += (refused.empty() ? "" : ", ") + name;
                break;
            }
        }
    }
    if (!refused.empty())
        return "environment sets " + refused +
               ", which changes the program under test; unset it";
    if (sod2::DeviceProfile::mobileCpu().simulated)
        return "DeviceProfile::mobileCpu() is simulated; its times are "
               "cost-model time, not wall time";
    return "";
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

}  // namespace

std::string
fingerprintJson()
{
    __builtin_cpu_init();
    std::ostringstream s;
    s << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu\":" << jsonString(cpuModel())
      << ",\"avx2\":" << (__builtin_cpu_supports("avx2") ? "true" : "false")
      << ",\"avx512f\":"
      << (__builtin_cpu_supports("avx512f") ? "true" : "false")
      << ",\"compiler\":" << jsonString(LEDGER_COMPILER)
      << ",\"build_type\":" << jsonString(LEDGER_BUILD_TYPE)
      << ",\"flags\":" << jsonString(LEDGER_BUILD_FLAGS)
      // Pool workers plus the calling thread, which joins every parallelFor.
      << ",\"intra_op_threads\":"
      << sod2::ThreadPool::global().numThreads() + 1
      << ",\"device\":" << jsonString(sod2::DeviceProfile::mobileCpu().name)
      << "}";
    return s.str();
}

double
rssPeakMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

}  // namespace ledger
