/**
 * @file
 * ledger --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
 *
 * Runs one workload and prints, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1 (which
 * also writes the run's spans to PATH). Lines before it, each starting
 * with '#', give the host/build fingerprint and a readable copy of the
 * numbers. Exits 1 when an output check fails, 2 on bad arguments, 3
 * when the environment would change the program under test.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger.h"

namespace {

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "ledger: %s\nusage: ledger --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\nworkloads:",
                 why);
    for (const ledger::WorkloadDef& wl : ledger::workloads())
        std::fprintf(stderr, " %s", wl.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, spans_path;
    long long seed = -1, trace = -1;
    double seconds = 0.0;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            return usage("missing value for the last flag");
        const std::string flag = argv[i];
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--spans") {
            spans_path = value;
        } else if (flag == "--seed") {
            seed = std::strtoll(value, &end, 10);
        } else if (flag == "--seconds") {
            seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            trace = std::strtoll(value, &end, 10);
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad value for " + flag).c_str());
    }
    const ledger::WorkloadDef* wl = ledger::findWorkload(workload);
    if (!wl)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (seed < 0 || !(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("need --seed >= 0, --seconds > 0 and --trace 0|1");

    const std::string refused = ledger::refusedEnvironment();
    if (!refused.empty()) {
        std::fprintf(stderr, "ledger: refusing to run: %s\n",
                     refused.c_str());
        return 3;
    }
    std::printf("# fingerprint %s\n", ledger::fingerprintJson().c_str());
    std::printf("# workload %s seed %lld seconds %g trace %lld\n",
                wl->name.c_str(), seed, seconds, trace);
    std::fflush(stdout);

    ledger::RunConfig cfg;
    cfg.workload = wl;
    cfg.seed = static_cast<uint64_t>(seed);
    cfg.seconds = seconds;
    cfg.trace = trace == 1;
    ledger::SpanLog spans(cfg.trace);
    ledger::Outcome out;
    try {
        out = wl->fleet ? ledger::runFleetWorkload(cfg, spans)
                        : ledger::runEngineWorkload(cfg, spans);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ledger: workload aborted: %s\n", e.what());
        return 1;
    }
    // A per-layer metric of a layer the workload bypasses reads 0; an
    // end-to-end metric is always measured, so a missing one is a bug.
    const auto& table =
        cfg.trace ? ledger::perLayerMetrics() : ledger::endToEndMetrics();
    std::string json;
    for (const ledger::MetricSpec& spec : table) {
        auto it = out.metrics.find(spec.name);
        if (it == out.metrics.end() && !cfg.trace) {
            std::fprintf(stderr, "ledger: %s was not measured\n", spec.name);
            return 1;
        }
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "ledger: %s is not finite\n", spec.name);
            return 1;
        }
        std::printf("# %-26s %.6g %s\n", spec.name, v, spec.unit);
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", spec.name, v, spec.unit);
        json += buf;
    }
    std::printf("# fail_rate %.6g (%llu failed or shed, %llu wrong, of "
                "%llu attempted)\n",
                out.attempted ? double(out.failed) / out.attempted : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.wrong),
                static_cast<unsigned long long>(out.attempted));
    if (cfg.trace && !spans_path.empty()) {
        if (!spans.write(spans_path)) {
            std::fprintf(stderr, "ledger: cannot write %s\n",
                         spans_path.c_str());
            return 1;
        }
        std::printf("# spans %zu written to %s\n", spans.size(),
                    spans_path.c_str());
    }
    const bool correct = out.wrong == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), json.c_str());
    return correct ? 0 : 1;
}
