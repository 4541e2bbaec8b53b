// gmdf_campaign — automated fault-hunt campaigns from the command line.
//
//   gmdf_campaign [--pairs N] [--seed S] [--threads N|-j N] [--json] [--verbose]
//   gmdf_campaign --chaos [--pairs N] [--seed S] [--fault-rate F]
//                 [--rounds N] [--verbose]
//
// Default mode generates N seeded (model, injected-fault) pairs, runs
// each as twin fleet sessions with a differential check, localizes
// every detected divergence (replay bisect, twin-trace diff fallback),
// and prints the per-fault-kind report. Each pair is one task; -j N
// runs the tasks on min(N, pairs, 256) workers and prints the same
// report. Exit status 0 iff every pair classified (localized / clean /
// skipped) — CI's campaign gate.
//
// --chaos turns the campaign on the debug service itself: a live hub +
// TCP server behind a seeded fault-injecting proxy, N reconnecting
// clients (--pairs) driving .gds workloads at --fault-rate (a fraction;
// 0.1 faults 10% of forwarded chunks). Exit status 0 iff the hub
// survives and every client classifies — CI's chaos gate.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "campaign/chaos.hpp"
#include "campaign/runner.hpp"
#include "proto/message.hpp"

namespace {

void print_json(const gmdf::campaign::CampaignReport& report) {
    std::printf("{\n  \"pairs\": %zu,\n  \"seed\": %u,\n", report.pairs.size(),
                report.config.seed);
    std::printf("  \"localized\": %d,\n  \"clean\": %d,\n  \"skipped\": %d,\n",
                report.localized, report.clean, report.skipped);
    std::printf("  \"unclassified\": %d,\n  \"by_kind\": {\n", report.unclassified());
    const auto kinds = gmdf::codegen::all_fault_kinds();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        auto it = report.by_kind.find(kinds[i]);
        const gmdf::campaign::KindTally k =
            it == report.by_kind.end() ? gmdf::campaign::KindTally{} : it->second;
        std::printf("    \"%s\": {\"pairs\": %d, \"localized\": %d, \"bisect\": %d, "
                    "\"differential\": %d, \"clean\": %d, \"skipped\": %d}%s\n",
                    gmdf::codegen::to_string(kinds[i]), k.pairs, k.localized, k.bisect,
                    k.differential, k.clean, k.skipped,
                    i + 1 < kinds.size() ? "," : "");
    }
    std::printf("  }\n}\n");
}

/// Parses a whole decimal flag value in [lo, max of T]; false, with the
/// reason on stderr, on junk, a sign, overflow or a value out of range.
template <typename T>
bool parse_number(const std::string& flag, const char* text, std::uint64_t lo, T& out) {
    const auto v = gmdf::proto::parse_u64(text);
    if (!v.has_value() || *v < lo ||
        *v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        std::fprintf(stderr, "gmdf_campaign: bad value '%s' for %s\n", text, flag.c_str());
        return false;
    }
    out = static_cast<T>(*v);
    return true;
}

/// Parses a fault rate: a finite fraction in [0, 1].
bool parse_rate(const std::string& flag, const char* text, double& out) {
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0 || v > 1.0) {
        std::fprintf(stderr, "gmdf_campaign: bad value '%s' for %s\n", text, flag.c_str());
        return false;
    }
    out = v;
    return true;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--pairs N] [--seed S] [--threads N|-j N] [--json] "
                 "[--verbose]\n"
                 "       %s --chaos [--pairs N] [--seed S] [--fault-rate F] "
                 "[--rounds N] [--verbose]\n",
                 argv0, argv0);
    return 2;
}

int run_chaos(const gmdf::campaign::ChaosCampaignConfig& cfg, bool verbose) {
    const gmdf::campaign::ChaosReport report = gmdf::campaign::run_chaos_campaign(cfg);
    if (verbose) {
        for (const auto& c : report.clients)
            std::printf("client %d %s: %llu requests %llu errors %llu reconnects%s%s\n",
                        c.index, gmdf::campaign::to_string(c.outcome),
                        static_cast<unsigned long long>(c.requests),
                        static_cast<unsigned long long>(c.errors),
                        static_cast<unsigned long long>(c.reconnects),
                        c.detail.empty() ? "" : " — ", c.detail.c_str());
    }
    for (const std::string& line : report.summary_lines())
        std::printf("%s\n", line.c_str());
    return report.passed() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    gmdf::campaign::CampaignConfig cfg;
    gmdf::campaign::ChaosCampaignConfig chaos_cfg;
    bool chaos = false;
    bool json = false;
    bool verbose = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        bool ok = true;
        if (arg == "--chaos") {
            chaos = true;
        } else if (arg == "--fault-rate" && has_value) {
            ok = parse_rate(arg, argv[++i], chaos_cfg.fault_rate);
        } else if (arg == "--rounds" && has_value) {
            ok = parse_number(arg, argv[++i], 1, chaos_cfg.rounds);
        } else if (arg == "--pairs" && has_value) {
            ok = parse_number(arg, argv[++i], 1, cfg.pairs);
            chaos_cfg.clients = cfg.pairs;
        } else if (arg == "--seed" && has_value) {
            ok = parse_number(arg, argv[++i], 0, cfg.seed);
            chaos_cfg.seed = cfg.seed;
        } else if ((arg == "--threads" || arg == "-j") && has_value) {
            ok = parse_number(arg, argv[++i], 1, cfg.threads);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            return usage(argv[0]);
        }
        if (!ok) return usage(argv[0]);
    }

    if (chaos) return run_chaos(chaos_cfg, verbose);

    const gmdf::campaign::CampaignReport report = gmdf::campaign::run_campaign(cfg);

    if (verbose) {
        for (const auto& p : report.pairs)
            std::printf("pair %d seed %u %s: %s%s%s %s\n", p.index, p.model_seed,
                        gmdf::codegen::to_string(p.kind),
                        gmdf::campaign::to_string(p.outcome),
                        p.outcome == gmdf::campaign::Outcome::Localized ? " via " : "",
                        p.outcome == gmdf::campaign::Outcome::Localized
                            ? gmdf::campaign::to_string(p.method)
                            : "",
                        p.detail.c_str());
    }
    if (json) {
        print_json(report);
    } else {
        for (const std::string& line : report.summary_lines())
            std::printf("%s\n", line.c_str());
    }
    return report.unclassified() == 0 ? 0 : 1;
}
